//! The sweep-throughput benchmark (beyond the paper's evaluation):
//! full-sweep scenarios/second and compile-cache hit rate over a
//! seed×noise grid at 1/4/8 worker threads, cached (the shared
//! `CompileCache` `run_sweep` uses) versus uncached (a fresh compile per
//! grid point, the pre-cache behavior).
//!
//! `cargo bench -p hisq-bench --bench sweep_throughput` rewrites
//! `BENCH_sweep_throughput.json`, and `-- --quick` times the reduced
//! grid once and writes nothing. `-- --gate` is CI's regression gate: it
//! re-times the full grid, writes nothing, and exits 1 if any thread
//! count's cached scenarios/sec fell more than 15% below its committed
//! row (see `hisq_bench::gate`).

use hisq_bench::gate::{number, Report, Run, SWEEP_THROUGHPUT};
use hisq_bench::sweep_throughput::{
    compile_keys, measure_throughput, throughput_scenarios, THREAD_AXIS,
};

/// Full-sweep timing iterations per (threads, flavor) pair; the
/// reported statistic is the minimum.
const ITERS: u32 = 7;
/// Iterations under `--quick`.
const QUICK_ITERS: u32 = 1;

fn main() {
    let run = SWEEP_THROUGHPUT.start();
    let quick = matches!(run, Run::Quick);
    let scenarios = throughput_scenarios(quick);
    let keys = compile_keys(&scenarios);
    let iters = if quick { QUICK_ITERS } else { ITERS };
    eprintln!(
        "[sweep_throughput] {} scenarios over {keys} compile keys, threads {THREAD_AXIS:?}, \
         {iters} iteration(s) per flavor (cached = shared CompileCache, uncached = fresh \
         compile per point)...",
        scenarios.len()
    );

    let rows = Vec::from(THREAD_AXIS.map(|threads| {
        let row = measure_throughput(&scenarios, threads, iters);
        // Wall times carry more digits than the rates: a full quick
        // sweep finishes in tens of milliseconds.
        vec![
            ("threads", row.threads.to_string()),
            ("compiles", row.compiles.to_string()),
            ("cache_hit_rate", number(row.hit_rate, 2)),
            ("cached_s", number(row.cached_s, 4)),
            ("uncached_s", number(row.uncached_s, 4)),
            ("scenarios_per_sec", number(row.scenarios_per_sec, 2)),
            (
                "uncached_scenarios_per_sec",
                number(row.uncached_scenarios_per_sec, 2),
            ),
            ("speedup", number(row.speedup, 2)),
        ]
    }));
    let head = vec![
        ("quick", quick.to_string()),
        ("scenarios", scenarios.len().to_string()),
        ("compile_keys", keys.to_string()),
    ];
    SWEEP_THROUGHPUT.finish(run, &Report { head, rows });
}
