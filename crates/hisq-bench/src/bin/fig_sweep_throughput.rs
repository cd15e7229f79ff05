//! Sweep-throughput harness (beyond the paper's evaluation): times
//! full-sweep wall-clock — scenarios/second and compile-cache hit
//! rate — over a seed×noise grid at 1/4/8 worker threads, cached
//! (the shared `CompileCache` `run_sweep` uses) versus uncached (a
//! fresh compile per grid point, the pre-cache behavior).
//!
//! Honors the shared CLI contract: `--quick` trims the grid and the
//! iteration count, `--threads N` restricts the thread axis to one
//! count, `--json` prints the report to stdout. A full (non-quick,
//! non-gate) run also writes the committed baseline
//! `BENCH_sweep_throughput.json` at the workspace root.
//!
//! Pass `--gate` to run the CI regression gate instead: the committed
//! `BENCH_sweep_throughput.json` is read *before* measuring, the full
//! grid is re-timed, and the process exits 1 if any thread-count row's
//! cached scenarios/sec fell more than 15% below the committed value.
//! Gate mode never overwrites the committed baseline. Wall-clock
//! varies machine to machine, so this report is gated — never
//! byte-compared like the deterministic figure reports.

use std::fmt::Write as _;

use hisq_bench::cli::FigArgs;
use hisq_bench::sweep_throughput::{
    compile_keys, measure_throughput, throughput_scenarios, ThroughputRow, THREAD_AXIS,
};
use hisq_json::{Json, ObjReader};

/// `--gate` fails when a row's cached scenarios/sec falls below the
/// committed value divided by this factor (throughput is
/// higher-is-better, so the tolerance divides where the event-engine
/// ns/event gate multiplies).
const GATE_TOLERANCE: f64 = 1.15;

/// Full-sweep timing iterations per (threads, flavor) pair; the
/// reported statistic is the minimum.
const ITERS: u32 = 7;
/// Iterations under `--quick`.
const QUICK_ITERS: u32 = 1;

/// Workspace-root path of the committed benchmark report.
const REPORT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_sweep_throughput.json"
);

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".into()
    }
}

/// Wall-time fields carry more digits than the ratio fields: a full
/// quick sweep finishes in tens of milliseconds.
fn json_secs(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

/// Committed `threads -> scenarios_per_sec` rows, read from
/// `BENCH_sweep_throughput.json` before any measurement.
fn committed_rows() -> Vec<(usize, f64)> {
    let text = std::fs::read_to_string(REPORT_PATH)
        .unwrap_or_else(|e| panic!("--gate needs the committed {REPORT_PATH}: {e}"));
    let json = Json::parse(&text).expect("committed report parses");
    let mut report = ObjReader::new(&json, "report").expect("report is an object");
    report
        .required("results")
        .expect("report.results present")
        .as_array("report.results")
        .expect("report.results is an array")
        .iter()
        .map(|row| {
            let mut row = ObjReader::new(row, "results[]").expect("result row is an object");
            (
                row.required("threads")
                    .expect("row threads")
                    .as_usize("results[].threads")
                    .expect("threads integer"),
                row.required("scenarios_per_sec")
                    .expect("row scenarios_per_sec")
                    .as_f64("results[].scenarios_per_sec")
                    .expect("scenarios_per_sec number"),
            )
        })
        .collect()
}

fn render_json(quick: bool, scenarios: usize, keys: usize, rows: &[ThroughputRow]) -> String {
    let mut json = String::from("{\"benchmark\":\"sweep_throughput\",");
    let _ = write!(
        json,
        "\"quick\":{quick},\"scenarios\":{scenarios},\"compile_keys\":{keys},\"results\":["
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"threads\":{},\"compiles\":{},\"cache_hit_rate\":{},\
             \"cached_s\":{},\"uncached_s\":{},\"scenarios_per_sec\":{},\
             \"uncached_scenarios_per_sec\":{},\"speedup\":{}}}",
            row.threads,
            row.compiles,
            json_f64(row.hit_rate),
            json_secs(row.cached_s),
            json_secs(row.uncached_s),
            json_f64(row.scenarios_per_sec),
            json_f64(row.uncached_scenarios_per_sec),
            json_f64(row.speedup)
        );
    }
    json.push_str("]}");
    json
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let gate = raw.iter().any(|arg| arg == "--gate");
    raw.retain(|arg| arg != "--gate");
    // `--threads N` restricts the 1/4/8 axis to one count, so detect
    // whether the flag was given at all before FigArgs applies its
    // default of 1.
    let threads_given = raw.iter().any(|arg| arg.starts_with("--threads"));
    let args = match FigArgs::parse_from(raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if !args.positional.is_empty() {
        eprintln!("fig_sweep_throughput takes no positional arguments");
        std::process::exit(2);
    }
    if gate && (args.quick || threads_given) {
        eprintln!("--gate measures the full grid on the full thread axis (no --quick/--threads)");
        std::process::exit(2);
    }
    // Read the committed baseline before measuring.
    let committed = if gate { committed_rows() } else { Vec::new() };

    let scenarios = throughput_scenarios(args.quick);
    let keys = compile_keys(&scenarios);
    let thread_axis: Vec<usize> = if threads_given {
        vec![args.threads]
    } else {
        THREAD_AXIS.to_vec()
    };
    let iters = if args.quick { QUICK_ITERS } else { ITERS };
    eprintln!(
        "[fig_sweep_throughput] {} scenarios over {keys} compile keys, threads {thread_axis:?}, \
         {iters} iteration(s) per flavor...",
        scenarios.len()
    );

    let rows: Vec<ThroughputRow> = thread_axis
        .iter()
        .map(|&threads| measure_throughput(&scenarios, threads, iters))
        .collect();

    let json = render_json(args.quick, scenarios.len(), keys, &rows);
    if args.json {
        println!("{json}");
    } else {
        println!("sweep throughput: full-sweep scenarios/sec (higher is better)");
        println!(
            "({} scenarios, {keys} compile keys; cached = shared CompileCache, \
             uncached = fresh compile per point)",
            scenarios.len()
        );
        println!("{:-<76}", "");
        println!(
            "{:>8} {:>10} {:>12} {:>14} {:>14} {:>9}",
            "threads", "compiles", "hit rate", "cached sc/s", "uncached sc/s", "speedup"
        );
        println!("{:-<76}", "");
        for row in &rows {
            println!(
                "{:>8} {:>10} {:>11.1}% {:>14.1} {:>14.1} {:>8.2}x",
                row.threads,
                row.compiles,
                row.hit_rate * 100.0,
                row.scenarios_per_sec,
                row.uncached_scenarios_per_sec,
                row.speedup
            );
        }
        println!("{:-<76}", "");
    }

    if gate {
        // The scenarios/sec regression gate: every committed row must
        // be reproduced within GATE_TOLERANCE on this machine.
        let mut failed = false;
        for (threads, committed_sps) in &committed {
            let Some(row) = rows.iter().find(|row| row.threads == *threads) else {
                println!("gate MISSING {threads} threads: row not measured");
                failed = true;
                continue;
            };
            let floor = committed_sps / GATE_TOLERANCE;
            if row.scenarios_per_sec < floor {
                println!(
                    "gate FAIL {threads} threads: {:.1} scenarios/sec is more than {:.0}% below \
                     committed {committed_sps:.1} (floor {floor:.1})",
                    row.scenarios_per_sec,
                    (GATE_TOLERANCE - 1.0) * 100.0
                );
                failed = true;
            } else {
                println!(
                    "gate ok   {threads} threads: {:.1} scenarios/sec \
                     (committed {committed_sps:.1}, floor {floor:.1})",
                    row.scenarios_per_sec
                );
            }
        }
        if committed.is_empty() {
            println!("gate MISSING: committed report carried no rows");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    // Refresh the committed baseline only on a full run: a --quick
    // smoke pass times a different grid and must never clobber the
    // numbers the gate compares against.
    if !args.quick {
        std::fs::write(REPORT_PATH, format!("{json}\n"))
            .expect("write BENCH_sweep_throughput.json");
        eprintln!("wrote BENCH_sweep_throughput.json (workspace root)");
    }
}
