//! The multi-tenant saturation figure (beyond the paper's evaluation):
//! the job engine serving Poisson traffic of compiled `w_state_n12`
//! jobs, swept over offered load × partition count.
//!
//! Each point offers the machine a target utilization ρ from two
//! tenant streams (interactive priority 0, batch priority 1); every
//! job is a real compiled run (one compile per point, per-job seeds).
//! The table shows the saturation knee: p99 latency diverges as ρ
//! approaches 1 while throughput plateaus at the partition capacity,
//! and the admission bound starts rejecting past it.
//!
//! Honors the shared CLI contract: `--quick` keeps the 2×4 core grid,
//! `--threads N` parallelizes, `--json` emits the raw sweep report
//! (byte-identical across thread counts). The grids are
//! `scenarios/fig_load.json` (`--quick`, a golden-corpus entry whose
//! report is pinned) and `scenarios/full/fig_load.json`.

use hisq_bench::cli::FigArgs;
use hisq_bench::grids::FIG_LOAD;
use hisq_bench::load::fig_load_points;

fn main() {
    let args = FigArgs::parse();
    let (scenarios, report) = FIG_LOAD.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    let points = fig_load_points(&scenarios, &report);
    println!("Multi-tenant job engine: offered load vs latency and throughput");
    println!("(rho = offered load / partition capacity; latency in microseconds)");
    println!("{:-<78}", "");
    println!(
        "{:>10} {:>6} {:>14} {:>8} {:>12} {:>12} {:>8}",
        "partitions", "rho", "jobs/s", "util", "p50 (us)", "p99 (us)", "rejects"
    );
    println!("{:-<78}", "");
    for p in &points {
        println!(
            "{:>10} {:>6.2} {:>14.0} {:>8.3} {:>12.1} {:>12.1} {:>8}",
            p.partitions,
            p.rho,
            p.throughput_jobs_per_s,
            p.utilization,
            p.latency_p50_ns as f64 / 1000.0,
            p.latency_p99_ns as f64 / 1000.0,
            p.rejected
        );
    }
    println!("{:-<78}", "");
    let knee = points
        .iter()
        .filter(|p| p.rho > 1.0)
        .map(|p| p.latency_p99_ns as f64 / 1000.0)
        .fold(f64::NAN, f64::max);
    println!(
        "saturation knee: past rho = 1 the queue pins p99 near {knee:.0} us while \
         throughput plateaus at partition capacity"
    );
}
