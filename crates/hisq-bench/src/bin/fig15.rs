//! Regenerates Figure 15: normalized end-to-end runtime of
//! Distributed-HISQ vs the lock-step baseline across the benchmark
//! suite — a (workload × scheme) sweep over `scenarios/full/fig15.json`.
//! Pass `--quick` for the scaled-down twin suite
//! (`scenarios/fig15.json`), `--threads N` to parallelize, `--json` for
//! the raw sweep report.

use hisq_bench::cli::FigArgs;
use hisq_bench::figures::fig15_rows;
use hisq_bench::grids::FIG15;

fn main() {
    let args = FigArgs::parse();
    let (_, report) = FIG15.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    println!("Figure 15: normalized runtime (Distributed-HISQ / lock-step baseline)");
    println!("{:-<86}", "");
    println!(
        "{:<16} {:>14} {:>14} {:>10}   {:>12} {:>12}",
        "benchmark", "bisp (ns)", "baseline (ns)", "normalized", "bisp insts", "base insts"
    );
    println!("{:-<86}", "");
    let rows = fig15_rows(&report);
    for row in &rows {
        println!(
            "{:<16} {:>14} {:>14} {:>10.3}   {:>12} {:>12}",
            row.name,
            row.bisp_ns,
            row.lockstep_ns,
            row.normalized,
            row.bisp_instructions,
            row.lockstep_instructions
        );
    }
    println!("{:-<86}", "");
    let avg = rows.iter().map(|r| r.normalized).sum::<f64>() / rows.len() as f64;
    println!("{:<16} {:>40.3}   (paper average: 0.772)", "average", avg);
}
