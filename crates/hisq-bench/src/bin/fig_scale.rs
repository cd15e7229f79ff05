//! The scaling extension figure (beyond the paper's evaluation):
//! fig15-style normalized runtime of Distributed-HISQ (BISP) vs the
//! lock-step hub baseline on simultaneous span-7 long-range CNOTs, up
//! to 3,071 controllers — the largest BISP system whose routers all
//! fit the ISA's 12-bit node field below the measurement FIFO.
//!
//! Honors the shared CLI contract: `--quick` runs 255/1023/3071
//! controllers (`scenarios/fig_scale.json`, a golden-corpus entry
//! whose report is pinned) and the full grid adds 511 and 2047
//! (`scenarios/full/fig_scale.json`), `--threads N` parallelizes,
//! `--json` emits the raw sweep report (byte-identical across thread
//! counts).

use distributed_hisq::workloads::{long_range_controllers, WorkloadSpec};
use hisq_bench::cli::FigArgs;
use hisq_bench::figures::fig15_rows;
use hisq_bench::grids::FIG_SCALE;

fn main() {
    let args = FigArgs::parse();
    let (scenarios, report) = FIG_SCALE.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    println!("Scaling sweep: normalized runtime (Distributed-HISQ / lock-step hub)");
    println!("{:-<78}", "");
    println!(
        "{:>11} {:>14} {:>14} {:>10}   {:>11} {:>11}",
        "controllers", "bisp (ns)", "baseline (ns)", "normalized", "bisp insts", "base insts"
    );
    println!("{:-<78}", "");
    let rows = fig15_rows(&report);
    let sizes: Vec<usize> = scenarios
        .chunks(2)
        .map(|twins| {
            let WorkloadSpec::LongRangeCnots { parallel, span } = twins[0].workload else {
                panic!("fig_scale runs the long-range CNOT workload");
            };
            long_range_controllers(parallel, span).expect("a parsed shape fits")
        })
        .collect();
    for (row, controllers) in rows.iter().zip(&sizes) {
        println!(
            "{:>11} {:>14} {:>14} {:>10.4}   {:>11} {:>11}",
            controllers,
            row.bisp_ns,
            row.lockstep_ns,
            row.normalized,
            row.bisp_instructions,
            row.lockstep_instructions
        );
    }
    println!("{:-<78}", "");

    // The headline: every lock-step feedback operation is a global
    // window of the shared program flow, so the gadgets' corrections
    // serialize, while BISP's point-to-point corrections overlap.
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    println!(
        "normalized runtime {:.4}x at {} controllers -> {:.4}x at {}",
        first.normalized,
        sizes[0],
        last.normalized,
        sizes[sizes.len() - 1]
    );
}
