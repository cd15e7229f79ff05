//! The gate-noise extension figure (beyond the paper's evaluation):
//! expected circuit infidelity of Distributed-HISQ (BISP) vs the
//! lock-step baseline across a per-gate error-rate axis, at Figure 16's
//! simultaneous long-range CNOT workload — a (gate error × scheme)
//! sweep.
//!
//! Figure 16 scores the schemes under pure decoherence, where the
//! faster scheme's shorter exposure is the whole story. Real devices
//! are usually gate-error-dominated: every committed gate and readout
//! carries an error probability that no amount of scheduling can avoid.
//! Both schemes run the same workload, so their gate-error terms are
//! nearly identical (feedback branches steer slightly different
//! correction counts); as that term grows it swamps the
//! scheme-*dependent* idle term and the baseline / BISP infidelity
//! ratio compresses toward 1 — this sweep charts exactly that
//! crossover.
//!
//! Honors the shared CLI contract: `--quick` trims the error-rate
//! axis, `--threads N` parallelizes, `--json` emits the raw sweep
//! report (byte-identical across thread counts). The grids are
//! `scenarios/fig_noise.json` (`--quick`, a golden-corpus entry whose
//! report is pinned) and `scenarios/full/fig_noise.json`.

use hisq_bench::cli::FigArgs;
use hisq_bench::figures::fig_noise_points;
use hisq_bench::grids::FIG_NOISE;

fn main() {
    let args = FigArgs::parse();
    let (scenarios, report) = FIG_NOISE.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    let points = fig_noise_points(&scenarios, &report);
    println!("Noise sweep: expected infidelity vs per-gate error rate");
    println!("(p2q = pmeas = 10 x p1q, pleak = p1q, fixed idle error; fig16 workload)");
    println!("{:-<66}", "");
    println!(
        "{:>10} {:>16} {:>16} {:>12} {:>8}",
        "p1q", "Distributed-HISQ", "baseline", "reduction", "2q gates"
    );
    println!("{:-<66}", "");
    for p in &points {
        println!(
            "{:>10.0e} {:>16.5} {:>16.5} {:>11.2}x {:>8}",
            p.p_gate_1q, p.infidelity_bisp, p.infidelity_lockstep, p.reduction_ratio, p.gates_2q
        );
    }
    println!("{:-<66}", "");
    let first = points.first().expect("at least one error-rate point");
    let last = points.last().expect("at least one error-rate point");
    println!(
        "scheduling advantage: {:.2}x at p1q = {:.0e}, {:.2}x at p1q = {:.0e} \
         (gate error erodes what scheduling buys)",
        first.reduction_ratio, first.p_gate_1q, last.reduction_ratio, last.p_gate_1q
    );
}
