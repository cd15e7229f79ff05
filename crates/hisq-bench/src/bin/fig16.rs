//! Regenerates Figure 16: circuit infidelity vs qubit relaxation time
//! for the simultaneous long-range CNOT circuit, under both schemes —
//! a (T1 × scheme) sweep over `scenarios/full/fig16.json`. `--quick`
//! trims the T1 axis (`scenarios/fig16.json`), `--threads N`
//! parallelizes, `--json` emits the raw sweep report.

use hisq_bench::cli::FigArgs;
use hisq_bench::figures::fig16_points;
use hisq_bench::grids::FIG16;

fn main() {
    let args = FigArgs::parse();
    let (scenarios, report) = FIG16.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    let points = fig16_points(&scenarios, &report);
    println!("Figure 16: infidelity vs relaxation time (T1 = T2)");
    println!("{:-<64}", "");
    println!(
        "{:>8} {:>16} {:>16} {:>12}",
        "T1 (us)", "Distributed-HISQ", "baseline", "reduction"
    );
    println!("{:-<64}", "");
    for p in &points {
        println!(
            "{:>8.0} {:>16.5} {:>16.5} {:>11.2}x",
            p.t_us, p.infidelity_bisp, p.infidelity_lockstep, p.reduction_ratio
        );
    }
    println!("{:-<64}", "");
    let avg: f64 = points.iter().map(|p| p.reduction_ratio).sum::<f64>() / points.len() as f64;
    println!("average reduction: {avg:.2}x (paper: ~5x)");
}
