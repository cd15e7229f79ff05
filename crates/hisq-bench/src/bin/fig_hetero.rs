//! The heterogeneous-fabric figure (beyond the paper's evaluation):
//! fabric-aware vs oblivious BISP compilation on grids with exactly
//! one heated element — a hot mesh link (serialized + lossy) or a hot
//! device site (elevated gate/readout error).
//!
//! The paper's evaluation assumes a uniform fabric, where placing
//! circuit qubit `i` on controller `i` is as good as any placement.
//! Real control fabrics are not uniform: one cable renegotiates, one
//! transmon drifts. This figure scores the compiler's fabric-aware
//! placement pass (mesh-automorphism search over `FabricMap` /
//! `NoiseMap` costs) against the oblivious identity on the same seeds:
//! hot-edge grids are scored on makespan (routing traffic off the
//! heated link saves serialization and retransmission round trips),
//! hot-qubit grids on expected circuit infidelity (moving work off the
//! heated site saves error budget).
//!
//! Honors the shared CLI contract: `--quick` keeps one grid of each
//! kind, `--threads N` parallelizes, `--json` emits the raw sweep
//! report (byte-identical across thread counts). The grids are
//! `scenarios/fig_hetero.json` (`--quick`, a golden-corpus entry whose
//! report is pinned) and `scenarios/full/fig_hetero.json`, one base
//! scenario per heated grid.

use hisq_bench::cli::FigArgs;
use hisq_bench::figures::fig_hetero_points;
use hisq_bench::grids::FIG_HETERO;

fn main() {
    let args = FigArgs::parse();
    let (scenarios, report) = FIG_HETERO.run(&args);
    if args.json {
        println!("{}", report.to_json());
        return;
    }

    let points = fig_hetero_points(&scenarios, &report);
    println!("Heterogeneous fabric: fabric-aware vs oblivious compilation");
    println!("(one heated element per grid; improvement = oblivious / aware)");
    println!("{:-<78}", "");
    println!(
        "{:<34} {:>16} {:>12} {:>12} {:>10}",
        "grid", "metric", "oblivious", "aware", "gain"
    );
    println!("{:-<78}", "");
    for p in &points {
        println!(
            "{:<34} {:>16} {:>12.5} {:>12.5} {:>9.3}x",
            p.name, p.metric, p.oblivious, p.aware, p.improvement
        );
    }
    println!("{:-<78}", "");
    let edge_win = points
        .iter()
        .filter(|p| p.kind == "edge")
        .map(|p| p.improvement)
        .fold(f64::NAN, f64::max);
    let qubit_win = points
        .iter()
        .filter(|p| p.kind == "qubit")
        .map(|p| p.improvement)
        .fold(f64::NAN, f64::max);
    println!(
        "best hot-edge gain {edge_win:.3}x (makespan), best hot-qubit gain {qubit_win:.3}x \
         (infidelity) — awareness only ever re-labels the mesh, so every gain is free"
    );
}
