//! Noise-aware scoring end to end: sweep the per-gate error rate over
//! both execution schemes on a small simultaneous long-range CNOT
//! workload and watch the BISP fidelity advantage compress as gate
//! error starts to dominate the idle (scheduling) term.
//!
//! This is a miniature of the `fig_noise` bench binary: the noise model
//! is an ordinary sweep axis (`Axis::Noise`), the backend
//! switches to the leakage-aware random backend, and the
//! `noise_infidelity` metric is scored analytically from the committed
//! operation counts plus the exposure ledger.
//!
//! Run with: `cargo run --example noise_sweep`

use std::error::Error;

use distributed_hisq::compiler::Scheme;
use distributed_hisq::quantum::NoiseModel;
use distributed_hisq::runner::run_sweep;
use distributed_hisq::scenario::{Axis, Scenario, ScenarioFile};
use distributed_hisq::workloads::WorkloadSpec;

fn main() -> Result<(), Box<dyn Error>> {
    // Two long-range CNOT gadgets of span 3 — 15 controllers, quick.
    let workload = WorkloadSpec::LongRangeCnots {
        parallel: 2,
        span: 3,
    };

    // The error-rate family: two-qubit gates and readout 10x worse
    // than single-qubit gates, a little leakage, fixed idle error.
    let model = |p: f64| {
        NoiseModel::default()
            .with_gate_errors(p, 10.0 * p)
            .with_meas_error(10.0 * p)
            .with_idle_error(1e-6)
            .with_leak(p)
    };

    // Error rate × scheme, scheme varying fastest.
    let base = Scenario::new(workload, Scheme::Bisp).with_seed(16);
    let mut grid = ScenarioFile::new("noise_sweep", base);
    grid.axes = vec![
        Axis::Noise([1e-5, 1e-4, 1e-3, 1e-2].map(model).to_vec()),
        Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
    ];
    let scenarios = grid.expand(None);

    let report = run_sweep(&scenarios, 2)?;

    println!("p1q        scheme     noise infidelity");
    println!("---------------------------------------");
    for (scenario, record) in scenarios.iter().zip(report.records()) {
        let scheme = match scenario.scheme {
            Scheme::Bisp => "bisp",
            Scheme::Lockstep => "lockstep",
        };
        let infid = record
            .value("noise_infidelity")
            .expect("noisy scenarios carry the metric");
        println!(
            "{:<10.0e} {:<10} {infid:.6}",
            scenario.params.noise.p_gate_1q, scheme
        );
    }

    // The headline: the baseline/BISP ratio compresses toward 1 as the
    // (scheme-independent) gate-error term dominates.
    let ratio = |i: usize| {
        let bisp = report.records()[2 * i].value("noise_infidelity").unwrap();
        let lock = report.records()[2 * i + 1]
            .value("noise_infidelity")
            .unwrap();
        lock / bisp
    };
    println!(
        "\nreduction ratio: {:.2}x at p1q = 1e-5, {:.2}x at p1q = 1e-2",
        ratio(0),
        ratio(3)
    );
    Ok(())
}
