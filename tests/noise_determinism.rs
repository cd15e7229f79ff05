//! CI determinism guards for the noise-aware sweep path: under any
//! backend seed, a noisy sweep's aggregate JSON is byte-identical
//! across worker-thread counts (channel sampling is counter-based
//! SplitMix64, so draws depend only on the seed and the schedule —
//! never on worker interleaving), and noisy scenario ids stay unique
//! along the noise axis.

use proptest::prelude::*;

use distributed_hisq::compiler::Scheme;
use distributed_hisq::quantum::NoiseModel;
use distributed_hisq::runner::run_sweep;
use distributed_hisq::scenario::{Axis, Scenario, ScenarioFile};
use distributed_hisq::workloads::WorkloadSpec;

/// A small noisy grid: one long-range CNOT gadget under both schemes
/// at two gate-error points (scheme fastest) — 4 scenarios, enough to
/// exercise the Leaky backend, the noise metrics, and the pairing.
fn noisy_grid(seed: u64) -> Vec<Scenario> {
    let workload = WorkloadSpec::LongRangeCnots {
        parallel: 1,
        span: 3,
    };
    let model = |p: f64| {
        NoiseModel::default()
            .with_gate_errors(p, 10.0 * p)
            .with_meas_error(10.0 * p)
            .with_idle_error(1e-6)
            .with_leak(p)
    };
    let base = Scenario::new(workload, Scheme::Bisp).with_seed(seed);
    let mut grid = ScenarioFile::new("noisy", base);
    grid.axes = vec![
        Axis::Noise(vec![model(1e-4), model(1e-2)]),
        Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
    ];
    grid.expand(None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ identical noisy-sweep JSON on 1 vs 3 worker
    /// threads, and every record carries the noise metrics.
    #[test]
    fn noisy_sweep_json_is_byte_identical_across_thread_counts(seed in 0u64..10_000) {
        let scenarios = noisy_grid(seed);
        let single = run_sweep(&scenarios, 1).expect("grid runs").to_json();
        let multi = run_sweep(&scenarios, 3).expect("grid runs");
        prop_assert_eq!(&single, &multi.to_json());
        for record in multi.records() {
            prop_assert!(record.value("noise_infidelity").is_some());
            prop_assert_eq!(record.value("all_halted"), Some(1.0));
        }
    }
}

/// The noisy-sweep JSON at a fixed seed is additionally pinned
/// byte-for-byte (shared-helper pin; see
/// `distributed_hisq::testing::assert_pinned`), so engine-internal
/// work — e.g. the calendar-queue event core — cannot drift noisy
/// reports even in ways that stay thread-count-stable.
#[test]
fn noisy_sweep_json_is_pinned_byte_for_byte() {
    let json = run_sweep(&noisy_grid(15), 2).expect("grid runs").to_json();
    distributed_hisq::testing::assert_pinned(
        "noisy quick JSON",
        &json,
        2335,
        0x16e7_e333_388a_8bfc,
    );
}

#[test]
fn noisy_scenario_ids_are_unique_along_the_noise_axis() {
    let scenarios = noisy_grid(1);
    let mut ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
    for id in &ids {
        assert!(
            id.contains("/p1q"),
            "noisy ids carry the noise segment: {id}"
        );
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        scenarios.len(),
        "noise axis must keep ids unique"
    );
}

#[test]
fn noiseless_scenario_ids_and_records_are_unchanged() {
    // The noise extension must not leak into default scenarios: ids
    // keep their historical form and records carry no noise metrics.
    let scenario = Scenario::new(
        WorkloadSpec::LongRangeCnots {
            parallel: 1,
            span: 3,
        },
        Scheme::Bisp,
    );
    assert_eq!(scenario.id(), "lr_cnot_p1_s3/bisp/seed1/t300");
    let report = run_sweep(&[scenario], 1).expect("runs");
    let record = &report.records()[0];
    assert!(record.value("noise_infidelity").is_none());
    assert!(record.value("gates_1q").is_none());
}
