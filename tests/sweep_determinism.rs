//! CI determinism guards for the parallel sweep engine: a
//! multi-threaded sweep must produce byte-identical aggregate JSON to
//! the single-threaded run with the same seeds, regardless of how the
//! worker pool interleaves scenarios, and every record carries its
//! scenario's id. The figure grids' bytes are pinned by the
//! golden-corpus report check in `compile_cache_equivalence.rs`.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::runner::run_sweep;
use distributed_hisq::scenario::{Axis, Scenario, ScenarioFile};
use distributed_hisq::workloads::{SuiteScale, WorkloadSpec};

/// The full quick suite under both schemes at three seeds:
/// 6 × 2 × 3 = 36 scenarios (the acceptance floor is 32).
fn scenario_grid() -> Vec<Scenario> {
    let base = Scenario::new(WorkloadSpec::suite(""), Scheme::Bisp);
    let mut grid = ScenarioFile::new("quick_suite", base);
    grid.axes = vec![
        Axis::Workload(WorkloadSpec::suite_specs(SuiteScale::Quick)),
        Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
        Axis::Seed(vec![1, 7, 15]),
    ];
    grid.expand(None)
}

#[test]
fn multi_threaded_sweep_json_is_byte_identical_to_single_threaded() {
    let scenarios = scenario_grid();
    assert!(
        scenarios.len() >= 32,
        "grid must cover at least 32 scenarios, got {}",
        scenarios.len()
    );

    let single = run_sweep(&scenarios, 1).expect("grid runs").to_json();
    let report = run_sweep(&scenarios, 4).expect("grid runs");
    assert_eq!(
        single,
        report.to_json(),
        "thread count must not leak into results"
    );

    // The guard is only meaningful if the sweep actually ran: every
    // scenario halted and reported the standard metrics.
    assert_eq!(report.records().len(), scenarios.len());
    assert_eq!(
        report.summary()["all_halted"].sum,
        scenarios.len() as f64,
        "every scenario must run to completion"
    );
    assert!(report.summary()["makespan_cycles"].min > 0.0);
}

#[test]
fn scenario_ids_are_unique_and_stable() {
    let scenarios = scenario_grid();
    let report = run_sweep(&scenarios, 2).expect("grid runs");
    let mut ids: Vec<&str> = report.records().iter().map(|r| r.id.as_str()).collect();
    // Records arrive in scenario order and ids match the descriptors.
    for (scenario, record) in scenarios.iter().zip(report.records()) {
        assert_eq!(scenario.id(), record.id);
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), scenarios.len(), "scenario ids must be unique");
}
