//! Seed++ repetitions of a load scenario produce distinct-but-replayable
//! percentile rows. The `fig_load` grid's bytes are pinned by the
//! golden-corpus report check.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::load::{ArrivalStream, LoadSpec, ServiceModel};
use distributed_hisq::runner::{run_sweep, Scenario};
use distributed_hisq::scenario::ScenarioFile;
use hisq_workloads::WorkloadSpec;

/// Seed++ repetitions (the scenario-file `repetitions` knob) produce
/// *distinct* percentile rows — fresh arrival and service draws per
/// seed — that replay byte-for-byte: statistically independent, still
/// deterministic.
#[test]
fn seed_increment_rows_are_distinct_but_replayable() {
    let spec = LoadSpec::new(
        vec![
            ArrivalStream::poisson(20.0, 100),
            ArrivalStream::poisson(10.0, 50).with_priority(1),
        ],
        2,
    )
    .with_queue_capacity(32)
    .with_service(ServiceModel::Exponential { mean_ns: 60_000.0 });
    let base = Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp)
        .with_seed(11)
        .with_load(spec);
    let mut file = ScenarioFile::new("seed-rows", base);
    file.repetitions = 3;
    let scenarios = file.expand(None);
    assert_eq!(scenarios.len(), 3);
    let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
    assert_eq!(seeds, [11, 12, 13], "repetitions advance the seed");

    let report = run_sweep(&scenarios, 2).expect("repetition grid runs");
    let rows: Vec<(u64, u64, u64)> = report
        .records()
        .iter()
        .map(|r| {
            let counter = |key: &str| r.counter(key).expect("latency percentiles present");
            (
                counter("latency_p50_ns"),
                counter("latency_p95_ns"),
                counter("latency_p99_ns"),
            )
        })
        .collect();
    for (i, a) in rows.iter().enumerate() {
        for b in rows.iter().skip(i + 1) {
            assert_ne!(a, b, "each seed draws its own traffic: {rows:?}");
        }
    }

    let replay = run_sweep(&scenarios, 4).expect("repetition grid replays");
    assert_eq!(
        report.to_json(),
        replay.to_json(),
        "same seeds, same bytes — on any thread count"
    );
}
