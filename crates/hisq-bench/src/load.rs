//! The `fig_load` saturation sweep (beyond the paper's evaluation):
//! the multi-tenant job engine serving Poisson traffic of compiled
//! `w_state_n12` jobs, swept over offered load × partition count to
//! expose the saturation knee.
//!
//! Every point offers the machine a target utilization ρ (offered
//! load): two tenant streams — an interactive class (priority 0, a
//! third of the traffic) and a batch class (priority 1, the rest) —
//! submit jobs at a combined rate of `ρ · partitions / service time`.
//! Each job is a real compiled run of the workload (one compile per
//! point via the sweep's `CompileCache`, per-job seeds), so the
//! service time is the simulated makespan, not a synthetic stand-in.
//! Below the knee (ρ « 1) jobs barely queue and p99 latency tracks
//! the service time; approaching capacity (ρ → 1) the admission queue
//! fills and p99 diverges; past it (ρ > 1) throughput plateaus at the
//! partition capacity and the admission bound starts rejecting.
//!
//! The grid lives in the committed scenario files (see
//! [`crate::grids::FIG_LOAD`]); the quick report carries only
//! simulation-deterministic metrics and is pinned as
//! `scenarios/reports/fig_load.json`.

use distributed_hisq::load::{ArrivalProcess, LoadSpec};
use distributed_hisq::runner::Scenario;
use hisq_sim::{SweepRecord, SweepReport};

/// Calibrated single-run makespan of the `fig_load` workload under
/// BISP (ns): the service-time estimate the grid's offered-load →
/// arrival-rate conversion used, and the one the table inverts to
/// recover ρ. The `service_calibration_holds` test keeps it within 20%
/// of the engine's actual makespan, so ρ stays an honest utilization
/// estimate.
pub const FIG_LOAD_SERVICE_NS: u64 = 25_200;

/// The offered load ρ of a load block: its combined Poisson arrival
/// rate over the partition capacity `partitions / FIG_LOAD_SERVICE_NS`.
/// The grid's per-stream rates are rounded to 3 decimals, so ρ is
/// recovered to the grid's 2-decimal resolution.
fn offered_load(load: &LoadSpec) -> f64 {
    let rate_per_ms: f64 = load
        .streams
        .iter()
        .map(|stream| match stream.process {
            ArrivalProcess::Poisson { rate_per_ms, .. } => rate_per_ms,
            ArrivalProcess::Trace { .. } => 0.0,
        })
        .sum();
    let rho = rate_per_ms * FIG_LOAD_SERVICE_NS as f64 / (f64::from(load.partitions) * 1e6);
    (rho * 100.0).round() / 100.0
}

/// One row of the human-readable figure table.
#[derive(Debug, Clone)]
pub struct FigLoadPoint {
    /// Partition count of the point.
    pub partitions: u32,
    /// Offered load (target utilization ρ).
    pub rho: f64,
    /// Completed jobs per second of simulated time.
    pub throughput_jobs_per_s: f64,
    /// Measured partition utilization.
    pub utilization: f64,
    /// Median job latency (ns).
    pub latency_p50_ns: u64,
    /// Tail job latency (ns).
    pub latency_p99_ns: u64,
    /// Jobs dropped by the admission bound.
    pub rejected: u64,
}

/// Pairs the report's records with their scenarios' load blocks into
/// figure rows.
///
/// # Panics
///
/// Panics if the report does not match the grid (missing records,
/// load blocks or metrics) — a committed baseline must never hide a
/// failed point.
#[must_use]
pub fn fig_load_points(scenarios: &[Scenario], report: &SweepReport) -> Vec<FigLoadPoint> {
    assert_eq!(
        report.records().len(),
        scenarios.len(),
        "report matches grid"
    );
    scenarios
        .iter()
        .zip(report.records())
        .map(|(scenario, record)| {
            let load = scenario
                .load
                .as_ref()
                .unwrap_or_else(|| panic!("{}: a load point carries a load block", record.id));
            let counter = |r: &SweepRecord, key: &str| {
                r.counter(key)
                    .unwrap_or_else(|| panic!("{}: missing metric {key}", r.id))
            };
            let value = |r: &SweepRecord, key: &str| {
                r.value(key)
                    .unwrap_or_else(|| panic!("{}: missing metric {key}", r.id))
            };
            FigLoadPoint {
                partitions: load.partitions,
                rho: offered_load(load),
                throughput_jobs_per_s: value(record, "throughput_jobs_per_s"),
                utilization: value(record, "utilization"),
                latency_p50_ns: counter(record, "latency_p50_ns"),
                latency_p99_ns: counter(record, "latency_p99_ns"),
                rejected: counter(record, "jobs_rejected"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::FIG_LOAD;
    use distributed_hisq::runner::{run_scenario, run_sweep};

    /// The calibration constant tracks the engine: a single run of the
    /// grid's workload lands within 20% of [`FIG_LOAD_SERVICE_NS`], so
    /// the ρ axis stays an honest utilization estimate.
    #[test]
    fn service_calibration_holds() {
        let mut scenario = FIG_LOAD.scenarios(true).remove(0);
        scenario.load = None;
        let makespan = run_scenario(&scenario)
            .expect("fig workload runs")
            .counter("makespan_ns")
            .expect("standard metric");
        let ratio = makespan as f64 / FIG_LOAD_SERVICE_NS as f64;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "calibrated service {FIG_LOAD_SERVICE_NS} ns vs measured {makespan} ns \
             (ratio {ratio:.3}): recalibrate FIG_LOAD_SERVICE_NS"
        );
    }

    /// The figure's headline claim on the quick grid (the committed
    /// baseline): approaching capacity, tail latency diverges while
    /// throughput plateaus — and past it, the admission bound rejects.
    #[test]
    fn quick_sweep_shows_the_saturation_knee() {
        let scenarios = FIG_LOAD.scenarios(true);
        let report = run_sweep(&scenarios, 2).expect("load grid runs");
        let points = fig_load_points(&scenarios, &report);
        let mut partition_counts: Vec<u32> = points.iter().map(|p| p.partitions).collect();
        partition_counts.dedup();
        for partitions in partition_counts {
            // The lowest and highest offered load of this partition
            // count: below the knee and past it.
            let mut rows = points.iter().filter(|p| p.partitions == partitions);
            let low = rows.next().expect("grid covers every partition count");
            let past = rows.next_back().expect("each partition count sweeps rho");
            assert!(low.rho < 1.0 && past.rho > 1.0, "{low:?} / {past:?}");
            assert!(
                past.latency_p99_ns > 2 * low.latency_p99_ns,
                "{partitions} partitions: p99 must diverge toward saturation \
                 ({} ns at rho {} vs {} ns at rho {})",
                low.latency_p99_ns,
                low.rho,
                past.latency_p99_ns,
                past.rho
            );
            // Past capacity the machine is pinned: throughput sits at
            // the partition capacity (not the offered 1.2×), which is
            // the plateau.
            let capacity = f64::from(partitions) * 1e9 / FIG_LOAD_SERVICE_NS as f64;
            assert!(
                past.throughput_jobs_per_s < 1.05 * capacity,
                "{partitions} partitions: past-capacity throughput \
                 {:.0} jobs/s must plateau near capacity {capacity:.0}",
                past.throughput_jobs_per_s
            );
            assert!(
                past.utilization > 0.8,
                "{partitions} partitions: past capacity the machine is busy \
                 (utilization {:.3})",
                past.utilization
            );
            assert_eq!(
                low.rejected, 0,
                "{partitions} partitions: below the knee nothing is rejected"
            );
            assert!(
                past.rejected > 0,
                "{partitions} partitions: past capacity the admission bound rejects"
            );
        }
    }
}
