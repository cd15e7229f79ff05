//! The sweep-throughput benchmark: grid builder and measurement core
//! for `fig_sweep_throughput`, the harness that times full-sweep
//! wall-clock (scenarios/second) with the shared [`CompileCache`] on
//! and off.
//!
//! The grid is shaped like the repo's real experiment sweeps
//! (`fig_noise`, the golden-corpus scenario files): a few compiled
//! programs fanned out over many run-stage points. Workload × scheme
//! are the compile axes; seed × gate-error-rate are run-stage axes
//! that never split a [`CompileKey`](distributed_hisq::runner::CompileKey),
//! so a cached sweep compiles each
//! (workload, scheme) pair once and replays the artifact across the
//! whole seed×noise plane. The uncached reference compiles every grid
//! point from scratch — exactly what `run_sweep` did before the cache
//! existed — which is what the headline speedup is measured against.

use std::collections::HashSet;
use std::time::Instant;

use distributed_hisq::compiler::Scheme;
use distributed_hisq::runner::{run_sweep_cached, run_sweep_uncached, CompileCache, Scenario};
use distributed_hisq::scenario::{Axis, ScenarioFile};
use distributed_hisq::workloads::WorkloadSpec;
use hisq_sim::NoiseModel;

/// Worker-thread counts the harness measures by default.
pub const THREAD_AXIS: [usize; 3] = [1, 4, 8];

/// Per-gate error rates of the run-stage noise axis (a
/// [`fig_noise_model`] family; noise is folded in after compilation,
/// so the axis shares compiled artifacts).
const NOISE_AXIS: [f64; 3] = [1e-5, 1e-4, 1e-3];

/// The fixed per-nanosecond idle error rate of [`fig_noise_model`]:
/// ≈ the exposure decay of a 1 ms-coherence device, so the idle
/// (schedule-length) term stays visible at the low end of the
/// gate-error axis.
pub const FIG_NOISE_P_IDLE_PER_NS: f64 = 1e-6;

/// The `fig_noise` error-rate family at single-qubit gate error `p`:
/// two-qubit gates and readout 10× worse (the usual hardware
/// hierarchy), leakage at `p`, idle fixed at
/// [`FIG_NOISE_P_IDLE_PER_NS`]. The committed `fig_noise` and
/// `fig_hetero` scenario files spell out the same family's rates.
pub fn fig_noise_model(p_gate_1q: f64) -> NoiseModel {
    NoiseModel::default()
        .with_gate_errors(p_gate_1q, 10.0 * p_gate_1q)
        .with_meas_error(10.0 * p_gate_1q)
        .with_idle_error(FIG_NOISE_P_IDLE_PER_NS)
        .with_leak(p_gate_1q)
}

/// Expands the throughput grid: quick-suite workloads × both schemes
/// (the compile axes) × seeds × gate-error rates (the run-stage axes).
///
/// Full shape: 2 workloads × 2 schemes × 6 seeds × 3 error rates =
/// 72 scenarios over 4 compile keys. `--quick` trims every axis:
/// 1 × 2 × 2 × 1 = 4 scenarios over 2 keys.
pub fn throughput_scenarios(quick: bool) -> Vec<Scenario> {
    let suites: &[&str] = if quick {
        &["w_state_n12"]
    } else {
        &["w_state_n12", "qft_n10"]
    };
    let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4, 5, 6] };
    let noise: &[f64] = if quick { &[1e-4] } else { &NOISE_AXIS };
    let base = Scenario::new(WorkloadSpec::suite(suites[0]), Scheme::Bisp);
    let mut grid = ScenarioFile::new("sweep_throughput", base);
    grid.axes = vec![
        Axis::Workload(suites.iter().copied().map(WorkloadSpec::suite).collect()),
        Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
        Axis::Seed(seeds.to_vec()),
        Axis::Noise(noise.iter().map(|&p| fig_noise_model(p)).collect()),
    ];
    grid.expand(None)
}

/// Number of distinct [`CompileKey`]s in a grid — the compiles a
/// cached sweep pays, versus one per scenario uncached.
///
/// [`CompileKey`]: distributed_hisq::runner::CompileKey
pub fn compile_keys(scenarios: &[Scenario]) -> usize {
    scenarios
        .iter()
        .map(Scenario::compile_key)
        .collect::<HashSet<_>>()
        .len()
}

/// One measured thread-count row of the throughput benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputRow {
    /// Sweep worker threads.
    pub threads: usize,
    /// Grid points per sweep.
    pub scenarios: usize,
    /// Compiles the cached sweep paid (cache misses; the uncached
    /// reference pays one per scenario).
    pub compiles: u64,
    /// Compile-cache hit rate of the cached sweep (hits / lookups).
    pub hit_rate: f64,
    /// Best cached full-sweep wall time, seconds.
    pub cached_s: f64,
    /// Best uncached full-sweep wall time, seconds.
    pub uncached_s: f64,
    /// Cached throughput: scenarios / [`cached_s`].
    ///
    /// [`cached_s`]: ThroughputRow::cached_s
    pub scenarios_per_sec: f64,
    /// Uncached throughput: scenarios / [`uncached_s`].
    ///
    /// [`uncached_s`]: ThroughputRow::uncached_s
    pub uncached_scenarios_per_sec: f64,
    /// Cached-over-uncached wall-clock speedup.
    pub speedup: f64,
}

/// Times the grid cached and uncached at one thread count.
///
/// The statistic is the **minimum** wall time over `iters` sweeps of
/// each flavor (the sweeps are deterministic and identical, so the
/// minimum estimates uncontended cost; the mean smears in machine
/// noise the regression gate would trip on). Every cached iteration
/// starts from a fresh [`CompileCache`] so it pays the full
/// compile-key set, never a warm cache from the previous iteration.
///
/// # Panics
///
/// Panics if a sweep fails or the cached report drifts from the
/// uncached one (the differential suite's invariant, spot-checked
/// here so the benchmark can never time two different computations).
pub fn measure_throughput(scenarios: &[Scenario], threads: usize, iters: u32) -> ThroughputRow {
    assert!(iters > 0, "at least one iteration");
    let mut cached_best = f64::INFINITY;
    let mut uncached_best = f64::INFINITY;
    let mut compiles = 0;
    let mut hit_rate = 0.0;
    let mut reference = None;
    for _ in 0..iters {
        let start = Instant::now();
        let uncached = run_sweep_uncached(scenarios, threads).expect("uncached sweep runs");
        uncached_best = uncached_best.min(start.elapsed().as_secs_f64());

        let cache = CompileCache::new();
        let start = Instant::now();
        let cached = run_sweep_cached(scenarios, threads, &cache).expect("cached sweep runs");
        cached_best = cached_best.min(start.elapsed().as_secs_f64());

        compiles = cache.misses();
        let lookups = cache.hits() + cache.misses();
        hit_rate = cache.hits() as f64 / lookups.max(1) as f64;

        let cached = cached.to_json();
        match &reference {
            None => {
                assert_eq!(
                    cached,
                    uncached.to_json(),
                    "cached sweep drifted from the uncached reference"
                );
                reference = Some(cached);
            }
            Some(reference) => assert_eq!(&cached, reference, "iterations must be identical"),
        }
    }
    ThroughputRow {
        threads,
        scenarios: scenarios.len(),
        compiles,
        hit_rate,
        cached_s: cached_best,
        uncached_s: uncached_best,
        scenarios_per_sec: scenarios.len() as f64 / cached_best,
        uncached_scenarios_per_sec: scenarios.len() as f64 / uncached_best,
        speedup: uncached_best / cached_best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_amortizes_compiles_over_run_stage_axes() {
        let full = throughput_scenarios(false);
        assert_eq!(full.len(), 72);
        assert_eq!(compile_keys(&full), 4, "workload x scheme only");
        let quick = throughput_scenarios(true);
        assert_eq!(quick.len(), 4);
        assert_eq!(compile_keys(&quick), 2);
    }

    #[test]
    fn a_measured_row_reports_the_cache_economics() {
        let scenarios = throughput_scenarios(true);
        let row = measure_throughput(&scenarios, 2, 1);
        assert_eq!(row.scenarios, 4);
        assert_eq!(row.compiles, 2, "one compile per (workload, scheme)");
        assert!((row.hit_rate - 0.5).abs() < 1e-9, "2 of 4 lookups hit");
        assert!(row.scenarios_per_sec > 0.0 && row.speedup > 0.0);
    }
}
