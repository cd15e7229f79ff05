//! Timing helpers: the whole-pass measurement loop, the fast samples the
//! end-to-end timings are read from, the nearest-rank tail-sample rule,
//! medians, and peak RSS.

use std::time::Instant;

/// Fewest samples that must rank above p90.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Fewest fast samples kept per op class.
///
/// Every pass runs the same op list, so the samples of one op class
/// differ only by what else the host was doing while they ran. Other
/// tenants' load only ever slows an op, and it comes and goes in spells
/// of seconds, while a change to the program moves every sample of the
/// ops it touches. The end-to-end timings are therefore read from each
/// class's fastest samples, taken op by op: a fast spell that covers
/// part of a pass still counts for the ops that ran in it.
pub const FAST_SAMPLES: usize = 5;

/// Fast samples per op class for passes of `ops_per_pass` ops: at least
/// [`FAST_SAMPLES`], and enough that [`MIN_TAIL_SAMPLES`] of the pooled
/// fast samples rank above their p90.
pub fn fast_samples(ops_per_pass: usize) -> usize {
    let mut k = FAST_SAMPLES;
    while ops_per_pass > 0 && ranked_above_p90(k * ops_per_pass) < MIN_TAIL_SAMPLES {
        k += 1;
    }
    k
}

/// What one pass over the op list produced.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PassStats {
    /// Ops (grid points) attempted.
    pub points: u64,
    /// Ops that returned an error or failed their output check.
    pub failed: u64,
}

/// The measured passes of a run.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Passes completed.
    pub passes: u64,
    /// Ops attempted over all passes.
    pub points: u64,
    /// Ops failed over all passes.
    pub failed: u64,
    /// Ops per pass, the same in every pass.
    pub ops_per_pass: usize,
    /// Per-op latencies in nanoseconds, pass after pass: op `c` of pass
    /// `i` is at `i * ops_per_pass + c`.
    pub latencies_ns: Vec<u64>,
    /// Wall time of each pass in nanoseconds, in execution order.
    pub pass_ns: Vec<u64>,
}

impl Window {
    /// Runs `pass` repeatedly, always whole passes, until `deadline` and
    /// until the window holds enough passes for
    /// [`fast_samples`]. `pass` appends one latency per op.
    ///
    /// # Panics
    ///
    /// If a pass appends a different number of latencies than the first
    /// pass did: every pass replays the same op list.
    pub fn run_until(
        &mut self,
        deadline: Instant,
        mut pass: impl FnMut(&mut Vec<u64>) -> PassStats,
    ) {
        loop {
            let before = self.latencies_ns.len();
            let start = Instant::now();
            let stats = pass(&mut self.latencies_ns);
            let ns =
                u64::try_from(start.elapsed().as_nanos()).expect("pass shorter than 584 years");
            let ops = self.latencies_ns.len() - before;
            if self.passes == 0 {
                self.ops_per_pass = ops;
            }
            assert_eq!(ops, self.ops_per_pass, "every pass runs the same op list");
            self.pass_ns.push(ns);
            self.passes += 1;
            self.points += stats.points;
            self.failed += stats.failed;
            if Instant::now() >= deadline && self.passes >= fast_samples(self.ops_per_pass) as u64 {
                break;
            }
        }
    }

    /// Ops completed per second of pass wall time, over every pass.
    pub fn ops_per_s(&self) -> f64 {
        let ns: u64 = self.pass_ns.iter().sum();
        self.points as f64 * 1e9 / ns as f64
    }

    /// Samples kept per class.
    fn keep(&self) -> usize {
        fast_samples(self.ops_per_pass)
    }

    /// The fast samples of each op class (one class per op of the pass,
    /// in op order): the class's [`fast_samples`] lowest latencies over
    /// the window, ascending.
    pub fn fast_classes(&self) -> Vec<Vec<u64>> {
        (0..self.ops_per_pass)
            .map(|c| {
                fastest(
                    self.latencies_ns
                        .iter()
                        .skip(c)
                        .step_by(self.ops_per_pass)
                        .copied(),
                    self.keep(),
                )
            })
            .collect()
    }

    /// Every op class's fast samples, pooled and sorted.
    pub fn fast_latencies(&self) -> Vec<u64> {
        let mut pool: Vec<u64> = self.fast_classes().concat();
        pool.sort_unstable();
        pool
    }

    /// Ops per second of a pass in which every op, and the rest of the
    /// pass (parse, expand, emit and check), takes the mean of its fast
    /// samples.
    pub fn fast_ops_per_s(&self) -> f64 {
        let mean = |samples: &[u64]| samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let ops: f64 = self.fast_classes().iter().map(|c| mean(c)).sum();
        let rest = self
            .pass_ns
            .iter()
            .zip(self.latencies_ns.chunks(self.ops_per_pass.max(1)));
        let rest = fastest(
            rest.map(|(&pass, lat)| pass.saturating_sub(lat.iter().sum())),
            self.keep(),
        );
        self.ops_per_pass as f64 * 1e9 / (ops + mean(&rest))
    }
}

/// The `k` lowest values, ascending.
fn fastest(values: impl Iterator<Item = u64>, k: usize) -> Vec<u64> {
    let mut all: Vec<u64> = values.collect();
    all.sort_unstable();
    all.truncate(k);
    all
}

/// Samples ranked above the nearest-rank p90 of `n` samples: `n` minus
/// the rank `ceil(0.9 · n)` that `stats::percentile_nearest_rank` picks.
pub fn ranked_above_p90(n: usize) -> usize {
    n - (9 * n).div_ceil(10)
}

/// Median of a non-empty list (the lower middle for even lengths, so
/// it is always one of the measured values).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty list");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributed_hisq::stats::percentile_nearest_rank;
    use std::time::Duration;

    fn window(pass_ns: &[u64], latencies_ns: &[u64]) -> Window {
        let ops_per_pass = latencies_ns.len() / pass_ns.len();
        Window {
            passes: pass_ns.len() as u64,
            points: latencies_ns.len() as u64,
            ops_per_pass,
            latencies_ns: latencies_ns.to_vec(),
            pass_ns: pass_ns.to_vec(),
            ..Window::default()
        }
    }

    #[test]
    fn window_runs_whole_passes_only() {
        let mut calls = 0u64;
        let mut window = Window::default();
        let start = Instant::now();
        window.run_until(start + Duration::from_millis(5), |latencies| {
            calls += 1;
            for op in 0..7u64 {
                latencies.push(1_000 + op * 10 + calls % 3);
            }
            std::thread::sleep(Duration::from_micros(200));
            PassStats {
                points: 7,
                failed: 0,
            }
        });
        assert_eq!(window.passes, calls);
        assert_eq!(window.points, 7 * calls);
        assert_eq!(window.ops_per_pass, 7);
        assert_eq!(window.latencies_ns.len() as u64, window.points);
        assert_eq!(window.pass_ns.len() as u64, window.passes);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_later_call_extends_the_same_window() {
        let mut window = Window::default();
        let pass = |latencies: &mut Vec<u64>| {
            latencies.extend([3, 1]);
            PassStats {
                points: 2,
                failed: 1,
            }
        };
        window.run_until(Instant::now(), pass);
        let first = window.passes;
        window.run_until(Instant::now(), pass);
        assert_eq!(window.passes, first + 1, "a met minimum leaves one pass");
        assert_eq!((window.points, window.failed), (2 * first + 2, first + 1));
    }

    #[test]
    fn window_extends_until_ten_fast_samples_rank_above_p90() {
        // A past deadline ends at the first pass that resolves p90 over
        // the pooled fast samples: 7-op passes keep 15 per class (105
        // samples, p90 at rank 95, 10 above it); 14 would leave 9.
        assert_eq!(fast_samples(7), 15);
        let mut next = 0u64;
        let mut window = Window::default();
        window.run_until(Instant::now(), |latencies| {
            latencies.extend(next..next + 7);
            next += 7;
            PassStats {
                points: 7,
                failed: 0,
            }
        });
        assert_eq!(window.passes, 15);
        let sorted = window.fast_latencies();
        assert_eq!(sorted.len(), 105);
        let p90 = percentile_nearest_rank(&sorted, 90.0).unwrap();
        assert_eq!(
            sorted.iter().filter(|&&v| v > p90).count(),
            MIN_TAIL_SAMPLES
        );
    }

    #[test]
    fn the_workloads_keep_five_fast_samples_per_class() {
        // corpus_replay, seed_fanout and paper_scale pass sizes.
        for ops in [47, 384, 21] {
            assert_eq!(fast_samples(ops), FAST_SAMPLES, "{ops} ops");
            assert!(ranked_above_p90(FAST_SAMPLES * ops) >= MIN_TAIL_SAMPLES);
        }
        // 19 ops: 5 per class (95 samples) leave 9 above p90, 6 (114) 11.
        assert_eq!(fast_samples(19), 6);
    }

    /// Ten passes of 20 ops (five fast samples per class): op `c` of
    /// pass `i` takes `100 + 10 * ((i + c) % 10)` ns, so each op is
    /// fastest in other passes, and the rest of pass `i` takes `i` ns.
    fn rotating_window() -> Window {
        let latencies: Vec<u64> = (0..10u64)
            .flat_map(|i| (0..20u64).map(move |c| 100 + 10 * ((i + c) % 10)))
            .collect();
        let pass_ns: Vec<u64> = (0..10u64).map(|i| 2_900 + i).collect();
        window(&pass_ns, &latencies)
    }

    #[test]
    fn fast_samples_are_taken_op_by_op() {
        let w = rotating_window();
        assert_eq!(w.keep(), FAST_SAMPLES);
        for class in w.fast_classes() {
            assert_eq!(class, vec![100, 110, 120, 130, 140]);
        }
        let pooled = w.fast_latencies();
        assert_eq!(pooled.len(), 100);
        assert_eq!(percentile_nearest_rank(&pooled, 50.0), Some(120));
        assert_eq!(percentile_nearest_rank(&pooled, 90.0), Some(140));
    }

    #[test]
    fn fast_throughput_adds_the_rest_of_the_pass() {
        // 20 ops at a fast mean of 120 ns, and the rest of the pass at
        // the mean of its five fastest, (0 + 1 + 2 + 3 + 4) / 5 ns.
        let w = rotating_window();
        assert!((w.fast_ops_per_s() - 20.0 * 1e9 / (20.0 * 120.0 + 2.0)).abs() < 1e-3);
        // Over every pass: 200 ops in 29,045 ns.
        assert!((w.ops_per_s() - 200.0 * 1e9 / 29_045.0).abs() < 1e-3);
    }

    #[test]
    fn tail_rank_matches_the_nearest_rank_rule() {
        for n in 1..=2_000usize {
            let sorted: Vec<u64> = (1..=n as u64).collect();
            let p90 = percentile_nearest_rank(&sorted, 90.0).unwrap() as usize;
            assert_eq!(ranked_above_p90(n), n - p90, "n = {n}");
        }
        assert_eq!(ranked_above_p90(99), 9);
        assert_eq!(ranked_above_p90(100), 10);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
