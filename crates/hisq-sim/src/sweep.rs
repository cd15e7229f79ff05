//! The parallel sweep engine: batch execution of many independent
//! simulator instances with deterministic aggregation.
//!
//! Paper figures are parameter sweeps — workload × scheme × topology ×
//! seed — and every scenario is an independent simulation, so the batch
//! is embarrassingly parallel. This module provides the three pieces
//! every harness shares (grids of facade scenarios are expanded by the
//! facade crate's scenario files):
//!
//! - [`SweepRunner`] — a scoped worker pool (hand-rolled over
//!   `std::thread`; the build environment has no crates.io access) that
//!   executes scenarios concurrently while keeping results in input
//!   order;
//! - [`SweepRecord`] / [`SweepReport`] — per-scenario metric bags and
//!   their aggregate statistics, with deterministic JSON rendering.
//!
//! Determinism is load-bearing: records land in the result vector at
//! their scenario's index regardless of which worker ran them, and the
//! aggregate statistics are folded in that fixed order, so a sweep's
//! JSON output is byte-identical whether it ran on one thread or
//! sixteen. The golden-corpus test
//! (`tests/compile_cache_equivalence.rs`) asserts exactly that on
//! every committed scenario file, against its committed report.
//!
//! # Example
//!
//! ```
//! use hisq_sim::sweep::{SweepRecord, SweepRunner};
//!
//! // A 2-axis grid (3 seeds × 2 latencies = 6 scenarios)...
//! let scenarios: Vec<(u64, u64)> = [1u64, 2, 3]
//!     .into_iter()
//!     .flat_map(|seed| [5u64, 10].map(|lat| (seed, lat)))
//!     .collect();
//!
//! // ...run on two worker threads.
//! let report = SweepRunner::new(2).run(&scenarios, |i, &(seed, lat)| {
//!     SweepRecord::new(format!("s{seed}/l{lat}"))
//!         .with("index", i as u64)
//!         .with("cost", seed * lat)
//! });
//! assert_eq!(report.records().len(), 6);
//! assert_eq!(report.summary()["cost"].max, 30.0);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hisq_json::Json;

/// One measured value of a sweep record.
///
/// Metrics are deliberately flat: a record is a bag of named scalars
/// (plus occasional string artifacts such as generated listings) so
/// that aggregation and JSON rendering need no schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// An exact counter (cycles, instructions, events).
    U64(u64),
    /// A continuous measurement (infidelity, ratios).
    F64(f64),
    /// A pass/fail flag (aggregated as 0/1).
    Bool(bool),
    /// A textual artifact (excluded from numeric aggregation).
    Str(String),
}

impl Metric {
    /// The metric as a float for aggregation (`true` = 1.0; strings
    /// are non-numeric and return `None`).
    pub fn numeric(&self) -> Option<f64> {
        match *self {
            Metric::U64(v) => Some(v as f64),
            Metric::F64(v) => Some(v),
            Metric::Bool(v) => Some(if v { 1.0 } else { 0.0 }),
            Metric::Str(_) => None,
        }
    }

    /// The metric as a JSON value.
    fn to_json(&self) -> Json {
        match self {
            Metric::U64(v) => Json::UInt(*v),
            Metric::F64(v) => json_f64(*v),
            Metric::Bool(v) => Json::Bool(*v),
            Metric::Str(v) => Json::Str(v.clone()),
        }
    }
}

impl From<u64> for Metric {
    fn from(v: u64) -> Metric {
        Metric::U64(v)
    }
}

impl From<f64> for Metric {
    fn from(v: f64) -> Metric {
        Metric::F64(v)
    }
}

impl From<bool> for Metric {
    fn from(v: bool) -> Metric {
        Metric::Bool(v)
    }
}

impl From<String> for Metric {
    fn from(v: String) -> Metric {
        Metric::Str(v)
    }
}

impl From<&str> for Metric {
    fn from(v: &str) -> Metric {
        Metric::Str(v.to_string())
    }
}

/// An `f64` as a JSON number (JSON has no NaN/infinity, so non-finite
/// values render as `null`).
fn json_f64(v: f64) -> Json {
    if v.is_finite() {
        Json::Float(v)
    } else {
        Json::Null
    }
}

/// The measured outcome of one executed scenario: a stable identifier
/// plus a flat, name-ordered bag of metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Stable scenario identifier (used for pairing and JSON output).
    pub id: String,
    /// Named metrics, ordered by name (BTreeMap ⇒ deterministic JSON).
    pub metrics: BTreeMap<String, Metric>,
}

impl SweepRecord {
    /// Creates an empty record for scenario `id`.
    pub fn new(id: impl Into<String>) -> SweepRecord {
        SweepRecord {
            id: id.into(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds a metric (builder style).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Metric>) -> SweepRecord {
        self.metrics.insert(name.into(), value.into());
        self
    }

    /// Inserts or replaces a metric.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Metric>) {
        self.metrics.insert(name.into(), value.into());
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Looks up an exact counter metric.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(&Metric::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// Looks up a metric as a float (counters and flags convert;
    /// string metrics return `None`).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(Metric::numeric)
    }

    /// Renders the record as one compact JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_compact()
    }

    fn to_json_value(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, metric)| (name.clone(), metric.to_json()))
            .collect();
        Json::Object(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("metrics".into(), Json::Object(metrics)),
        ])
    }
}

/// Aggregate statistics of one metric across every record that
/// reported it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Number of records carrying the metric.
    pub count: u64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Sum over all records (folded in record order).
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl MetricSummary {
    fn fold(values: impl IntoIterator<Item = f64>) -> Option<MetricSummary> {
        let mut count = 0u64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0f64;
        for v in values {
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        if count == 0 {
            return None;
        }
        Some(MetricSummary {
            count,
            min,
            max,
            sum,
            mean: sum / count as f64,
        })
    }

    fn to_json(self) -> Json {
        Json::Object(vec![
            ("count".into(), Json::UInt(self.count)),
            ("min".into(), json_f64(self.min)),
            ("max".into(), json_f64(self.max)),
            ("sum".into(), json_f64(self.sum)),
            ("mean".into(), json_f64(self.mean)),
        ])
    }
}

/// The aggregated result of one sweep: every per-scenario record, in
/// scenario order, plus per-metric summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Wraps executed records (already in scenario order).
    pub fn from_records(records: Vec<SweepRecord>) -> SweepReport {
        SweepReport { records }
    }

    /// The per-scenario records, in the order their scenarios were
    /// submitted (independent of execution interleaving).
    pub fn records(&self) -> &[SweepRecord] {
        &self.records
    }

    /// Finds a record by scenario id.
    pub fn record(&self, id: &str) -> Option<&SweepRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Aggregates every metric appearing in any record. Values are
    /// folded in record order, so the statistics (including float
    /// rounding) are reproducible run to run.
    pub fn summary(&self) -> BTreeMap<String, MetricSummary> {
        let names: std::collections::BTreeSet<&String> =
            self.records.iter().flat_map(|r| r.metrics.keys()).collect();
        let mut out = BTreeMap::new();
        for name in names {
            let values = self
                .records
                .iter()
                .filter_map(|r| r.metrics.get(name))
                .filter_map(Metric::numeric);
            if let Some(summary) = MetricSummary::fold(values) {
                out.insert(name.clone(), summary);
            }
        }
        out
    }

    /// Renders the whole report as one deterministic, compact JSON
    /// document: scenario count, per-scenario records, per-metric
    /// summaries.
    pub fn to_json(&self) -> String {
        let records = self
            .records
            .iter()
            .map(SweepRecord::to_json_value)
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, summary)| (name, summary.to_json()))
            .collect();
        Json::Object(vec![
            ("scenarios".into(), self.records.len().into()),
            ("records".into(), Json::Array(records)),
            ("summary".into(), Json::Object(summary)),
        ])
        .to_string_compact()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// A scoped worker pool executing scenarios in parallel.
///
/// Workers pull scenario indices from a shared cursor and write each
/// finished [`SweepRecord`] into the result slot of its scenario, so
/// the report order — and hence the JSON output — is independent of
/// scheduling. With `threads == 1` the sweep runs inline on the caller
/// thread (no spawn overhead, identical results).
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner over `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> SweepRunner {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `run` for every scenario and aggregates the records
    /// into a [`SweepReport`] in scenario order.
    ///
    /// `run` receives the scenario's index and the scenario itself; it
    /// must be pure up to its own seeding for the determinism guarantee
    /// to hold.
    pub fn run<S, F>(&self, scenarios: &[S], run: F) -> SweepReport
    where
        S: Sync,
        F: Fn(usize, &S) -> SweepRecord + Sync,
    {
        SweepReport::from_records(self.map(scenarios, run))
    }

    /// Executes `run` for every item and returns the results in input
    /// order — the fallible-friendly core of [`SweepRunner::run`]
    /// (map to `Result`s and fold afterwards; the first error in
    /// *input* order is deterministic regardless of scheduling).
    pub fn map<S, R, F>(&self, items: &[S], run: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(usize, &S) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, s)| run(i, s)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = {
            let mut v = Vec::with_capacity(items.len());
            v.resize_with(items.len(), || None);
            Mutex::new(v)
        };
        let workers = self.threads.min(items.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut batch: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Chunked self-scheduling: claim a contiguous
                        // run of indices per fetch instead of one, so
                        // the cursor is touched O(threads · log n)
                        // times rather than once per scenario. The
                        // chunk shrinks as the sweep drains (quarter
                        // of a fair share of what's left), which keeps
                        // the tail balanced when scenario costs are
                        // uneven.
                        let claim_base = cursor.load(Ordering::Relaxed);
                        let remaining = items.len().saturating_sub(claim_base);
                        let chunk = (remaining / (workers * 4)).max(1);
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        batch.clear();
                        batch.extend((start..end).map(|i| (i, run(i, &items[i]))));
                        // One lock round per chunk; every record still
                        // lands at its scenario's own index, so result
                        // order is input order regardless of which
                        // worker claimed which chunk.
                        let mut slots = slots.lock().expect("result lock");
                        for (index, result) in batch.drain(..) {
                            slots[index] = Some(result);
                        }
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|slot| slot.expect("every index executed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_is_deterministic_across_thread_counts() {
        let scenarios: Vec<u64> = (0..64).collect();
        let run = |i: usize, s: &u64| {
            // Uneven work so threads genuinely interleave.
            let mut acc = *s;
            for _ in 0..(*s % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            SweepRecord::new(format!("s{s}"))
                .with("index", i as u64)
                .with("acc", acc)
                .with("ratio", (*s as f64) / 64.0)
        };
        let single = SweepRunner::new(1).run(&scenarios, run);
        for threads in [2, 4, 8] {
            let multi = SweepRunner::new(threads).run(&scenarios, run);
            assert_eq!(single.to_json(), multi.to_json(), "threads = {threads}");
        }
    }

    #[test]
    fn chunked_claiming_lands_records_in_input_order() {
        // Sizes chosen to exercise the chunk-size ramp: large enough
        // that early fetches claim multi-index chunks, awkward enough
        // (odd count, more than threads·4 items) that the final chunks
        // shrink to single indices and the last claim is partial.
        for (len, threads) in [(1usize, 4usize), (7, 2), (97, 3), (256, 8)] {
            let items: Vec<usize> = (0..len).collect();
            let results = SweepRunner::new(threads).map(&items, |i, &s| {
                assert_eq!(i, s, "worker received the wrong scenario");
                // Uneven work so chunks finish out of claim order.
                let mut acc = s as u64;
                for _ in 0..(s % 5) * 400 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            });
            assert_eq!(results.len(), len, "len={len} threads={threads}");
            for (slot, (index, _)) in results.iter().enumerate() {
                assert_eq!(slot, *index, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn report_summary_aggregates_in_record_order() {
        let report = SweepReport::from_records(vec![
            SweepRecord::new("a").with("x", 2u64).with("ok", true),
            SweepRecord::new("b").with("x", 4u64).with("ok", false),
            SweepRecord::new("c").with("x", 6u64),
        ]);
        let summary = report.summary();
        let x = summary["x"];
        assert_eq!(
            (x.count, x.min, x.max, x.sum, x.mean),
            (3, 2.0, 6.0, 12.0, 4.0)
        );
        let ok = summary["ok"];
        assert_eq!((ok.count, ok.sum), (2, 1.0));
        assert!(report.record("b").is_some());
        assert!(report.record("zz").is_none());
    }

    #[test]
    fn json_output_is_escaped_and_stable() {
        let report = SweepReport::from_records(vec![SweepRecord::new("a\"b\\c\nd")
            .with("half", 0.5)
            .with("flag", true)
            .with("n", 3u64)]);
        assert_eq!(
            report.to_json(),
            "{\"scenarios\":1,\"records\":[{\"id\":\"a\\\"b\\\\c\\nd\",\"metrics\":\
             {\"flag\":true,\"half\":0.5,\"n\":3}}],\"summary\":{\
             \"flag\":{\"count\":1,\"min\":1.0,\"max\":1.0,\"sum\":1.0,\"mean\":1.0},\
             \"half\":{\"count\":1,\"min\":0.5,\"max\":0.5,\"sum\":0.5,\"mean\":0.5},\
             \"n\":{\"count\":1,\"min\":3.0,\"max\":3.0,\"sum\":3.0,\"mean\":3.0}}}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let record = SweepRecord::new("x").with("bad", f64::NAN);
        assert_eq!(
            record.to_json(),
            "{\"id\":\"x\",\"metrics\":{\"bad\":null}}"
        );
        // Every summary statistic but the count is non-finite too.
        assert_eq!(
            SweepReport::from_records(vec![record]).to_json(),
            "{\"scenarios\":1,\"records\":[{\"id\":\"x\",\"metrics\":{\"bad\":null}}],\
             \"summary\":{\"bad\":{\"count\":1,\"min\":null,\"max\":null,\"sum\":null,\
             \"mean\":null}}}"
        );
    }

    #[test]
    fn string_metrics_render_but_do_not_aggregate() {
        let report = SweepReport::from_records(vec![SweepRecord::new("x")
            .with("listing", "sync 1\nstop")
            .with("n", 2u64)]);
        assert!(report.to_json().contains("\"listing\":\"sync 1\\nstop\""));
        let summary = report.summary();
        assert!(summary.contains_key("n"));
        assert!(!summary.contains_key("listing"), "strings are not numeric");
        assert_eq!(report.records()[0].value("listing"), None);
    }
}
