//! The multi-tenant job engine: seeded open-loop arrival streams, a
//! bounded admission queue, and a scheduler multiplexing many compiled
//! jobs over disjoint controller partitions of one simulated machine.
//!
//! Every figure so far evaluates the control stack one program at a
//! time — one scenario owns the whole simulated machine. This module
//! models the stack as a *shared service* instead: jobs of one
//! compiled type arrive from several tenant streams (Poisson
//! interarrivals over the workspace's counter-based SplitMix64
//! streams, or trace-driven arrival lists), pass a bounded admission
//! queue, and run to completion on the first free controller
//! partition. The output is queueing-theory telemetry — throughput,
//! partition utilization, and p50/p95/p99 job latency — reported with
//! the same byte-determinism contract as every other sweep report.
//!
//! # Pipeline
//!
//! ```text
//! streams ──► merged arrivals ──► admission queue ──► partitions
//! (Poisson      (submit_ns,        (bounded FIFO       (disjoint; one
//!  / trace)      stream, seq)       per priority)       job each)
//!                     │                  │ full              │ finish
//!                     ▼                  ▼                   ▼
//!                calendar queue      rejected            completed
//!                (shared event       (counted)           (latency =
//!                 core, PR 7)                             finish−submit)
//! ```
//!
//! # Semantics, precisely
//!
//! - **Arrivals.** Each [`ArrivalStream`] generates its submit times
//!   independently: Poisson streams draw exponential gaps from a
//!   counter-based SplitMix64 stream keyed on `(scenario seed, stream
//!   index)`; trace streams list absolute submit times. The merged
//!   arrival order — and the job numbering — is
//!   `(submit_ns, stream index, per-stream sequence)`.
//! - **Admission.** An arriving job starts immediately when a
//!   partition is free (the wait queue is empty by invariant whenever
//!   a partition is free). Otherwise it joins the admission queue
//!   unless the queue already holds
//!   [`queue_capacity`](LoadSpec::queue_capacity) jobs, in which case
//!   it is **rejected** (the rejection policy is drop-newest: the
//!   arriving job is the one refused). Within a priority class the
//!   queue is FIFO; across classes, lower
//!   [`priority`](ArrivalStream::priority) values pop first.
//! - **Service.** A started job occupies exactly one partition for its
//!   whole service time. Under [`ServiceModel::Simulated`] the service
//!   time is the job's *simulated makespan*: the scenario (minus its
//!   `load` block) is compiled once per job type through the sweep's
//!   [`CompileCache`] and run per job with seed `scenario.seed + job`,
//!   so repeated job types compile once and every job's duration comes
//!   from the real event core. [`ServiceModel::Exponential`] draws a
//!   seeded exponential proxy instead (the M/M/c analytic-oracle
//!   surface, and the cheap mode for property tests).
//! - **Ties.** Same-instant events resolve in calendar-queue push
//!   order: arrivals are scheduled before the run starts, so an
//!   arrival at time `t` observes the machine *before* any completion
//!   at the same `t` — a full machine rejects it even if a partition
//!   frees that same nanosecond.
//! - **Horizon.** With [`horizon_ns`](LoadSpec::horizon_ns) set, the
//!   engine stops at the first event past the horizon; admitted jobs
//!   not yet finished are reported in-flight and partition busy time
//!   is truncated at the horizon. Without a horizon the engine drains:
//!   every admitted job completes.
//!
//! # Determinism
//!
//! Everything is a pure function of the scenario (seed included): the
//! arrival draws are counter-based, the service draws are keyed on the
//! per-job seed (never on scheduling order), the scheduler breaks
//! every tie structurally, and the latency percentiles use the
//! nearest-rank rule over exact `u64` samples
//! ([`crate::stats::percentile_nearest_rank`]) — so a load sweep's
//! JSON is byte-identical across thread counts, exactly like every
//! other report in the workspace.

use hisq_json::{Json, JsonError, ObjReader};
use hisq_quantum::noise::splitmix64;
use hisq_sim::queue::CalendarQueue;
use hisq_sim::SweepRecord;
use std::collections::{BTreeMap, BTreeSet};

use crate::runner::{run_scenario_from_artifact, CompileCache, RunnerError, ScenarioReport};
use crate::scenario::Scenario;
use crate::stats::percentile_nearest_rank;
use crate::testing::fnv1a64;

/// Weyl increment of the workspace's SplitMix64 streams (golden-ratio
/// constant) — used to decorrelate per-stream and per-job keys.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
/// Domain-separation salt of the arrival-gap draws.
const ARRIVAL_SALT: u64 = 0x4a0b_5ecd_10ad_71e5;
/// Domain-separation salt of the exponential service draws.
const SERVICE_SALT: u64 = 0xd6e8_feb8_6659_fd93;

/// How one tenant stream generates job arrivals.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals: `jobs` arrivals with exponential
    /// interarrival gaps of mean `1e6 / rate_per_ms` ns, drawn from a
    /// counter-based SplitMix64 stream keyed on the scenario seed and
    /// the stream index (the first arrival is one gap after t = 0).
    Poisson {
        /// Mean arrival rate, jobs per millisecond of simulated time.
        rate_per_ms: f64,
        /// Number of arrivals the stream generates.
        jobs: u64,
    },
    /// Trace-driven arrivals: absolute submit times in nanoseconds,
    /// non-decreasing.
    Trace {
        /// Absolute submit times (ns), in non-decreasing order.
        submit_ns: Vec<u64>,
    },
}

/// One tenant's arrival stream: an arrival process plus the priority
/// class its jobs are admitted under.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalStream {
    /// How this stream's submit times are generated.
    pub process: ArrivalProcess,
    /// Priority class (lower pops first; FIFO within a class).
    pub priority: u32,
}

impl ArrivalStream {
    /// A Poisson stream at `rate_per_ms` generating `jobs` arrivals,
    /// priority 0.
    pub fn poisson(rate_per_ms: f64, jobs: u64) -> ArrivalStream {
        ArrivalStream {
            process: ArrivalProcess::Poisson { rate_per_ms, jobs },
            priority: 0,
        }
    }

    /// A trace stream over absolute submit times, priority 0.
    pub fn trace(submit_ns: Vec<u64>) -> ArrivalStream {
        ArrivalStream {
            process: ArrivalProcess::Trace { submit_ns },
            priority: 0,
        }
    }

    /// Replaces the priority class (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> ArrivalStream {
        self.priority = priority;
        self
    }
}

/// Where a job's service time comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceModel {
    /// Service time = the job's simulated makespan: the scenario
    /// (without its `load` block) compiled once per type via the
    /// sweep's [`CompileCache`] and run per job with seed
    /// `scenario.seed + job index`.
    Simulated,
    /// Seeded exponential service proxy with the given mean — the
    /// M/M/c analytic-oracle surface. Draws are keyed on the per-job
    /// seed, never on scheduling order.
    Exponential {
        /// Mean service time in nanoseconds.
        mean_ns: f64,
    },
}

/// The `load` block of a scenario: arrival streams, machine
/// partitioning, admission bound, and the service model. Attached as
/// [`Scenario::load`](crate::scenario::Scenario::load), it switches the
/// scenario from "one program owns the machine" to the multi-tenant
/// job engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// The tenant arrival streams (at least one).
    pub streams: Vec<ArrivalStream>,
    /// Disjoint controller partitions; each runs one job at a time.
    pub partitions: u32,
    /// Admission-queue bound: an arrival finding the machine busy and
    /// the queue at capacity is rejected (drop-newest). `0` means no
    /// waiting at all — a job either starts immediately or is
    /// rejected.
    pub queue_capacity: usize,
    /// Where service times come from.
    pub service: ServiceModel,
    /// Optional hard stop (ns): events past the horizon do not run and
    /// unfinished admitted jobs are reported in-flight. `None` drains
    /// every admitted job.
    pub horizon_ns: Option<u64>,
}

impl LoadSpec {
    /// A spec over `streams` with `partitions` partitions, a
    /// 64-deep admission queue, simulated service, and no horizon.
    pub fn new(streams: Vec<ArrivalStream>, partitions: u32) -> LoadSpec {
        LoadSpec {
            streams,
            partitions,
            queue_capacity: 64,
            service: ServiceModel::Simulated,
            horizon_ns: None,
        }
    }

    /// Replaces the admission-queue bound (builder style).
    #[must_use]
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> LoadSpec {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Replaces the service model (builder style).
    #[must_use]
    pub fn with_service(mut self, service: ServiceModel) -> LoadSpec {
        self.service = service;
        self
    }

    /// Sets the horizon (builder style).
    #[must_use]
    pub fn with_horizon_ns(mut self, horizon_ns: u64) -> LoadSpec {
        self.horizon_ns = Some(horizon_ns);
        self
    }

    /// Structural validation (also applied by [`LoadSpec::from_json`]):
    /// at least one stream, at least one partition, positive finite
    /// rates and means, at least one job per Poisson stream, non-empty
    /// non-decreasing traces.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.streams.is_empty() {
            return Err("load needs at least one arrival stream".into());
        }
        if self.partitions == 0 {
            return Err("load needs at least one partition".into());
        }
        for (k, stream) in self.streams.iter().enumerate() {
            match &stream.process {
                ArrivalProcess::Poisson { rate_per_ms, jobs } => {
                    if !(rate_per_ms.is_finite() && *rate_per_ms > 0.0) {
                        return Err(format!(
                            "stream {k}: rate_per_ms must be positive and finite"
                        ));
                    }
                    if *jobs == 0 {
                        return Err(format!("stream {k}: a Poisson stream needs jobs >= 1"));
                    }
                }
                ArrivalProcess::Trace { submit_ns } => {
                    if submit_ns.is_empty() {
                        return Err(format!("stream {k}: a trace stream needs submit times"));
                    }
                    if submit_ns.windows(2).any(|w| w[0] > w[1]) {
                        return Err(format!(
                            "stream {k}: trace submit times must be non-decreasing"
                        ));
                    }
                }
            }
        }
        if let ServiceModel::Exponential { mean_ns } = self.service {
            if !(mean_ns.is_finite() && mean_ns > 0.0) {
                return Err("service mean_ns must be positive and finite".into());
            }
        }
        Ok(())
    }

    /// Short stable rendering for scenario-id segments:
    /// `ld.pP.qC.svc-(sim|expM)[.hH]` followed by one
    /// `.sK-(poiRATExJOBS|trcLEN-FNV8)prP` segment per stream — every
    /// field that changes the engine's behavior appears, so grid
    /// points along any load axis keep unique ids.
    pub fn id_fragment(&self) -> String {
        let mut frag = format!("ld.p{}.q{}", self.partitions, self.queue_capacity);
        match self.service {
            ServiceModel::Simulated => frag.push_str(".svc-sim"),
            ServiceModel::Exponential { mean_ns } => {
                frag.push_str(&format!(".svc-exp{mean_ns}"));
            }
        }
        if let Some(h) = self.horizon_ns {
            frag.push_str(&format!(".h{h}"));
        }
        for (k, stream) in self.streams.iter().enumerate() {
            match &stream.process {
                ArrivalProcess::Poisson { rate_per_ms, jobs } => {
                    frag.push_str(&format!(".s{k}-poi{rate_per_ms}x{jobs}"));
                }
                ArrivalProcess::Trace { submit_ns } => {
                    // Length alone would collide distinct traces; an
                    // FNV-1a digest of the times keeps ids unique.
                    let mut bytes = Vec::with_capacity(submit_ns.len() * 8);
                    for t in submit_ns {
                        bytes.extend_from_slice(&t.to_le_bytes());
                    }
                    frag.push_str(&format!(
                        ".s{k}-trc{}-{:08x}",
                        submit_ns.len(),
                        fnv1a64(&bytes) as u32
                    ));
                }
            }
            frag.push_str(&format!("pr{}", stream.priority));
        }
        frag
    }

    /// Serializes the spec for the scenario grammar (omitting an unset
    /// horizon; every other field explicit).
    pub fn to_json(&self) -> Json {
        let service = match self.service {
            ServiceModel::Simulated => Json::Object(vec![("model".into(), Json::str("simulated"))]),
            ServiceModel::Exponential { mean_ns } => Json::Object(vec![
                ("model".into(), Json::str("exponential")),
                ("mean_ns".into(), Json::float(mean_ns)),
            ]),
        };
        let streams = self
            .streams
            .iter()
            .map(|stream| {
                let mut fields = match &stream.process {
                    ArrivalProcess::Poisson { rate_per_ms, jobs } => vec![
                        ("process".into(), Json::str("poisson")),
                        ("rate_per_ms".into(), Json::float(*rate_per_ms)),
                        ("jobs".into(), (*jobs).into()),
                    ],
                    ArrivalProcess::Trace { submit_ns } => vec![
                        ("process".into(), Json::str("trace")),
                        (
                            "submit_ns".into(),
                            Json::Array(submit_ns.iter().map(|&t| t.into()).collect()),
                        ),
                    ],
                };
                fields.push(("priority".into(), u64::from(stream.priority).into()));
                Json::Object(fields)
            })
            .collect();
        let mut fields = vec![
            ("streams".into(), Json::Array(streams)),
            ("partitions".into(), u64::from(self.partitions).into()),
            ("queue_capacity".into(), self.queue_capacity.into()),
            ("service".into(), service),
        ];
        if let Some(h) = self.horizon_ns {
            fields.push(("horizon_ns".into(), h.into()));
        }
        Json::Object(fields)
    }

    /// Parses a spec serialized by [`LoadSpec::to_json`]. `streams`
    /// and `partitions` are required; `queue_capacity` defaults to 64,
    /// `service` to `{"model": "simulated"}`, and `horizon_ns` to
    /// unset.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for missing/unknown fields,
    /// wrong types, or a spec [`validate`](LoadSpec::validate) rejects.
    pub fn from_json(value: &Json, path: &str) -> Result<LoadSpec, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let streams_path = obj.field_path("streams");
        let mut streams = Vec::new();
        for (k, entry) in obj
            .required("streams")?
            .as_array(&streams_path)?
            .iter()
            .enumerate()
        {
            let entry_path = format!("{streams_path}[{k}]");
            let mut stream = ObjReader::new(entry, &entry_path)?;
            let tag_path = stream.field_path("process");
            let process = match stream.required("process")?.as_str(&tag_path)? {
                "poisson" => ArrivalProcess::Poisson {
                    rate_per_ms: stream
                        .required("rate_per_ms")?
                        .as_f64(&stream.field_path("rate_per_ms"))?,
                    jobs: stream
                        .required("jobs")?
                        .as_u64(&stream.field_path("jobs"))?,
                },
                "trace" => ArrivalProcess::Trace {
                    submit_ns: stream
                        .required("submit_ns")?
                        .as_u64_array(&stream.field_path("submit_ns"))?,
                },
                other => {
                    return Err(JsonError::decode(
                        tag_path,
                        format!(
                            "unknown arrival process \"{other}\" (expected \"poisson\" or \
                             \"trace\")"
                        ),
                    ))
                }
            };
            let priority = match stream.optional("priority") {
                Some(v) => v.as_u32(&stream.field_path("priority"))?,
                None => 0,
            };
            stream.reject_unknown()?;
            streams.push(ArrivalStream { process, priority });
        }
        let partitions = obj
            .required("partitions")?
            .as_u32(&obj.field_path("partitions"))?;
        let mut spec = LoadSpec::new(streams, partitions);
        if let Some(v) = obj.optional("queue_capacity") {
            spec.queue_capacity = v.as_usize(&obj.field_path("queue_capacity"))?;
        }
        if let Some(v) = obj.optional("service") {
            let service_path = obj.field_path("service");
            let mut service = ObjReader::new(v, &service_path)?;
            let tag_path = service.field_path("model");
            spec.service = match service.required("model")?.as_str(&tag_path)? {
                "simulated" => ServiceModel::Simulated,
                "exponential" => ServiceModel::Exponential {
                    mean_ns: service
                        .required("mean_ns")?
                        .as_f64(&service.field_path("mean_ns"))?,
                },
                other => {
                    return Err(JsonError::decode(
                        tag_path,
                        format!(
                            "unknown service model \"{other}\" (expected \"simulated\" or \
                             \"exponential\")"
                        ),
                    ))
                }
            };
            service.reject_unknown()?;
        }
        if let Some(v) = obj.optional("horizon_ns") {
            spec.horizon_ns = Some(v.as_u64(&obj.field_path("horizon_ns"))?);
        }
        obj.reject_unknown()?;
        spec.validate()
            .map_err(|message| JsonError::decode(path, message))?;
        Ok(spec)
    }
}

/// How one job left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion on `partition`.
    Completed {
        /// The partition the job occupied.
        partition: u32,
        /// When the job started service (ns).
        start_ns: u64,
        /// How long it occupied the partition (ns).
        service_ns: u64,
        /// When it finished (ns); latency = `finish_ns − submit_ns`.
        finish_ns: u64,
    },
    /// Dropped at arrival: the machine was busy and the admission
    /// queue full.
    Rejected,
    /// Admitted but not finished when the horizon stopped the engine
    /// (queued, or still running on `partition`).
    InFlight {
        /// The partition the job was running on, if it had started.
        partition: Option<u32>,
        /// When the job started service, if it had.
        start_ns: Option<u64>,
    },
}

/// The full history of one job through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job number in merged arrival order (also the seed offset:
    /// simulated jobs run with seed `scenario.seed + job`).
    pub job: usize,
    /// Index of the stream that submitted it.
    pub stream: usize,
    /// The stream's priority class.
    pub priority: u32,
    /// Submit time (ns).
    pub submit_ns: u64,
    /// How the job left the engine.
    pub outcome: JobOutcome,
}

/// The result of one job-engine run: the per-job histories plus the
/// partition occupancy the utilization metrics are computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOutcome {
    /// Per-job histories, in merged arrival order.
    pub jobs: Vec<JobRecord>,
    /// Number of partitions the machine was split into.
    pub partitions: u32,
    /// Busy nanoseconds per partition (truncated at the horizon).
    pub busy_ns: Vec<u64>,
    /// The engine's time span: the last completion (drained runs) or
    /// the horizon (stopped runs); 0 when nothing ran.
    pub span_ns: u64,
}

impl LoadOutcome {
    /// Arrivals the engine processed.
    pub fn submitted(&self) -> u64 {
        self.jobs.len() as u64
    }

    /// Arrivals accepted (started or queued) — never rejected.
    pub fn admitted(&self) -> u64 {
        self.submitted() - self.rejected()
    }

    /// Arrivals dropped by the admission bound.
    pub fn rejected(&self) -> u64 {
        self.count(|j| matches!(j.outcome, JobOutcome::Rejected))
    }

    /// Jobs that ran to completion.
    pub fn completed(&self) -> u64 {
        self.count(|j| matches!(j.outcome, JobOutcome::Completed { .. }))
    }

    /// Admitted jobs still queued or running at the horizon.
    pub fn in_flight(&self) -> u64 {
        self.count(|j| matches!(j.outcome, JobOutcome::InFlight { .. }))
    }

    fn count(&self, pred: impl Fn(&JobRecord) -> bool) -> u64 {
        self.jobs.iter().filter(|j| pred(j)).count() as u64
    }

    /// Sojourn times (`finish − submit`, ns) of completed jobs, sorted
    /// ascending — the sample the latency percentiles are taken from.
    pub fn latencies_sorted(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .jobs
            .iter()
            .filter_map(|j| match j.outcome {
                JobOutcome::Completed { finish_ns, .. } => Some(finish_ns - j.submit_ns),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Queueing delays (`start − submit`, ns) of completed jobs,
    /// sorted ascending.
    pub fn waits_sorted(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .jobs
            .iter()
            .filter_map(|j| match j.outcome {
                JobOutcome::Completed { start_ns, .. } => Some(start_ns - j.submit_ns),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Fraction of partition-time spent serving jobs:
    /// `Σ busy / (partitions · span)` (0 when nothing ran).
    pub fn utilization(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        busy as f64 / (f64::from(self.partitions) * self.span_ns as f64)
    }

    /// Distills the outcome into the flat [`SweepRecord`] metric bag
    /// the sweep engine aggregates (see the crate's metric-name
    /// conventions in [`crate::runner::run_scenario`]):
    /// `jobs_submitted`/`jobs_admitted`/`jobs_rejected`/
    /// `jobs_completed`/`jobs_in_flight` counters, `makespan_ns`
    /// (the span, so `hisq run`'s human table stays meaningful),
    /// `throughput_jobs_per_s`, `utilization`, and — when any job
    /// completed — nearest-rank `latency_p50_ns`/`latency_p95_ns`/
    /// `latency_p99_ns`, `latency_mean_ns`, and
    /// `wait_p50_ns`/`wait_p99_ns`.
    pub fn record(&self, id: String) -> SweepRecord {
        let mut record = SweepRecord::new(id)
            .with("jobs_submitted", self.submitted())
            .with("jobs_admitted", self.admitted())
            .with("jobs_rejected", self.rejected())
            .with("jobs_completed", self.completed())
            .with("jobs_in_flight", self.in_flight())
            .with("makespan_ns", self.span_ns)
            .with("utilization", self.utilization());
        let throughput = if self.span_ns == 0 {
            0.0
        } else {
            self.completed() as f64 * 1e9 / self.span_ns as f64
        };
        record.set("throughput_jobs_per_s", throughput);
        let latencies = self.latencies_sorted();
        if !latencies.is_empty() {
            for (name, p) in [
                ("latency_p50_ns", 50.0),
                ("latency_p95_ns", 95.0),
                ("latency_p99_ns", 99.0),
            ] {
                record.set(
                    name,
                    percentile_nearest_rank(&latencies, p).expect("non-empty sample"),
                );
            }
            let mean = latencies.iter().map(|&v| v as f64).sum::<f64>() / latencies.len() as f64;
            record.set("latency_mean_ns", mean);
            let waits = self.waits_sorted();
            record.set(
                "wait_p50_ns",
                percentile_nearest_rank(&waits, 50.0).expect("non-empty sample"),
            );
            record.set(
                "wait_p99_ns",
                percentile_nearest_rank(&waits, 99.0).expect("non-empty sample"),
            );
        }
        record
    }
}

/// One merged arrival before the run.
struct Arrival {
    submit_ns: u64,
    stream: usize,
    priority: u32,
}

/// Job-engine events on the shared calendar queue.
enum LoadEvent {
    /// Job `job` arrives.
    Arrive(usize),
    /// Job `job` completes on `partition`.
    Finish { job: usize, partition: u32 },
}

/// A started job's in-progress bookkeeping.
#[derive(Clone, Copy)]
struct Started {
    partition: u32,
    start_ns: u64,
    service_ns: u64,
}

/// `[0, 1)` uniform from a 64-bit draw (53-bit mantissa).
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded exponential sample with the given mean, rounded to whole
/// nanoseconds and clamped to at least 1 ns (a zero-length service or
/// gap would break start-time monotonicity proofs for free).
fn exponential_ns(draw: u64, mean_ns: f64) -> u64 {
    let sample = -mean_ns * (1.0 - unit(draw)).ln();
    sample.round().max(1.0) as u64
}

/// Generates the merged arrival list: per-stream submit times, merged
/// and numbered by `(submit_ns, stream index, per-stream sequence)`.
fn merged_arrivals(spec: &LoadSpec, seed: u64) -> Vec<Arrival> {
    let mut arrivals: Vec<(u64, usize, u64, u32)> = Vec::new();
    for (k, stream) in spec.streams.iter().enumerate() {
        match &stream.process {
            ArrivalProcess::Poisson { rate_per_ms, jobs } => {
                let mean_gap_ns = 1e6 / rate_per_ms;
                let stream_seed = splitmix64(seed ^ ARRIVAL_SALT ^ (k as u64).wrapping_mul(PHI));
                let mut t = 0u64;
                for j in 0..*jobs {
                    let draw = splitmix64(stream_seed ^ j.wrapping_mul(PHI));
                    t = t.saturating_add(exponential_ns(draw, mean_gap_ns));
                    arrivals.push((t, k, j, stream.priority));
                }
            }
            ArrivalProcess::Trace { submit_ns } => {
                for (j, &t) in submit_ns.iter().enumerate() {
                    arrivals.push((t, k, j as u64, stream.priority));
                }
            }
        }
    }
    arrivals.sort_unstable_by_key(|&(t, k, j, _)| (t, k, j));
    arrivals
        .into_iter()
        .map(|(submit_ns, stream, _, priority)| Arrival {
            submit_ns,
            stream,
            priority,
        })
        .collect()
}

/// Runs the job engine for a load scenario and returns the full
/// per-job outcome (the test surface; sweep callers go through
/// [`run_scenario`](crate::runner::run_scenario), which distills
/// [`LoadOutcome::record`]).
///
/// # Errors
///
/// [`RunnerError::Load`] when the scenario has no `load` block or the
/// spec fails [`LoadSpec::validate`]; any compile error of the job
/// type (attributed to the load scenario's id); under simulated
/// service, any run-stage [`RunnerError`] of the per-job inner runs
/// (attributed to the inner job's own scenario id).
pub fn run_load(scenario: &Scenario, cache: &CompileCache) -> Result<LoadOutcome, RunnerError> {
    let id = scenario.id();
    let spec = scenario.load.as_ref().ok_or_else(|| RunnerError::Load {
        id: id.clone(),
        message: "scenario has no load block".into(),
    })?;
    spec.validate().map_err(|message| RunnerError::Load {
        id: id.clone(),
        message,
    })?;

    // The inner job type: the scenario without its load block. It
    // compiles exactly once — a single cache consult per load run, on
    // the same `CompileKey` as the outer scenario (the load block is
    // run-stage) — and every simulated job runs from the shared
    // artifact with its own seed. Exponential-service runs resolve the
    // artifact too: one consult per grid point regardless of service
    // model, and an uncompilable workload fails up front instead of
    // only when a job would start.
    let mut job_type = scenario.clone();
    job_type.load = None;
    let artifact = cache
        .get_or_compile(&job_type)
        .map_err(|e| e.with_id(&id))?;

    let arrivals = merged_arrivals(spec, scenario.seed);
    let n = arrivals.len();

    // Per-job service time, a pure function of (scenario, job index) —
    // never of scheduling order.
    let service_of = |job: usize| -> Result<u64, RunnerError> {
        let job_seed = scenario.seed.wrapping_add(job as u64);
        match spec.service {
            ServiceModel::Exponential { mean_ns } => {
                let draw = splitmix64(job_seed.wrapping_mul(PHI) ^ SERVICE_SALT);
                Ok(exponential_ns(draw, mean_ns))
            }
            ServiceModel::Simulated => {
                let mut inner = job_type.clone();
                inner.seed = job_seed;
                let record = run_scenario_from_artifact(&inner, &artifact)?;
                record
                    .counter("makespan_ns")
                    .ok_or_else(|| RunnerError::Load {
                        id: id.clone(),
                        message: format!("job {job}: inner run reported no makespan"),
                    })
            }
        }
    };

    let mut events: CalendarQueue<LoadEvent> = CalendarQueue::new();
    for (job, arrival) in arrivals.iter().enumerate() {
        events.push(arrival.submit_ns, LoadEvent::Arrive(job));
    }

    let mut free: BTreeSet<u32> = (0..spec.partitions).collect();
    // The admission queue: pops ascending (priority, job). Job numbers
    // are monotone in arrival order, so within a priority class this
    // is exactly FIFO.
    let mut waiting: BTreeMap<(u32, usize), usize> = BTreeMap::new();
    let mut started: Vec<Option<Started>> = vec![None; n];
    let mut finished: Vec<Option<u64>> = vec![None; n];
    let mut rejected: Vec<bool> = vec![false; n];
    let mut busy_ns: Vec<u64> = vec![0; spec.partitions as usize];
    let mut last_finish_ns = 0u64;

    let start = |job: usize,
                 now: u64,
                 free: &mut BTreeSet<u32>,
                 started: &mut Vec<Option<Started>>,
                 events: &mut CalendarQueue<LoadEvent>|
     -> Result<(), RunnerError> {
        let partition = *free.iter().next().expect("a free partition");
        free.remove(&partition);
        let service_ns = service_of(job)?;
        started[job] = Some(Started {
            partition,
            start_ns: now,
            service_ns,
        });
        events.push(
            now.saturating_add(service_ns),
            LoadEvent::Finish { job, partition },
        );
        Ok(())
    };

    let stopped_at = loop {
        let Some(at) = events.next_at() else {
            break None;
        };
        if let Some(horizon) = spec.horizon_ns {
            if at > horizon {
                break Some(horizon);
            }
        }
        let (now, event) = events.pop().expect("peeked event");
        match event {
            LoadEvent::Arrive(job) => {
                if !free.is_empty() {
                    // Invariant: a free partition implies an empty
                    // waiting queue (completions refill eagerly), so
                    // the arrival starts immediately.
                    debug_assert!(waiting.is_empty());
                    start(job, now, &mut free, &mut started, &mut events)?;
                } else if waiting.len() < spec.queue_capacity {
                    waiting.insert((arrivals[job].priority, job), job);
                } else {
                    rejected[job] = true;
                }
            }
            LoadEvent::Finish { job, partition } => {
                finished[job] = Some(now);
                last_finish_ns = last_finish_ns.max(now);
                busy_ns[partition as usize] +=
                    now - started[job].expect("finished job started").start_ns;
                free.insert(partition);
                if let Some((&key, _)) = waiting.iter().next() {
                    let next = waiting.remove(&key).expect("peeked entry");
                    start(next, now, &mut free, &mut started, &mut events)?;
                }
            }
        }
    };

    let span_ns = match stopped_at {
        Some(horizon) => {
            // Truncate the busy time of still-running jobs at the
            // horizon.
            for job in 0..n {
                if let (Some(s), None) = (started[job], finished[job]) {
                    busy_ns[s.partition as usize] += horizon - s.start_ns;
                }
            }
            horizon
        }
        None => last_finish_ns,
    };

    let jobs = arrivals
        .iter()
        .enumerate()
        .map(|(job, arrival)| {
            let outcome = if rejected[job] {
                JobOutcome::Rejected
            } else {
                match (started[job], finished[job]) {
                    (Some(s), Some(finish_ns)) => JobOutcome::Completed {
                        partition: s.partition,
                        start_ns: s.start_ns,
                        service_ns: s.service_ns,
                        finish_ns,
                    },
                    (s, None) => JobOutcome::InFlight {
                        partition: s.map(|s| s.partition),
                        start_ns: s.map(|s| s.start_ns),
                    },
                    (None, Some(_)) => unreachable!("job finished without starting"),
                }
            };
            JobRecord {
                job,
                stream: arrival.stream,
                priority: arrival.priority,
                submit_ns: arrival.submit_ns,
                outcome,
            }
        })
        .collect();

    Ok(LoadOutcome {
        jobs,
        partitions: spec.partitions,
        busy_ns,
        span_ns,
    })
}

/// [`run_load`] distilled into the sweep record
/// [`run_scenario`](crate::runner::run_scenario) returns for load
/// scenarios.
///
/// # Errors
///
/// As [`run_load`].
pub fn load_record(
    scenario: &Scenario,
    cache: &CompileCache,
) -> Result<ScenarioReport, RunnerError> {
    Ok(run_load(scenario, cache)?.record(scenario.id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_compiler::Scheme;
    use hisq_workloads::WorkloadSpec;

    fn exp_scenario(spec: LoadSpec) -> Scenario {
        let mut scenario = Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp);
        scenario.load = Some(spec);
        scenario
    }

    #[test]
    fn empty_machine_serves_every_job_with_zero_wait() {
        let spec = LoadSpec::new(vec![ArrivalStream::trace(vec![0, 1_000_000, 2_000_000])], 2)
            .with_service(ServiceModel::Exponential { mean_ns: 10_000.0 });
        let outcome = run_load(&exp_scenario(spec), &CompileCache::new()).unwrap();
        assert_eq!(outcome.completed(), 3);
        assert_eq!(outcome.rejected(), 0);
        assert!(outcome.waits_sorted().iter().all(|&w| w == 0));
    }

    #[test]
    fn zero_capacity_queue_rejects_overlapping_arrivals() {
        // Two arrivals at t=0 onto one partition with no queue: the
        // second is rejected (drop-newest).
        let spec = LoadSpec::new(vec![ArrivalStream::trace(vec![0, 0])], 1)
            .with_queue_capacity(0)
            .with_service(ServiceModel::Exponential { mean_ns: 50_000.0 });
        let outcome = run_load(&exp_scenario(spec), &CompileCache::new()).unwrap();
        assert_eq!(outcome.completed(), 1);
        assert_eq!(outcome.rejected(), 1);
        assert_eq!(outcome.jobs[1].outcome, JobOutcome::Rejected);
    }

    #[test]
    fn lower_priority_value_pops_first_between_classes() {
        // One partition busy with the t=0 job; a batch (priority 1)
        // job arrives before an interactive (priority 0) job, but the
        // interactive one starts first once the partition frees.
        let spec = LoadSpec::new(
            vec![
                ArrivalStream::trace(vec![0, 10]).with_priority(1),
                ArrivalStream::trace(vec![20]).with_priority(0),
            ],
            1,
        )
        .with_service(ServiceModel::Exponential { mean_ns: 500_000.0 });
        let outcome = run_load(&exp_scenario(spec), &CompileCache::new()).unwrap();
        let start_of = |job: usize| match outcome.jobs[job].outcome {
            JobOutcome::Completed { start_ns, .. } => start_ns,
            ref other => panic!("job {job} did not complete: {other:?}"),
        };
        // Merged order: job0 = t0 (batch), job1 = t10 (batch),
        // job2 = t20 (interactive). Job 2 must start before job 1.
        assert!(start_of(2) < start_of(1));
    }

    #[test]
    fn horizon_reports_in_flight_jobs() {
        let spec = LoadSpec::new(vec![ArrivalStream::trace(vec![0, 0, 0])], 1)
            .with_service(ServiceModel::Exponential { mean_ns: 1e9 })
            .with_horizon_ns(1_000);
        let outcome = run_load(&exp_scenario(spec), &CompileCache::new()).unwrap();
        assert_eq!(outcome.completed(), 0);
        assert_eq!(outcome.in_flight(), 3);
        assert_eq!(outcome.span_ns, 1_000);
        // The running job's busy time is truncated at the horizon.
        assert_eq!(outcome.busy_ns, vec![1_000]);
    }

    #[test]
    fn load_spec_round_trips_through_json() {
        let spec = LoadSpec::new(
            vec![
                ArrivalStream::poisson(2.5, 100),
                ArrivalStream::trace(vec![5, 10, 10]).with_priority(3),
            ],
            4,
        )
        .with_queue_capacity(16)
        .with_service(ServiceModel::Exponential { mean_ns: 60_000.0 })
        .with_horizon_ns(5_000_000);
        let text = spec.to_json().to_string_pretty();
        let parsed = LoadSpec::from_json(&Json::parse(&text).unwrap(), "load").unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn malformed_load_specs_name_their_paths() {
        for (text, needle) in [
            (
                r#"{"streams": [], "partitions": 2}"#,
                "at least one arrival stream",
            ),
            (
                r#"{"streams": [{"process": "poisson", "rate_per_ms": 1.0, "jobs": 5}],
                    "partitions": 0}"#,
                "at least one partition",
            ),
            (
                r#"{"streams": [{"process": "poisson", "rate_per_ms": 0.0, "jobs": 5}],
                    "partitions": 2}"#,
                "rate_per_ms must be positive",
            ),
            (
                r#"{"streams": [{"process": "trace", "submit_ns": [5, 3]}],
                    "partitions": 2}"#,
                "non-decreasing",
            ),
            (
                r#"{"streams": [{"process": "drizzle"}], "partitions": 2}"#,
                "unknown arrival process",
            ),
            (
                r#"{"streams": [{"process": "poisson", "rate_per_ms": 1.0, "jobs": 5,
                    "tenant": "a"}], "partitions": 2}"#,
                "unknown field `tenant`",
            ),
            (
                r#"{"streams": [{"process": "poisson", "rate_per_ms": 1.0, "jobs": 5}],
                    "partitions": 2, "service": {"model": "quadratic"}}"#,
                "unknown service model",
            ),
        ] {
            let err = LoadSpec::from_json(&Json::parse(text).unwrap(), "load").unwrap_err();
            assert!(err.to_string().contains(needle), "{text}\n-> {err}");
        }
    }

    #[test]
    fn id_fragment_distinguishes_distinct_traces() {
        let a = LoadSpec::new(vec![ArrivalStream::trace(vec![1, 2, 3])], 2);
        let b = LoadSpec::new(vec![ArrivalStream::trace(vec![1, 2, 4])], 2);
        assert_ne!(a.id_fragment(), b.id_fragment());
    }

    #[test]
    fn poisson_arrivals_replay_and_track_their_rate() {
        let spec = LoadSpec::new(vec![ArrivalStream::poisson(2.0, 4_000)], 1);
        let a = merged_arrivals(&spec, 7);
        let b = merged_arrivals(&spec, 7);
        assert_eq!(a.len(), 4_000);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.submit_ns == y.submit_ns),
            "same seed replays"
        );
        let c = merged_arrivals(&spec, 8);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.submit_ns != y.submit_ns),
            "different seeds differ"
        );
        // Mean gap ≈ 1e6/2 ns = 0.5 ms; 4k samples pin it within 5%.
        let mean_gap = a.last().unwrap().submit_ns as f64 / a.len() as f64;
        assert!(
            (mean_gap - 500_000.0).abs() < 25_000.0,
            "mean gap {mean_gap} off the 500000 ns target"
        );
    }
}
