//! The `fig_scale` scaling sweep (and the event-engine bench's system
//! builders): fig15-style normalized runtime of Distributed-HISQ
//! (BISP) vs the lock-step hub baseline at 256–4096 controllers.
//!
//! The paper's evaluation stops at rack scale; the parallel/distributed
//! quantum-simulation literature (see PAPERS.md) motivates the
//! 1024–4096 controller regime as the interesting one, and this sweep
//! is the repo's proof that the calendar-queue event core actually
//! reaches it. Workloads are synthesized directly as HISQ programs (no
//! compiler in the loop), the same systems the `event_engine` bench
//! times: each BISP round pairs nearby syncs, exchanges a classical
//! value, and region-syncs through the router tree; each lock-step
//! round broadcasts one value through the hub to every subscriber.
//!
//! The report carries only simulation-deterministic metrics (event
//! counts, makespans, instruction counts — never wall time), so its
//! JSON is byte-identical across thread counts and machines and can be
//! committed as `BENCH_fig_scale.json` and byte-compared by
//! `ci/check_baselines.sh`.

use std::collections::BTreeMap;

use hisq_core::NodeConfig;
use hisq_isa::Assembler;
use hisq_net::TopologyBuilder;
use hisq_sim::{SweepRecord, SweepReport, SweepRunner, System, SystemSpec};

/// Controller counts of the scaling axis (quick and full alike: the
/// committed baseline must carry the full 256–4096 range).
pub const SCALE_SIZES: [usize; 4] = [256, 512, 1024, 4096];

/// Synchronization/broadcast rounds per run: `--quick` trims the
/// rounds (the per-size system shape is the figure's whole point and
/// is never trimmed).
#[must_use]
pub fn scale_rounds(quick: bool) -> u32 {
    if quick {
        6
    } else {
        40
    }
}

fn asm(src: &str) -> Vec<hisq_isa::Inst> {
    Assembler::new()
        .assemble(src)
        .expect("scale program assembles")
        .insts()
        .to_vec()
}

/// A BISP system of `n` controllers on a linear mesh under an arity-4
/// router tree: every round pairs nearby syncs, exchanges a classical
/// value, and region-syncs through the root, `rounds` times.
#[must_use]
pub fn build_bisp(n: usize, rounds: u32) -> System {
    let topo = TopologyBuilder::linear(n)
        .neighbor_latency(5)
        .router_latency(10)
        .router_arity(4)
        .build();
    let root = topo.root_router().unwrap();
    let mut programs = BTreeMap::new();
    for i in 0..n as u16 {
        let partner = i ^ 1;
        let exchange = if i % 2 == 0 {
            format!("send {partner}, t1\nrecv t2, {partner}")
        } else {
            format!("recv t2, {partner}\nsend {partner}, t2")
        };
        let src = format!(
            "
            li t1, {rounds}
        loop:
            waiti 10
            sync {partner}
            waiti 6
            cw.i.i 0, 1
            {exchange}
            li t0, 40
            sync {root}, t0
            waiti 40
            cw.i.i 1, 1
            addi t1, t1, -1
            bnez t1, loop
            stop
            "
        );
        programs.insert(i, asm(&src));
    }
    SystemSpec::from_topology(&topo, programs)
        .build()
        .expect("scale system builds")
}

/// A lock-step system of `n` controllers on a star: controller 0
/// publishes a value to the hub every round; every controller consumes
/// the broadcast, `rounds` times.
#[must_use]
pub fn build_lockstep(n: usize, rounds: u32) -> System {
    let hub = n as u16;
    let mut spec = SystemSpec::new();
    spec.hub(
        hub,
        hisq_sim::Hub {
            subscribers: (0..n as u16).collect(),
            down_latency: 25,
        },
    );
    for i in 0..n as u16 {
        let publish = if i == 0 {
            format!("send {hub}, t1\n")
        } else {
            String::new()
        };
        let src = format!(
            "
            li t1, {rounds}
        loop:
            {publish}recv t2, {hub}
            waiti 10
            cw.i.i 0, 1
            addi t1, t1, -1
            bnez t1, loop
            stop
            "
        );
        spec.controller(NodeConfig::new(i).with_pipeline_headroom(32), asm(&src));
    }
    spec.build().expect("scale system builds")
}

/// One sweep point: a scheme at a controller count.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// `"bisp"` or `"lockstep"`.
    pub scheme: &'static str,
    /// System size.
    pub controllers: usize,
}

impl ScalePoint {
    /// The record id: `n<controllers>/<scheme>/r<rounds>`.
    #[must_use]
    pub fn id(&self, rounds: u32) -> String {
        format!("n{}/{}/r{rounds}", self.controllers, self.scheme)
    }
}

/// The sweep grid: every size under both schemes, BISP first (the
/// pairing [`scale_rows`] relies on, mirroring `fig15_rows`).
#[must_use]
pub fn scale_points(sizes: &[usize]) -> Vec<ScalePoint> {
    sizes
        .iter()
        .flat_map(|&controllers| {
            ["bisp", "lockstep"].map(|scheme| ScalePoint {
                scheme,
                controllers,
            })
        })
        .collect()
}

/// Builds, runs, and distills one scale point into its sweep record.
/// Only simulation-deterministic metrics are recorded — wall time
/// would break the byte-identity contract of the committed baseline.
#[must_use]
pub fn run_scale_point(point: ScalePoint, rounds: u32) -> SweepRecord {
    let mut system = match point.scheme {
        "bisp" => build_bisp(point.controllers, rounds),
        _ => build_lockstep(point.controllers, rounds),
    };
    let report = system.run().expect("scale workload runs to quiescence");
    SweepRecord::new(point.id(rounds))
        .with("makespan_cycles", report.makespan_cycles)
        .with("makespan_ns", report.makespan_ns)
        .with("instructions", report.total_instructions)
        .with("syncs", report.total_syncs)
        .with("stall_cycles", report.total_stall_cycles)
        .with("messages", report.events_processed)
        .with("all_halted", report.all_halted)
}

/// Runs the scaling sweep over `sizes` on `threads` workers; the
/// report is byte-identical for any thread count (records land in
/// point order; every metric is simulation-deterministic).
#[must_use]
pub fn run_scale_sweep(sizes: &[usize], rounds: u32, threads: usize) -> SweepReport {
    let points = scale_points(sizes);
    let records =
        SweepRunner::new(threads).map(&points, |_, &point| run_scale_point(point, rounds));
    SweepReport::from_records(records)
}

/// One figure row: both schemes at a size, with the fig15-style
/// normalized runtime (BISP cycles / lock-step cycles; < 1 means BISP
/// is faster).
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// System size.
    pub controllers: usize,
    /// BISP end-to-end makespan (ns).
    pub bisp_ns: u64,
    /// Lock-step end-to-end makespan (ns).
    pub lockstep_ns: u64,
    /// BISP makespan normalized to the lock-step baseline.
    pub normalized: f64,
    /// Engine events processed by the BISP run.
    pub bisp_events: u64,
    /// Engine events processed by the lock-step run.
    pub lockstep_events: u64,
}

/// Pairs the report's records (BISP, lock-step per size, in
/// [`scale_points`] order) into figure rows.
///
/// # Panics
///
/// Panics if a run deadlocked or the records do not pair up — a
/// committed baseline must never hide a blocked system.
#[must_use]
pub fn scale_rows(report: &SweepReport) -> Vec<ScaleRow> {
    report
        .records()
        .chunks(2)
        .map(|pair| {
            let [bisp, lockstep] = pair else {
                panic!("records must pair up per size");
            };
            for record in pair {
                assert_eq!(
                    record.value("all_halted"),
                    Some(1.0),
                    "{}: run blocked",
                    record.id
                );
            }
            let counter = |r: &SweepRecord, key: &str| r.counter(key).expect("standard metrics");
            let controllers = bisp
                .id
                .strip_prefix('n')
                .and_then(|rest| rest.split('/').next())
                .and_then(|n| n.parse().ok())
                .expect("scale ids start with n<controllers>");
            ScaleRow {
                controllers,
                bisp_ns: counter(bisp, "makespan_ns"),
                lockstep_ns: counter(lockstep, "makespan_ns"),
                normalized: counter(bisp, "makespan_cycles") as f64
                    / counter(lockstep, "makespan_cycles") as f64,
                bisp_events: counter(bisp, "messages"),
                lockstep_events: counter(lockstep, "messages"),
            }
        })
        .collect()
}
