//! Data producers for every figure of the paper's evaluation; the
//! renderers in [`crate::render`] print them and the unit tests below
//! check them. Each experiment figure (5, 6, 7, 11 and 12/13) has one
//! function that runs its points in order. The scenario-driven figures
//! (15, 16, and the contention, noise and heterogeneous-fabric
//! extensions) read their grids from committed scenario files (see
//! [`crate::grids`]); the functions here distill the aggregated sweep
//! records back into figure rows/points, reading grid coordinates from
//! the expanded [`Scenario`]s.

use distributed_hisq::compiler::{compile_bisp, BispOptions, Scheme};
use distributed_hisq::quantum::Circuit;
use distributed_hisq::runner::Scenario;
use distributed_hisq::workloads::{long_range_controllers, WorkloadSpec};
use hisq_analog::experiments::{
    circle_experiment, rabi_experiment, spectroscopy_experiment, t1_experiment, CircleConfig,
    CircleResult, RabiConfig, RabiResult, SpectroscopyConfig, SpectroscopyResult, T1Config,
    T1Result,
};
use hisq_core::NodeConfig;
use hisq_isa::Assembler;
use hisq_net::TopologyBuilder;
use hisq_sim::{SweepRecord, SweepReport, SystemSpec, Telf};

/// Figure 5: BISP synchronization timing as two records, `nearby`
/// (5a) and `remote` (5b).
pub fn fig05_report() -> SweepReport {
    SweepReport::from_records(vec![fig05_nearby(), fig05_remote()])
}

/// Figure 5(a): two controllers with different-length deterministic
/// prologues synchronize; both must commit at `max(T₀, T₁)` with zero
/// overhead. Records the booking cycles B₀/B₁, the link latency (the
/// calibrated countdown N = L), both commit cycles, and the overhead
/// in cycles (0 = the paper's zero-cycle claim).
fn fig05_nearby() -> SweepRecord {
    let latency: u64 = 6;
    let (booking0, booking1) = (40, 90);
    let program = |pad: u64, partner: u16| {
        Assembler::new()
            .assemble(&format!(
                "waiti {pad}\nsync {partner}\nwaiti {latency}\ncw.i.i 0, 1\nstop"
            ))
            .expect("assembles")
            .insts()
            .to_vec()
    };
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, latency),
        program(booking0, 1),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, latency),
        program(booking1, 0),
    );
    let mut system = spec.build().expect("builds");
    let report = system.run().expect("runs");
    assert!(report.all_halted);
    let telf = system.telf();
    let commit0 = telf.commits_of(0)[0].cycle;
    let commit1 = telf.commits_of(1)[0].cycle;
    // Natural readiness: T_i = booking + countdown; the later controller
    // (booking 90) dictates.
    let t_late = booking1 + latency;
    SweepRecord::new("nearby")
        .with("booking0", booking0)
        .with("booking1", booking1)
        .with("link_latency", latency)
        .with("commit0", commit0)
        .with("commit1", commit1)
        .with("overhead", commit0.max(commit1) - t_late)
        .with("aligned", commit0 == commit1)
}

/// Figure 5(b): region-level synchronization through the router tree.
/// Three controllers each book a time-point with the root router and
/// all commit together. Records each controller's booking cycle B_i
/// and horizon, the common commit cycle, and whether all committed at
/// that cycle.
fn fig05_remote() -> SweepRecord {
    let work = [(40, 30), (90, 30), (60, 30)];
    let commits = region_sync_commits(10, &work);
    let mut record = SweepRecord::new("remote")
        .with("commit", commits[0])
        .with("aligned", commits.iter().all(|&c| c == commits[0]));
    for (i, (booking, horizon)) in work.into_iter().enumerate() {
        record.set(format!("booking_c{i}"), booking);
        record.set(format!("horizon_c{i}"), horizon);
    }
    record
}

/// Region-level synchronization through the router tree (Figures 5(b)
/// and 7) on a linear mesh under one root router: controller `i` does
/// `work[i].0` cycles of deterministic work, then books a time-point
/// `work[i].1` cycles ahead with the root and commits a pulse there.
/// Returns every controller's commit cycle.
fn region_sync_commits(router_latency: u64, work: &[(u64, u64)]) -> Vec<u64> {
    let topo = TopologyBuilder::linear(work.len())
        .neighbor_latency(5)
        .router_latency(router_latency)
        .build();
    let root = topo.root_router().expect("a mesh has a root router");
    let programs = (0..).zip(work).map(|(i, (pad, horizon))| {
        let src = format!(
            "li t0, {horizon}\nwaiti {pad}\nsync {root}, t0\nwaiti {horizon}\ncw.i.i 0, 1\nstop"
        );
        let program = Assembler::new().assemble(&src).expect("assembles");
        (i, program.insts().to_vec())
    });
    let mut system = SystemSpec::from_topology(&topo, programs.collect())
        .build()
        .expect("builds");
    let report = system.run().expect("runs");
    assert!(report.all_halted, "{:?}", report.blocked);
    let telf = system.telf();
    (0..work.len() as u16)
        .map(|a| telf.commits_of(a)[0].cycle)
        .collect()
}

/// Figure 6: the generated per-controller listings for a synchronized
/// two-qubit gate, as one record holding both listings and whether
/// controller 0's `sync` is hoisted ahead of its last codeword.
pub fn fig06_report() -> SweepReport {
    let topo = TopologyBuilder::linear(2).neighbor_latency(5).build();
    let mut circuit = Circuit::new(2, 1);
    circuit.h(0);
    circuit.h(0);
    circuit.cz(0, 1);
    let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).expect("compiles");
    let listing = |node| compiled.listing(node).expect("compiled");
    let (c0, c1) = (listing(0), listing(1));
    let hoisted = match (c0.find("sync"), c0.rfind("cw.i.i")) {
        (Some(sync), Some(last_cw)) => sync < last_cw,
        _ => false,
    };
    SweepReport::from_records(vec![SweepRecord::new("nearby_cz")
        .with("controller_0", c0)
        .with("controller_1", c1)
        .with("sync_hoisted", hoisted)])
}

/// The Figure 7 booking-uplink latency L₂ (cycles).
const FIG07_L2: u64 = 10;
/// The Figure 7 deterministic horizon D₂ (cycles).
const FIG07_D2: u64 = 4;

/// Figure 7: synchronization overhead when deterministic work cannot
/// cover the booking communication latency. Two records, `real` (the
/// router latency L₂) and `ideal` (zero-latency links, the theoretical
/// earliest); their `commit_c2` differ by the overhead `L₂ − D₂`. C0
/// and C1 finish early with generous horizons; C2 is the bottleneck
/// with only D₂ cycles of deterministic work.
pub fn fig07_report() -> SweepReport {
    let work = [(10, 40), (20, 40), (60, FIG07_D2)];
    SweepReport::from_records(
        [("real", FIG07_L2), ("ideal", 0)]
            .into_iter()
            .map(|(label, latency)| {
                SweepRecord::new(label)
                    .with("router_latency", latency)
                    .with("d2", FIG07_D2)
                    .with("l2", FIG07_L2)
                    .with("commit_c2", region_sync_commits(latency, &work)[2])
            })
            .collect(),
    )
}

/// The Figure 11 calibration experiments, in the order the figure runs
/// them.
pub const FIG11_EXPERIMENTS: [&str; 4] = ["circle", "freq", "rabi", "t1"];

/// One Figure 11 calibration experiment's result.
#[derive(Debug, Clone)]
pub enum Calibration {
    /// (a) Draw circle: the readout phase sweep.
    Circle(CircleResult),
    /// (b) Qubit spectroscopy: the frequency sweep.
    Freq(SpectroscopyResult),
    /// (c) Rabi oscillation: the amplitude sweep.
    Rabi(RabiResult),
    /// (d) Relaxation time: the delay sweep.
    T1(T1Result),
}

/// Figure 11: runs the calibration experiments end to end through HISQ
/// programs, in [`FIG11_EXPERIMENTS`] order, or only the one `only`
/// names (a name outside that list selects none). `quick` trims the
/// sweep axes and shot counts; the fits stay well-conditioned.
pub fn fig11_calibrations(quick: bool, only: Option<&str>) -> Vec<Calibration> {
    let mut circle = CircleConfig::default();
    let mut freq = SpectroscopyConfig::default();
    let mut rabi = RabiConfig::default();
    let mut t1 = T1Config::default();
    if quick {
        circle.points = 16;
        freq.points = 21;
        freq.shots = 64;
        rabi.points = 21;
        rabi.shots = 64;
        t1.points = 16;
        t1.shots = 64;
    }
    FIG11_EXPERIMENTS
        .into_iter()
        .filter(|&name| only.is_none_or(|only| only == name))
        .map(|name| match name {
            "circle" => Calibration::Circle(circle_experiment(&circle)),
            "freq" => Calibration::Freq(spectroscopy_experiment(&freq)),
            "rabi" => Calibration::Rabi(rabi_experiment(&rabi)),
            _ => Calibration::T1(t1_experiment(&t1)),
        })
        .collect()
}

/// Figures 12/13: the paper's electronics-level synchronization
/// experiment.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// The full TELF trace of both boards.
    pub telf: Telf,
    /// Per-iteration cycle difference between the synchronized pulses
    /// (control port 7 vs readout port 5); constant = cycle-aligned.
    pub alignment: Vec<i64>,
    /// Commit cycles of the control board's synchronized pulse per
    /// iteration (the `waitr` drift is visible here).
    pub control_pulses: Vec<u64>,
}

/// Runs the paper's Figure 12 programs on a two-board system, with the
/// inner loop bounded to `iterations` (the figure runs three, its
/// `--quick` twin two).
///
/// # Panics
///
/// Panics if `iterations` is zero (the alignment check needs at least
/// one synchronized pulse pair).
pub fn fig13_waveforms(iterations: usize) -> Fig13 {
    assert!(iterations > 0, "fig13 needs at least one iteration");
    let latency = 4;
    // The control board of Figure 12, with the infinite outer loop
    // replaced by `stop` and the `waitr` horizon bounded to
    // `iterations` (the register grows by 40 per pass).
    let control = format!(
        "
        addi $2,$0,{}
        addi $1,$0,0
    loop:
        waiti 1
        cw.i.i 21,2
        addi $1,$1,40
        cw.i.i 20,2
        waitr $1
        sync 1
        waiti 8
        cw.i.i 7,1
        waiti 50
        bne $1,$2,loop
        stop
    ",
        40 * iterations
    );
    // The readout board, bounded to the same iterations.
    let readout = format!(
        "
        addi $3,$0,{iterations}
    loop:
        waiti 2
        sync 0
        waiti 6
        waiti 57
        cw.i.i 5,1
        addi $3,$3,-1
        bnez $3, loop
        stop
    ",
    );
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, latency),
        Assembler::new()
            .assemble(&control)
            .unwrap()
            .insts()
            .to_vec(),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, latency),
        Assembler::new()
            .assemble(&readout)
            .unwrap()
            .insts()
            .to_vec(),
    );
    let mut system = spec.build().expect("builds");
    let report = system.run().expect("runs");
    assert!(report.all_halted, "{:?}", report.blocked);
    let telf = system.telf();
    let alignment = telf.alignment((0, 7), (1, 5));
    let control_pulses = telf.channel(0, 7).iter().map(|r| r.cycle).collect();
    Fig13 {
        telf,
        alignment,
        control_pulses,
    }
}

/// One row of Figure 15.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Benchmark name.
    pub name: String,
    /// Distributed-HISQ end-to-end runtime (ns).
    pub bisp_ns: u64,
    /// Lock-step baseline runtime (ns).
    pub lockstep_ns: u64,
    /// `bisp / lockstep` (the paper's normalized runtime; < 1 means
    /// Distributed-HISQ wins).
    pub normalized: f64,
    /// Total instructions executed under Distributed-HISQ.
    pub bisp_instructions: u64,
    /// Total instructions executed under the baseline.
    pub lockstep_instructions: u64,
}

/// Distills an executed Figure 15 sweep back into figure rows, pairing
/// each benchmark's scheme twins.
///
/// # Panics
///
/// Panics if the report does not hold [`FIG15`]-shaped records
/// (bisp/lockstep pairs with the standard metrics) or a run did not
/// halt.
///
/// [`FIG15`]: crate::grids::FIG15
pub fn fig15_rows(report: &SweepReport) -> Vec<Fig15Row> {
    report
        .records()
        .chunks(2)
        .map(|pair| {
            let [bisp, lockstep] = pair else {
                panic!("records must pair up per benchmark");
            };
            let name = bisp.id.split('/').next().unwrap_or(&bisp.id).to_string();
            for record in pair {
                assert_eq!(
                    record.value("all_halted"),
                    Some(1.0),
                    "{}: run blocked",
                    record.id
                );
            }
            let cycles = |r: &SweepRecord, key: &str| r.counter(key).expect("standard metrics");
            Fig15Row {
                name,
                bisp_ns: cycles(bisp, "makespan_ns"),
                lockstep_ns: cycles(lockstep, "makespan_ns"),
                normalized: cycles(bisp, "makespan_cycles") as f64
                    / cycles(lockstep, "makespan_cycles") as f64,
                bisp_instructions: cycles(bisp, "instructions"),
                lockstep_instructions: cycles(lockstep, "instructions"),
            }
        })
        .collect()
}

/// One point of the Figure 16 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Point {
    /// Relaxation time T1 = T2 in microseconds.
    pub t_us: f64,
    /// Distributed-HISQ circuit infidelity.
    pub infidelity_bisp: f64,
    /// Baseline circuit infidelity.
    pub infidelity_lockstep: f64,
    /// Reduction ratio (baseline / Distributed-HISQ).
    pub reduction_ratio: f64,
}

/// Distills an executed Figure 16 sweep back into figure points.
///
/// # Panics
///
/// Panics if the report does not hold [`FIG16`]-shaped records
/// (bisp/lockstep twins per T1 point) or a run did not halt.
///
/// [`FIG16`]: crate::grids::FIG16
pub fn fig16_points(scenarios: &[Scenario], report: &SweepReport) -> Vec<Fig16Point> {
    scenarios
        .chunks(2)
        .zip(report.records().chunks(2))
        .map(|(pair, records)| {
            let [bisp, lockstep] = records else {
                panic!("records must pair up per T1 point");
            };
            for record in records {
                assert_eq!(
                    record.value("all_halted"),
                    Some(1.0),
                    "{}: run blocked",
                    record.id
                );
            }
            let infidelity_bisp = bisp.value("infidelity").expect("standard metrics");
            let infidelity_lockstep = lockstep.value("infidelity").expect("standard metrics");
            Fig16Point {
                t_us: pair[0].t1_us,
                infidelity_bisp,
                infidelity_lockstep,
                reduction_ratio: infidelity_lockstep / infidelity_bisp,
            }
        })
        .collect()
}

/// One row of the contention figure: a (controller count, scheme,
/// serialization) point with its makespan and its slowdown relative to
/// the same point at zero serialization.
#[derive(Debug, Clone)]
pub struct ContentionRow {
    /// Physical controller count of the workload.
    pub controllers: usize,
    /// `"bisp"` or `"lockstep"`.
    pub scheme: &'static str,
    /// The swept per-message serialization time (ns).
    pub serialization_ns: u64,
    /// End-to-end runtime (ns).
    pub makespan_ns: u64,
    /// `makespan / makespan(serialization = 0)` for the same
    /// (controllers, scheme) — the contention-induced slowdown.
    pub slowdown: f64,
    /// Total link transmission attempts (0 at zero serialization,
    /// where links run the transparent model).
    pub link_messages: u64,
}

/// Distills an executed contention sweep back into figure rows.
///
/// # Panics
///
/// Panics if the report does not hold [`FIG_CONTENTION`]-shaped
/// records (long-range CNOT points, zero serialization leading each
/// size/scheme block) or a run did not halt.
///
/// [`FIG_CONTENTION`]: crate::grids::FIG_CONTENTION
pub fn fig_contention_rows(scenarios: &[Scenario], report: &SweepReport) -> Vec<ContentionRow> {
    let mut baselines: std::collections::BTreeMap<(usize, &'static str), u64> =
        std::collections::BTreeMap::new();
    let mut rows = Vec::with_capacity(scenarios.len());
    for (scenario, record) in scenarios.iter().zip(report.records()) {
        assert_eq!(
            record.value("all_halted"),
            Some(1.0),
            "{}: run blocked",
            record.id
        );
        let WorkloadSpec::LongRangeCnots { parallel, span } = scenario.workload else {
            panic!("contention scenarios run the long-range CNOT workload");
        };
        let controllers = long_range_controllers(parallel, span).expect("a parsed shape fits");
        let scheme = match scenario.scheme {
            Scheme::Bisp => "bisp",
            Scheme::Lockstep => "lockstep",
        };
        let serialization_ns = scenario.params.link_model.serialization_ns;
        let makespan_ns = record.counter("makespan_ns").expect("standard metrics");
        // The zero-serialization point leads its (size, scheme) block.
        let baseline = *baselines
            .entry((controllers, scheme))
            .or_insert(makespan_ns);
        rows.push(ContentionRow {
            controllers,
            scheme,
            serialization_ns,
            makespan_ns,
            slowdown: makespan_ns as f64 / baseline as f64,
            link_messages: record.counter("link_messages").unwrap_or(0),
        });
    }
    rows
}

/// One point of the noise sweep: a gate-error rate with both schemes'
/// analytic infidelities and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct FigNoisePoint {
    /// Single-qubit gate error probability (two-qubit and readout are
    /// 10×, leakage 1×).
    pub p_gate_1q: f64,
    /// Distributed-HISQ expected circuit infidelity
    /// (`noise_infidelity`).
    pub infidelity_bisp: f64,
    /// Lock-step baseline expected circuit infidelity.
    pub infidelity_lockstep: f64,
    /// Reduction ratio (baseline / Distributed-HISQ); compresses
    /// toward 1 as gate error dominates.
    pub reduction_ratio: f64,
    /// Two-qubit gates committed under BISP (the dominant error term's
    /// count; the baseline commits the same circuit).
    pub gates_2q: u64,
}

/// Distills an executed noise sweep back into figure points.
///
/// # Panics
///
/// Panics if the report does not hold [`FIG_NOISE`]-shaped records
/// (bisp/lockstep twins carrying `noise_infidelity`) or a run did not
/// halt.
///
/// [`FIG_NOISE`]: crate::grids::FIG_NOISE
pub fn fig_noise_points(scenarios: &[Scenario], report: &SweepReport) -> Vec<FigNoisePoint> {
    scenarios
        .chunks(2)
        .zip(report.records().chunks(2))
        .map(|(pair, records)| {
            let [bisp, lockstep] = records else {
                panic!("records must pair up per error-rate point");
            };
            for record in records {
                assert_eq!(
                    record.value("all_halted"),
                    Some(1.0),
                    "{}: run blocked",
                    record.id
                );
            }
            let infidelity_bisp = bisp.value("noise_infidelity").expect("noise metrics");
            let infidelity_lockstep = lockstep.value("noise_infidelity").expect("noise metrics");
            FigNoisePoint {
                p_gate_1q: pair[0].params.noise.p_gate_1q,
                infidelity_bisp,
                infidelity_lockstep,
                reduction_ratio: infidelity_lockstep / infidelity_bisp,
                gates_2q: bisp.counter("gates_2q").unwrap_or(0),
            }
        })
        .collect()
}

/// One row of the heterogeneous-fabric comparison: a grid's metric
/// under oblivious and fabric-aware compilation.
#[derive(Debug, Clone)]
pub struct FigHeteroPoint {
    /// Grid label: the workload and its heated elements.
    pub name: String,
    /// `"edge"` (a heated link alone, scored on makespan) or `"qubit"`
    /// (a heated site, alone or with a link, scored on infidelity).
    pub kind: &'static str,
    /// The scored metric name.
    pub metric: &'static str,
    /// Metric under oblivious (identity) placement.
    pub oblivious: f64,
    /// Metric under fabric-aware placement.
    pub aware: f64,
    /// `oblivious / aware` — above 1 when fabric-awareness wins.
    pub improvement: f64,
}

/// Distills an executed heterogeneous-fabric sweep back into
/// comparison rows, one per oblivious/aware scenario pair. Each row's
/// label, kind and metric come from the pair's heated elements: a
/// heated link alone is scored on `makespan_ns` (routing traffic off
/// it saves serialization and retransmissions), anything with a
/// heated site on `noise_infidelity` (moving work off it saves error
/// budget).
///
/// # Panics
///
/// Panics if the report does not hold [`FIG_HETERO`]-shaped records
/// (oblivious/aware twins per grid, each grid heating a link or a
/// site) or a run did not halt.
///
/// [`FIG_HETERO`]: crate::grids::FIG_HETERO
pub fn fig_hetero_points(scenarios: &[Scenario], report: &SweepReport) -> Vec<FigHeteroPoint> {
    assert_eq!(
        report.records().len(),
        scenarios.len(),
        "one record per scenario"
    );
    scenarios
        .chunks(2)
        .zip(report.records().chunks(2))
        .map(|(pair, records)| {
            let [oblivious, aware] = records else {
                panic!("records must pair up per grid");
            };
            assert!(
                !pair[0].params.fabric_aware && pair[1].params.fabric_aware,
                "{}: grids pair oblivious then aware",
                oblivious.id
            );
            for record in records {
                assert_eq!(
                    record.value("all_halted"),
                    Some(1.0),
                    "{}: run blocked",
                    record.id
                );
            }
            let params = &pair[0].params;
            let link = params
                .link_overrides
                .first()
                .map(|o| format!("link {}-{}", o.from.min(o.to), o.from.max(o.to)));
            let qubit = params
                .noise_overrides
                .first()
                .map(|o| format!("qubit {}", o.qubit));
            let (heat, kind, metric) = match (link, qubit) {
                (Some(link), None) => (link, "edge", "makespan_ns"),
                (None, Some(qubit)) => (qubit, "qubit", "noise_infidelity"),
                (Some(_), Some(_)) => ("link + qubit".to_string(), "qubit", "noise_infidelity"),
                (None, None) => panic!("{}: a grid heats a link or a site", oblivious.id),
            };
            let fetch = |record: &SweepRecord| match metric {
                "makespan_ns" => record.counter("makespan_ns").expect("standard metrics") as f64,
                metric => record.value(metric).expect("noise metrics"),
            };
            let (oblivious, aware) = (fetch(oblivious), fetch(aware));
            FigHeteroPoint {
                name: format!("{} / heated {heat}", pair[0].workload.label()),
                kind,
                metric,
                oblivious,
                aware,
                improvement: oblivious / aware,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::{FIG15, FIG16, FIG_HETERO, FIG_NOISE};
    use distributed_hisq::runner::run_sweep;
    use hisq_sim::Metric;

    #[test]
    fn fig_hetero_quick_aware_beats_oblivious_on_both_grids() {
        let scenarios = FIG_HETERO.scenarios(true);
        let report = run_sweep(&scenarios, 2).expect("hetero sweep runs");
        let points = fig_hetero_points(&scenarios, &report);
        let edge = points
            .iter()
            .find(|p| p.kind == "edge")
            .expect("a hot-edge grid");
        let qubit = points
            .iter()
            .find(|p| p.kind == "qubit")
            .expect("a hot-qubit grid");
        assert!(
            edge.improvement > 1.05,
            "routing off the heated link must pay: {edge:?}"
        );
        assert!(
            qubit.improvement > 1.1,
            "moving work off the heated site must pay: {qubit:?}"
        );
    }

    #[test]
    fn fig05_nearby_zero_overhead() {
        let report = fig05_report();
        let r = report.record("nearby").expect("nearby point ran");
        assert_eq!(
            r.counter("commit0"),
            r.counter("commit1"),
            "cycle-level alignment"
        );
        assert_eq!(r.counter("overhead"), Some(0), "zero-cycle overhead");
    }

    #[test]
    fn fig05_remote_aligns_region() {
        let report = fig05_report();
        let r = report.record("remote").expect("remote point ran");
        assert_eq!(r.value("aligned"), Some(1.0));
    }

    #[test]
    fn fig07_overhead_is_l2_minus_d2() {
        let report = fig07_report();
        let n = |id: &str, key: &str| {
            report
                .record(id)
                .and_then(|r| r.counter(key))
                .expect("both points ran")
        };
        let overhead = n("real", "commit_c2") - n("ideal", "commit_c2");
        assert_eq!(overhead, n("real", "l2") - n("real", "d2"), "{report}");
    }

    #[test]
    fn fig06_sync_is_hoisted() {
        let report = fig06_report();
        let record = report.record("nearby_cz").expect("listing generated");
        let Some(Metric::Str(src0)) = record.metric("controller_0") else {
            panic!("listings are string metrics");
        };
        let sync_pos = src0.find("sync").unwrap();
        let last_cw = src0.rfind("cw.i.i").unwrap();
        assert!(sync_pos < last_cw, "{src0}");
        assert_eq!(record.value("sync_hoisted"), Some(1.0));
    }

    #[test]
    fn fig11_runs_all_experiments_in_order_or_the_one_named() {
        let kinds = |only| {
            fig11_calibrations(true, only)
                .iter()
                .map(|c| match c {
                    Calibration::Circle(_) => "circle",
                    Calibration::Freq(_) => "freq",
                    Calibration::Rabi(_) => "rabi",
                    Calibration::T1(_) => "t1",
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(None), FIG11_EXPERIMENTS);
        assert_eq!(kinds(Some("t1")), ["t1"]);
    }

    #[test]
    fn fig13_pulses_stay_aligned_despite_waitr_drift() {
        let r = fig13_waveforms(3);
        assert_eq!(r.alignment.len(), 3, "three inner-loop iterations");
        assert!(
            r.alignment.windows(2).all(|w| w[0] == w[1]),
            "constant offset = cycle-level sync: {:?}",
            r.alignment
        );
        // The waitr drift: iterations are spaced by more than the 120
        // extra cycles of register growth.
        assert!(r.control_pulses.windows(2).all(|w| w[1] - w[0] >= 120));
    }

    #[test]
    fn fig15_quick_rows_favor_bisp_on_feedback_workloads() {
        let pair: Vec<Scenario> = FIG15
            .scenarios(true)
            .into_iter()
            .filter(|s| s.workload == WorkloadSpec::suite("logical_t_d3x2"))
            .collect();
        let report = run_sweep(&pair, 1).expect("suite scenarios are well-formed");
        let row = fig15_rows(&report).remove(0);
        assert!(
            row.normalized < 1.0,
            "parallel logical-T must favour BISP: {row:?}"
        );
        // Both schemes report instruction counts for the harness table.
        assert!(row.lockstep_instructions > 0 && row.bisp_instructions > 0);
    }

    #[test]
    fn fig_noise_ratio_compresses_as_gate_error_dominates() {
        let scenarios = FIG_NOISE.scenarios(true);
        let report = run_sweep(&scenarios, 1).expect("noise scenarios are well-formed");
        let points = fig_noise_points(&scenarios, &report);
        assert_eq!(points.len(), 3, "quick axis has three error rates");
        for p in &points {
            // At saturation both schemes sit at ≈1.0 infidelity and
            // scheme-dependent feedback (leaky outcomes steer different
            // correction counts) can nudge the ratio a hair under 1.
            assert!(
                p.reduction_ratio > 0.99,
                "baseline never meaningfully beats BISP: {p:?}"
            );
            assert!(p.infidelity_bisp > 0.0 && p.infidelity_lockstep < 1.0 + 1e-12);
            assert!(p.gates_2q > 0, "the workload commits two-qubit gates");
        }
        // Infidelity grows with the error rate under both schemes…
        assert!(points[0].infidelity_bisp < points[2].infidelity_bisp);
        assert!(points[0].infidelity_lockstep < points[2].infidelity_lockstep);
        // …and the scheduling advantage compresses toward 1 in the
        // gate-error-dominated regime (the figure's headline).
        assert!(
            points[2].reduction_ratio < points[0].reduction_ratio,
            "gate error must erode the scheduling advantage: {points:?}"
        );
        assert!(
            points[0].reduction_ratio > 1.5,
            "the idle-dominated end keeps a clear BISP win: {points:?}"
        );
    }

    #[test]
    fn fig16_ratio_above_one_and_stable() {
        let scenarios = FIG16.scenarios(true);
        let report = run_sweep(&scenarios, 1).expect("figure scenarios are well-formed");
        let points = fig16_points(&scenarios, &report);
        for p in &points {
            assert!(p.reduction_ratio > 1.5, "baseline must be worse: {p:?}");
        }
        // Infidelity falls with T1 under both schemes.
        assert!(points[0].infidelity_bisp > points[2].infidelity_bisp);
        assert!(points[0].infidelity_lockstep > points[2].infidelity_lockstep);
    }
}
