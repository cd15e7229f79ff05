//! The event-engine benchmark: times the simulator's hot loop on
//! representative BISP and lock-step systems at 8/32/128 controllers
//! and writes `BENCH_event_engine.json` — the repo's perf trajectory
//! for the discrete-event core.
//!
//! The systems ([`build_bisp`], [`build_lockstep`]) are synthesized
//! directly as HISQ programs so the measurement isolates the event
//! engine: queue push/pop, node dispatch, link-latency lookup, commit
//! harvesting, and TELF attribution.
//!
//! Run with: `cargo bench -p hisq-bench --bench event_engine`
//!
//! Pass `--gate` (after `--`) to run the CI regression gate instead:
//! the committed `BENCH_event_engine.json` is read *before* measuring,
//! each (scheme, controllers) row is compared against its committed
//! ns/event, and the process exits 1 if any row regressed by more than
//! 15%. Gate mode never overwrites the committed baseline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hisq_core::NodeConfig;
use hisq_isa::Assembler;
use hisq_json::{Json, ObjReader};
use hisq_net::TopologyBuilder;
use hisq_sim::{System, SystemSpec};

/// Controller counts of the scaling axis.
const SIZES: [usize; 3] = [8, 32, 128];
/// Synchronization/broadcast rounds per run.
const ROUNDS: u32 = 40;
/// `--gate` fails when a row's ns/event exceeds the committed value by
/// more than this factor.
const GATE_TOLERANCE: f64 = 1.15;

/// Baseline timings measured at commit c7a005d (the pre-refactor
/// `BTreeMap`-keyed event core) with this exact harness: mean of two
/// runs on the same machine the arena numbers were first taken on.
/// Units: nanoseconds per processed event. The gap widens with system
/// size — at 128 controllers the address-map walks dominated the old
/// hot loop.
const BASELINE: &[(&str, usize, f64)] = &[
    ("bisp", 8, 147.2),
    ("bisp", 32, 159.0),
    ("bisp", 128, 336.5),
    ("lockstep", 8, 138.4),
    ("lockstep", 32, 156.0),
    ("lockstep", 128, 218.6),
];

/// Workspace-root path of the committed benchmark report.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_event_engine.json");

/// Each row's iterations are split over this many passes, and every
/// pass times all six rows in turn, so a slow spell of the host lands
/// in a few passes of every row instead of in all of one row.
const PASSES: u32 = 10;

fn asm(src: &str) -> Vec<hisq_isa::Inst> {
    Assembler::new()
        .assemble(src)
        .expect("bench program assembles")
        .insts()
        .to_vec()
}

/// A BISP system of `n` controllers on a linear mesh under an arity-4
/// router tree: every round pairs nearby syncs, exchanges a classical
/// value, and region-syncs through the root, `rounds` times.
fn build_bisp(n: usize, rounds: u32) -> System {
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
        .expect("bench system builds")
}

/// A lock-step system of `n` controllers on a star: controller 0
/// publishes a value to the hub every round; every controller consumes
/// the broadcast, `rounds` times.
fn build_lockstep(n: usize, rounds: u32) -> System {
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
    spec.build().expect("bench system builds")
}

/// One row under measurement: its system builder, its event count,
/// its iteration budget and the fastest run so far.
struct Row {
    scheme: &'static str,
    controllers: usize,
    build: fn(usize, u32) -> System,
    events: u64,
    iters: u32,
    best_ns: u128,
}

impl Row {
    /// Builds and runs the row once to warm allocator and caches, and
    /// sizes its iteration budget from the event count.
    fn new(scheme: &'static str, controllers: usize, build: fn(usize, u32) -> System) -> Row {
        let mut warm = build(controllers, ROUNDS);
        let report = warm.run().expect("bench run completes");
        assert!(
            report.all_halted,
            "{scheme}/{controllers}: bench workload deadlocked"
        );
        let events = report.events_processed;
        Row {
            scheme,
            controllers,
            build,
            events,
            iters: (2_000_000 / events.max(1)).clamp(3, 200) as u32,
            best_ns: u128::MAX,
        }
    }

    /// Times `run()` (build excluded) for pass `pass`'s share of the
    /// iteration budget; the shares of all [`PASSES`] sum to `iters`.
    fn time_pass(&mut self, pass: u32) {
        let share = self.iters / PASSES + u32::from(pass < self.iters % PASSES);
        for _ in 0..share {
            let mut system = (self.build)(self.controllers, ROUNDS);
            let start = Instant::now();
            let report = system.run().expect("bench run completes");
            self.best_ns = self.best_ns.min(start.elapsed().as_nanos());
            assert_eq!(
                report.events_processed, self.events,
                "runs must be identical"
            );
        }
    }

    fn ns_per_run(&self) -> f64 {
        self.best_ns as f64
    }

    fn ns_per_event(&self) -> f64 {
        self.ns_per_run() / self.events as f64
    }
}

/// Times every row; each returned row holds its fastest run.
///
/// The statistic is the **minimum** iteration time, not the mean: the
/// runs are deterministic and identical, so the minimum estimates the
/// code's uncontended cost while the mean smears in whatever else the
/// machine was doing during the measurement window. On a shared box
/// the mean scatters well past the gate's 15% tolerance; the minimum
/// is stable run-to-run, which is what a regression gate needs. The
/// iterations run in [`PASSES`] interleaved passes, so the minimum
/// is taken across passes spread over the whole measurement.
fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &SIZES {
        rows.push(Row::new("bisp", n, build_bisp));
        rows.push(Row::new("lockstep", n, build_lockstep));
    }
    for pass in 0..PASSES {
        for row in &mut rows {
            row.time_pass(pass);
        }
    }
    rows
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".into()
    }
}

/// Committed `(scheme, controllers) -> ns_per_event` rows, read from
/// `BENCH_event_engine.json` before any measurement overwrites it.
fn committed_rows() -> Vec<(String, usize, f64)> {
    let text = std::fs::read_to_string(REPORT_PATH)
        .unwrap_or_else(|e| panic!("--gate needs the committed {REPORT_PATH}: {e}"));
    let json = Json::parse(&text).expect("committed report parses");
    let mut report = ObjReader::new(&json, "report").expect("report is an object");
    report
        .required("results")
        .expect("report.results present")
        .as_array("report.results")
        .expect("report.results is an array")
        .iter()
        .map(|row| {
            let mut row = ObjReader::new(row, "results[]").expect("result row is an object");
            (
                row.required("scheme")
                    .expect("row scheme")
                    .as_str("results[].scheme")
                    .expect("scheme string")
                    .to_string(),
                row.required("controllers")
                    .expect("row controllers")
                    .as_usize("results[].controllers")
                    .expect("controllers integer"),
                row.required("ns_per_event")
                    .expect("row ns_per_event")
                    .as_f64("results[].ns_per_event")
                    .expect("ns_per_event number"),
            )
        })
        .collect()
}

fn main() {
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--gate" => gate = true,
            // Cargo's bench harness forwards `--bench`; ignore it.
            "--bench" => {}
            other => {
                eprintln!("event_engine: unknown argument {other} (supported: --gate)");
                std::process::exit(2);
            }
        }
    }
    // Read the committed baseline before measuring (and before any
    // non-gate run overwrites the file).
    let committed = if gate { committed_rows() } else { Vec::new() };

    let results = measure();

    println!("event engine: ns per processed event (lower is better)");
    println!("{:-<72}", "");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "scheme", "controllers", "events/run", "ns/event", "baseline"
    );
    println!("{:-<72}", "");
    let mut json = String::from("{\"benchmark\":\"event_engine\",\"rounds\":");
    let _ = write!(json, "{ROUNDS},\"results\":[");
    for (i, m) in results.iter().enumerate() {
        let baseline = BASELINE
            .iter()
            .find(|(s, n, _)| *s == m.scheme && *n == m.controllers)
            .map(|&(_, _, ns)| ns)
            .unwrap_or(f64::NAN);
        println!(
            "{:<10} {:>12} {:>12} {:>14.1} {:>14.1}",
            m.scheme,
            m.controllers,
            m.events,
            m.ns_per_event(),
            baseline
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"scheme\":\"{}\",\"controllers\":{},\"events_per_run\":{},\
             \"ns_per_event\":{},\"ns_per_run\":{},\"baseline_ns_per_event\":{}}}",
            m.scheme,
            m.controllers,
            m.events,
            json_f64(m.ns_per_event()),
            json_f64(m.ns_per_run()),
            json_f64(baseline)
        );
    }
    json.push_str("]}");
    println!("{:-<72}", "");

    if gate {
        // The ns/event regression gate: every committed row must be
        // reproduced within GATE_TOLERANCE on this machine.
        let mut failed = false;
        for (scheme, controllers, committed_ns) in &committed {
            let Some(m) = results
                .iter()
                .find(|m| m.scheme == scheme && m.controllers == *controllers)
            else {
                println!("gate MISSING {scheme}/{controllers}: row not measured");
                failed = true;
                continue;
            };
            let limit = committed_ns * GATE_TOLERANCE;
            if m.ns_per_event() > limit {
                println!(
                    "gate FAIL {scheme}/{controllers}: {:.1} ns/event exceeds \
                     committed {committed_ns:.1} by more than {:.0}% (limit {limit:.1})",
                    m.ns_per_event(),
                    (GATE_TOLERANCE - 1.0) * 100.0
                );
                failed = true;
            } else {
                println!(
                    "gate ok   {scheme}/{controllers}: {:.1} ns/event (committed {committed_ns:.1}, limit {limit:.1})",
                    m.ns_per_event()
                );
            }
        }
        if committed.is_empty() {
            println!("gate MISSING: committed report carried no rows");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    // Anchor the artifact at the workspace root regardless of the
    // bench's working directory.
    std::fs::write(REPORT_PATH, &json).expect("write BENCH_event_engine.json");
    println!("wrote BENCH_event_engine.json (workspace root)");
}
