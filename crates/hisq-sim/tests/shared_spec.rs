//! Clones of one [`SystemSpec`] share its deployment (programs, link
//! tables, topology, bindings and the layout the first build derives).
//! These tests check that the sharing cannot be observed:
//!
//! - systems built from two clones run identically (same report, same
//!   pop trace, same exposure), whether the layout was derived before or
//!   after the clone;
//! - describing a node on one clone — `bind`, `controller` or
//!   `topology` — changes only that clone's builds (copy on write).

use std::collections::BTreeMap;

use hisq_core::{NodeAddr, NodeConfig, MEAS_FIFO_ADDR};
use hisq_isa::{Assembler, Inst};
use hisq_net::{Topology, TopologyBuilder};
use hisq_quantum::Gate;
use hisq_sim::{BackendSpec, Hub, QuantumAction, SimReport, SystemSpec};

fn asm(src: &str) -> Vec<Inst> {
    Assembler::new().assemble(src).unwrap().insts().to_vec()
}

/// A four-controller chain under an arity-2 router tree.
fn chain(router_latency: u64) -> Topology {
    TopologyBuilder::linear(4)
        .router_arity(2)
        .neighbor_latency(5)
        .router_latency(router_latency)
        .build()
}

/// Controllers that region-sync, apply a gate, measure, and trade
/// their results with a partner, on seeded random outcomes.
fn tree_spec() -> SystemSpec {
    let topo = chain(10);
    let root = topo.root_router().unwrap();
    let mut programs = BTreeMap::new();
    for (addr, delay) in [(0u16, 40u32), (1, 90), (2, 60), (3, 120)] {
        let partner = addr ^ 1;
        let src = format!(
            "li t0, 30\nwaiti {delay}\nsync {root}, t0\nwaiti 30\ncw.i.i 0, 1\n\
             cw.i.i 1, 1\nrecv t1, {MEAS_FIFO_ADDR}\nsend {partner}, t1\nrecv t2, {partner}\n\
             waiti 8\ncw.i.r 2, t2\nstop"
        );
        programs.insert(addr, asm(&src));
    }
    let mut spec = SystemSpec::from_topology(&topo, programs);
    for qubit in 0..4u16 {
        let q = usize::from(qubit);
        spec.bind(qubit, 0, 1, QuantumAction::gate(Gate::H, &[q]));
        spec.bind(qubit, 1, 1, QuantumAction::Measure { qubit: q });
        spec.bind(qubit, 2, 1, QuantumAction::gate(Gate::X, &[q]));
    }
    spec.backend(BackendSpec::Random {
        seed: 7,
        p_one: 0.5,
    });
    spec
}

/// A lock-step style star: every controller measures, sends its result
/// to the hub, and reads two broadcasts back.
fn hub_spec() -> SystemSpec {
    const HUB: NodeAddr = 9;
    let mut spec = SystemSpec::new();
    spec.hub(
        HUB,
        Hub {
            subscribers: vec![0, 1, 2],
            down_latency: 12,
        },
    );
    for addr in 0..3u16 {
        let program = if addr == 2 {
            // Controller 2 never reads the hub: not a listener.
            asm("waiti 4\ncw.i.i 1, 1\nrecv t1, 4095\nsend 9, t1\nstop")
        } else {
            asm("waiti 4\ncw.i.i 1, 1\nrecv t1, 4095\nsend 9, t1\nrecv t2, 9\nrecv t3, 9\nstop")
        };
        spec.controller(NodeConfig::new(addr).with_pipeline_headroom(32), program);
        spec.bind(addr, 1, 1, QuantumAction::Measure { qubit: addr.into() });
    }
    spec
}

/// What one build of `spec` does when run.
#[derive(Debug, PartialEq)]
struct Run {
    report: SimReport,
    trace: Vec<(u64, u64)>,
    exposure_ns: Vec<u64>,
    controllers: Vec<NodeAddr>,
}

fn run(spec: &SystemSpec) -> Run {
    let mut system = spec.clone().build().unwrap();
    system.record_event_trace();
    let report = system.run().unwrap();
    Run {
        exposure_ns: (0..8).map(|q| system.exposure().exposure_ns(q)).collect(),
        controllers: (0..64)
            .filter(|&a| system.controller(a).is_some())
            .collect(),
        trace: system.event_trace().to_vec(),
        report,
    }
}

#[test]
fn clones_build_identical_systems() {
    for spec in [tree_spec(), hub_spec()] {
        // Cloned before any build: the first build derives the layout
        // for every clone sharing the deployment.
        let (a, b) = (spec.clone(), spec.clone());
        let first = run(&a);
        assert!(first.report.all_halted, "{:?}", first.report.blocked);
        assert!(!first.trace.is_empty());
        assert_eq!(run(&b), first);
        // Cloned after a build: the clone reuses the derived layout.
        let c = a.clone();
        assert_eq!(run(&c), first);
        assert_eq!(run(&spec), first);
        assert_eq!(a, b, "clones compare equal before and after building");
    }
}

#[test]
fn bind_on_a_clone_leaves_the_original_alone() {
    let spec = tree_spec();
    let before = run(&spec);
    let mut changed = spec.clone();
    // Rebind controller 3's first codeword from H on qubit 3 to X on
    // qubit 6: qubit 6 gains exposure only in the clone.
    changed.bind(3, 0, 1, QuantumAction::gate(Gate::X, &[6]));
    let after = run(&changed);
    assert!(after.exposure_ns[6] > 0);
    assert_eq!(before.exposure_ns[6], 0);
    assert_eq!(run(&spec), before);
    assert_ne!(spec, changed);
}

#[test]
fn controller_on_a_clone_leaves_the_original_alone() {
    for spec in [tree_spec(), hub_spec()] {
        let before = run(&spec);
        let mut changed = spec.clone();
        changed.controller(NodeConfig::new(40), asm("waiti 3\nstop"));
        assert_eq!(changed.num_controllers(), spec.num_controllers() + 1);
        let after = run(&changed);
        assert!(after.controllers.contains(&40));
        assert!(!before.controllers.contains(&40));
        assert_eq!(run(&spec), before);
    }
}

#[test]
fn topology_on_a_clone_leaves_the_original_alone() {
    let spec = tree_spec();
    let before = run(&spec);
    let mut changed = spec.clone();
    // Slower tree edges delay the region sync's bookings past the
    // slowest controller's time-point.
    changed.topology(chain(200));
    let after = run(&changed);
    assert!(
        after.report.makespan_cycles > before.report.makespan_cycles,
        "{} vs {}",
        after.report.makespan_cycles,
        before.report.makespan_cycles
    );
    assert_eq!(run(&spec), before);
}
