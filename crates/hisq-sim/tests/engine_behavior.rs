//! Behavioral tests of the arena-indexed event engine through its
//! public construction path ([`SystemSpec`]): synchronization
//! alignment, feedback loops, deadlock reporting, the event budget,
//! gate replay into quantum backends, exposure accounting, hub
//! broadcast, unknown-destination drops, and the structured fault
//! paths (router invariant violations, routing warnings).

use std::collections::BTreeMap;

use hisq_core::{BlockReason, NodeAddr, NodeConfig};
use hisq_isa::{Assembler, Inst};
use hisq_net::{Router, RouterError, TopologyBuilder};
use hisq_quantum::Gate;
use hisq_sim::{
    DropPolicy, FixedBackend, Hub, LinkModel, QuantumAction, SimConfig, SimError, SimReport,
    StabilizerBackend, SystemSpec,
};

fn asm(src: &str) -> Vec<Inst> {
    Assembler::new().assemble(src).unwrap().insts().to_vec()
}

#[test]
fn two_node_nearby_sync_aligns_commits() {
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, 6),
        asm("waiti 40\nsync 1\nwaiti 6\ncw.i.i 0, 1\nstop"),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, 6),
        asm("waiti 90\nsync 0\nwaiti 6\ncw.i.i 0, 1\nstop"),
    );
    let mut system = spec.build().unwrap();
    let report = system.run().unwrap();
    assert!(report.all_halted);
    let telf = system.telf();
    assert_eq!(telf.alignment((0, 0), (1, 0)), vec![0]);
    // The later controller (booking 90, T=96) sets the common time.
    assert_eq!(telf.commits_of(0)[0].cycle, 96);
}

#[test]
fn region_sync_through_router_tree() {
    // Four controllers, arity-2 tree. All sync against the root with
    // different booking times; all must commit at the same cycle.
    let topo = TopologyBuilder::linear(4)
        .router_arity(2)
        .neighbor_latency(5)
        .router_latency(10)
        .build();
    let root = topo.root_router().unwrap();
    let mut programs = BTreeMap::new();
    for (i, delay) in [40u32, 90, 60, 120].iter().enumerate() {
        let src = format!("li t0, 30\nwaiti {delay}\nsync {root}, t0\nwaiti 30\ncw.i.i 0, 1\nstop");
        programs.insert(i as NodeAddr, asm(&src));
    }
    let mut system = SystemSpec::from_topology(&topo, programs).build().unwrap();
    let report = system.run().unwrap();
    assert!(report.all_halted, "blocked: {:?}", report.blocked);
    let telf = system.telf();
    let cycles: Vec<u64> = (0..4u16)
        .map(|addr| telf.commits_of(addr)[0].cycle)
        .collect();
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "region sync must align all commits: {cycles:?}"
    );
    // The slowest controller books at ~121 with horizon 30 → T_i ≈
    // 151; bookings cross two tree hops (≤ 141 + 20), so the region
    // meets at max(T_i, arrivals).
    let common = cycles[0];
    assert!(common >= 151, "common start {common} below slowest T_i");
}

#[test]
fn feedback_loop_with_scripted_measurement() {
    // Controller 0 triggers a measurement on port 4, receives the
    // result, and pulses port 1 only when the result is 1.
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0),
        asm("
            waiti 25
            cw.i.i 4, 1
            recv t0, 0xFFF
            beqz t0, skip
            waiti 10
            cw.i.i 1, 1
        skip:
            stop
        "),
    );
    spec.bind(0, 4, 1, QuantumAction::Measure { qubit: 3 });
    let mut system = spec.build().unwrap();
    let mut backend = FixedBackend::new(false);
    backend.script(3, [true]);
    system.set_backend(backend);
    let report = system.run().unwrap();
    assert!(report.all_halted);
    let telf = system.telf();
    let pulses = telf.channel(0, 1);
    assert_eq!(pulses.len(), 1, "conditional pulse must fire");
    // Trigger at 25, result at 100, grid rebases then waits 10.
    assert!(pulses[0].cycle >= 110);
}

#[test]
fn feedback_branch_not_taken() {
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0),
        asm("
            waiti 25
            cw.i.i 4, 1
            recv t0, 0xFFF
            beqz t0, skip
            waiti 10
            cw.i.i 1, 1
        skip:
            stop
        "),
    );
    spec.bind(0, 4, 1, QuantumAction::Measure { qubit: 3 });
    let mut system = spec.build().unwrap();
    system.set_backend(FixedBackend::new(false));
    let report = system.run().unwrap();
    assert!(report.all_halted);
    assert!(system.telf().channel(0, 1).is_empty());
}

#[test]
fn measurement_result_is_banked_while_blocked_on_a_peer() {
    // Controller 0 measures, then waits on controller 1 before reading
    // the result. Controller 1 sends only after its own measurement
    // resolves, so 0's result (trigger 10 + 75 = 85) lands while 0 is
    // blocked on the peer's `recv`: it is banked without a step, and
    // the later `recv t0, 0xFFF` reads it.
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0),
        asm("
            waiti 10
            cw.i.i 4, 1
            recv t1, 1
            recv t0, 0xFFF
            stop
        "),
    );
    spec.controller(
        NodeConfig::new(1),
        asm("
            waiti 100
            cw.i.i 4, 1
            recv t0, 0xFFF
            li t1, 5
            send 0, t1
            stop
        "),
    );
    spec.bind(0, 4, 1, QuantumAction::Measure { qubit: 3 });
    spec.bind(1, 4, 1, QuantumAction::Measure { qubit: 5 });
    let mut system = spec.build().unwrap();
    let mut backend = FixedBackend::new(false);
    backend.script(3, [true]);
    system.set_backend(backend);
    let report = system.run().unwrap();
    assert!(report.all_halted, "{:?}", report.blocked);
    let ctrl = system.controller(0).unwrap();
    assert_eq!(ctrl.reg(hisq_isa::Reg::T1), 5, "the peer's value");
    assert_eq!(ctrl.reg(hisq_isa::Reg::T0), 1, "the banked measurement");
    // The peer's value left after its result (100 + 75) and crossed
    // the 25-cycle default link, long after 0's result arrived at 85.
    assert!(ctrl.now_wall() >= 175 + 25, "{}", ctrl.now_wall());
}

#[test]
fn deadlock_is_reported_not_hung() {
    let mut spec = SystemSpec::new();
    spec.controller(NodeConfig::new(0).with_neighbor(1, 5), asm("sync 1\nstop"));
    spec.controller(NodeConfig::new(1).with_neighbor(0, 5), asm("stop"));
    let mut system = spec.build().unwrap();
    let report = system.run().unwrap();
    assert!(!report.all_halted);
    assert_eq!(
        report.blocked,
        vec![(0, BlockReason::AwaitSyncPulse { partner: 1 })]
    );
}

#[test]
fn event_budget_guards_runaway_programs() {
    let config = SimConfig {
        max_events: 100,
        ..SimConfig::default()
    };
    let mut spec = SystemSpec::new();
    spec.config(config);
    // Two controllers bouncing classical messages forever.
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, 2),
        asm("li t0, 1\nping: send 1, t0\nrecv t0, 1\nj ping"),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, 2),
        asm("pong: recv t0, 0\nsend 0, t0\nj pong"),
    );
    let mut system = spec.build().unwrap();
    assert_eq!(
        system.run(),
        Err(SimError::EventBudgetExceeded { budget: 100 })
    );
}

#[test]
fn gate_replay_drives_quantum_backend() {
    // Bell pair across two controllers: controller 0 applies H then
    // (virtually) both halves of the CNOT; both measure; outcomes
    // must agree thanks to the stabilizer backend.
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, 5),
        asm("
            waiti 20
            cw.i.i 0, 1     # H q0
            waiti 5
            cw.i.i 0, 2     # CX q0,q1
            sync 1
            waiti 5
            cw.i.i 2, 1     # measure q0
            recv t0, 0xFFF
            stop
        "),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, 5),
        asm("
            waiti 20
            sync 0
            waiti 5
            cw.i.i 2, 1     # measure q1
            recv t0, 0xFFF
            stop
        "),
    );
    spec.bind(0, 0, 1, QuantumAction::gate(Gate::H, &[0]));
    spec.bind(0, 0, 2, QuantumAction::gate(Gate::Cx, &[0, 1]));
    spec.bind(0, 2, 1, QuantumAction::Measure { qubit: 0 });
    spec.bind(1, 2, 1, QuantumAction::Measure { qubit: 1 });
    let mut system = spec.build().unwrap();
    system.set_backend(StabilizerBackend::new(2, 1234));
    let report = system.run().unwrap();
    assert!(report.all_halted, "{:?}", report);
    assert_eq!(report.causality_warnings, 0);
    let m0 = system
        .controller(0)
        .unwrap()
        .reg(hisq_isa::Reg::parse("t0").unwrap());
    let m1 = system
        .controller(1)
        .unwrap()
        .reg(hisq_isa::Reg::parse("t0").unwrap());
    assert_eq!(m0, m1, "Bell correlations through the full stack");
}

#[test]
fn exposure_ledger_tracks_gate_spans() {
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0),
        asm("waiti 10\ncw.i.i 0, 1\nwaiti 100\ncw.i.i 0, 1\nstop"),
    );
    spec.bind(0, 0, 1, QuantumAction::gate(Gate::X, &[5]));
    let mut system = spec.build().unwrap();
    system.run().unwrap();
    // First gate at cycle 10 (40 ns), second at cycle 110 (440 ns) +
    // 20 ns duration → exposure 40..460 = 420 ns.
    assert_eq!(system.exposure().exposure_ns(5), 420);
}

/// The lock-step hub's address in the hub tests.
const HUB: NodeAddr = 10;

/// Everything a hub run exposes: the report (or error) without its
/// link statistics, the pop trace, and each controller's `t1`/`t2`.
#[derive(Debug, PartialEq)]
struct HubOutcome {
    result: Result<SimReport, SimError>,
    trace: Vec<(u64, u64)>,
    regs: Vec<(u32, u32)>,
}

/// Runs controllers `0..programs.len()` on a star around hub [`HUB`]
/// (25-cycle downlink) with tracing on, the `(hub, hub)` egress
/// running `egress` if given. Returns the outcome and the egress's
/// reported message count.
fn run_hub(
    subscribers: &[NodeAddr],
    programs: &[&str],
    max_events: u64,
    egress: Option<LinkModel>,
) -> (HubOutcome, u64) {
    let mut spec = SystemSpec::new();
    spec.config(SimConfig {
        max_events,
        ..SimConfig::default()
    });
    spec.hub(
        HUB,
        Hub {
            subscribers: subscribers.to_vec(),
            down_latency: 25,
        },
    );
    for (addr, program) in programs.iter().enumerate() {
        spec.controller(NodeConfig::new(addr as NodeAddr), asm(program));
    }
    if let Some(model) = egress {
        spec.link_model_for(HUB, HUB, model);
    }
    let mut system = spec.build().unwrap();
    system.record_event_trace();
    let mut result = system.run();
    let egress_messages = result.as_ref().map_or(0, |report| {
        report
            .link_stats
            .iter()
            .filter(|l| (l.from, l.to) == (HUB, HUB))
            .map(|l| l.messages)
            .sum()
    });
    if let Ok(report) = &mut result {
        report.link_stats.clear();
    }
    let reg = |addr: usize, name: &str| {
        system
            .controller(addr as NodeAddr)
            .unwrap()
            .reg(hisq_isa::Reg::parse(name).unwrap())
    };
    let regs = (0..programs.len())
        .map(|addr| (reg(addr, "t1"), reg(addr, "t2")))
        .collect();
    let outcome = HubOutcome {
        result,
        trace: system.event_trace().to_vec(),
        regs,
    };
    (outcome, egress_messages)
}

/// Runs one hub input twice: on the one-event broadcast path
/// (transparent egress) and on the per-copy path. A lossless drop
/// policy on the egress forces the per-copy path, yet nothing
/// serializes or drops, so every copy still lands at the broadcast's
/// cycle. Asserts both runs agree on everything and returns the
/// outcome with the per-copy run's `(hub, hub)` message count.
fn hub_outcome(subscribers: &[NodeAddr], programs: &[&str], max_events: u64) -> (HubOutcome, u64) {
    let (one_event, no_queue) = run_hub(subscribers, programs, max_events, None);
    assert_eq!(no_queue, 0, "a transparent egress keeps no link queue");
    let lossless = LinkModel::default().with_drop(DropPolicy {
        loss_ppm: 0,
        ..DropPolicy::default()
    });
    let (per_copy, egress_messages) = run_hub(subscribers, programs, max_events, Some(lossless));
    assert_eq!(
        one_event, per_copy,
        "one-event and per-copy broadcasts diverge for subscribers {subscribers:?}"
    );
    (one_event, egress_messages)
}

#[test]
fn hub_broadcast_reaches_every_subscriber() {
    // One publisher, two listeners, and a subscriber with no `recv`
    // from the hub: the lock-step substrate end to end through the
    // arena dispatch. The non-listener halts beside the listeners, and
    // its copy is still counted: 1 uplink delivery + 4 copies.
    let publish = "li t0, 7\nsend 10, t0\nrecv t1, 10\nstop";
    let listen = "recv t1, 10\nstop";
    let star = [publish, listen, listen, "stop"];
    let default_budget = SimConfig::default().max_events;
    let (outcome, egress) = hub_outcome(&[0, 1, 2, 3], &star, default_budget);
    let report = outcome.result.unwrap();
    assert!(report.all_halted, "{:?}", report.blocked);
    assert_eq!(report.events_processed, 5);
    assert_eq!(outcome.trace.len(), 5, "one trace entry per copy");
    assert_eq!(
        egress, 4,
        "the per-copy egress carries one message per copy"
    );
    let t1: Vec<u32> = outcome.regs.iter().map(|&(t1, _)| t1).collect();
    assert_eq!(t1, [7, 7, 7, 0]);

    // A contended egress serializes the copies but still delivers them
    // all, reporting one (hub, hub) message per copy.
    let (contended, egress) = run_hub(
        &[0, 1, 2, 3],
        &star,
        default_budget,
        Some(LinkModel::serialized(16)),
    );
    assert!(contended.result.unwrap().all_halted);
    assert_eq!(contended.regs, outcome.regs);
    assert_eq!(egress, 4);

    // A budget that runs out inside the broadcast fails on the first
    // copy past it, after offering exactly the copies before it;
    // a budget equal to the run's exact total succeeds.
    for budget in 1..=4u64 {
        let (outcome, _) = hub_outcome(&[0, 1, 2, 3], &star, budget);
        assert_eq!(
            outcome.result,
            Err(SimError::EventBudgetExceeded { budget })
        );
        let offered = (budget - 1) as usize;
        let t1: Vec<u32> = outcome.regs.iter().map(|&(t1, _)| t1).collect();
        let expected: Vec<u32> = (0..4)
            .map(|addr| if addr < offered && addr < 3 { 7 } else { 0 })
            .collect();
        assert_eq!(t1, expected, "budget {budget}");
        // The uplink delivery plus the admitted copies.
        assert_eq!(outcome.trace.len(), budget as usize, "budget {budget}");
    }
    let (exact, _) = hub_outcome(&[0, 1, 2, 3], &star, 5);
    assert_eq!(exact.result.unwrap().events_processed, 5);

    // A listener blocked on another source while two broadcasts land
    // banks both and later receives them in FIFO order. Controller 2
    // only sends to 1 after both broadcasts reached it, i.e. after
    // they reached 1 as well.
    let (outcome, egress) = hub_outcome(
        &[0, 1, 2],
        &[
            "li t0, 7\nsend 10, t0\nli t0, 9\nsend 10, t0\nstop",
            "recv t3, 2\nrecv t1, 10\nrecv t2, 10\nstop",
            "recv t1, 10\nrecv t2, 10\nsend 1, t2\nstop",
        ],
        default_budget,
    );
    assert!(outcome.result.unwrap().all_halted);
    assert_eq!(outcome.regs[1], (7, 9));
    assert_eq!(outcome.regs[2], (7, 9));
    assert_eq!(egress, 6);

    // Duplicate subscriber entries each get a copy.
    let (outcome, egress) = hub_outcome(
        &[0, 1, 1],
        &[publish, "recv t1, 10\nrecv t2, 10\nstop"],
        default_budget,
    );
    let report = outcome.result.unwrap();
    assert!(report.all_halted, "{:?}", report.blocked);
    assert_eq!(report.events_processed, 4);
    assert_eq!(outcome.regs[1], (7, 7));
    assert_eq!(egress, 3);

    // An empty subscriber list adds no event: only the uplink
    // delivery to the hub is processed.
    let (outcome, egress) = hub_outcome(&[], &["li t0, 7\nsend 10, t0\nstop"], default_budget);
    let report = outcome.result.unwrap();
    assert!(report.all_halted);
    assert_eq!(report.events_processed, 1);
    assert_eq!(egress, 0);
}

#[test]
fn message_to_unknown_address_deadlocks_the_receiver_only() {
    // A send to an unregistered address is dropped at routing time;
    // the sender completes and the starved receiver is reported.
    let mut spec = SystemSpec::new();
    spec.controller(NodeConfig::new(0), asm("li t0, 1\nsend 99, t0\nstop"));
    spec.controller(NodeConfig::new(1), asm("recv t0, 0\nstop"));
    let mut system = spec.build().unwrap();
    let report = system.run().unwrap();
    assert!(!report.all_halted);
    assert_eq!(
        report.blocked,
        vec![(1, BlockReason::AwaitMessage { source: 0 })]
    );
}

#[test]
fn mis_rooted_topology_surfaces_a_router_fault() {
    // The linear(4)/arity-2 tree needs leaf routers 4 and 5 under root
    // 6, but the deployment declares router 4 parentless: the first
    // completed booking that must climb towards the root surfaces as a
    // structured SimError instead of a panic.
    let topo = TopologyBuilder::linear(4)
        .router_arity(2)
        .neighbor_latency(5)
        .router_latency(10)
        .build();
    let root = topo.root_router().unwrap();
    let mut spec = SystemSpec::new();
    spec.topology(topo.clone());
    spec.router(Router::new(4, None, vec![0, 1])); // should be Some(6)
    spec.router(Router::new(5, Some(root), vec![2, 3]));
    spec.router(Router::new(root, None, vec![4, 5]));
    for addr in 0..4u16 {
        let src = format!("li t0, 30\nwaiti 10\nsync {root}, t0\nwaiti 30\ncw.i.i 0, 1\nstop");
        spec.controller(topo.node_config(addr), asm(&src));
    }
    let mut system = spec.build().unwrap();
    assert_eq!(
        system.run(),
        Err(SimError::Router(RouterError::MissingParent {
            router: 4,
            target: root
        }))
    );
}

#[test]
fn booking_from_a_non_child_surfaces_a_router_fault() {
    // Controller 2 carries a calibrated link to router 10 and books a
    // region sync with it, but the router only parents 0 and 1.
    let mut spec = SystemSpec::new();
    spec.router(Router::new(10, None, vec![0, 1]));
    spec.controller(
        NodeConfig::new(2).with_router(10, 8),
        asm("li t0, 20\nsync 10, t0\nwaiti 20\ncw.i.i 0, 1\nstop"),
    );
    let mut system = spec.build().unwrap();
    assert_eq!(
        system.run(),
        Err(SimError::Router(RouterError::NonChildBooking {
            router: 10,
            from: 2
        }))
    );
}

#[test]
fn a_sync_gating_before_an_earlier_stall_faults_its_controller() {
    // Controller 0's neighbour sync gates at raw cycle 5 and stalls
    // until controller 1 books at 200. The region sync after it has a
    // zero horizon, so its gate would land at raw cycle 1, before that
    // stall: the controller faults instead of timing it out of order.
    let mut spec = SystemSpec::new();
    spec.router(Router::new(10, None, vec![0]));
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, 5).with_router(10, 8),
        asm("sync 1\nsync 10\nstop"),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, 5),
        asm("waiti 200\nsync 0\nstop"),
    );
    let mut system = spec.build().unwrap();
    let report = system.run().unwrap();
    assert!(!report.all_halted);
    assert_eq!(report.faulted.len(), 1, "{report:?}");
    assert_eq!(report.faulted[0].0, 0);
    assert!(
        report.faulted[0]
            .1
            .contains("before an earlier sync's gate at 5"),
        "{report:?}"
    );
    assert!(matches!(
        system.controller(0).unwrap().status(),
        hisq_core::Status::Faulted(_)
    ));
    assert_eq!(
        system.controller(1).unwrap().status(),
        &hisq_core::Status::Halted
    );
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "wiring bug"))]
fn unknown_destination_with_topology_is_a_counted_warning() {
    // With a topology attached, a send to an address the topology
    // cannot derive a latency for is a wiring bug: debug builds assert,
    // release builds fall back to the default latency but count the
    // warning in the report.
    let topo = TopologyBuilder::linear(2).build();
    let mut programs = BTreeMap::new();
    programs.insert(0u16, asm("li t0, 1\nsend 50, t0\nstop"));
    programs.insert(1u16, asm("stop"));
    let mut system = SystemSpec::from_topology(&topo, programs).build().unwrap();
    let report = system.run().unwrap();
    assert_eq!(report.routing_warnings, 1);
    assert!(report.all_halted, "the dropped send does not block anyone");
}

#[test]
fn starless_classical_default_latency_stays_warning_free() {
    // Without a topology (the lock-step star), the default classical
    // latency is the intended uplink model — no warning.
    let mut spec = SystemSpec::new();
    spec.controller(NodeConfig::new(0), asm("li t0, 1\nsend 1, t0\nstop"));
    spec.controller(NodeConfig::new(1), asm("recv t0, 0\nstop"));
    let mut system = spec.build().unwrap();
    let report = system.run().unwrap();
    assert!(report.all_halted);
    assert_eq!(report.routing_warnings, 0);
}
