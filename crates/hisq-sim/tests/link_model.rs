//! Property-based and behavioral coverage of the contended-link model:
//! per-link occupancy can never exceed the configured capacity,
//! drop-and-retransmit streams are deterministic under a fixed seed,
//! and the transparent default model reproduces the pure-latency
//! engine exactly (no queue bookkeeping, no report changes).

use proptest::prelude::*;

use hisq_core::NodeConfig;
use hisq_isa::{Assembler, Inst};
use hisq_sim::{DropPolicy, Hub, LinkModel, SimReport, SystemSpec};

fn asm(src: &str) -> Vec<Inst> {
    Assembler::new().assemble(src).unwrap().insts().to_vec()
}

/// A sender bursting `burst` classical messages at controller 1, which
/// consumes them all — every message crosses the contended `0 → 1`
/// link back to back.
fn burst_system(burst: usize, model: LinkModel) -> SystemSpec {
    let send_lines = "send 1, t0\n".repeat(burst);
    let recv_lines = "recv t1, 0\n".repeat(burst);
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, 6),
        asm(&format!("li t0, 7\n{send_lines}stop")),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, 6),
        asm(&format!("{recv_lines}stop")),
    );
    spec.link_model(model);
    spec
}

fn run_burst(burst: usize, model: LinkModel) -> SimReport {
    burst_system(burst, model)
        .build()
        .expect("burst system builds")
        .run()
        .expect("burst system runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However many messages contend for however few slots, the peak
    /// per-link occupancy never exceeds the model's capacity, and every
    /// lossless message is carried exactly once.
    #[test]
    fn occupancy_never_exceeds_capacity(
        serialization_ns in 1u64..200,
        capacity in 1u32..5,
        burst in 1usize..20,
    ) {
        let model = LinkModel::serialized(serialization_ns).with_capacity(capacity);
        let report = run_burst(burst, model);
        prop_assert!(report.all_halted, "blocked: {:?}", report.blocked);
        prop_assert_eq!(report.link_stats.len(), 1, "one contended link");
        let link = report.link_stats[0];
        prop_assert!(link.peak_occupancy >= 1);
        prop_assert!(
            link.peak_occupancy <= capacity,
            "peak {} over capacity {}",
            link.peak_occupancy,
            capacity
        );
        prop_assert_eq!(link.messages, burst as u64);
        prop_assert_eq!(link.retransmits, 0);
        prop_assert_eq!(link.dropped, 0);
    }

    /// The same seed replays the same loss stream: two identical lossy
    /// runs produce identical reports (retransmit counts included).
    #[test]
    fn retransmits_are_deterministic_under_a_fixed_seed(
        seed in any::<u64>(),
        loss_ppm in 1u32..800_000,
        burst in 1usize..16,
    ) {
        let model = LinkModel::serialized(20).with_drop(DropPolicy {
            loss_ppm,
            seed,
            max_attempts: 16,
        });
        let first = run_burst(burst, model);
        let second = run_burst(burst, model);
        prop_assert_eq!(&first, &second, "seeded loss must replay exactly");
    }

    /// Any transparent model — the default or an explicit zero-serialization
    /// lossless configuration — reproduces the pure-latency engine
    /// byte-for-byte: identical report, no link bookkeeping at all.
    #[test]
    fn transparent_models_reproduce_pure_latency_behavior(
        burst in 1usize..16,
        capacity in 1u32..9,
    ) {
        let baseline = run_burst(burst, LinkModel::default());
        prop_assert!(baseline.link_stats.is_empty(), "default model keeps no queues");
        let transparent = LinkModel {
            serialization_ns: 0,
            capacity,
            drop: None,
        };
        prop_assert!(transparent.is_transparent());
        let report = run_burst(burst, transparent);
        prop_assert_eq!(&report, &baseline);
    }
}

#[test]
fn serialization_delays_the_second_message_by_the_hold_time() {
    // Two sends issued one cycle apart over a 6-cycle link, with a
    // 10-cycle (40 ns) serialization hold. The first message pays its
    // own hold (+10); the second is offered one cycle later but must
    // wait for the slot (hold − 1 queueing) and then serialize (+10):
    // the critical path grows by exactly 2·hold − 1 cycles.
    let hold = 10;
    let pure = run_burst(2, LinkModel::default());
    let contended = run_burst(2, LinkModel::serialized(hold * 4));
    assert!(pure.all_halted && contended.all_halted);
    assert_eq!(
        contended.makespan_cycles,
        pure.makespan_cycles + 2 * hold - 1,
        "serialization plus queueing on the critical path"
    );
    let link = contended.link_stats[0];
    assert_eq!((link.from, link.to), (0, 1));
    assert_eq!(link.messages, 2);
    assert_eq!(link.peak_occupancy, 1, "a single slot never doubles up");
}

#[test]
fn extra_capacity_absorbs_the_burst() {
    // The same two sends through two slots serialize concurrently: the
    // queueing term vanishes and only the per-message hold remains.
    let hold = 10;
    let pure = run_burst(2, LinkModel::default());
    let wide = run_burst(2, LinkModel::serialized(hold * 4).with_capacity(2));
    assert_eq!(
        wide.makespan_cycles,
        pure.makespan_cycles + hold,
        "both messages pay serialization once, neither queues"
    );
    assert_eq!(wide.link_stats[0].peak_occupancy, 2);
}

#[test]
fn certain_loss_exhausts_the_attempt_budget_and_drops() {
    // loss_ppm = 1_000_000 drops every attempt: the message burns its
    // attempt budget, is counted as dropped, and the starved receiver
    // deadlocks (visibly, in the report).
    let model = LinkModel::serialized(4).with_drop(DropPolicy {
        loss_ppm: 1_000_000,
        seed: 3,
        max_attempts: 5,
    });
    let report = run_burst(1, model);
    assert!(!report.all_halted);
    let link = report.link_stats[0];
    assert_eq!(link.dropped, 1);
    assert_eq!(link.messages, 5, "every attempt occupied the wire");
    assert_eq!(link.retransmits, 4, "max_attempts - 1 retransmissions");
}

#[test]
fn lossy_links_retransmit_and_still_deliver() {
    // 50% loss with a generous budget: the burst still completes, at
    // the cost of counted retransmissions (deterministic under seed 7;
    // 12 messages all surviving 16 attempts is a ~2^-48 event).
    let model = LinkModel::serialized(8).with_drop(DropPolicy {
        loss_ppm: 500_000,
        seed: 7,
        max_attempts: 16,
    });
    let report = run_burst(12, model);
    assert!(report.all_halted, "blocked: {:?}", report.blocked);
    let link = report.link_stats[0];
    assert!(link.retransmits > 0, "50% loss must retransmit");
    assert_eq!(link.dropped, 0);
    assert_eq!(link.messages, 12 + link.retransmits);
}

#[test]
fn hub_egress_is_a_shared_serialization_queue() {
    // One publisher, three subscribers: the hub's fan-out serializes
    // all three copies through its shared egress port, reported as the
    // (hub, hub) link.
    let mut spec = SystemSpec::new();
    spec.hub(
        10,
        Hub {
            subscribers: vec![0, 1, 2],
            down_latency: 25,
        },
    );
    spec.controller(
        NodeConfig::new(0),
        asm("li t0, 7\nsend 10, t0\nrecv t1, 10\nstop"),
    );
    for addr in 1..3u16 {
        spec.controller(NodeConfig::new(addr), asm("recv t1, 10\nstop"));
    }
    spec.link_model(LinkModel::serialized(16));
    let mut system = spec.build().unwrap();
    let report = system.run().unwrap();
    assert!(report.all_halted, "{:?}", report.blocked);
    let egress = report
        .link_stats
        .iter()
        .find(|l| l.from == 10 && l.to == 10)
        .expect("hub egress queue reported");
    assert_eq!(egress.messages, 3, "one copy per subscriber");
    // The publisher's uplink is a dedicated link with its own queue.
    assert!(report.link_stats.iter().any(|l| l.from == 0 && l.to == 10));
}
