//! End-to-end pop-order pins over real scenarios: the engine's event
//! trace for a scenario is captured as a `(cycle, fingerprint)`
//! sequence and pinned as `(id, event count, FNV-1a 64)`. This guards
//! the calendar queue's FIFO-within-cycle `seq` contract end to end —
//! through routing, contention, retransmission, measurement resolution
//! and lock-step hub broadcasts — not just at the queue-API level
//! (`crates/hisq-sim/tests/queue_equivalence.rs` runs the calendar
//! queue against the `BinaryHeap` reference there).
//!
//! Every point of `scenarios/bisp_vs_lockstep.json`,
//! `contended_links.json` and `noisy_backends.json` is pinned, plus the
//! lock-step points of `fig15.json` and one paper-size lock-step
//! instance. The pins were recorded while the engine could still swap
//! in the heap reference queue, with the heap and the calendar queue
//! popping identical traces, so each pin is the heap's pop order. The
//! lock-step pins were recorded when every hub broadcast copy was its
//! own queue event. In a debug build the paper-size pin also runs the
//! engine's assertion that no woken listener queues an event behind
//! its broadcast.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::runner::{scenario_system, Scenario};
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::testing::fnv1a64;
use distributed_hisq::workloads::WorkloadSpec;

/// Expands a committed scenario file into its scenario list.
fn corpus(text: &str) -> Vec<Scenario> {
    ScenarioFile::parse(text)
        .expect("committed corpus files parse")
        .expand(None)
}

/// One pinned trace: scenario id, event count, FNV-1a 64 of the trace
/// (see [`trace_digest`]).
type TracePin = (&'static str, usize, u64);

/// The BISP points of `bisp_vs_lockstep.json` (its lock-step points
/// are in [`LOCKSTEP_CORPUS_PINS`]).
#[rustfmt::skip]
const BISP_VS_LOCKSTEP_PINS: &[TracePin] = &[
    ("w_state_n12/bisp/seed1/t300", 210, 0xda1db2728b6aba7d),
    ("w_state_n12/bisp/seed2/t300", 210, 0xddeb20cc65a1edc3),
];

#[rustfmt::skip]
const CONTENDED_LINKS_PINS: &[TracePin] = &[
    ("qft_n10/bisp/seed1/t300", 916, 0x0fcc101811bde05b),
    ("qft_n10/bisp/seed1/t300/ser8.c2", 916, 0x70eee32fb165db54),
    ("qft_n10/bisp/seed1/t300/ser8.c1.loss50000.s7.a16", 924, 0x2cadf10879b20b95),
    ("qft_n10/lockstep/seed1/t300", 3738, 0x87437acb882c2cd8),
    ("qft_n10/lockstep/seed1/t300/ser8.c2", 3738, 0x6e3dc6a5c1e80eb2),
    ("qft_n10/lockstep/seed1/t300/ser8.c1.loss50000.s7.a16", 3929, 0xb896109693969f40),
];

#[rustfmt::skip]
const NOISY_BACKENDS_PINS: &[TracePin] = &[
    ("bv_n16/bisp/seed11/t300", 303, 0x725399e186bb32f1),
    ("bv_n16/bisp/seed11/t300/p1q0.001.p2q0.01.m0.02.i0.l0", 303, 0x725399e186bb32f1),
    ("bv_n16/bisp/seed11/t300/p1q0.p2q0.005.m0.i0.0000001.l0.002", 303, 0x4b72c6148f7bfa5d),
];

#[rustfmt::skip]
const LOCKSTEP_CORPUS_PINS: &[TracePin] = &[
    ("w_state_n12/lockstep/seed1/t300", 1125, 0x1df6dc5b9bbb44ea),
    ("w_state_n12/lockstep/seed2/t300", 1125, 0xc070242538eaa95e),
    ("adder_n13/lockstep/seed15/t300", 4833, 0xae07719f0d4b8520),
    ("bv_n16/lockstep/seed15/t300", 2739, 0xead84676d438cc16),
    ("logical_t_d3/lockstep/seed15/t300", 3933, 0x85ee562782cfeb42),
    ("logical_t_d3x2/lockstep/seed15/t300", 16146, 0xf1a9d41cd6648874),
    ("qft_n10/lockstep/seed15/t300", 3738, 0xf6ed109eb028a340),
    ("w_state_n12/lockstep/seed15/t300", 1125, 0x16c977a0d7079c60),
];

#[rustfmt::skip]
const PAPER_LOCKSTEP_PIN: TracePin =
    ("logical_t_n432/lockstep/seed1/t300", 291408, 0x809d5cc3a41ed10e);

/// FNV-1a 64 over a pop trace, each entry as its cycle then its
/// fingerprint in little-endian bytes.
fn trace_digest(trace: &[(u64, u64)]) -> u64 {
    let bytes: Vec<u8> = trace
        .iter()
        .flat_map(|&(cycle, fingerprint)| {
            cycle
                .to_le_bytes()
                .into_iter()
                .chain(fingerprint.to_le_bytes())
        })
        .collect();
    fnv1a64(&bytes)
}

/// Runs `scenario` on the production queue and pins its pop trace as
/// `(id, event count, digest)`.
fn trace_pin(scenario: &Scenario) -> (String, usize, u64) {
    let mut system = scenario_system(scenario).expect("scenario builds");
    system.record_event_trace();
    let report = system.run().expect("scenario runs");
    assert!(report.all_halted, "{}: {:?}", scenario.id(), report.blocked);
    let trace = system.event_trace();
    (scenario.id(), trace.len(), trace_digest(trace))
}

/// Asserts `actual` equals `pinned`, printing the replacement table on
/// drift so an intentional re-pin is a copy-paste.
fn assert_trace_pins(actual: &[(String, usize, u64)], pinned: &[TracePin]) {
    let matches = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((id, len, digest), &(pin_id, pin_len, pin_digest))| {
                id == pin_id && *len == pin_len && *digest == pin_digest
            });
    let table: String = actual
        .iter()
        .map(|(id, len, digest)| format!("    (\"{id}\", {len}, 0x{digest:016x}),\n"))
        .collect();
    assert!(
        matches,
        "pop traces drifted from their pins; actual:\n{table}"
    );
}

/// Pins the trace of every point of a committed file whose scheme
/// `pinned` selects.
fn assert_file_pins(text: &str, pinned: fn(Scheme) -> bool, pins: &[TracePin]) {
    let actual: Vec<_> = corpus(text)
        .iter()
        .filter(|scenario| pinned(scenario.scheme))
        .map(trace_pin)
        .collect();
    assert_trace_pins(&actual, pins);
}

#[test]
fn bisp_vs_lockstep_corpus_replays_exactly() {
    assert_file_pins(
        include_str!("../scenarios/bisp_vs_lockstep.json"),
        |scheme| scheme == Scheme::Bisp,
        BISP_VS_LOCKSTEP_PINS,
    );
}

#[test]
fn contended_links_corpus_replays_exactly() {
    assert_file_pins(
        include_str!("../scenarios/contended_links.json"),
        |_| true,
        CONTENDED_LINKS_PINS,
    );
}

#[test]
fn noisy_backends_corpus_replays_exactly() {
    assert_file_pins(
        include_str!("../scenarios/noisy_backends.json"),
        |_| true,
        NOISY_BACKENDS_PINS,
    );
}

#[test]
fn lockstep_corpus_pop_order_is_pinned() {
    let files = [
        include_str!("../scenarios/bisp_vs_lockstep.json"),
        include_str!("../scenarios/fig15.json"),
    ];
    let actual: Vec<_> = files
        .iter()
        .flat_map(|text| corpus(text))
        .filter(|scenario| scenario.scheme == Scheme::Lockstep)
        .map(|scenario| trace_pin(&scenario))
        .collect();
    assert_trace_pins(&actual, LOCKSTEP_CORPUS_PINS);
}

#[test]
fn paper_size_lockstep_pop_order_is_pinned() {
    let scenario =
        Scenario::new(WorkloadSpec::suite("logical_t_n432"), Scheme::Lockstep).with_seed(1);
    assert_trace_pins(&[trace_pin(&scenario)], &[PAPER_LOCKSTEP_PIN]);
}
