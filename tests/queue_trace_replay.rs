//! End-to-end differential oracle over real golden-corpus scenarios:
//! the engine's pop sequence under the retained `BinaryHeap` reference
//! queue is captured as a `(cycle, fingerprint)` trace, and the
//! production calendar queue must replay it exactly — event for event,
//! in order. This guards the FIFO-within-cycle `seq` contract end to
//! end, through routing, contention, retransmission, and measurement
//! resolution, not just at the queue-API level
//! (`crates/hisq-sim/tests/queue_equivalence.rs` covers that).
//!
//! Both sides of that comparison take the same hub fan-out path, so it
//! cannot see a reordering inside a lock-step broadcast. The lock-step
//! traces are therefore also pinned as FNV-1a digests, recorded when
//! every broadcast copy was its own queue event: the corpus's lock-step
//! points plus one paper-size instance. In a debug build the paper-size
//! pin also runs the engine's assertion that no woken listener queues
//! an event behind its broadcast.

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

/// One `(cycle, fingerprint)` pop trace.
type Trace = Vec<(u64, u64)>;

/// Runs `scenario` once under the heap reference queue and once under
/// the calendar queue, returning both pop traces.
fn traces(scenario: &Scenario) -> (Trace, Trace) {
    let mut reference = scenario_system(scenario).expect("corpus scenario builds");
    reference.use_reference_queue();
    reference.record_event_trace();
    reference.run().expect("corpus scenario runs (reference)");

    let mut wheel = scenario_system(scenario).expect("corpus scenario builds");
    wheel.record_event_trace();
    wheel.run().expect("corpus scenario runs (wheel)");

    (
        reference.event_trace().to_vec(),
        wheel.event_trace().to_vec(),
    )
}

/// Asserts the wheel replays the reference trace exactly for every
/// scenario of the file, and that the traces actually carried events.
fn assert_file_replays(name: &str, text: &str) {
    let scenarios = corpus(text);
    assert!(!scenarios.is_empty(), "{name}: corpus expands to scenarios");
    let mut events = 0usize;
    for scenario in &scenarios {
        let (reference, wheel) = traces(scenario);
        assert_eq!(
            reference,
            wheel,
            "{name}: scenario {} popped a different event order under \
             the calendar queue",
            scenario.id()
        );
        events += reference.len();
    }
    assert!(events > 0, "{name}: traces must carry events");
}

#[test]
fn bisp_vs_lockstep_corpus_replays_exactly() {
    assert_file_replays(
        "bisp_vs_lockstep",
        include_str!("../scenarios/bisp_vs_lockstep.json"),
    );
}

#[test]
fn contended_links_corpus_replays_exactly() {
    assert_file_replays(
        "contended_links",
        include_str!("../scenarios/contended_links.json"),
    );
}

#[test]
fn noisy_backends_corpus_replays_exactly() {
    assert_file_replays(
        "noisy_backends",
        include_str!("../scenarios/noisy_backends.json"),
    );
}

/// One pinned lock-step trace: scenario id, event count, FNV-1a 64 of
/// the trace (see [`trace_digest`]).
type TracePin = (&'static str, usize, u64);

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
        "lock-step pop traces drifted from their pins; actual:\n{table}"
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
