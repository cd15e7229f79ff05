//! Differential oracle for the calendar-queue event core: the
//! production [`CalendarQueue`] must pop the exact `(cycle, item)`
//! sequence of the [`HeapQueue`] reference defined here (the historical
//! `BinaryHeap<Reverse<(at, seq)>>` ordering) over proptest-generated
//! push/pop streams and over adversarial hand-built cases — same-cycle
//! bursts, the far-future overflow rung (several events per far
//! cycle, window pushes onto a migrated cycle, `pop_through` drains
//! across a migration), horizon wrap-around, pushes behind the pop
//! frontier, batched drains interrupted by late pushes, and cycles at
//! the very top of `u64`.
//!
//! The second half pins the `seq` tie-break counter: it uses checked
//! arithmetic in both queues, so exhausting it panics loudly instead of
//! silently reordering same-cycle events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use hisq_sim::queue::CalendarQueue;

/// The interface the calendar queue and its heap reference share: a
/// deterministic future-event queue ordered by `(at, seq)` with `seq`
/// assigned at push. Implementing it for [`CalendarQueue`] checks at
/// compile time that the production queue still has the reference's
/// signatures.
trait EventQueue<T> {
    /// Schedules `item` at cycle `at`, behind every event already
    /// scheduled at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the internal `seq` counter is exhausted (after
    /// `u64::MAX` pushes) — wrapping would silently reorder same-cycle
    /// events, so the failure is loud instead.
    fn push(&mut self, at: u64, item: T);

    /// Removes and returns the earliest event as `(at, item)`;
    /// same-cycle ties pop in push order.
    fn pop(&mut self) -> Option<(u64, T)>;

    /// The cycle of the event [`pop`](EventQueue::pop) would return,
    /// without removing it.
    fn next_at(&mut self) -> Option<u64>;

    /// Number of events resident in the queue.
    fn len(&self) -> usize;
}

impl<T> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, at: u64, item: T) {
        CalendarQueue::push(self, at, item);
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        CalendarQueue::pop(self)
    }

    fn next_at(&mut self) -> Option<u64> {
        CalendarQueue::next_at(self)
    }

    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
}

/// One heap entry; the ordering deliberately ignores the item so `T`
/// needs no `Ord`.
struct HeapEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The reference implementation: the historical
/// `BinaryHeap<Reverse<(at, seq)>>` ordering the calendar queue is
/// proven against.
struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
    seq: u64,
}

impl<T> HeapQueue<T> {
    /// An empty reference queue.
    fn new() -> HeapQueue<T> {
        HeapQueue::with_seq_base(0)
    }

    /// An empty queue whose next push takes sequence number `seq`
    /// (the same counter-exhaustion test hook as
    /// [`CalendarQueue::with_seq_base`]).
    fn with_seq_base(seq: u64) -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq,
        }
    }
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn push(&mut self, at: u64, item: T) {
        let seq = self.seq;
        self.seq = seq.checked_add(1).expect(
            "event-queue seq counter exhausted u64: same-cycle FIFO order can no longer be guaranteed",
        );
        self.heap.push(Reverse(HeapEntry { at, seq, item }));
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.item))
    }

    fn next_at(&mut self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One generated operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push the next item id at this cycle.
    Push(u64),
    /// Pop once from both queues and compare.
    Pop,
}

/// Drives the same operation stream through wheel and heap, asserting
/// identical observable behaviour after every step, then drains both.
fn run_differential(ops: &[Op]) {
    let mut wheel: CalendarQueue<u32> = CalendarQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut next_item = 0u32;
    for op in ops {
        match *op {
            Op::Push(cycle) => {
                wheel.push(cycle, next_item);
                heap.push(cycle, next_item);
                next_item += 1;
            }
            Op::Pop => {
                assert_eq!(
                    wheel.pop(),
                    heap.pop(),
                    "pop diverged after {next_item} pushes"
                );
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len diverged");
        assert_eq!(wheel.next_at(), heap.next_at(), "next_at diverged");
    }
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h, "drain diverged");
        if w.is_none() {
            break;
        }
    }
}

/// Cycles drawn from the regimes that exercise every rung: the bucket
/// window, multiples of the horizon (wrap-around), the far future
/// (overflow), and the top of `u64`.
fn cycle_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        0u64..5_000,
        500u64..530,
        1_000_000u64..1_001_000,
        (u64::MAX - 600)..u64::MAX,
    ]
}

/// `(cycle, pop_after)` pairs: push at `cycle`, then pop `pop_after`
/// times — interleaving advances the wheel's window mid-stream.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((cycle_strategy(), 0usize..3), 0..200).prop_map(|pairs| {
        let mut ops = Vec::new();
        for (cycle, pops) in pairs {
            ops.push(Op::Push(cycle));
            for _ in 0..pops {
                ops.push(Op::Pop);
            }
        }
        ops
    })
}

/// Cycles that crowd a few far-future cycles: most pushes land on one
/// of four overflow cycles (so two or more events usually share one),
/// the rest in the first window or just past a far cycle.
fn clustered_far_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..4).prop_map(|k| 2_000 + k * 300),
        (0u64..4).prop_map(|k| 2_000 + k * 300),
        (0u64..4).prop_map(|k| 2_000 + k * 300),
        0u64..300,
        (0u64..4, 0u64..40).prop_map(|(k, d)| 2_000 + k * 300 + d),
    ]
}

/// Pushes from [`clustered_far_strategy`] with pops in between.
fn clustered_ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((clustered_far_strategy(), 0usize..3), 0..200).prop_map(|pairs| {
        let mut ops = Vec::new();
        for (cycle, pops) in pairs {
            ops.push(Op::Push(cycle));
            ops.extend(std::iter::repeat_n(Op::Pop, pops));
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The oracle: any interleaving of pushes (across all cycle
    /// regimes) and pops produces identical pop sequences.
    #[test]
    fn wheel_matches_heap_on_random_streams(ops in ops_strategy()) {
        run_differential(&ops);
    }

    /// The same oracle where far cycles usually hold several events,
    /// so migration splices multi-event chains, often onto buckets that
    /// window pushes already claimed.
    #[test]
    fn wheel_matches_heap_on_shared_far_cycles(ops in clustered_ops_strategy()) {
        run_differential(&ops);
    }
}

#[test]
fn same_cycle_burst_pops_in_push_order() {
    let mut ops = Vec::new();
    for _ in 0..300 {
        ops.push(Op::Push(42));
    }
    for _ in 0..300 {
        ops.push(Op::Pop);
    }
    run_differential(&ops);
}

#[test]
fn far_future_overflow_rung_merges_with_window_cycles() {
    // Same cycle lands in overflow first, then (after the window
    // advances) directly in a bucket — overflow entries must still pop
    // before later window pushes at the same cycle.
    let mut ops = vec![Op::Push(10_000), Op::Push(10_000), Op::Push(3), Op::Pop];
    // After popping cycle 3, push 10_000 again: now in-window.
    ops.push(Op::Push(10_000));
    ops.extend([Op::Pop, Op::Pop, Op::Pop]);
    run_differential(&ops);
}

#[test]
fn far_events_sharing_a_cycle_pop_in_push_order() {
    // Four events at far cycle 9_000, pushed between far events at
    // 15_000 and 20_000 (and one inside 9_000's migration window):
    // each cycle's events leave the far rung together, in push order.
    run_differential(&[
        Op::Push(9_000),
        Op::Push(20_000),
        Op::Push(9_000),
        Op::Push(15_000),
        Op::Push(9_000),
        Op::Push(9_100),
        Op::Push(20_000),
        Op::Push(9_000),
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ]);
}

#[test]
fn window_push_onto_a_migrated_cycle_pops_after_the_migrated_events() {
    // The first pop migrates cycles 1_000, 1_001 and 1_200 into the
    // ring. Pushes at those cycles afterwards are window pushes onto
    // buckets that already hold migrated events (1_000's mid-batch):
    // they carry younger seqs and pop behind them.
    run_differential(&[
        Op::Push(1_000),
        Op::Push(1_001),
        Op::Push(1_000),
        Op::Push(1_200),
        Op::Push(1_001),
        Op::Pop,
        Op::Push(1_001),
        Op::Push(1_200),
        Op::Push(1_000),
        Op::Pop,
        Op::Push(1_001),
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ]);
}

#[test]
fn pop_through_drains_across_a_migration() {
    // The gate-replay path: `pop_through` stops at its bound, and the
    // next bound reaches into cycles still in the far rung, so the
    // drain migrates them mid-way. Pushes between drains land in the
    // window, on migrated cycles, and back in the far rung.
    let mut wheel: CalendarQueue<u32> = CalendarQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut next_item = 0u32;
    let mut push = |wheel: &mut CalendarQueue<u32>, heap: &mut HeapQueue<u32>, at: u64| {
        wheel.push(at, next_item);
        heap.push(at, next_item);
        next_item += 1;
    };
    for at in [3, 700, 700, 1_500, 40, 1_500, 700, 5_000] {
        push(&mut wheel, &mut heap, at);
    }
    for through in [2, 40, 699, 700, 701, 1_499, 1_500, 4_999, u64::MAX] {
        loop {
            let expected = match heap.next_at() {
                Some(at) if at <= through => heap.pop(),
                _ => None,
            };
            assert_eq!(wheel.pop_through(through), expected, "through {through}");
            if expected.is_none() {
                break;
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.next_at(), heap.next_at());
        for at in [through.saturating_add(1), through.saturating_add(300)] {
            push(&mut wheel, &mut heap, at);
        }
    }
    assert_drain_equal(wheel, heap);
}

#[test]
fn horizon_wrap_around_keeps_cycle_order() {
    // Cycles straddling multiples of the 512-cycle horizon map to
    // nearby ring indices; popping between pushes advances the window
    // across several wraps.
    let mut ops = Vec::new();
    for lap in 0u64..6 {
        for offset in [0, 1, 255, 511] {
            ops.push(Op::Push(lap * 512 + offset));
        }
        ops.push(Op::Pop);
    }
    for _ in 0..24 {
        ops.push(Op::Pop);
    }
    run_differential(&ops);
}

#[test]
fn pushes_behind_the_pop_frontier_still_pop_first() {
    // Popping cycle 1000 advances the wheel's window; a later push at
    // cycle 5 is "late" and must come out immediately, as the heap
    // reference would order it.
    run_differential(&[
        Op::Push(1_000),
        Op::Pop,
        Op::Push(5),
        Op::Push(900),
        Op::Push(5),
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ]);
}

#[test]
fn max_u64_cycles_do_not_wrap_bucket_arithmetic() {
    // The window math uses subtraction (`at - current`), so cycles at
    // the very top of u64 must neither overflow nor misfile.
    run_differential(&[
        Op::Push(u64::MAX),
        Op::Push(0),
        Op::Push(u64::MAX - 1),
        Op::Push(u64::MAX),
        Op::Pop,
        Op::Push(u64::MAX - 511),
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ]);
}

#[test]
fn seq_boundary_last_value_still_usable() {
    // Seq u64::MAX - 1 is assignable; the *next* assignment would need
    // to advance the counter past u64::MAX and panics instead.
    let mut wheel: CalendarQueue<u32> = CalendarQueue::with_seq_base(u64::MAX - 1);
    wheel.push(7, 1);
    assert_eq!(wheel.pop(), Some((7, 1)));
}

#[test]
#[should_panic(expected = "seq counter exhausted")]
fn wheel_seq_overflow_panics_instead_of_reordering() {
    let mut wheel: CalendarQueue<u32> = CalendarQueue::with_seq_base(u64::MAX - 1);
    wheel.push(7, 1);
    wheel.push(7, 2); // counter would wrap: must panic, not reorder
}

#[test]
#[should_panic(expected = "seq counter exhausted")]
fn heap_seq_overflow_panics_instead_of_reordering() {
    let mut heap: HeapQueue<u32> = HeapQueue::with_seq_base(u64::MAX - 1);
    heap.push(7, 1);
    heap.push(7, 2);
}

/// Drains both queues fully and asserts identical `(at, item)`
/// sequences.
fn assert_drain_equal(mut wheel: CalendarQueue<u32>, mut heap: HeapQueue<u32>) {
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h, "wheel diverged from heap reference");
        if w.is_none() {
            break;
        }
    }
}

#[test]
fn same_cycle_events_pop_in_push_order() {
    let mut wheel = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    for i in 0..100 {
        wheel.push(7, i);
        heap.push(7, i);
    }
    assert_drain_equal(wheel, heap);
}

#[test]
fn far_future_events_take_the_overflow_rung_and_still_order() {
    let mut wheel = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    for (at, v) in [(5u64, 0u32), (100_000, 1), (6, 2), (100_000, 3), (999, 4)] {
        wheel.push(at, v);
        heap.push(at, v);
    }
    assert_eq!(wheel.len(), 5);
    assert_drain_equal(wheel, heap);
}

#[test]
fn late_push_interrupts_a_batched_drain_in_heap_order() {
    // First pop of cycle 10 detaches the whole 4-event chain as a
    // batch; the late push behind the window must still pop before
    // the batch remainder, exactly as the heap orders it.
    let mut wheel = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    for (at, v) in [(10u64, 0u32), (10, 1), (10, 2), (10, 3)] {
        wheel.push(at, v);
        heap.push(at, v);
    }
    assert_eq!(wheel.pop(), Some((10, 0)));
    assert_eq!(heap.pop(), Some((10, 0)));
    wheel.push(4, 99);
    heap.push(4, 99);
    assert_eq!(wheel.len(), heap.len());
    assert_drain_equal(wheel, heap);
}

#[test]
fn same_cycle_pushes_during_a_batch_pop_after_the_batch() {
    // Events pushed at the batch's own cycle mid-drain carry
    // younger seqs: they re-claim the bucket and pop after the
    // detached chain, preserving FIFO-within-cycle.
    let mut wheel = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    for v in 0..3u32 {
        wheel.push(20, v);
        heap.push(20, v);
    }
    assert_eq!(wheel.pop(), Some((20, 0)));
    assert_eq!(heap.pop(), Some((20, 0)));
    wheel.push(20, 7);
    heap.push(20, 7);
    // A late interruption *after* same-cycle pushes exercises the
    // splice-ahead-of-the-bucket reattach path.
    wheel.push(3, 8);
    heap.push(3, 8);
    assert_eq!(wheel.next_at(), Some(3));
    assert_drain_equal(wheel, heap);
}
