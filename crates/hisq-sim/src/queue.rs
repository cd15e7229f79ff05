//! The future-event queue of the discrete-event core: one concrete
//! [`CalendarQueue`] (a bucketed calendar queue / timing wheel) that
//! the engine and the job engine run on.
//!
//! # Ordering contract
//!
//! The queue pops strictly by `(at, seq)`: ascending schedule cycle,
//! and *push order within a cycle* (the `seq` tie-break is assigned
//! internally at push time). FIFO-within-cycle is load-bearing — the
//! sweep engine's byte-identical JSON contract rests on same-cycle
//! events replaying in exactly the order they were scheduled. The
//! historical `BinaryHeap<Reverse<(at, seq)>>` ordering survives as a
//! test-local reference in `crates/hisq-sim/tests/queue_equivalence.rs`
//! (proptest differential oracle), and the engine's pop-trace pins in
//! `tests/queue_trace_replay.rs` (recorded under the heap) hold end to
//! end.
//!
//! # Calendar layout
//!
//! [`CalendarQueue`] keeps three rungs:
//!
//! - **near** — a ring of [`CalendarQueue::HORIZON`] buckets covering
//!   cycles `[current, current + HORIZON)`; bucket index is
//!   `cycle & (HORIZON - 1)`, so each in-window cycle owns exactly one
//!   bucket and same-cycle events drain as a FIFO batch;
//! - **overflow** — one `BinaryHeap` of far-future timers
//!   (`cycle - current >= HORIZON`) ordered by `(at, seq)`, so a push
//!   costs no allocation beyond the heap's own amortized growth. When
//!   the window advances to them, migration pops each newly in-window
//!   cycle's events in seq order and splices them ahead of that cycle's
//!   ring bucket;
//! - **late** — events pushed *behind* `current` (a scheduler pushing
//!   into the past); these always pop first, exactly as the reference
//!   heap would pop them.
//!
//! The `seq` counter uses **checked** arithmetic: wrapping it would
//! silently reorder same-cycle events, so exhausting the counter
//! panics instead (see [`CalendarQueue::with_seq_base`] for the
//! regression-test hook at the boundary).

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

/// Panic message for a `seq` counter that would wrap (a wrapped
/// counter would silently break FIFO-within-cycle).
const SEQ_OVERFLOW: &str =
    "event-queue seq counter exhausted u64: same-cycle FIFO order can no longer be guaranteed";

/// Width of the calendar's bucket window in cycles (power of two).
const HORIZON: u64 = 256;
/// Bucket-index mask (`cycle & MASK`).
const MASK: u64 = HORIZON - 1;
/// Words of the occupancy bitmap (one bit per bucket).
const WORDS: usize = (HORIZON / 64) as usize;

/// Slab-index sentinel: "no slot" in the free list and bucket chains.
const NIL: u32 = u32::MAX;

/// One slab slot: an event payload plus the intrusive link to the next
/// event of the same bucket (or the next free slot, when retired).
/// `item` is an `Option` only so popping can move the payload out of
/// the slab without `unsafe`; a live slot always holds `Some`.
#[derive(Debug, Clone)]
struct Slot<T> {
    /// Next slot in this bucket's FIFO chain (`NIL` = tail), or the
    /// next free slot while retired.
    next: u32,
    /// The event (`None` only while the slot sits on the free list).
    item: Option<T>,
}

/// One far-future event of the overflow rung. The ordering reads only
/// `(at, seq)`, so `T` needs no `Ord`.
#[derive(Debug, Clone)]
struct FarEvent<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for FarEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for FarEvent<T> {}

impl<T> Ord for FarEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T> PartialOrd for FarEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The production calendar queue: ring buckets over a cycle horizon,
/// an overflow rung for far-future timers, and a late rung for
/// pushes behind the window. See the module docs for the layout and
/// the ordering contract.
///
/// The near rung stores events in one contiguous **slab** threaded by
/// per-bucket intrusive FIFO chains (`heads`/`tails` index the slab,
/// each slot links to the next of its cycle). The resident set of a
/// simulation is small and slots are recycled through a free list, so
/// the hot push/pop path works a few dense, cache-resident arrays
/// instead of chasing a per-bucket heap allocation — the locality the
/// contiguous `BinaryHeap` had, without its `O(log n)` reordering.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// The near-rung event slab; bucket chains and the free list index
    /// into it.
    slots: Vec<Slot<T>>,
    /// Head of the retired-slot free list (`NIL` = empty).
    free: u32,
    /// Per-bucket chain head (`NIL` = bucket empty); index =
    /// `cycle & (HORIZON - 1)`.
    heads: Vec<u32>,
    /// Per-bucket chain tail (valid while the bucket is non-empty).
    tails: Vec<u32>,
    /// Per-bucket resident cycle (valid while the bucket is non-empty).
    cycles: Vec<u64>,
    /// One bit per bucket: set while the bucket holds events.
    occupancy: [u64; WORDS],
    /// Lower bound of the bucket window (monotonically nondecreasing).
    current: u64,
    /// Events resident in ring buckets.
    near_len: usize,
    /// Far-future rung: a min-heap on `(at, seq)`.
    overflow: BinaryHeap<Reverse<FarEvent<T>>>,
    /// Behind-the-window rung, keyed by `(at, seq)`.
    late: BTreeMap<(u64, u64), T>,
    /// Next sequence number to assign.
    seq: u64,
    /// Head of the detached same-cycle batch chain (`NIL` = no active
    /// batch). The first pop of a cycle detaches the *whole* bucket
    /// chain here, so the remaining same-cycle pops walk the chain
    /// directly — no bucket-head reload, no occupancy update per event
    /// (the bit clears once, at detach). Batch items stay counted in
    /// `near_len` and live in the slab; they are only ahead of the
    /// bucket in pop order.
    batch_head: u32,
    /// Tail of the detached batch chain (valid while `batch_head != NIL`;
    /// needed to splice the remainder back in front of the bucket when a
    /// late push interrupts the batch).
    batch_tail: u32,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> CalendarQueue<T> {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Width of the bucket window in cycles (power of two). Events
    /// scheduled at `current + HORIZON` or later take the overflow
    /// rung until the window advances to them.
    pub const HORIZON: u64 = HORIZON;

    /// An empty queue with the window anchored at cycle 0.
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue {
            slots: Vec::new(),
            free: NIL,
            heads: vec![NIL; HORIZON as usize],
            tails: vec![NIL; HORIZON as usize],
            cycles: vec![0; HORIZON as usize],
            occupancy: [0; WORDS],
            current: 0,
            near_len: 0,
            overflow: BinaryHeap::new(),
            late: BTreeMap::new(),
            seq: 0,
            batch_head: NIL,
            batch_tail: NIL,
        }
    }

    /// An empty queue whose *next* push is assigned sequence number
    /// `seq` — the regression-test hook for the counter-exhaustion
    /// boundary (a wrapped `seq` would silently reorder same-cycle
    /// events, so the queue panics instead of wrapping; see the
    /// `queue_equivalence` test suite).
    pub fn with_seq_base(seq: u64) -> CalendarQueue<T> {
        CalendarQueue {
            seq,
            ..CalendarQueue::new()
        }
    }

    /// Schedules `item` at cycle `at`, behind every event already
    /// scheduled at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the internal `seq` counter is exhausted (after
    /// `u64::MAX` pushes) — wrapping would silently reorder same-cycle
    /// events, so the failure is loud instead.
    pub fn push(&mut self, at: u64, item: T) {
        let seq = self.next_seq();
        if at < self.current {
            self.late.insert((at, seq), item);
        } else if at - self.current < HORIZON {
            self.insert_near(at, item);
        } else {
            self.overflow.push(Reverse(FarEvent { at, seq, item }));
        }
    }

    /// Removes and returns the earliest event as `(at, item)`;
    /// same-cycle ties pop in push order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        // Fast path: an active batch, or the window's own bucket still
        // holding events. That bucket can only hold cycle `current`
        // (the one in-window cycle congruent to its index), the
        // overflow minimum is strictly above `current` whenever the
        // rung is non-empty (pushes land `>= current + HORIZON` and
        // migration advances past every in-window cycle), and an empty
        // late rung means nothing precedes the window — so the whole
        // chain is the global minimum run, and the first pop of the
        // cycle detaches it in one batch: the occupancy bit clears
        // once, and the remaining same-cycle pops walk the detached
        // chain without touching the bucket arrays at all.
        if self.late.is_empty() {
            if self.batch_head != NIL {
                return Some((self.current, self.batch_pop_head()));
            }
            let index = (self.current & MASK) as usize;
            let head = self.heads[index];
            if head != NIL {
                debug_assert_eq!(self.cycles[index], self.current);
                debug_assert!(self.overflow_min().is_none_or(|at| at > self.current));
                self.batch_head = head;
                self.batch_tail = self.tails[index];
                self.heads[index] = NIL;
                self.occupancy[index / 64] &= !(1 << (index % 64));
                return Some((self.current, self.batch_pop_head()));
            }
        } else if self.batch_head != NIL {
            // A late push interrupted the batch: restore the remainder
            // to its bucket so ordering falls back to the rung logic.
            self.reattach_batch();
        }
        // Late events are strictly behind `current`, hence behind every
        // bucket and overflow cycle: always the global minimum.
        if let Some(((at, _seq), item)) = self.late.pop_first() {
            return Some((at, item));
        }
        let cycle = self.settle()?;
        let index = (cycle & MASK) as usize;
        debug_assert_eq!(self.cycles[index], cycle);
        let head = self.heads[index];
        debug_assert!(head != NIL, "settle() returned an occupied bucket");
        Some((cycle, self.pop_head(index, head)))
    }

    /// The cycle of the event [`pop`](CalendarQueue::pop) would return,
    /// without removing it. It may reorganize internal storage (hence
    /// `&mut self`) but never changes the observable pop order.
    pub fn next_at(&mut self) -> Option<u64> {
        if let Some((&(at, _), _)) = self.late.first_key_value() {
            return Some(at);
        }
        if self.batch_head != NIL {
            // The detached batch is the earliest run (no late events),
            // and it always sits at the window's lower bound.
            return Some(self.current);
        }
        self.settle()
    }

    /// Number of events resident in the queue.
    pub fn len(&self) -> usize {
        self.near_len + self.overflow.len() + self.late.len()
    }

    /// `true` when no events are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `cycle` — the batched-drain primitive (`pop_through(u64::MAX)`
    /// is a plain pop).
    pub fn pop_through(&mut self, cycle: u64) -> Option<(u64, T)> {
        if self.next_at()? <= cycle {
            self.pop()
        } else {
            None
        }
    }

    /// Assigns the next sequence number, panicking instead of
    /// wrapping (the satellite bugfix: wraparound silently broke
    /// FIFO-within-cycle before the counter moved into the queue).
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq = seq.checked_add(1).expect(SEQ_OVERFLOW);
        seq
    }

    /// Claims a slab slot for `item` (recycling the free list),
    /// returning its index with `next` reset to `NIL`.
    fn alloc_slot(&mut self, item: T) -> u32 {
        let slot = self.free;
        if slot != NIL {
            self.free = self.slots[slot as usize].next;
            self.slots[slot as usize] = Slot {
                next: NIL,
                item: Some(item),
            };
            slot
        } else {
            assert!(
                self.slots.len() < NIL as usize,
                "event-queue slab exhausted u32 indices"
            );
            self.slots.push(Slot {
                next: NIL,
                item: Some(item),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Retires a drained slot onto the free list and moves its event
    /// payload out.
    fn free_slot(&mut self, slot: u32) -> T {
        let item = self.slots[slot as usize]
            .item
            .take()
            .expect("live slots hold an event");
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        item
    }

    /// Unlinks and retires the head slot of bucket `index`, clearing
    /// the occupancy bit when the chain empties.
    fn pop_head(&mut self, index: usize, head: u32) -> T {
        let next = self.slots[head as usize].next;
        self.heads[index] = next;
        if next == NIL {
            self.occupancy[index / 64] &= !(1 << (index % 64));
        }
        self.near_len -= 1;
        self.free_slot(head)
    }

    /// Files `item` at the tail of the ring bucket of in-window cycle
    /// `at`, claiming the bucket if it was empty.
    fn insert_near(&mut self, at: u64, item: T) {
        debug_assert!(at >= self.current && at - self.current < HORIZON);
        let index = (at & MASK) as usize;
        let slot = self.alloc_slot(item);
        if self.heads[index] == NIL {
            self.cycles[index] = at;
            self.occupancy[index / 64] |= 1 << (index % 64);
            self.heads[index] = slot;
        } else {
            debug_assert_eq!(
                self.cycles[index], at,
                "two in-window cycles mapped to one bucket"
            );
            self.slots[self.tails[index] as usize].next = slot;
        }
        self.tails[index] = slot;
        self.near_len += 1;
    }

    /// First occupied bucket index in ring order starting at `start`
    /// (wrapping once around); `None` when every bucket is empty.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let (start_word, start_bit) = (start / 64, start % 64);
        let first = self.occupancy[start_word] & (!0u64 << start_bit);
        if first != 0 {
            return Some(start_word * 64 + first.trailing_zeros() as usize);
        }
        for step in 1..=WORDS {
            let index = (start_word + step) % WORDS;
            let mask = if step == WORDS {
                // Back at the start word: only the bits below `start`
                // remain unexamined.
                (1u64 << start_bit).wrapping_sub(1)
            } else {
                !0
            };
            let word = self.occupancy[index] & mask;
            if word != 0 {
                return Some(index * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The smallest bucket-resident cycle. In-window cycles map
    /// monotonically onto the ring starting at `current & MASK`, so
    /// the ring-nearest occupied bucket holds the earliest cycle.
    fn next_bucket_cycle(&self) -> u64 {
        debug_assert!(self.near_len > 0);
        let index = self
            .next_occupied((self.current & MASK) as usize)
            .expect("near_len > 0 implies an occupied bucket");
        self.cycles[index]
    }

    /// The smallest overflow cycle, if the rung holds any event.
    fn overflow_min(&self) -> Option<u64> {
        self.overflow.peek().map(|Reverse(event)| event.at)
    }

    /// Moves every overflow cycle that now fits the window into its
    /// ring bucket, advancing `current` to the overflow minimum. The
    /// heap pops each cycle's events together, in push order. Migrated
    /// events carry older sequence numbers than anything pushed directly
    /// into the window (the window's lower bound only grows), so each
    /// cycle's migrated chain is *prepended* ahead of any entries already
    /// in its bucket, preserving FIFO-within-cycle.
    fn migrate_overflow(&mut self) {
        let Some(min) = self.overflow_min() else {
            return;
        };
        debug_assert!(min >= self.current);
        self.current = min;
        // The chain of the cycle being migrated: `(at, head, tail)`.
        let mut run: Option<(u64, u32, u32)> = None;
        while let Some((at, item)) = self.pop_in_window() {
            let slot = self.alloc_slot(item);
            self.near_len += 1;
            match run {
                Some((cycle, head, tail)) if cycle == at => {
                    self.slots[tail as usize].next = slot;
                    run = Some((cycle, head, slot));
                }
                _ => {
                    if let Some(done) = run {
                        self.prepend_chain(done);
                    }
                    run = Some((at, slot, slot));
                }
            }
        }
        if let Some(done) = run {
            self.prepend_chain(done);
        }
    }

    /// Pops the earliest overflow event if its cycle now fits the
    /// window.
    fn pop_in_window(&mut self) -> Option<(u64, T)> {
        let top = self.overflow.peek_mut()?;
        if top.0.at - self.current >= HORIZON {
            return None;
        }
        let Reverse(FarEvent { at, item, .. }) = PeekMut::pop(top);
        Some((at, item))
    }

    /// Splices the migrated chain `head..=tail` of cycle `at` in front
    /// of the cycle's ring bucket, claiming the bucket if it was empty.
    fn prepend_chain(&mut self, (at, head, tail): (u64, u32, u32)) {
        let index = (at & MASK) as usize;
        if self.heads[index] == NIL {
            self.cycles[index] = at;
            self.occupancy[index / 64] |= 1 << (index % 64);
            self.tails[index] = tail;
        } else {
            debug_assert_eq!(self.cycles[index], at);
        }
        self.slots[tail as usize].next = self.heads[index];
        self.heads[index] = head;
    }

    /// Unlinks and retires the head of the active batch chain, moving
    /// its event out (the batched twin of [`CalendarQueue::pop_head`]:
    /// one `next` load instead of a bucket-head reload plus an
    /// occupancy branch).
    fn batch_pop_head(&mut self) -> T {
        let head = self.batch_head;
        debug_assert_ne!(head, NIL);
        self.batch_head = self.slots[head as usize].next;
        self.near_len -= 1;
        self.free_slot(head)
    }

    /// Splices the unconsumed remainder of the active batch back in
    /// front of its bucket (cycle `current`), restoring the exact
    /// pre-detach pop order. Needed when a late push interrupts the
    /// batch: the late rung pops first, and whatever ran so far may
    /// have appended *new* `current`-cycle events to the (re-claimed)
    /// bucket — those carry younger seqs than the detached remainder,
    /// so the remainder goes in ahead of them.
    fn reattach_batch(&mut self) {
        debug_assert_ne!(self.batch_head, NIL);
        let index = (self.current & MASK) as usize;
        if self.heads[index] == NIL {
            self.cycles[index] = self.current;
            self.occupancy[index / 64] |= 1 << (index % 64);
            self.tails[index] = self.batch_tail;
        } else {
            debug_assert_eq!(self.cycles[index], self.current);
            self.slots[self.batch_tail as usize].next = self.heads[index];
        }
        self.heads[index] = self.batch_head;
        self.batch_head = NIL;
        self.batch_tail = NIL;
    }

    /// Advances the window until the earliest bucket-or-overflow event
    /// sits in a ring bucket, returning its cycle (`None` when both
    /// rungs are empty; the late rung is the caller's business).
    fn settle(&mut self) -> Option<u64> {
        loop {
            if self.near_len > 0 {
                let near = self.next_bucket_cycle();
                // `==` must migrate too: overflow entries at the same
                // cycle carry older seqs and pop first.
                if self.overflow_min().is_some_and(|at| at <= near) {
                    self.migrate_overflow();
                    continue;
                }
                self.current = near;
                return Some(near);
            }
            if self.overflow.is_empty() {
                return None;
            }
            self.migrate_overflow();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_through_only_drains_up_to_the_cycle() {
        let mut wheel: CalendarQueue<u32> = CalendarQueue::new();
        wheel.push(10, 1);
        wheel.push(20, 2);
        assert_eq!(wheel.pop_through(15), Some((10, 1)));
        assert_eq!(wheel.pop_through(15), None);
        assert_eq!(wheel.pop_through(20), Some((20, 2)));
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_at_reports_the_batch_cycle_mid_drain() {
        let mut wheel: CalendarQueue<u32> = CalendarQueue::new();
        wheel.push(12, 1);
        wheel.push(12, 2);
        wheel.push(500_000, 3);
        assert_eq!(wheel.pop(), Some((12, 1)));
        assert_eq!(wheel.next_at(), Some(12));
        assert_eq!(wheel.pop(), Some((12, 2)));
        assert_eq!(wheel.pop(), Some((500_000, 3)));
        assert!(wheel.is_empty());
    }
}
