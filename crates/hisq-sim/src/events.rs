//! Internal event and link-queue plumbing: the event records the
//! engine's [`crate::queue`] structures carry, plus the per-link
//! busy-until state of the contention model. Events order by
//! `(cycle, seq)` with `seq` assigned at push (inside the queue) — the
//! deterministic tie-break the sweep engine's byte-identical JSON
//! contract rests on.

use hisq_core::NodeAddr;
use hisq_net::Payload;
use hisq_quantum::noise::splitmix64;

use crate::nodes::NodeId;

/// An engine event: a routed message, a hub broadcast, or a resolving
/// measurement. The destination is an arena id — resolution from
/// addresses happened at routing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Deliver a routed payload to node `to`.
    Deliver {
        /// Sender address (controllers match mailboxes by address).
        from: NodeAddr,
        /// Destination arena id.
        to: NodeId,
        /// The message content.
        payload: Payload,
    },
    /// Every subscriber's copy of one hub broadcast over a transparent
    /// egress, arriving now: one event standing for the N classical
    /// [`EventKind::Deliver`]s from the hub that would otherwise pop
    /// back to back. The engine counts and traces it per copy.
    Broadcast {
        /// The hub's arena id.
        hub: NodeId,
        /// The broadcast value.
        value: u32,
    },
    /// A measurement triggered at `trigger_cycle` resolves now.
    MeasResolve {
        /// The controller receiving the discrimination result.
        node: NodeId,
        /// The measured qubit.
        qubit: usize,
        /// When the measurement was triggered (gates replay up to it).
        trigger_cycle: u64,
    },
    /// A lost classical message's acknowledgement timeout fired: the
    /// sender re-offers the message to the link now. Keeping the
    /// retransmission as an event (instead of booking the future slot
    /// at loss time) keeps contended links work-conserving — traffic
    /// offered during the ack-wait window transmits on the idle wire.
    ///
    /// Boxed because retransmissions exist only on lossy links: the
    /// wide resend record would otherwise double the size of every
    /// slot in the event slab, and the loss-free hot path never pays
    /// the allocation.
    Resend(Box<ResendEvent>),
}

/// The retransmission record carried by [`EventKind::Resend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResendEvent {
    /// The serialization queue the message retransmits through.
    pub link: (NodeId, NodeId),
    /// Destination arena id.
    pub to: NodeId,
    /// The message content.
    pub payload: Payload,
    /// Wire latency of the link (cycles).
    pub latency: u64,
    /// 1-based attempt number of this retransmission.
    pub attempt: u32,
}

impl EventKind {
    /// A 64-bit content digest for pop-trace recording (see
    /// [`System::record_event_trace`](crate::System::record_event_trace)):
    /// two runs pop the same event sequence iff their `(cycle,
    /// fingerprint)` traces match. Mixed with splitmix64 so distinct
    /// events collide with negligible probability. (A broadcast has a
    /// digest of its own, but the engine traces each of its copies as
    /// the `Deliver` it stands for.)
    pub(crate) fn fingerprint(&self) -> u64 {
        fn mix(hash: u64, value: u64) -> u64 {
            splitmix64(hash ^ value.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        }
        fn payload_digest(payload: &Payload) -> u64 {
            match *payload {
                Payload::SyncPulse => mix(0x51, 0),
                Payload::BookTime { target, time_point } => {
                    mix(mix(0x52, u64::from(target)), time_point)
                }
                Payload::MaxTime { t_m, target } => mix(mix(0x53, t_m), u64::from(target)),
                Payload::Classical { value } => mix(0x54, u64::from(value)),
            }
        }
        match *self {
            EventKind::Deliver { from, to, payload } => mix(
                mix(mix(0x01, u64::from(from)), u64::from(to)),
                payload_digest(&payload),
            ),
            EventKind::Broadcast { hub, value } => mix(mix(0x04, u64::from(hub)), u64::from(value)),
            EventKind::MeasResolve {
                node,
                qubit,
                trigger_cycle,
            } => mix(mix(mix(0x02, u64::from(node)), qubit as u64), trigger_cycle),
            EventKind::Resend(ref resend) => {
                let link_key = (u64::from(resend.link.0) << 32) | u64::from(resend.link.1);
                mix(
                    mix(
                        mix(
                            mix(mix(0x03, link_key), u64::from(resend.to)),
                            payload_digest(&resend.payload),
                        ),
                        resend.latency,
                    ),
                    u64::from(resend.attempt),
                )
            }
        }
    }
}

/// Busy-until state of one contended directed link: `slot_free[i]` is
/// the cycle at which serialization slot `i` becomes idle again. A
/// message acquires the earliest-free slot (`max(sent_at, free)` start,
/// deterministic lowest-index tie-break), so occupancy can never exceed
/// the slot count.
#[derive(Debug, Clone)]
pub(crate) struct LinkQueue {
    /// Per-slot busy-until cycle (length = the model's capacity).
    pub slot_free: Vec<u64>,
    /// Transmission attempts carried (including retransmissions).
    pub messages: u64,
    /// Peak simultaneous busy slots.
    pub peak_occupancy: u32,
    /// Retransmissions after lossy attempts.
    pub retransmits: u64,
    /// Messages abandoned after the attempt budget.
    pub dropped: u64,
    /// Monotonic drop-draw counter (the per-link RNG stream position).
    pub draws: u64,
}

impl LinkQueue {
    pub fn new(capacity: u32) -> LinkQueue {
        LinkQueue {
            slot_free: vec![0; capacity.max(1) as usize],
            messages: 0,
            peak_occupancy: 0,
            retransmits: 0,
            dropped: 0,
            draws: 0,
        }
    }

    /// Acquires the earliest-free slot for a message offered at
    /// `sent_at`, occupying it for `hold` cycles. Returns the cycle at
    /// which serialization starts (≥ `sent_at`; the wire latency is
    /// paid on top by the caller).
    pub fn acquire(&mut self, sent_at: u64, hold: u64) -> u64 {
        let (index, &free) = self
            .slot_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("capacity >= 1");
        let start = sent_at.max(free);
        self.slot_free[index] = start + hold;
        self.messages += 1;
        // Slots busy while this message serializes (itself included):
        // structurally capped at the slot count.
        let busy = self.slot_free.iter().filter(|&&f| f > start).count() as u32;
        self.peak_occupancy = self.peak_occupancy.max(busy.max(1));
        start
    }

    /// One deterministic loss draw: `true` = this attempt is dropped.
    /// The stream depends only on (policy seed, link endpoints, draw
    /// index), so runs reproduce across processes and thread counts.
    pub fn draw_drop(&mut self, seed: u64, from: NodeAddr, to: NodeAddr, loss_ppm: u32) -> bool {
        let index = self.draws;
        self.draws += 1;
        let key = seed
            ^ ((from as u64) << 48)
            ^ ((to as u64) << 32)
            ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64(key) % 1_000_000 < u64::from(loss_ppm)
    }
}
