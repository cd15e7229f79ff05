//! The region-synchronization router (Figure 8 of the paper).
//!
//! Routers participate only in region-level sync: they buffer booking
//! time-points from their children, max-reduce once every participating
//! child has booked, and either forward the partial maximum to their
//! parent or — when they are the sync destination — broadcast the final
//! earliest common start time back down the tree.
//!
//! Bookings for *different* destinations are kept in separate sessions,
//! and repeated synchronizations against the same destination pair up
//! round-by-round in FIFO order.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use hisq_core::NodeAddr;

/// A routing-invariant violation detected by a router.
///
/// These are malformed-but-constructible deployments (a booking from a
/// node that is not a child, a mis-rooted tree with no parent to
/// forward to), not programmer errors: routers report them structurally
/// so the simulation engine can surface the fault instead of tearing
/// the process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterError {
    /// A booking arrived from a node that is not one of this router's
    /// children (the tree routing invariant says bookings only ever
    /// climb parent links).
    NonChildBooking {
        /// The router that received the booking.
        router: NodeAddr,
        /// The non-child sender.
        from: NodeAddr,
    },
    /// A completed round must be forwarded towards `target`, but this
    /// router has no parent — the tree is mis-rooted (the sync
    /// destination is not an ancestor of the booking controllers).
    MissingParent {
        /// The parentless router.
        router: NodeAddr,
        /// The sync destination the booking was addressed to.
        target: NodeAddr,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RouterError::NonChildBooking { router, from } => {
                write!(
                    f,
                    "router {router} received a booking from non-child {from}"
                )
            }
            RouterError::MissingParent { router, target } => write!(
                f,
                "router {router} must forward a booking for {target} but has no parent \
                 (mis-rooted tree)"
            ),
        }
    }
}

impl Error for RouterError {}

/// An action the router asks the network to perform.
///
/// Actions are `Copy` and carry no owned data: a broadcast names no
/// recipient list — the recipients are always *all* of the router's
/// [`children`](Router::children), which the network reads from the
/// router itself. Relaying a max-time wave down a large tree therefore
/// allocates nothing per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterAction {
    /// Forward an aggregated booking to the parent router.
    ForwardUp {
        /// Parent router address.
        parent: NodeAddr,
        /// Final sync destination (an ancestor router).
        target: NodeAddr,
        /// Max-reduced time-point of this subtree.
        time_point: u64,
        /// When the forwarding leaves this router (= the latest arrival
        /// among this round's bookings).
        sent_at: u64,
    },
    /// Broadcast the final earliest common start time to every child
    /// (controllers receive it directly; sub-routers relay it
    /// downward).
    Broadcast {
        /// The agreed region start time.
        t_m: u64,
        /// The coordinating router (the original sync destination).
        target: NodeAddr,
    },
}

/// One buffered booking: the claimed time-point and its arrival time at
/// this router. The effective contribution of a booking is
/// `max(time_point, arrival)` — a router cannot act on information it
/// has not yet received (this is the `max({Bᵢ + Lᵢ})` floor of §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Booking {
    time_point: u64,
    arrival: u64,
}

/// Per-destination synchronization session state. Routers see a
/// handful of distinct targets and have tree-arity children, so both
/// levels are flat linear-scanned vectors, not maps — a booking
/// delivery on the engine's hot path touches no tree nodes and (after
/// the first round warms the slots) allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Session {
    /// The sync destination this session aggregates for.
    target: NodeAddr,
    /// FIFO of bookings per child, in first-booking order.
    per_child: Vec<(NodeAddr, VecDeque<Booking>)>,
}

/// A router node in the inter-layer tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    addr: NodeAddr,
    parent: Option<NodeAddr>,
    /// Shared by every clone: the tree links never change once built.
    children: Arc<[NodeAddr]>,
    sessions: Vec<Session>,
    rounds_completed: u64,
}

impl Router {
    /// Creates a router with its tree links.
    pub fn new(addr: NodeAddr, parent: Option<NodeAddr>, children: Vec<NodeAddr>) -> Router {
        Router {
            addr,
            parent,
            children: children.into(),
            sessions: Vec::new(),
            rounds_completed: 0,
        }
    }

    /// This router's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// This router's parent in the tree (`None` for the root).
    pub fn parent(&self) -> Option<NodeAddr> {
        self.parent
    }

    /// The router's children.
    pub fn children(&self) -> &[NodeAddr] {
        &self.children
    }

    /// Number of completed max-reduction rounds (diagnostics).
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Handles a booking from child `from` for destination `target`,
    /// arriving at wall-clock `arrival`. Returns the action to take,
    /// if the booking completed a round.
    ///
    /// # Errors
    ///
    /// - [`RouterError::NonChildBooking`] if `from` is not one of this
    ///   router's children (the tree routing invariant guarantees
    ///   bookings only ever climb parent links);
    /// - [`RouterError::MissingParent`] if a completed round must climb
    ///   further but this router has no parent (mis-rooted tree).
    ///
    /// On error the router's session state is left unchanged — the
    /// offending booking is not buffered.
    pub fn deliver_book_time(
        &mut self,
        from: NodeAddr,
        target: NodeAddr,
        time_point: u64,
        arrival: u64,
    ) -> Result<Option<RouterAction>, RouterError> {
        if !self.children.contains(&from) {
            return Err(RouterError::NonChildBooking {
                router: self.addr,
                from,
            });
        }
        // A round that completes for a foreign target needs a parent to
        // climb to; reject *before* buffering so the error leaves the
        // sessions untouched.
        if target != self.addr && self.parent.is_none() {
            return Err(RouterError::MissingParent {
                router: self.addr,
                target,
            });
        }
        let session = match self.sessions.iter_mut().position(|s| s.target == target) {
            Some(i) => &mut self.sessions[i],
            None => {
                self.sessions.push(Session {
                    target,
                    per_child: Vec::new(),
                });
                self.sessions.last_mut().expect("just pushed")
            }
        };
        match session.per_child.iter_mut().find(|(c, _)| *c == from) {
            Some((_, queue)) => queue.push_back(Booking {
                time_point,
                arrival,
            }),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back(Booking {
                    time_point,
                    arrival,
                });
                session.per_child.push((from, queue));
            }
        }

        // A round completes once every child has a booking queued.
        let complete = self.children.iter().all(|c| {
            session
                .per_child
                .iter()
                .any(|(child, q)| child == c && !q.is_empty())
        });
        if !complete {
            return Ok(None);
        }

        let mut t_m = 0u64;
        let mut latest_arrival = 0u64;
        for child in self.children.iter() {
            let booking = session
                .per_child
                .iter_mut()
                .find(|(c, _)| c == child)
                .expect("round checked complete")
                .1
                .pop_front()
                .expect("round checked complete");
            t_m = t_m.max(booking.time_point).max(booking.arrival);
            latest_arrival = latest_arrival.max(booking.arrival);
        }
        self.rounds_completed += 1;

        if target == self.addr {
            Ok(Some(RouterAction::Broadcast { t_m, target }))
        } else {
            // Checked before buffering; a parentless router cannot
            // reach a completed foreign-target round.
            let parent = self.parent.ok_or(RouterError::MissingParent {
                router: self.addr,
                target,
            })?;
            Ok(Some(RouterAction::ForwardUp {
                parent,
                target,
                time_point: t_m,
                sent_at: latest_arrival,
            }))
        }
    }

    /// Handles a downward broadcast from the parent: relay to children.
    pub fn deliver_max_time(&self, t_m: u64, target: NodeAddr) -> RouterAction {
        RouterAction::Broadcast { t_m, target }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_level_round_max_reduces_with_arrival_floor() {
        let mut r = Router::new(100, None, vec![0, 1, 2]);
        // Paper Figure 7: C2's booking arrives after its claimed
        // time-point, so the arrival becomes the floor.
        assert!(r.deliver_book_time(0, 100, 50, 20).unwrap().is_none());
        assert!(r.deliver_book_time(1, 100, 60, 25).unwrap().is_none());
        let action = r.deliver_book_time(2, 100, 55, 70).unwrap(); // D2 < L2
        assert_eq!(
            action,
            Some(RouterAction::Broadcast {
                t_m: 70, // max(T_i) = 60 but max(B_i + L_i) = 70 wins
                target: 100,
            })
        );
        assert_eq!(r.rounds_completed(), 1);
    }

    #[test]
    fn zero_overhead_when_arrivals_hidden() {
        let mut r = Router::new(100, None, vec![0, 1]);
        assert!(r.deliver_book_time(0, 100, 90, 30).unwrap().is_none());
        let action = r.deliver_book_time(1, 100, 80, 40).unwrap();
        // max(T_i) = 90 dominates max(arrival) = 40: zero-cycle overhead.
        assert_eq!(
            action,
            Some(RouterAction::Broadcast {
                t_m: 90,
                target: 100,
            })
        );
    }

    #[test]
    fn intermediate_router_forwards_up() {
        let mut r = Router::new(100, Some(200), vec![0, 1]);
        assert!(r.deliver_book_time(0, 200, 50, 10).unwrap().is_none());
        let action = r.deliver_book_time(1, 200, 70, 12).unwrap();
        assert_eq!(
            action,
            Some(RouterAction::ForwardUp {
                parent: 200,
                target: 200,
                time_point: 70,
                sent_at: 12,
            })
        );
    }

    #[test]
    fn repeated_rounds_pair_fifo() {
        let mut r = Router::new(100, None, vec![0, 1]);
        // Child 0 books twice before child 1's first booking.
        assert!(r.deliver_book_time(0, 100, 10, 5).unwrap().is_none());
        assert!(r.deliver_book_time(0, 100, 200, 105).unwrap().is_none());
        let first = r.deliver_book_time(1, 100, 20, 6).unwrap();
        assert_eq!(
            first,
            Some(RouterAction::Broadcast {
                t_m: 20,
                target: 100,
            })
        );
        // Second round pairs child 0's second booking.
        let second = r.deliver_book_time(1, 100, 150, 110).unwrap();
        assert_eq!(
            second,
            Some(RouterAction::Broadcast {
                t_m: 200,
                target: 100,
            })
        );
        assert_eq!(r.rounds_completed(), 2);
    }

    #[test]
    fn sessions_for_different_targets_are_independent() {
        // Router coordinates nothing itself; it relays two targets.
        let mut r = Router::new(100, Some(200), vec![0, 1]);
        assert!(r.deliver_book_time(0, 200, 10, 1).unwrap().is_none());
        assert!(r.deliver_book_time(0, 300, 99, 2).unwrap().is_none());
        // Completing target-200's round is unaffected by the 300 session.
        let action = r.deliver_book_time(1, 200, 30, 3).unwrap();
        assert!(matches!(
            action,
            Some(RouterAction::ForwardUp {
                target: 200,
                time_point: 30,
                ..
            })
        ));
    }

    #[test]
    fn downward_broadcast_relays() {
        let r = Router::new(100, Some(200), vec![0, 1]);
        let action = r.deliver_max_time(500, 300);
        assert_eq!(
            action,
            RouterAction::Broadcast {
                t_m: 500,
                target: 300,
            }
        );
    }

    #[test]
    fn booking_from_stranger_is_a_structured_error() {
        let mut r = Router::new(100, None, vec![0, 1]);
        assert_eq!(
            r.deliver_book_time(9, 100, 1, 1),
            Err(RouterError::NonChildBooking {
                router: 100,
                from: 9
            })
        );
        // The rejected booking left no session state behind: a valid
        // round still completes with only the real children.
        assert!(r.deliver_book_time(0, 100, 5, 1).unwrap().is_none());
        assert!(r.deliver_book_time(1, 100, 7, 2).unwrap().is_some());
    }

    #[test]
    fn mis_rooted_forwarding_is_a_structured_error() {
        // A parentless router asked to relay towards a foreign target
        // (the tree was assembled without the upper level).
        let mut r = Router::new(100, None, vec![0, 1]);
        assert_eq!(
            r.deliver_book_time(0, 300, 10, 1),
            Err(RouterError::MissingParent {
                router: 100,
                target: 300
            })
        );
        assert_eq!(r.rounds_completed(), 0);
    }
}
