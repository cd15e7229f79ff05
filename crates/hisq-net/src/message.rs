//! Network-level message payloads.

use hisq_core::NodeAddr;

/// The payload of a network message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// BISP nearby-sync 1-bit signal.
    SyncPulse,
    /// Region-sync booking: "`target` should synchronize its region; my
    /// synchronization point is `time_point`".
    BookTime {
        /// The destination router coordinating the region.
        target: NodeAddr,
        /// Booked time-point (max-reduced along the way up).
        time_point: u64,
    },
    /// Region-sync resolution: the earliest common start time.
    MaxTime {
        /// The agreed region start time `T_m`.
        t_m: u64,
        /// The router that coordinated this sync (controllers match the
        /// broadcast against their pending booking by this address).
        target: NodeAddr,
    },
    /// Classical data (measurement results, feedback operands).
    Classical {
        /// Payload value.
        value: u32,
    },
}
