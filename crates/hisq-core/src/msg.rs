//! Message and record types exchanged between a controller and the
//! surrounding distributed system.

use std::fmt;

/// Network address of a node (controller, router or hub). The
/// `sync`/`send`/`recv` instructions encode 12 bits, and nodes sit
/// below [`crate::MEAS_FIFO_ADDR`], the top of that field.
pub type NodeAddr = u16;

/// A message emitted by a controller, to be routed by the network
/// substrate with the appropriate link latency.
///
/// All timestamps are in TCU cycles (4 ns) on the global wall clock
/// (clock distribution keeps all node clocks phase-aligned, §1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutboundMessage {
    /// The 1-bit nearby-synchronization signal of BISP (Figure 4).
    SyncPulse {
        /// Destination neighbour controller.
        to: NodeAddr,
        /// Booking time — the cycle the SyncU emitted the signal.
        sent_at: u64,
    },
    /// A region-level booking: "I will reach my synchronization point at
    /// `time_point`" (§4.3).
    BookTime {
        /// The ancestor router coordinating the region.
        router: NodeAddr,
        /// The booked synchronization time-point `T_i`.
        time_point: u64,
        /// When the booking left the controller.
        sent_at: u64,
    },
    /// A classical payload (e.g. a measurement result) for another
    /// controller's MsgU.
    Classical {
        /// Destination controller.
        to: NodeAddr,
        /// Payload value.
        value: u32,
        /// When the message left the controller.
        sent_at: u64,
    },
}

/// A committed codeword trigger: the TCU issued `codeword` to `port` at
/// `cycle`. The sequence of commit records is the controller's TELF
/// (Timing Event Logging Format) trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Destination port (channel index on the board).
    pub port: u32,
    /// The committed codeword.
    pub codeword: u32,
    /// Commit time in TCU cycles on the wall clock.
    pub cycle: u64,
}

impl fmt::Display for CommitRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>8} ({:>9} ns): port {:>3} <- cw {:#x}",
            self.cycle,
            self.cycle * hisq_isa::CYCLE_NS,
            self.port,
            self.codeword
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_record_display_shows_nanoseconds() {
        let r = CommitRecord {
            port: 5,
            codeword: 1,
            cycle: 25,
        };
        let text = r.to_string();
        assert!(text.contains("100 ns"), "{text}");
        assert!(text.contains("port   5"), "{text}");
    }
}
