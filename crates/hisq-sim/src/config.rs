//! Engine configuration, failure modes, and the post-run report —
//! the plain-data boundary types of the simulator's public API.

use std::error::Error;
use std::fmt;

use hisq_core::{BlockReason, NodeAddr};
use hisq_net::RouterError;
use hisq_quantum::OpCounts;

/// Engine configuration. Operation durations are not configurable:
/// the engine reads [`GateDurations::PAPER`](hisq_quantum::GateDurations::PAPER).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Latency for classical `send`s between nodes without a calibrated
    /// link, in cycles. Default 25 (100 ns). (Tree-edge latencies always
    /// come from calibrated links or the attached topology: a `sync`
    /// against an uncalibrated target faults the controller, so no
    /// router-edge default exists.)
    pub default_classical_latency: u64,
    /// Abort the run after this many processed events (runaway guard).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            default_classical_latency: 25,
            max_events: 200_000_000,
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted (runaway program guard).
    EventBudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// A node address was used twice.
    DuplicateAddr(NodeAddr),
    /// A router, hub or controller sits at or above `limit`
    /// ([`MEAS_FIFO_ADDR`](hisq_core::MEAS_FIFO_ADDR)), where the ISA's
    /// 12-bit node field cannot name it apart from the measurement FIFO.
    AddrOutOfRange {
        /// The offending (highest) node address.
        addr: NodeAddr,
        /// The first address no node may take.
        limit: NodeAddr,
    },
    /// A spec referenced an address that is not a registered
    /// controller (dangling hub subscriber or binding).
    UnknownAddr {
        /// The dangling address.
        addr: NodeAddr,
        /// What referenced it (e.g. `"hub subscriber"`).
        role: &'static str,
    },
    /// A router detected a routing-invariant violation mid-run (a
    /// booking from a non-child, or a mis-rooted tree with no parent
    /// to forward to).
    Router(RouterError),
}

impl From<RouterError> for SimError {
    fn from(e: RouterError) -> SimError {
        SimError::Router(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventBudgetExceeded { budget } => {
                write!(f, "event budget of {budget} exceeded (runaway program?)")
            }
            SimError::DuplicateAddr(a) => write!(f, "node address {a} registered twice"),
            SimError::AddrOutOfRange { addr, limit } => write!(
                f,
                "node address {addr} is at or above the limit of {limit} \
                 (the measurement FIFO's address in the 12-bit node field)"
            ),
            SimError::UnknownAddr { addr, role } => {
                write!(f, "{role} references unknown controller address {addr}")
            }
            SimError::Router(e) => write!(f, "routing fault: {e}"),
        }
    }
}

impl Error for SimError {}

/// Post-run statistics of one contended directed link (only links that
/// carried at least one message under a non-transparent
/// [`LinkModel`](hisq_net::LinkModel) appear).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Sending node address.
    pub from: NodeAddr,
    /// Receiving node address.
    pub to: NodeAddr,
    /// Transmission attempts carried (including retransmissions).
    pub messages: u64,
    /// Peak number of simultaneously busy serialization slots; never
    /// exceeds the model's `capacity`.
    pub peak_occupancy: u32,
    /// Retransmissions after a lossy attempt.
    pub retransmits: u64,
    /// Messages abandoned after exhausting the drop policy's attempt
    /// budget (the receiver never sees these).
    pub dropped: u64,
}

/// Post-run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// `true` if every controller reached `stop`.
    pub all_halted: bool,
    /// Controllers left blocked (deadlock diagnosis).
    pub blocked: Vec<(NodeAddr, BlockReason)>,
    /// Controllers that faulted, with messages.
    pub faulted: Vec<(NodeAddr, String)>,
    /// Latest wall-clock cycle reached by any controller.
    pub makespan_cycles: u64,
    /// Makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Gate-replay ordering violations: gates or resets harvested after
    /// a measurement at a later cycle had already resolved, so they
    /// reached the backend late. 0 for well-formed programs: it reads 0
    /// on every quick-suite and paper-size instance under both schemes
    /// at 1 and 3 shots, replayed into a backend that reads gates. It
    /// is always 0 under a backend that reads no gates
    /// ([`QuantumBackend::reads_gates`](crate::QuantumBackend::reads_gates)),
    /// because nothing is replayed.
    pub causality_warnings: u64,
    /// Sends whose latency had to fall back to
    /// [`SimConfig::default_classical_latency`] even though a topology
    /// was attached — a wiring bug (the destination is unknown to the
    /// topology), debug-asserted in debug builds and counted here in
    /// release builds. Always 0 for well-wired systems.
    pub routing_warnings: u64,
    /// Total TCU stall cycles across all controllers.
    pub total_stall_cycles: u64,
    /// Total instructions retired across all controllers.
    pub total_instructions: u64,
    /// Total `sync` instructions retired.
    pub total_syncs: u64,
    /// Committed quantum operations (1q/2q gates, measurements,
    /// resets) — the denominators of the analytic gate-error scoring
    /// ([`hisq_quantum::NoiseModel::infidelity`]).
    pub quantum_ops: OpCounts,
    /// Per-link contention statistics, ordered by `(from, to)` address
    /// pair. Empty when every link ran the transparent default model.
    pub link_stats: Vec<LinkReport>,
}

impl SimReport {
    /// Sum of retransmissions across every contended link.
    pub fn total_retransmits(&self) -> u64 {
        self.link_stats.iter().map(|l| l.retransmits).sum()
    }

    /// Sum of abandoned messages across every contended link.
    pub fn total_dropped(&self) -> u64 {
        self.link_stats.iter().map(|l| l.dropped).sum()
    }

    /// Highest peak slot occupancy observed on any contended link.
    pub fn peak_link_occupancy(&self) -> u32 {
        self.link_stats
            .iter()
            .map(|l| l.peak_occupancy)
            .max()
            .unwrap_or(0)
    }
}
