//! # hisq-core — the single-node HISQ microarchitecture
//!
//! A cycle-exact, transaction-level model of one HISQ controller (the
//! digital part of a control or readout board), mirroring Figure 3(a) of
//! the paper:
//!
//! - **Classical pipeline** — executes the RV32I subset at one
//!   instruction per 4 ns TCU cycle (250 MHz, §6.1);
//! - **Timing Control Unit (TCU)** — the QuMA-style queue-based timing
//!   mechanism: quantum events are *enqueued* at imprecise pipeline times
//!   but *committed* at precise timing-grid time-points; the timer can be
//!   paused/resumed by the SyncU (§3.2);
//! - **Synchronization Unit (SyncU)** — the single-node half of the BISP
//!   booking protocol (Figure 4): on a `sync`, send the booking
//!   signal/time-point, start the calibrated countdown, and stall the
//!   timer only if the partner's signal (Condition II) has not arrived
//!   when the countdown ends (Condition I);
//! - **Message Unit (MsgU)** — `send`/`recv` mailboxes for measurement
//!   results and other classical feedback data.
//!
//! The controller is *event-driven*: [`Controller::step`] runs the
//! instruction stream until it halts or blocks on an external input
//! (sync pulse, router max-time reply, or classical message). A
//! surrounding discrete-event engine (`hisq-sim`) delivers those inputs
//! with network latencies and re-steps the controller. All commit
//! timestamps are computed on the 4 ns grid independent of simulation
//! order, so the transaction-level execution is cycle-accurate.
//!
//! # Example
//!
//! ```
//! use hisq_core::{Controller, NodeConfig};
//! use hisq_isa::Assembler;
//!
//! let program = Assembler::new().assemble(
//!     "waiti 10\n cw.i.i 3, 7\n stop",
//! ).unwrap();
//! let mut ctrl = Controller::new(NodeConfig::new(1), program.insts().to_vec());
//! let mut outbox = Vec::new();
//! let outcome = ctrl.step(&mut outbox);
//! assert!(outcome.is_halted());
//! // The codeword committed exactly at cycle 10 on the timing grid.
//! assert_eq!(ctrl.commits()[0].cycle, 10);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod controller;
pub mod msg;
pub mod pipeline;
pub mod timeline;

pub use config::{Link, LinkKind, NodeConfig};
pub use controller::{BlockReason, Controller, ControllerStats, Status, StepOutcome};
pub use msg::{CommitRecord, NodeAddr, OutboundMessage};
pub use pipeline::{Memory, RegFile};
pub use timeline::Timeline;

/// The ISA's cycle length and longest single wait, re-exported for the
/// crates that bound times in cycles without depending on the ISA.
pub use hisq_isa::{CYCLE_NS, MAX_WAITI_CYCLES};

/// Reserved node address for the local measurement-result FIFO: `recv`
/// from this address reads the discrimination output of the local
/// readout chain (delivered by the analog front-end model).
pub const MEAS_FIFO_ADDR: NodeAddr = 0xFFF;
