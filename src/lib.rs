//! # Distributed-HISQ
//!
//! A reproduction of *"Distributed-HISQ: A Distributed Quantum Control
//! Architecture"* (MICRO 2025) as a pure-Rust library suite.
//!
//! This facade crate re-exports every subsystem of the reproduction:
//!
//! - [`isa`] — the HISQ hardware instruction set (RV32I extension with
//!   `cw`/`wait`/`sync`/`send`/`recv`): binary encoding and decoding, an
//!   assembler, and instructions that print as assembly text.
//! - [`core`] — the single-node HISQ microarchitecture: classical pipeline,
//!   Timing Control Unit (TCU), Synchronization Unit (SyncU) implementing the
//!   BISP booking protocol, and Message Unit (MsgU).
//! - [`net`] — the hybrid network substrate: mesh intra-layer links between
//!   neighbouring controllers and a balanced-tree router hierarchy for
//!   region-level synchronization.
//! - [`sim`] — CACTUS-Light-style transaction-level distributed simulator
//!   driving many controllers, routers, and the analog front-end.
//! - [`quantum`] — dynamic-circuit IR plus state-vector and stabilizer
//!   simulators and a T1/T2 fidelity model.
//! - [`analog`] — pulse synthesis (NCO/DAC/envelope), readout demodulation,
//!   and a two-level qubit physics model used for the calibration
//!   experiments of Figure 11.
//! - [`compiler`] — the software stack lowering dynamic circuits to per-
//!   controller HISQ binaries, with both the BISP scheme and the baseline
//!   lock-step scheme of the paper's evaluation.
//! - [`workloads`] — generators for the paper's benchmark suite (adder,
//!   Bernstein–Vazirani, QFT, W-state, logical-T QEC circuits).
//!
//! # Quickstart
//!
//! ```
//! use distributed_hisq::isa::Assembler;
//!
//! let program = Assembler::new()
//!     .assemble(
//!         "addi x1, x0, 40\n\
//!          waitr x1\n\
//!          cw.i.i 3, 1\n\
//!          sync 2\n",
//!     )
//!     .expect("valid HISQ assembly");
//! assert_eq!(program.len(), 4);
//! ```

//! The [`scenario`] module is the scenario model — one experiment
//! point ([`scenario::Scenario`]), its stable id and its JSON grammar —
//! and the scenario *files* built from it: versioned JSON documents
//! describing base scenarios plus sweep axes, expanded into grids,
//! executed by the `hisq run` binary and replayed byte-for-byte in CI.
//!
//! The [`runner`] module is the pipeline: it glues the compiler to the
//! simulator ([`runner::build_system`]), runs each scenario through
//! compile → instantiate → run + score ([`runner::run_scenario`]), and
//! fans whole sweeps out over the [`sim::sweep`] worker pool
//! ([`runner::run_sweep`]).
//!
//! The [`load`] module is the multi-tenant job engine on top of the
//! runner: seeded open-loop arrival streams, a bounded admission
//! queue, and a scheduler multiplexing compiled jobs over disjoint
//! controller partitions — attached to a scenario as its `load` block.
//! [`stats`] holds the deterministic statistics helpers (nearest-rank
//! percentiles) its reports are defined by.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod load;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod testing;

pub use hisq_analog as analog;
pub use hisq_compiler as compiler;
pub use hisq_core as core;
pub use hisq_isa as isa;
pub use hisq_net as net;
pub use hisq_quantum as quantum;
pub use hisq_sim as sim;
pub use hisq_workloads as workloads;
