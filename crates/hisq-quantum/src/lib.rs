//! # hisq-quantum — quantum substrate for Distributed-HISQ
//!
//! This crate provides everything the control-architecture evaluation
//! needs to know about quantum programs themselves:
//!
//! - [`Circuit`] — a **dynamic-circuit** intermediate representation:
//!   gates, mid-circuit measurement, and classically conditioned
//!   operations (the feedback that creates the synchronization challenge
//!   of the paper's §2.1);
//! - [`StateVector`] — a dense simulator for logical-correctness
//!   verification of small circuits (teleportation, long-range CNOT);
//! - [`Stabilizer`] — a CHP-style tableau simulator scaling to the
//!   QEC-sized Clifford circuits of the paper's benchmarks;
//! - [`fidelity`] — the T1/T2 idle-decay model behind Figure 16;
//! - [`noise`] — declarative per-gate/idle/leakage error rates
//!   ([`NoiseModel`]) and the seeded [`NoiseStream`] the noisy
//!   simulator backends sample channels from;
//! - [`GateDurations`] — the operation-duration table of §6.4.1
//!   (20 ns single-qubit, 40 ns two-qubit, 300 ns measurement).
//!
//! # Example: a feedback (dynamic) circuit
//!
//! ```
//! use hisq_quantum::{Circuit, Condition};
//!
//! // Measure q0 and apply X on q1 only if the result was 1 — the
//! // canonical feedback pattern behind teleportation.
//! let mut c = Circuit::new(2, 1);
//! c.h(0);
//! c.measure(0, 0);
//! c.x_if(1, Condition::bit(0, true));
//! assert_eq!(c.instructions().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod circuit;
pub mod complex;
pub mod fidelity;
pub mod gate;
pub mod json;
pub mod noise;
pub mod stabilizer;
pub mod statevector;
pub mod timing;

pub use circuit::{Circuit, CircuitError, Condition, Instruction, Operation};
pub use complex::C64;
pub use fidelity::{CoherenceParams, ExposureLedger};
pub use gate::{Gate, QuantumAction};
pub use noise::{NoiseMap, NoiseModel, NoiseStream, OpCounts};
pub use stabilizer::Stabilizer;
pub use statevector::StateVector;
pub use timing::GateDurations;
