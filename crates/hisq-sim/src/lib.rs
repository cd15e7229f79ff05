//! # hisq-sim — CACTUS-Light: the Distributed-HISQ system simulator
//!
//! A transaction-level, cycle-exact discrete-event simulator for a full
//! Distributed-HISQ deployment (§6.4.1 of the paper): many HISQ
//! controllers, the router tree, the mesh links, a pluggable quantum
//! backend supplying measurement outcomes, and TELF event logging.
//!
//! The crate is split along the engine/model/spec seam:
//!
//! - [`spec`] — the declarative [`SystemSpec`]: a deployment described
//!   as data (nodes, programs, topology, hubs, quantum bindings,
//!   backend choice), validated once by [`SystemSpec::build`] — the
//!   only way to construct a runnable [`System`];
//! - [`nodes`] — the node models (controllers, routers, broadcast
//!   hubs) living in one arena behind a small dispatch enum;
//! - [`engine`] — the arena-indexed discrete-event core: addresses are
//!   interned into dense node ids at build time, so the hot loop (pop
//!   event → dispatch → route) indexes `Vec`s instead of walking
//!   `BTreeMap`s.
//!
//! The engine advances each controller until it blocks on an external
//! input (sync pulse, region max-time, classical message), routes the
//! controller's outgoing messages with calibrated link latencies, and
//! delivers them in global time order. All quantum-event commit times
//! land on the TCU's 4 ns grid, so waveform-level alignment questions
//! (Figure 13) can be answered exactly.
//!
//! Links can also *contend* and *lose* messages: every directed link
//! runs a [`LinkModel`] (declared on the spec or the topology, swept
//! via the harness's system parameters). The default model is
//! transparent — pure `sent_at + latency` delivery, byte-identical to
//! the historical engine — while a contended model serializes
//! packetized messages through per-link capacity slots and applies a
//! deterministic seeded drop-and-retransmit policy to classical
//! payloads, all visible as per-link counters in
//! [`SimReport::link_stats`]. See the link-model section of
//! `docs/ARCHITECTURE.md` for the queue semantics.
//!
//! The quantum substrate can be noisy too: the backend choice is
//! declarative ([`BackendSpec`]), and the noise-aware variants —
//! [`NoisyStabilizerBackend`] (sampled Pauli channels + readout
//! flips) and [`LeakyRandomBackend`] (sticky leakage) — take a
//! [`NoiseModel`] of per-operation error rates. The engine counts
//! committed quantum operations ([`SimReport::quantum_ops`]) next to
//! its exposure ledger, so schedules can be scored analytically in the
//! gate-error-dominated regime
//! ([`NoiseModel::infidelity`]) as well as under pure
//! decoherence. See the noise-models section of
//! `docs/ARCHITECTURE.md` for the seeding/determinism contract.
//!
//! On top of the single-system engine, the [`sweep`] module provides
//! the batch layer: [`SweepGrid`] expands cartesian parameter grids
//! into scenario lists and [`SweepRunner`] executes them on a worker
//! pool, aggregating per-scenario [`SweepRecord`]s into a
//! deterministic, seed-stable JSON [`SweepReport`].
//!
//! ## Modelled idealizations (documented deviations)
//!
//! - **Downlink broadcasts** of the region max-time are delivered with
//!   zero latency by default, matching the paper's §4.4 accounting where
//!   the synchronization overhead of Figure 7 is exactly `L₂ − D₂`.
//!   Disable [`SimConfig::idealize_downlink`] to model real down-hops
//!   (an ablation the paper does not evaluate).
//! - **Measurement outcomes** resolve at result-delivery time, with
//!   gates replayed in commit-cycle order into the quantum backend; the
//!   [`SimReport::causality_warnings`] counter verifies the replay
//!   ordering was sound.
//!
//! # Example
//!
//! ```
//! use hisq_isa::Assembler;
//! use hisq_core::NodeConfig;
//! use hisq_sim::SystemSpec;
//!
//! // Two controllers synchronize once, then pulse simultaneously.
//! let a = Assembler::new().assemble("waiti 40\nsync 1\nwaiti 6\ncw.i.i 0, 1\nstop").unwrap();
//! let b = Assembler::new().assemble("waiti 90\nsync 0\nwaiti 6\ncw.i.i 0, 1\nstop").unwrap();
//!
//! let mut spec = SystemSpec::new();
//! spec.controller(NodeConfig::new(0).with_neighbor(1, 6), a.insts().to_vec());
//! spec.controller(NodeConfig::new(1).with_neighbor(0, 6), b.insts().to_vec());
//! let mut system = spec.build().unwrap();
//! let report = system.run().unwrap();
//!
//! let telf = system.telf();
//! let t0 = telf.commits_of(0)[0].cycle;
//! let t1 = telf.commits_of(1)[0].cycle;
//! assert_eq!(t0, t1, "BISP commits at the same cycle");
//! assert!(report.all_halted);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod config;
pub mod engine;
pub mod events;
pub mod nodes;
pub mod queue;
pub mod spec;
pub mod sweep;
pub mod telf;

pub use backend::{
    FixedBackend, LeakyRandomBackend, NoisyStabilizerBackend, QuantumBackend, RandomBackend,
    StabilizerBackend, StateVectorBackend,
};
pub use config::{LinkReport, SimConfig, SimError, SimReport};
pub use engine::System;
pub use hisq_net::{DropPolicy, FabricMap, LinkModel, RouterError};
pub use hisq_quantum::{NoiseMap, NoiseModel, OpCounts};
pub use nodes::{Hub, MeasBinding, QuantumAction};
pub use queue::{CalendarQueue, EngineQueue, EventQueue, HeapQueue};
pub use spec::{BackendSpec, SystemSpec};
pub use sweep::{Metric, MetricSummary, SweepGrid, SweepRecord, SweepReport, SweepRunner};
pub use telf::{Telf, TelfRecord};
