//! # hisq-workloads — the paper's benchmark suite (§6.4.2)
//!
//! Generators for every workload in the Figure 15 evaluation:
//!
//! | Benchmark | Generator | Structure |
//! |---|---|---|
//! | `adder_n577`, `adder_n1153` | [`adder::vbe_adder`] | VBE ripple-carry adder (3n+1 qubits) |
//! | `bv_n400`, `bv_n1000` | [`bv::bernstein_vazirani`] | BV with long CNOTs onto one ancilla |
//! | `qft_n30..n300` | [`qft::qft`] | (approximate) quantum Fourier transform |
//! | `w_state_n800`, `w_state_n1000` | [`w_state::w_state`] | linear W-state preparation cascade |
//! | `logical_t_n432`, `logical_t_n864` | [`logical_t::logical_t`] | lattice-surgery logical T with conditional logical S |
//!
//! The first four produce *logical* circuits that the
//! [`hisq_compiler::longrange`] pass rewrites into dynamic circuits on
//! the interleaved data/ancilla layout (this is the paper's "converted
//! several static circuits from QASMBench to dynamic circuits"
//! transformation). The QEC benchmark is generated directly on a 2-D
//! grid with mesh-local stabilizer circuits.
//!
//! [`suite::fig15_suite`] assembles the exact instance list of Figure
//! 15; [`suite::suite_names`] enumerates it without building circuits,
//! and [`suite::WorkloadSpec`] is the deferred-build handle the sweep
//! engine expands parameter grids over.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adder;
pub mod bv;
pub mod json;
pub mod logical_t;
pub mod qft;
pub mod suite;
pub mod toffoli;
pub mod w_state;

pub use adder::vbe_adder;
pub use bv::bernstein_vazirani;
pub use logical_t::{logical_t, LogicalTConfig, LogicalTInstance};
pub use qft::qft;
pub use suite::{
    benchmark, fig15_suite, long_range_controllers, simultaneous_long_range_cnots, suite_names,
    Benchmark, BuiltWorkload, SuiteScale, WorkloadSpec, PAPER_SUITE, QUICK_SUITE,
};
pub use w_state::w_state;
