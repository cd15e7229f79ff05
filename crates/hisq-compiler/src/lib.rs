//! # hisq-compiler — the Distributed-HISQ software stack
//!
//! Lowers [`hisq_quantum::Circuit`] dynamic circuits to per-controller
//! HISQ binaries, standing in for the paper's Quingo → SISQ → HISQ
//! pipeline (Figure 10). Two complete backends implement the two
//! execution schemes the evaluation compares:
//!
//! - [`compile_bisp`] — **Distributed-HISQ**: independent per-controller
//!   streams, nearby `sync` pairs with booking advance for two-qubit
//!   gates, direct producer→consumer feedback messages, region-level
//!   synchronization between repetitions;
//! - [`compile_lockstep`] — the **lock-step baseline** (§6.4.3):
//!   IBM-style shared program flow through a central broadcast hub on a
//!   star topology with size-independent latency.
//!
//! A third pass, [`longrange::map_to_physical`], rewrites logical
//! circuits onto the interleaved data/ancilla layout, substituting
//! long-range CNOTs with the constant-depth dynamic gadget of Figure 14.
//!
//! # Code generation
//!
//! Both backends append typed lines to one [`StreamBuilder`] per
//! controller — instructions, the `li`/`mv` pseudo-instructions, and
//! branches and jumps to [`Label`] handles — and
//! [`StreamBuilder::finish`] resolves the labels straight into a
//! [`Program`]. Compiling formats and parses no assembly text.
//! [`CompiledSystem::listing`] renders a controller's assembly listing
//! from the same lines on request; assembling it with
//! [`hisq_isa::Assembler`] returns the emitted program, which the
//! workspace's `compiled_program_pins` test checks for every compiled
//! shape it pins.
//!
//! # Example
//!
//! ```
//! use hisq_compiler::{compile_bisp, BispOptions};
//! use hisq_net::TopologyBuilder;
//! use hisq_quantum::{Circuit, Condition};
//!
//! let mut circuit = Circuit::new(2, 1);
//! circuit.h(0);
//! circuit.measure(0, 0);
//! circuit.x_if(1, Condition::bit(0, true));
//!
//! let topology = TopologyBuilder::linear(2).build();
//! let compiled = compile_bisp(&circuit, &topology, &BispOptions::default())?;
//! assert_eq!(compiled.programs.len(), 2);
//! # Ok::<(), hisq_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codegen_bisp;
pub mod codegen_lockstep;
pub mod codewords;
pub mod emit;
pub mod fabric;
pub mod longrange;

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use hisq_core::NodeAddr;
use hisq_isa::{Program, CYCLE_NS};
use hisq_quantum::GateDurations;

pub use codegen_bisp::{compile_bisp, BispOptions};
pub use codegen_lockstep::{compile_lockstep, LockstepOptions};
pub use codewords::{Binding, CodewordTable, PORT_GATE, PORT_READOUT};
pub use emit::{Label, Listing, StreamBuilder};
pub use fabric::{apply_placement, plan_placement, FabricCosts};
pub use longrange::{map_to_physical, LongRangeConfig, LongRangeStats, PhysicalCircuit};

/// Operation durations quantized to TCU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleDurations {
    /// Single-qubit gate duration (cycles).
    pub single: u64,
    /// Two-qubit gate duration (cycles).
    pub two_qubit: u64,
    /// Measurement duration (cycles).
    pub measurement: u64,
    /// Active reset duration (cycles).
    pub reset: u64,
}

impl CycleDurations {
    /// The paper's §6.4.1 durations, [`GateDurations::PAPER`], on the
    /// 4 ns grid: 5 / 10 / 75 cycles.
    pub const PAPER: CycleDurations = {
        let ns = GateDurations::PAPER;
        CycleDurations {
            single: whole_cycles(ns.single_qubit_ns),
            two_qubit: whole_cycles(ns.two_qubit_ns),
            measurement: whole_cycles(ns.measurement_ns),
            reset: whole_cycles(ns.reset_ns),
        }
    };
}

/// `ns` in TCU cycles. Evaluated in a `const`, so a duration that is not
/// a whole number of [`CYCLE_NS`] fails the build instead of rounding.
const fn whole_cycles(ns: u64) -> u64 {
    assert!(
        ns % CYCLE_NS == 0,
        "operation durations must be whole TCU cycles"
    );
    ns / CYCLE_NS
}

/// The execution scheme a program was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Distributed-HISQ with BISP synchronization.
    Bisp,
    /// The lock-step shared-program-flow baseline.
    Lockstep,
}

/// Baseline broadcast-hub parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubSpec {
    /// Hub network address.
    pub addr: NodeAddr,
    /// Producer → hub latency (cycles).
    pub up_latency: u64,
    /// Hub → subscriber latency (cycles).
    pub down_latency: u64,
}

/// Compilation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Total HISQ instructions across all controllers.
    pub instructions: u64,
    /// Nearby `sync` instructions emitted (two per synchronized gate).
    pub nearby_syncs: u64,
    /// Region-level `sync` instructions emitted.
    pub region_syncs: u64,
    /// Classical sends emitted.
    pub sends: u64,
    /// Classical receives emitted (excluding measurement-FIFO reads).
    pub recvs: u64,
    /// Feedback (conditioned) operations emitted.
    pub feedbacks: u64,
}

/// A compiled distributed program: one HISQ binary per controller plus
/// the codeword bindings and scheme metadata needed to run it.
#[derive(Debug, Clone)]
pub struct CompiledSystem {
    /// The scheme this system was compiled for.
    pub scheme: Scheme,
    /// Machine code per controller.
    pub programs: BTreeMap<NodeAddr, Program>,
    /// Typed emission lines per controller, rendered on request by
    /// [`CompiledSystem::listing`].
    listings: BTreeMap<NodeAddr, Listing>,
    /// Codeword → quantum action bindings.
    pub bindings: Vec<Binding>,
    /// Number of circuit qubits (= participating controllers).
    pub num_qubits: usize,
    /// Broadcast hub parameters (lock-step only).
    pub hub: Option<HubSpec>,
    /// Compilation counters.
    pub stats: CompileStats,
}

impl CompiledSystem {
    /// Total instruction count across all controllers.
    pub fn total_instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// The assembly listing of controller `addr`'s program, or `None`
    /// if the system has no such controller. Rendered from the typed
    /// lines the program was emitted from; assembling it with
    /// [`hisq_isa::Assembler`] yields `programs[&addr]` again.
    pub fn listing(&self, addr: NodeAddr) -> Option<String> {
        self.listings.get(&addr).map(Listing::to_string)
    }

    /// FNV-1a fingerprint of the compiled *machine code*: the scheme
    /// tag plus, per controller in address order, the address and the
    /// encoded program words. Two compilations fingerprinting equal
    /// therefore emitted bit-identical programs for the same
    /// controllers — the property the sweep compile cache's
    /// equivalence suite checks (equal cache keys ⇒ equal
    /// fingerprints).
    ///
    /// # Panics
    ///
    /// Panics if an instruction does not encode. The compilers reject
    /// node addresses outside the 12-bit field before they emit, and
    /// bound every other field as they emit it.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&[match self.scheme {
            Scheme::Bisp => 0u8,
            Scheme::Lockstep => 1u8,
        }]);
        for (&addr, program) in &self.programs {
            eat(&addr.to_le_bytes());
            for inst in program.insts() {
                let word = hisq_isa::encode::encode(inst).expect("compiled instructions encode");
                eat(&word.to_le_bytes());
            }
        }
        hash
    }
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The circuit has more qubits than the topology has controllers.
    TooManyQubits {
        /// Circuit qubits.
        qubits: usize,
        /// Available controllers.
        controllers: usize,
    },
    /// A two-qubit gate spans controllers without a mesh edge.
    NonAdjacentGate {
        /// Instruction index in the circuit.
        index: usize,
        /// The offending operand pair.
        qubits: (usize, usize),
    },
    /// A condition guards an unsupported operation (only single-qubit
    /// gates may be conditioned).
    UnsupportedConditional {
        /// Instruction index in the circuit.
        index: usize,
    },
    /// A condition reads a classical bit no measurement has written.
    ConditionBeforeMeasurement {
        /// Instruction index in the circuit.
        index: usize,
        /// The unwritten classical bit.
        clbit: usize,
    },
    /// The topology has no router to coordinate region synchronization.
    NoRootRouter,
    /// A node the scheme needs sits at or above `limit`
    /// ([`hisq_core::MEAS_FIFO_ADDR`]), where the ISA's 12-bit node
    /// field cannot name it apart from the measurement FIFO.
    AddrOutOfRange {
        /// The node: BISP's `"root router"` (the topology's highest
        /// address) or the lock-step `"hub"`.
        node: &'static str,
        /// Its address.
        addr: usize,
        /// The first address no node may take.
        limit: NodeAddr,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyQubits {
                qubits,
                controllers,
            } => write!(
                f,
                "circuit needs {qubits} controllers but the topology has {controllers}"
            ),
            CompileError::NonAdjacentGate { index, qubits } => write!(
                f,
                "instruction {index}: two-qubit gate on non-adjacent qubits {qubits:?} \
                 (run the long-range mapping pass first)"
            ),
            CompileError::UnsupportedConditional { index } => write!(
                f,
                "instruction {index}: only single-qubit gates may be conditioned"
            ),
            CompileError::ConditionBeforeMeasurement { index, clbit } => write!(
                f,
                "instruction {index}: condition reads clbit {clbit} before any measurement"
            ),
            CompileError::NoRootRouter => {
                write!(f, "topology has no router for region synchronization")
            }
            CompileError::AddrOutOfRange { node, addr, limit } => write!(
                f,
                "{node} address {addr} is at or above the limit of {limit} \
                 (the measurement FIFO's address in the 12-bit node field)"
            ),
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_durations_quantize_correctly() {
        let d = CycleDurations::PAPER;
        assert_eq!(d.single, 5); // 20 ns at 4 ns/cycle
        assert_eq!(d.two_qubit, 10); // 40 ns
        assert_eq!(d.measurement, 75); // 300 ns
        assert_eq!(d.reset, 75); // 300 ns
    }

    #[test]
    fn error_display() {
        let e = CompileError::NonAdjacentGate {
            index: 7,
            qubits: (0, 5),
        };
        assert!(e.to_string().contains("long-range"));
        let e = CompileError::TooManyQubits {
            qubits: 10,
            controllers: 4,
        };
        assert!(e.to_string().contains("10"));
    }
}
