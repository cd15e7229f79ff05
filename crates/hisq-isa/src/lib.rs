//! # hisq-isa — the HISQ hardware instruction set
//!
//! HISQ (*Hardware Instruction Set for Quantum computing*) is the
//! hardware-agnostic quantum-control ISA proposed by the Distributed-HISQ
//! paper (MICRO '25). It extends the RISC-V RV32I base integer set with a
//! small family of timing, triggering, synchronization, and communication
//! instructions. The quantum-facing abstraction is deliberately minimal:
//!
//! > *"sending particular codewords, to particular ports, at particular
//! > time-points"* (Insight #3)
//!
//! This crate provides the complete toolchain for that ISA:
//!
//! - [`Inst`] — the structured instruction representation (RV32I subset
//!   plus the HISQ extension: `cw`, `waiti`/`waitr`, `sync`,
//!   `send`/`recv`, `stop`);
//! - [`encode`]/[`decode`] — the 32-bit binary encoding, with the HISQ
//!   extension living in the RISC-V *custom-0*/*custom-1* opcode space;
//! - [`Assembler`] — a two-pass assembler accepting the syntax used in
//!   the paper's listings (Figures 6 and 12), including `$n`-style
//!   register names, labels, and pseudo-instructions;
//! - [`disasm`] — a round-trippable disassembler;
//! - [`Program`] — an assembled program with its symbol table.
//!
//! # Example
//!
//! The control-board inner loop of the paper's Figure 12:
//!
//! ```
//! use hisq_isa::Assembler;
//!
//! let src = "
//!     addi $2, $0, 120
//!     addi $1, $0, 0
//! loop:
//!     waiti 1
//!     cw.i.i 21, 2
//!     addi $1, $1, 40
//!     cw.i.i 20, 2
//!     waitr $1
//!     sync 2
//!     waiti 8
//!     cw.i.i 7, 1
//!     waiti 50
//!     bne $1, $2, loop
//!     stop
//! ";
//! let program = Assembler::new().assemble(src)?;
//! assert_eq!(program.len(), 13);
//!
//! // Binary round-trip.
//! let words = program.encode()?;
//! let back = hisq_isa::Program::decode(&words)?;
//! assert_eq!(program.insts(), back.insts());
//! # Ok::<(), hisq_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod asm;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod inst;
pub mod program;
pub mod reg;

mod error;

pub use asm::Assembler;
pub use error::{AsmError, DecodeError, EncodeError, IsaError};
pub use inst::{AluOp, BranchOp, CwOperand, Inst, LoadOp, StoreOp};
pub use program::Program;
pub use reg::Reg;

/// The TCU clock frequency of the reference implementation (§6.1): 250 MHz.
pub const TCU_CLOCK_HZ: u64 = 250_000_000;

/// Duration of one TCU cycle in nanoseconds (4 ns at 250 MHz).
pub const CYCLE_NS: u64 = 1_000_000_000 / TCU_CLOCK_HZ;

/// The longest single `waiti`, in cycles: the 22-bit immediate's
/// maximum, 4 194 303 cycles (about 16.8 ms at 4 ns/cycle). Longer
/// waits are emitted as several `waiti`s.
pub const MAX_WAITI_CYCLES: u32 = (1 << 22) - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_matches_paper() {
        // §6.1: "the TCU operates at 250 MHz, enabling a 4 ns resolution grid".
        assert_eq!(CYCLE_NS, 4);
    }

    #[test]
    fn longest_waiti_is_about_16_8_ms() {
        assert_eq!(MAX_WAITI_CYCLES, 4_194_303);
        assert_eq!(u64::from(MAX_WAITI_CYCLES) * CYCLE_NS, 16_777_212);
    }
}
