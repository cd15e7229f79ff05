//! Disassembly of HISQ instructions back to assembly text.
//!
//! The produced text re-assembles to the identical instruction sequence
//! (a property verified by this crate's test suite), enabling
//! binary → text → binary round trips for debugging deployed programs.

use std::fmt::Write as _;

use crate::inst::Inst;

/// Disassembles a sequence of instructions, one per line.
///
/// Control-flow targets are printed as relative byte offsets, matching
/// the paper's listing style.
///
/// # Example
///
/// ```
/// use hisq_isa::{disasm::disassemble, Inst};
///
/// let text = disassemble(&[Inst::WaitI { cycles: 57 }, Inst::Stop]);
/// assert_eq!(text, "waiti 57\nstop\n");
/// ```
pub fn disassemble(insts: &[Inst]) -> String {
    let mut out = String::new();
    for inst in insts {
        // Inst's Display is already valid assembler input.
        let _ = writeln!(out, "{inst}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn disassembly_reassembles_identically() {
        let src = "
            addi $2,$0,120
            addi $1,$0,0
            waiti 1
            cw.i.i 21,2
            cw.i.r 3, x4
            cw.r.i x5, 9
            cw.r.r x5, x6
            waitr $1
            sync 2
            send 3, x7
            recv x8, 3
            lw x9, -4(x2)
            sw x9, 4(x2)
            bne $1,$2,-28
            jal $0,-44
            stop
        ";
        let p = Assembler::new().assemble(src).unwrap();
        let text = disassemble(p.insts());
        let p2 = Assembler::new().assemble(&text).unwrap();
        assert_eq!(p.insts(), p2.insts());
    }
}
