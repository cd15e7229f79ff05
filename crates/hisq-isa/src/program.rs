//! Assembled HISQ programs.

use std::collections::BTreeMap;
use std::fmt::{self, Display};

use crate::decode::decode_all;
use crate::encode::encode_all;
use crate::error::{DecodeError, EncodeError};
use crate::inst::Inst;

/// An assembled HISQ program: a sequence of instructions plus the symbol
/// table produced by the assembler.
///
/// Instruction addresses are word-granular: instruction `i` lives at byte
/// address `4 * i`.
///
/// # Example
///
/// ```
/// use hisq_isa::{Assembler, Program};
///
/// let p = Assembler::new().assemble("start: waiti 4\n j start")?;
/// assert_eq!(p.symbol("start"), Some(0));
/// let words = p.encode()?;
/// assert_eq!(Program::decode(&words)?.insts(), p.insts());
/// # Ok::<(), hisq_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    insts: Vec<Inst>,
    symbols: BTreeMap<String, usize>,
}

impl Program {
    /// Creates a program from raw instructions with an empty symbol table.
    pub fn new(insts: Vec<Inst>) -> Program {
        Program {
            insts,
            symbols: BTreeMap::new(),
        }
    }

    /// Creates a program with an explicit symbol table (used by the
    /// assembler). Symbol values are instruction indices.
    pub fn with_symbols(insts: Vec<Inst>, symbols: BTreeMap<String, usize>) -> Program {
        Program { insts, symbols }
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction sequence.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The instruction at index `index`, if in range.
    pub fn get(&self, index: usize) -> Option<&Inst> {
        self.insts.get(index)
    }

    /// Looks up a label, returning its instruction index.
    pub fn symbol(&self, name: &str) -> Option<usize> {
        self.symbols.get(name).copied()
    }

    /// All symbols in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, usize)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Encodes the program to its binary form.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EncodeError`].
    pub fn encode(&self) -> Result<Vec<u32>, EncodeError> {
        encode_all(&self.insts)
    }

    /// Decodes a binary back into a program (without symbols).
    ///
    /// # Errors
    ///
    /// Propagates the first [`DecodeError`].
    pub fn decode(words: &[u32]) -> Result<Program, DecodeError> {
        Ok(Program::new(decode_all(words)?))
    }

    /// Serializes the binary to little-endian bytes (the on-flash format
    /// of the reference control system).
    pub fn to_le_bytes(&self) -> Result<Vec<u8>, EncodeError> {
        let words = self.encode()?;
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        Ok(bytes)
    }

    /// Deserializes little-endian bytes into a program.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on any undecodable word; trailing bytes
    /// that do not form a whole word are rejected as an unknown opcode.
    pub fn from_le_bytes(bytes: &[u8]) -> Result<Program, DecodeError> {
        if bytes.len() % 4 != 0 {
            return Err(DecodeError::UnknownOpcode(0x7f + 1));
        }
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Program::decode(&words)
    }
}

impl FromIterator<Inst> for Program {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> Program {
        Program::new(iter.into_iter().collect())
    }
}

impl Extend<Inst> for Program {
    fn extend<T: IntoIterator<Item = Inst>>(&mut self, iter: T) {
        self.insts.extend(iter);
    }
}

/// One instruction per line, in [`Inst`]'s syntax (ABI register names
/// under `{:#}`): text the assembler turns back into this program's
/// instructions. Branch and jump targets print as byte offsets.
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for inst in &self.insts {
            Display::fmt(inst, f)?;
            f.write_str("\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn byte_serialization_round_trips() {
        let p = Program::new(vec![
            Inst::WaitI { cycles: 2 },
            Inst::Sync {
                target: 1,
                horizon: crate::Reg::X0,
            },
            Inst::Stop,
        ]);
        let bytes = p.to_le_bytes().unwrap();
        assert_eq!(bytes.len(), 12);
        let back = Program::from_le_bytes(&bytes).unwrap();
        assert_eq!(back.insts(), p.insts());
    }

    #[test]
    fn ragged_byte_input_rejected() {
        assert!(Program::from_le_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn printed_programs_reassemble_identically() {
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
        let p = crate::Assembler::new().assemble(src).unwrap();
        for text in [p.to_string(), format!("{p:#}")] {
            let p2 = crate::Assembler::new().assemble(&text).unwrap();
            assert_eq!(p.insts(), p2.insts(), "{text}");
        }
    }

    #[test]
    fn collect_and_extend() {
        let mut p: Program = [Inst::Stop].into_iter().collect();
        p.extend([Inst::WaitI { cycles: 1 }]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.get(1), Some(&Inst::WaitI { cycles: 1 }));
        assert_eq!(p.get(2), None);
    }
}
