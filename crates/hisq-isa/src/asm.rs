//! A two-pass assembler for HISQ assembly text.
//!
//! The accepted syntax matches the listings in the paper (Figures 6
//! and 12) and conventional RISC-V assembly:
//!
//! - registers may be written `$1` (paper style), `x1`, or by ABI name;
//! - comments start with `#`, `//`, or `;` and run to end of line;
//! - `label:` definitions may stand alone or prefix an instruction;
//! - branch/jump targets are either **labels** or **relative byte
//!   offsets** (the paper writes `bne $1,$2,-28`);
//! - loads/stores use `offset(base)` addressing;
//! - supported pseudo-instructions: `nop`, `mv`, `li`, `j`, `beqz`,
//!   `bnez`, `not`, `neg`, `seqz`, `snez`.
//!
//! # Example
//!
//! ```
//! use hisq_isa::Assembler;
//!
//! let program = Assembler::new().assemble(
//!     "li t0, 1000000\nloop: waitr t0\n  cw.i.i 1, 1\n  j loop\n",
//! )?;
//! assert_eq!(program.len(), 5); // li expands to lui + addi
//! # Ok::<(), hisq_isa::AsmError>(())
//! ```

use std::collections::BTreeMap;

use crate::error::AsmError;
use crate::inst::{AluOp, BranchOp, CwOperand, Inst, LoadOp, StoreOp};
use crate::program::Program;
use crate::reg::Reg;
use crate::MAX_WAITI_CYCLES;

/// The HISQ two-pass assembler.
///
/// The assembler is stateless between [`Assembler::assemble`] calls; the
/// builder exists to host future options (e.g. alternative immediate
/// bases) without breaking the API.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    _private: (),
}

impl Assembler {
    /// Creates an assembler with default options.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Assembles HISQ source text into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] carrying the 1-based source line of the
    /// first problem: unknown mnemonics, malformed operands, duplicate or
    /// undefined labels, and out-of-range immediates detectable at parse
    /// time.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let mut stmts: Vec<Stmt> = Vec::new();
        let mut labels: BTreeMap<String, usize> = BTreeMap::new();
        let mut index = 0usize; // instruction index after pseudo expansion

        // Pass 1: parse lines, record label addresses.
        for (line_no, raw_line) in source.lines().enumerate() {
            let line_no = line_no + 1;
            let mut text = strip_comment(raw_line).trim();
            // Peel any number of leading `label:` definitions.
            while let Some(colon) = find_label_colon(text) {
                let name = text[..colon].trim();
                if !is_valid_label(name) {
                    return Err(AsmError::new(line_no, format!("invalid label `{name}`")));
                }
                if labels.insert(name.to_string(), index).is_some() {
                    return Err(AsmError::new(line_no, format!("duplicate label `{name}`")));
                }
                text = text[colon + 1..].trim();
            }
            if text.is_empty() {
                continue;
            }
            let stmt = parse_stmt(text, line_no)?;
            index += stmt.expanded_len();
            stmts.push(stmt);
        }

        // Pass 2: emit instructions with resolved label targets.
        let mut insts: Vec<Inst> = Vec::with_capacity(index);
        for stmt in &stmts {
            stmt.emit(&labels, insts.len(), &mut insts)?;
        }
        Ok(Program::with_symbols(insts, labels))
    }
}

/// Removes a trailing comment from a source line.
fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in ["#", "//", ";"] {
        if let Some(pos) = line.find(marker) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

/// Finds the colon of a leading `label:` definition, if any.
///
/// A colon only introduces a label when it appears before any whitespace-
/// separated operand list — i.e. in the first token.
fn find_label_colon(text: &str) -> Option<usize> {
    let colon = text.find(':')?;
    let head = &text[..colon];
    if head.trim().is_empty() || head.trim().contains(char::is_whitespace) {
        return None;
    }
    Some(colon)
}

fn is_valid_label(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// A parsed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(Reg),
    Imm(i64),
    Label(String),
    /// `offset(base)` memory operand.
    Mem {
        offset: i64,
        base: Reg,
    },
}

impl Operand {
    fn describe(&self) -> &'static str {
        match self {
            Operand::Reg(_) => "register",
            Operand::Imm(_) => "immediate",
            Operand::Label(_) => "label",
            Operand::Mem { .. } => "memory operand",
        }
    }
}

fn parse_imm_text(text: &str) -> Option<i64> {
    let text = text.trim();
    let (negative, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest.trim()),
        None => (false, text),
    };
    let magnitude = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(bin, 2).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if negative { -magnitude } else { magnitude })
}

fn parse_operand(text: &str, line: usize) -> Result<Operand, AsmError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(AsmError::new(line, "empty operand"));
    }
    // `offset(base)` or `(base)`.
    if text.ends_with(')') {
        if let Some(open) = text.find('(') {
            let offset_text = text[..open].trim();
            let base_text = text[open + 1..text.len() - 1].trim();
            let base = Reg::parse(base_text).ok_or_else(|| {
                AsmError::new(line, format!("invalid base register `{base_text}`"))
            })?;
            let offset = if offset_text.is_empty() {
                0
            } else {
                parse_imm_text(offset_text)
                    .ok_or_else(|| AsmError::new(line, format!("invalid offset `{offset_text}`")))?
            };
            return Ok(Operand::Mem { offset, base });
        }
    }
    if let Some(reg) = Reg::parse(text) {
        return Ok(Operand::Reg(reg));
    }
    if let Some(imm) = parse_imm_text(text) {
        return Ok(Operand::Imm(imm));
    }
    if is_valid_label(text) {
        return Ok(Operand::Label(text.to_string()));
    }
    Err(AsmError::new(line, format!("unparseable operand `{text}`")))
}

/// A parsed statement: mnemonic plus operands, before label resolution.
#[derive(Debug, Clone)]
struct Stmt {
    mnemonic: String,
    operands: Vec<Operand>,
    line: usize,
}

fn parse_stmt(text: &str, line: usize) -> Result<Stmt, AsmError> {
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(pos) => (&text[..pos], text[pos..].trim()),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let operands = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',')
            .map(|part| parse_operand(part, line))
            .collect::<Result<Vec<_>, _>>()?
    };
    Ok(Stmt {
        mnemonic,
        operands,
        line,
    })
}

/// The machine instructions of the `li rd, imm` pseudo-instruction:
/// `addi rd, x0, imm` when `imm` fits a 12-bit signed immediate,
/// otherwise `lui rd, hi20` then `addi rd, rd, lo12`, where
/// `(hi20 << 12) + lo12 == imm` in wrapping 32-bit arithmetic.
///
/// # Example
///
/// ```
/// use hisq_isa::asm::expand_li;
/// use hisq_isa::Reg;
///
/// assert_eq!(expand_li(Reg::T0, 100).count(), 1);
/// assert_eq!(expand_li(Reg::T0, 1_000_000).count(), 2);
/// ```
pub fn expand_li(rd: Reg, imm: i32) -> impl Iterator<Item = Inst> {
    let (lui, rs1, lo) = if fits_i12(i64::from(imm)) {
        (None, Reg::X0, imm)
    } else {
        let hi = ((imm as u32).wrapping_add(0x800)) >> 12;
        let lui = Inst::Lui {
            rd,
            imm20: hi & 0xfffff,
        };
        (Some(lui), rd, imm.wrapping_sub((hi << 12) as i32))
    };
    lui.into_iter().chain(std::iter::once(Inst::OpImm {
        op: AluOp::Add,
        rd,
        rs1,
        imm: lo,
    }))
}

/// `true` if `imm` fits a 12-bit signed immediate.
fn fits_i12(imm: i64) -> bool {
    (-2048..=2047).contains(&imm)
}

impl Stmt {
    /// Number of concrete instructions this statement expands to.
    fn expanded_len(&self) -> usize {
        if self.mnemonic == "li" {
            if let [Operand::Reg(rd), Operand::Imm(imm)] = self.operands.as_slice() {
                // Out-of-range immediates are rejected in pass 2.
                return expand_li(*rd, *imm as i32).count();
            }
        }
        1
    }

    fn err(&self, message: impl Into<String>) -> AsmError {
        AsmError::new(self.line, message.into())
    }

    fn expect_len(&self, n: usize) -> Result<(), AsmError> {
        if self.operands.len() != n {
            return Err(self.err(format!(
                "`{}` expects {n} operand(s), found {}",
                self.mnemonic,
                self.operands.len()
            )));
        }
        Ok(())
    }

    fn reg_at(&self, i: usize) -> Result<Reg, AsmError> {
        match &self.operands[i] {
            Operand::Reg(r) => Ok(*r),
            other => Err(self.err(format!(
                "operand {} of `{}` must be a register, found {}",
                i + 1,
                self.mnemonic,
                other.describe()
            ))),
        }
    }

    fn imm_at(&self, i: usize) -> Result<i64, AsmError> {
        match &self.operands[i] {
            Operand::Imm(v) => Ok(*v),
            other => Err(self.err(format!(
                "operand {} of `{}` must be an immediate, found {}",
                i + 1,
                self.mnemonic,
                other.describe()
            ))),
        }
    }

    fn mem_at(&self, i: usize) -> Result<(i64, Reg), AsmError> {
        match &self.operands[i] {
            Operand::Mem { offset, base } => Ok((*offset, *base)),
            other => Err(self.err(format!(
                "operand {} of `{}` must be `offset(base)`, found {}",
                i + 1,
                self.mnemonic,
                other.describe()
            ))),
        }
    }

    /// Resolves operand `i` as a control-flow target: a raw byte offset or
    /// a label relative to the current instruction index.
    fn target_at(
        &self,
        i: usize,
        labels: &BTreeMap<String, usize>,
        current_index: usize,
    ) -> Result<i32, AsmError> {
        match &self.operands[i] {
            Operand::Imm(v) => {
                i32::try_from(*v).map_err(|_| self.err(format!("offset {v} out of 32-bit range")))
            }
            Operand::Label(name) => {
                let target = labels
                    .get(name)
                    .ok_or_else(|| self.err(format!("undefined label `{name}`")))?;
                let delta = (*target as i64 - current_index as i64) * 4;
                i32::try_from(delta).map_err(|_| self.err(format!("label `{name}` too far away")))
            }
            other => Err(self.err(format!(
                "operand {} of `{}` must be an offset or label, found {}",
                i + 1,
                self.mnemonic,
                other.describe()
            ))),
        }
    }

    fn cw_operand_at(&self, i: usize) -> Result<CwOperand, AsmError> {
        match &self.operands[i] {
            Operand::Reg(r) => Ok(CwOperand::Reg(*r)),
            Operand::Imm(v) => {
                let v = u32::try_from(*v).map_err(|_| {
                    self.err(format!("`{}` operand must be non-negative", self.mnemonic))
                })?;
                Ok(CwOperand::Imm(v))
            }
            other => Err(self.err(format!(
                "operand {} of `{}` must be a register or immediate, found {}",
                i + 1,
                self.mnemonic,
                other.describe()
            ))),
        }
    }

    fn u16_at(&self, i: usize) -> Result<u16, AsmError> {
        let v = self.imm_at(i)?;
        u16::try_from(v).map_err(|_| self.err(format!("value {v} does not fit 16 bits")))
    }

    /// Emits the concrete instruction(s) for this statement.
    fn emit(
        &self,
        labels: &BTreeMap<String, usize>,
        current_index: usize,
        out: &mut Vec<Inst>,
    ) -> Result<(), AsmError> {
        let m = self.mnemonic.as_str();

        let alu_imm = |op: AluOp| -> Result<Inst, AsmError> {
            self.expect_len(3)?;
            let imm = self.imm_at(2)?;
            let imm = i32::try_from(imm)
                .map_err(|_| self.err(format!("immediate {imm} out of 32-bit range")))?;
            Ok(Inst::OpImm {
                op,
                rd: self.reg_at(0)?,
                rs1: self.reg_at(1)?,
                imm,
            })
        };
        let alu_reg = |op: AluOp| -> Result<Inst, AsmError> {
            self.expect_len(3)?;
            Ok(Inst::Op {
                op,
                rd: self.reg_at(0)?,
                rs1: self.reg_at(1)?,
                rs2: self.reg_at(2)?,
            })
        };
        let branch = |op: BranchOp| -> Result<Inst, AsmError> {
            self.expect_len(3)?;
            Ok(Inst::Branch {
                op,
                rs1: self.reg_at(0)?,
                rs2: self.reg_at(1)?,
                offset: self.target_at(2, labels, current_index)?,
            })
        };
        let branch_zero = |op: BranchOp| -> Result<Inst, AsmError> {
            self.expect_len(2)?;
            Ok(Inst::Branch {
                op,
                rs1: self.reg_at(0)?,
                rs2: Reg::X0,
                offset: self.target_at(1, labels, current_index)?,
            })
        };
        let load = |op: LoadOp| -> Result<Inst, AsmError> {
            self.expect_len(2)?;
            let (offset, base) = self.mem_at(1)?;
            let offset = i32::try_from(offset)
                .map_err(|_| self.err(format!("offset {offset} out of range")))?;
            Ok(Inst::Load {
                op,
                rd: self.reg_at(0)?,
                rs1: base,
                offset,
            })
        };
        let store = |op: StoreOp| -> Result<Inst, AsmError> {
            self.expect_len(2)?;
            let (offset, base) = self.mem_at(1)?;
            let offset = i32::try_from(offset)
                .map_err(|_| self.err(format!("offset {offset} out of range")))?;
            Ok(Inst::Store {
                op,
                rs1: base,
                rs2: self.reg_at(0)?,
                offset,
            })
        };

        let inst = match m {
            "addi" => alu_imm(AluOp::Add)?,
            "slti" => alu_imm(AluOp::Slt)?,
            "sltiu" => alu_imm(AluOp::Sltu)?,
            "xori" => alu_imm(AluOp::Xor)?,
            "ori" => alu_imm(AluOp::Or)?,
            "andi" => alu_imm(AluOp::And)?,
            "slli" => alu_imm(AluOp::Sll)?,
            "srli" => alu_imm(AluOp::Srl)?,
            "srai" => alu_imm(AluOp::Sra)?,
            "add" => alu_reg(AluOp::Add)?,
            "sub" => alu_reg(AluOp::Sub)?,
            "sll" => alu_reg(AluOp::Sll)?,
            "slt" => alu_reg(AluOp::Slt)?,
            "sltu" => alu_reg(AluOp::Sltu)?,
            "xor" => alu_reg(AluOp::Xor)?,
            "srl" => alu_reg(AluOp::Srl)?,
            "sra" => alu_reg(AluOp::Sra)?,
            "or" => alu_reg(AluOp::Or)?,
            "and" => alu_reg(AluOp::And)?,
            "beq" => branch(BranchOp::Eq)?,
            "bne" => branch(BranchOp::Ne)?,
            "blt" => branch(BranchOp::Lt)?,
            "bge" => branch(BranchOp::Ge)?,
            "bltu" => branch(BranchOp::Ltu)?,
            "bgeu" => branch(BranchOp::Geu)?,
            "beqz" => branch_zero(BranchOp::Eq)?,
            "bnez" => branch_zero(BranchOp::Ne)?,
            "lb" => load(LoadOp::Byte)?,
            "lh" => load(LoadOp::Half)?,
            "lw" => load(LoadOp::Word)?,
            "lbu" => load(LoadOp::ByteU)?,
            "lhu" => load(LoadOp::HalfU)?,
            "sb" => store(StoreOp::Byte)?,
            "sh" => store(StoreOp::Half)?,
            "sw" => store(StoreOp::Word)?,
            "lui" | "auipc" => {
                self.expect_len(2)?;
                let imm = self.imm_at(1)?;
                let imm20 = u32::try_from(imm)
                    .ok()
                    .filter(|v| *v < (1 << 20))
                    .ok_or_else(|| self.err(format!("immediate {imm} does not fit 20 bits")))?;
                let rd = self.reg_at(0)?;
                if m == "lui" {
                    Inst::Lui { rd, imm20 }
                } else {
                    Inst::Auipc { rd, imm20 }
                }
            }
            "jal" => match self.operands.len() {
                1 => Inst::Jal {
                    rd: Reg::RA,
                    offset: self.target_at(0, labels, current_index)?,
                },
                2 => Inst::Jal {
                    rd: self.reg_at(0)?,
                    offset: self.target_at(1, labels, current_index)?,
                },
                n => return Err(self.err(format!("`jal` expects 1 or 2 operands, found {n}"))),
            },
            "jalr" => match self.operands.len() {
                1 => Inst::Jalr {
                    rd: Reg::RA,
                    rs1: self.reg_at(0)?,
                    offset: 0,
                },
                3 => {
                    let imm = self.imm_at(2)?;
                    Inst::Jalr {
                        rd: self.reg_at(0)?,
                        rs1: self.reg_at(1)?,
                        offset: i32::try_from(imm)
                            .map_err(|_| self.err(format!("offset {imm} out of range")))?,
                    }
                }
                n => return Err(self.err(format!("`jalr` expects 1 or 3 operands, found {n}"))),
            },
            "j" => {
                self.expect_len(1)?;
                Inst::Jal {
                    rd: Reg::X0,
                    offset: self.target_at(0, labels, current_index)?,
                }
            }
            "nop" => {
                self.expect_len(0)?;
                Inst::NOP
            }
            "mv" => {
                self.expect_len(2)?;
                Inst::OpImm {
                    op: AluOp::Add,
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    imm: 0,
                }
            }
            "not" => {
                self.expect_len(2)?;
                Inst::OpImm {
                    op: AluOp::Xor,
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    imm: -1,
                }
            }
            "neg" => {
                self.expect_len(2)?;
                Inst::Op {
                    op: AluOp::Sub,
                    rd: self.reg_at(0)?,
                    rs1: Reg::X0,
                    rs2: self.reg_at(1)?,
                }
            }
            "seqz" => {
                self.expect_len(2)?;
                Inst::OpImm {
                    op: AluOp::Sltu,
                    rd: self.reg_at(0)?,
                    rs1: self.reg_at(1)?,
                    imm: 1,
                }
            }
            "snez" => {
                self.expect_len(2)?;
                Inst::Op {
                    op: AluOp::Sltu,
                    rd: self.reg_at(0)?,
                    rs1: Reg::X0,
                    rs2: self.reg_at(1)?,
                }
            }
            "li" => {
                self.expect_len(2)?;
                let rd = self.reg_at(0)?;
                let imm = self.imm_at(1)?;
                if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&imm) {
                    return Err(self.err(format!("`li` immediate {imm} out of 32-bit range")));
                }
                out.extend(expand_li(rd, imm as i32));
                return Ok(());
            }
            "waiti" => {
                self.expect_len(1)?;
                let v = self.imm_at(0)?;
                let cycles = u32::try_from(v)
                    .ok()
                    .filter(|v| *v <= MAX_WAITI_CYCLES)
                    .ok_or_else(|| self.err(format!("`waiti` count {v} does not fit 22 bits")))?;
                Inst::WaitI { cycles }
            }
            "waitr" => {
                self.expect_len(1)?;
                Inst::WaitR {
                    rs1: self.reg_at(0)?,
                }
            }
            "cw.i.i" | "cw.i.r" | "cw.r.i" | "cw.r.r" => {
                self.expect_len(2)?;
                let port = self.cw_operand_at(0)?;
                let codeword = self.cw_operand_at(1)?;
                let expect = |imm: bool| if imm { "immediate" } else { "register" };
                let want_port_imm = m.as_bytes()[3] == b'i';
                let want_cw_imm = m.as_bytes()[5] == b'i';
                if port.is_imm() != want_port_imm {
                    return Err(self.err(format!(
                        "`{m}` port operand must be a {}",
                        expect(want_port_imm)
                    )));
                }
                if codeword.is_imm() != want_cw_imm {
                    return Err(self.err(format!(
                        "`{m}` codeword operand must be a {}",
                        expect(want_cw_imm)
                    )));
                }
                Inst::Cw { port, codeword }
            }
            "sync" => match self.operands.len() {
                1 => Inst::Sync {
                    target: self.u16_at(0)?,
                    horizon: Reg::X0,
                },
                2 => Inst::Sync {
                    target: self.u16_at(0)?,
                    horizon: self.reg_at(1)?,
                },
                n => return Err(self.err(format!("`sync` expects 1 or 2 operands, found {n}"))),
            },
            "send" => {
                self.expect_len(2)?;
                Inst::Send {
                    target: self.u16_at(0)?,
                    rs1: self.reg_at(1)?,
                }
            }
            "recv" => {
                self.expect_len(2)?;
                Inst::Recv {
                    rd: self.reg_at(0)?,
                    source: self.u16_at(1)?,
                }
            }
            "stop" => {
                self.expect_len(0)?;
                Inst::Stop
            }
            other => return Err(self.err(format!("unknown mnemonic `{other}`"))),
        };
        out.push(inst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(src: &str) -> Program {
        Assembler::new().assemble(src).unwrap()
    }

    fn reg(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn assembles_paper_figure12_control_board() {
        let src = "
            # Control board
            addi $2,$0,120
            addi $1,$0,0
            waiti 1
            cw.i.i 21,2
            addi $1,$1,40
            cw.i.i 20,2
            waitr $1
            sync 2
            waiti 8
            cw.i.i 7,1
            waiti 50
            bne $1,$2,-28
            jal $0,-44
        ";
        let p = asm(src);
        assert_eq!(p.len(), 13);
        assert_eq!(
            p.insts()[3],
            Inst::Cw {
                port: CwOperand::Imm(21),
                codeword: CwOperand::Imm(2)
            }
        );
        assert_eq!(p.insts()[6], Inst::WaitR { rs1: reg(1) });
        assert_eq!(
            p.insts()[7],
            Inst::Sync {
                target: 2,
                horizon: Reg::X0
            }
        );
        assert_eq!(
            p.insts()[11],
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: reg(1),
                rs2: reg(2),
                offset: -28
            }
        );
        assert_eq!(
            p.insts()[12],
            Inst::Jal {
                rd: reg(0),
                offset: -44
            }
        );
    }

    #[test]
    fn assembles_paper_figure12_readout_board() {
        let src = "
            waiti 2
            sync 1
            waiti 6
            waiti 57
            cw.i.i 5,1
            jal $0,-20
        ";
        let p = asm(src);
        assert_eq!(p.len(), 6);
        assert_eq!(
            p.insts()[1],
            Inst::Sync {
                target: 1,
                horizon: Reg::X0
            }
        );
    }

    #[test]
    fn labels_resolve_to_relative_offsets() {
        let src = "
        top:
            addi x1, x1, 1
            bne x1, x2, top
            j top
        ";
        let p = asm(src);
        assert_eq!(
            p.insts()[1],
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: reg(1),
                rs2: reg(2),
                offset: -4
            }
        );
        assert_eq!(
            p.insts()[2],
            Inst::Jal {
                rd: Reg::X0,
                offset: -8
            }
        );
        assert_eq!(p.symbol("top"), Some(0));
    }

    #[test]
    fn forward_labels_and_same_line_labels() {
        let src = "
            beqz x1, done
            addi x1, x0, 5
        done: stop
        ";
        let p = asm(src);
        assert_eq!(
            p.insts()[0],
            Inst::Branch {
                op: BranchOp::Eq,
                rs1: reg(1),
                rs2: Reg::X0,
                offset: 8
            }
        );
        assert_eq!(p.insts()[2], Inst::Stop);
    }

    #[test]
    fn li_expansion_small_and_large() {
        let p = asm("li t0, 100");
        assert_eq!(p.len(), 1);

        let p = asm("li t0, 1000000");
        assert_eq!(p.len(), 2);
        // Verify the expansion reconstructs the value.
        if let [Inst::Lui { imm20, .. }, Inst::OpImm { imm, .. }] = p.insts() {
            let value = ((imm20 << 12) as i32).wrapping_add(*imm);
            assert_eq!(value, 1_000_000);
        } else {
            panic!("unexpected expansion: {:?}", p.insts());
        }

        // Negative value needing the hi/lo split carry adjustment.
        let p = asm("li t0, -1000000");
        if let [Inst::Lui { imm20, .. }, Inst::OpImm { imm, .. }] = p.insts() {
            let value = ((imm20 << 12) as i32).wrapping_add(*imm);
            assert_eq!(value, -1_000_000);
        } else {
            panic!("unexpected expansion: {:?}", p.insts());
        }
    }

    #[test]
    fn li_expansion_preserves_label_addresses() {
        let src = "
            li t0, 1000000
        target:
            j target
        ";
        let p = asm(src);
        assert_eq!(p.symbol("target"), Some(2));
        assert_eq!(
            p.insts()[2],
            Inst::Jal {
                rd: Reg::X0,
                offset: 0
            }
        );
    }

    #[test]
    fn li_of_a_wrapped_small_value_takes_one_slot() {
        // 0xFFFFFFFF is -1 as a 32-bit value: one `addi`, so the label
        // after it sits at instruction 1.
        let p = asm("li t0, 0xFFFFFFFF\nafter: j after");
        assert_eq!(p.len(), 2);
        assert_eq!(p.symbol("after"), Some(1));
        assert!(matches!(p.insts()[0], Inst::OpImm { imm: -1, .. }));
    }

    #[test]
    fn loads_and_stores_with_memory_operands() {
        let p = asm("lw a0, -4(sp)\nsw a0, 8(s0)\nlb t0, (a1)");
        assert_eq!(
            p.insts()[0],
            Inst::Load {
                op: LoadOp::Word,
                rd: Reg::parse("a0").unwrap(),
                rs1: Reg::parse("sp").unwrap(),
                offset: -4
            }
        );
        assert_eq!(
            p.insts()[1],
            Inst::Store {
                op: StoreOp::Word,
                rs1: Reg::parse("s0").unwrap(),
                rs2: Reg::parse("a0").unwrap(),
                offset: 8
            }
        );
        assert_eq!(
            p.insts()[2],
            Inst::Load {
                op: LoadOp::Byte,
                rd: reg(5),
                rs1: Reg::parse("a1").unwrap(),
                offset: 0
            }
        );
    }

    #[test]
    fn hex_and_binary_immediates() {
        let p = asm("addi x1, x0, 0x7f\naddi x2, x0, 0b101\naddi x3, x0, -0x10");
        assert!(matches!(p.insts()[0], Inst::OpImm { imm: 127, .. }));
        assert!(matches!(p.insts()[1], Inst::OpImm { imm: 5, .. }));
        assert!(matches!(p.insts()[2], Inst::OpImm { imm: -16, .. }));
    }

    #[test]
    fn comments_in_all_styles() {
        let p = asm("addi x1, x0, 1 # hash\naddi x2, x0, 2 // slash\naddi x3, x0, 3 ; semi");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn cw_operand_kind_mismatch_is_an_error() {
        let err = Assembler::new().assemble("cw.i.r 3, 5").unwrap_err();
        assert!(err.message.contains("codeword"));
        let err = Assembler::new().assemble("cw.r.i 3, 5").unwrap_err();
        assert!(err.message.contains("port"));
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let err = Assembler::new()
            .assemble("nop\nnop\nbogus x1, x2\n")
            .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn duplicate_and_undefined_labels_rejected() {
        let err = Assembler::new().assemble("a:\na:\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
        let err = Assembler::new().assemble("j nowhere\n").unwrap_err();
        assert!(err.message.contains("undefined"));
    }

    #[test]
    fn pseudo_instructions() {
        let p = asm("nop\nmv x1, x2\nnot x3, x4\nneg x5, x6\nseqz x7, x8\nsnez x9, x10");
        assert_eq!(p.insts()[0], Inst::NOP);
        assert_eq!(
            p.insts()[1],
            Inst::OpImm {
                op: AluOp::Add,
                rd: reg(1),
                rs1: reg(2),
                imm: 0
            }
        );
        assert_eq!(
            p.insts()[3],
            Inst::Op {
                op: AluOp::Sub,
                rd: reg(5),
                rs1: Reg::X0,
                rs2: reg(6)
            }
        );
    }
}
