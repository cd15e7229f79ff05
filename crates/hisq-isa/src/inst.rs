//! The HISQ instruction set: RV32I base subset plus the quantum-control
//! extension.
//!
//! Per §3.1.1 of the paper, HISQ is *"an extension to the RISC-V 32I
//! instruction set"* with interrupt- and fence-related functionality
//! disabled. The extension adds (§3.1.2–3.1.4):
//!
//! | Mnemonic | Purpose |
//! |---|---|
//! | `waiti`/`waitr` | advance the TCU timing grid (QuMA-style timing control) |
//! | `cw.{i,r}.{i,r}` | enqueue *codeword → port* trigger events |
//! | `sync <tgt>` | BISP synchronization with a neighbour or ancestor router |
//! | `send`/`recv` | classical messages between controllers (Message Unit) |
//! | `stop` | halt the controller (simulation-friendly program end) |

use std::fmt;

use crate::reg::Reg;

/// ALU operation selector shared by register-register and
/// register-immediate instruction forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`; no immediate form in RV32I).
    Sub,
    /// Logical left shift (`sll`/`slli`).
    Sll,
    /// Signed set-less-than (`slt`/`slti`).
    Slt,
    /// Unsigned set-less-than (`sltu`/`sltiu`).
    Sltu,
    /// Bitwise exclusive or (`xor`/`xori`).
    Xor,
    /// Logical right shift (`srl`/`srli`).
    Srl,
    /// Arithmetic right shift (`sra`/`srai`).
    Sra,
    /// Bitwise or (`or`/`ori`).
    Or,
    /// Bitwise and (`and`/`andi`).
    And,
}

impl AluOp {
    /// The mnemonic of the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
        }
    }
}

/// Branch comparison selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal (`beq`).
    Eq,
    /// Branch if not equal (`bne`).
    Ne,
    /// Branch if signed less-than (`blt`).
    Lt,
    /// Branch if signed greater-or-equal (`bge`).
    Ge,
    /// Branch if unsigned less-than (`bltu`).
    Ltu,
    /// Branch if unsigned greater-or-equal (`bgeu`).
    Geu,
}

impl BranchOp {
    /// The branch mnemonic, e.g. `"bne"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Eq => "beq",
            BranchOp::Ne => "bne",
            BranchOp::Lt => "blt",
            BranchOp::Ge => "bge",
            BranchOp::Ltu => "bltu",
            BranchOp::Geu => "bgeu",
        }
    }

    /// Evaluates the comparison on two register values.
    pub fn evaluate(self, lhs: u32, rhs: u32) -> bool {
        match self {
            BranchOp::Eq => lhs == rhs,
            BranchOp::Ne => lhs != rhs,
            BranchOp::Lt => (lhs as i32) < (rhs as i32),
            BranchOp::Ge => (lhs as i32) >= (rhs as i32),
            BranchOp::Ltu => lhs < rhs,
            BranchOp::Geu => lhs >= rhs,
        }
    }
}

/// Load width/sign selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load signed byte (`lb`).
    Byte,
    /// Load signed half-word (`lh`).
    Half,
    /// Load word (`lw`).
    Word,
    /// Load unsigned byte (`lbu`).
    ByteU,
    /// Load unsigned half-word (`lhu`).
    HalfU,
}

impl LoadOp {
    /// The load mnemonic, e.g. `"lw"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Byte => "lb",
            LoadOp::Half => "lh",
            LoadOp::Word => "lw",
            LoadOp::ByteU => "lbu",
            LoadOp::HalfU => "lhu",
        }
    }
}

/// Store width selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte (`sb`).
    Byte,
    /// Store half-word (`sh`).
    Half,
    /// Store word (`sw`).
    Word,
}

impl StoreOp {
    /// The store mnemonic, e.g. `"sw"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Byte => "sb",
            StoreOp::Half => "sh",
            StoreOp::Word => "sw",
        }
    }
}

/// An operand of a `cw` instruction: either an immediate or a
/// general-purpose register, mirroring the `cw.x.x` syntax of §3.1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CwOperand {
    /// Immediate operand (the `.i` form).
    Imm(u32),
    /// Register operand (the `.r` form).
    Reg(Reg),
}

impl CwOperand {
    /// `true` for the immediate form.
    pub fn is_imm(self) -> bool {
        matches!(self, CwOperand::Imm(_))
    }
}

impl fmt::Display for CwOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CwOperand::Imm(v) => write!(f, "{v}"),
            CwOperand::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// A single HISQ instruction.
///
/// Offsets on control-transfer instructions are **byte** offsets relative
/// to the instruction's own address, matching both RISC-V convention and
/// the paper's listings (e.g. `bne $1,$2,-28`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    // ---- RV32I base subset -------------------------------------------
    /// `lui rd, imm20`: load `imm20 << 12` into `rd`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper 20-bit immediate (raw field value, `0..2^20`).
        imm20: u32,
    },
    /// `auipc rd, imm20`: `rd = pc + (imm20 << 12)`.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Upper 20-bit immediate (raw field value, `0..2^20`).
        imm20: u32,
    },
    /// `jal rd, offset`: jump and link.
    Jal {
        /// Link register (often `x0` for plain jumps).
        rd: Reg,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// `jalr rd, rs1, offset`: indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed byte offset added to `rs1`.
        offset: i32,
    },
    /// Conditional branch, e.g. `bne rs1, rs2, offset`.
    Branch {
        /// Comparison kind.
        op: BranchOp,
        /// Left operand register.
        rs1: Reg,
        /// Right operand register.
        rs2: Reg,
        /// Signed byte offset from this instruction.
        offset: i32,
    },
    /// Memory load, e.g. `lw rd, offset(rs1)`.
    Load {
        /// Width/sign kind.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Memory store, e.g. `sw rs2, offset(rs1)`.
    Store {
        /// Width kind.
        op: StoreOp,
        /// Base address register.
        rs1: Reg,
        /// Source register.
        rs2: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation, e.g. `addi rd, rs1, imm`.
    ///
    /// For shift kinds the immediate is the 5-bit shift amount.
    OpImm {
        /// Operation kind ([`AluOp::Sub`] is not valid here).
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// 12-bit signed immediate (or 5-bit shamt for shifts).
        imm: i32,
    },
    /// Register-register ALU operation, e.g. `add rd, rs1, rs2`.
    Op {
        /// Operation kind.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Left source register.
        rs1: Reg,
        /// Right source register.
        rs2: Reg,
    },

    // ---- HISQ quantum-control extension ------------------------------
    /// `waiti cycles`: advance the TCU timing grid by an immediate number
    /// of cycles (22-bit unsigned, at most [`crate::MAX_WAITI_CYCLES`]).
    WaitI {
        /// Number of TCU cycles to advance.
        cycles: u32,
    },
    /// `waitr rs1`: advance the TCU timing grid by the value of `rs1`.
    ///
    /// This is the source of run-time timing non-determinism in the
    /// paper's Figure 12 experiment.
    WaitR {
        /// Register holding the cycle count.
        rs1: Reg,
    },
    /// `cw.x.x port, codeword`: enqueue the codeword into the event queue
    /// of `port`, to be committed at the current timing-grid time-point.
    Cw {
        /// Target port (immediate `0..32` or register).
        port: CwOperand,
        /// Codeword value (immediate or register).
        codeword: CwOperand,
    },
    /// `sync tgt[, rs1]`: BISP synchronization against a neighbour
    /// controller or an ancestor router (the booking instruction).
    ///
    /// For **region-level** sync the controller books a synchronization
    /// time-point `T_i = now + horizon` with its ancestor router (§4.3);
    /// `horizon` is read from `rs1` (in TCU cycles). `x0` books `T_i =
    /// now`, which is also the convention for nearby sync where the
    /// booked point is implied by the calibrated link countdown.
    Sync {
        /// Network address of the sync partner (controller) or region
        /// coordinator (router).
        target: u16,
        /// Register holding the deterministic-work horizon in cycles
        /// (`x0` = zero horizon).
        horizon: Reg,
    },
    /// `send tgt, rs1`: send the value of `rs1` to controller `tgt`.
    Send {
        /// Destination controller address.
        target: u16,
        /// Register holding the payload (e.g. a measurement result).
        rs1: Reg,
    },
    /// `recv rd, src`: blocking receive from controller `src` into `rd`.
    Recv {
        /// Destination register for the payload.
        rd: Reg,
        /// Source controller address.
        source: u16,
    },
    /// `stop`: halt this controller.
    Stop,
}

impl Inst {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Inst = Inst::OpImm {
        op: AluOp::Add,
        rd: Reg::X0,
        rs1: Reg::X0,
        imm: 0,
    };

    /// The primary mnemonic of this instruction.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Lui { .. } => "lui",
            Inst::Auipc { .. } => "auipc",
            Inst::Jal { .. } => "jal",
            Inst::Jalr { .. } => "jalr",
            Inst::Branch { op, .. } => op.mnemonic(),
            Inst::Load { op, .. } => op.mnemonic(),
            Inst::Store { op, .. } => op.mnemonic(),
            Inst::OpImm { op, .. } => match op {
                AluOp::Add => "addi",
                AluOp::Sub => "subi", // rejected by the encoder
                AluOp::Sll => "slli",
                AluOp::Slt => "slti",
                AluOp::Sltu => "sltiu",
                AluOp::Xor => "xori",
                AluOp::Srl => "srli",
                AluOp::Sra => "srai",
                AluOp::Or => "ori",
                AluOp::And => "andi",
            },
            Inst::Op { op, .. } => op.mnemonic(),
            Inst::WaitI { .. } => "waiti",
            Inst::WaitR { .. } => "waitr",
            Inst::Cw { port, codeword } => match (port.is_imm(), codeword.is_imm()) {
                (true, true) => "cw.i.i",
                (true, false) => "cw.i.r",
                (false, true) => "cw.r.i",
                (false, false) => "cw.r.r",
            },
            Inst::Sync { .. } => "sync",
            Inst::Send { .. } => "send",
            Inst::Recv { .. } => "recv",
            Inst::Stop => "stop",
        }
    }

    /// `true` if this instruction is part of the HISQ quantum-control
    /// extension (as opposed to the RV32I base).
    pub fn is_quantum_extension(&self) -> bool {
        matches!(
            self,
            Inst::WaitI { .. }
                | Inst::WaitR { .. }
                | Inst::Cw { .. }
                | Inst::Sync { .. }
                | Inst::Send { .. }
                | Inst::Recv { .. }
                | Inst::Stop
        )
    }

    /// `true` if the instruction's duration is unknowable at compile time
    /// (it depends on run-time register values or remote controllers).
    ///
    /// These are the *non-deterministic tasks* of the BISP analysis
    /// (§4.2): `waitr`, `recv`, and `sync` itself.
    pub fn is_nondeterministic(&self) -> bool {
        matches!(
            self,
            Inst::WaitR { .. } | Inst::Recv { .. } | Inst::Sync { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Lui { rd, imm20 } => write!(f, "lui {rd}, {imm20}"),
            Inst::Auipc { rd, imm20 } => write!(f, "auipc {rd}, {imm20}"),
            Inst::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {rs1}, {offset}"),
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic()),
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic()),
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic()),
            Inst::OpImm { rd, rs1, imm, .. } => {
                write!(f, "{} {rd}, {rs1}, {imm}", self.mnemonic())
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::WaitI { cycles } => write!(f, "waiti {cycles}"),
            Inst::WaitR { rs1 } => write!(f, "waitr {rs1}"),
            Inst::Cw { port, codeword } => {
                write!(f, "{} {port}, {codeword}", self.mnemonic())
            }
            Inst::Sync { target, horizon } => {
                if horizon == Reg::X0 {
                    write!(f, "sync {target}")
                } else {
                    write!(f, "sync {target}, {horizon}")
                }
            }
            Inst::Send { target, rs1 } => write!(f, "send {target}, {rs1}"),
            Inst::Recv { rd, source } => write!(f, "recv {rd}, {source}"),
            Inst::Stop => write!(f, "stop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn branch_evaluation_signed_vs_unsigned() {
        let minus_one = -1i32 as u32;
        assert!(BranchOp::Lt.evaluate(minus_one, 0)); // signed: -1 < 0
        assert!(!BranchOp::Ltu.evaluate(minus_one, 0)); // unsigned: max > 0
        assert!(BranchOp::Geu.evaluate(minus_one, 0));
        assert!(BranchOp::Eq.evaluate(7, 7));
        assert!(BranchOp::Ne.evaluate(7, 8));
        assert!(BranchOp::Ge.evaluate(0, minus_one));
    }

    #[test]
    fn cw_mnemonics_follow_operand_kinds() {
        let cases = [
            (CwOperand::Imm(3), CwOperand::Imm(1), "cw.i.i"),
            (CwOperand::Imm(3), CwOperand::Reg(reg(3)), "cw.i.r"),
            (CwOperand::Reg(reg(4)), CwOperand::Imm(1), "cw.r.i"),
            (CwOperand::Reg(reg(4)), CwOperand::Reg(reg(3)), "cw.r.r"),
        ];
        for (port, codeword, expected) in cases {
            assert_eq!(Inst::Cw { port, codeword }.mnemonic(), expected);
        }
    }

    #[test]
    fn extension_classification() {
        assert!(Inst::WaitI { cycles: 1 }.is_quantum_extension());
        assert!(Inst::Sync {
            target: 2,
            horizon: Reg::X0
        }
        .is_quantum_extension());
        assert!(!Inst::NOP.is_quantum_extension());
        assert!(Inst::NOP == Inst::NOP);
    }

    #[test]
    fn nondeterminism_classification() {
        assert!(Inst::WaitR { rs1: reg(1) }.is_nondeterministic());
        assert!(Inst::Recv {
            rd: reg(1),
            source: 0
        }
        .is_nondeterministic());
        assert!(Inst::Sync {
            target: 1,
            horizon: Reg::X0
        }
        .is_nondeterministic());
        assert!(!Inst::WaitI { cycles: 100 }.is_nondeterministic());
        assert!(!Inst::Send {
            target: 1,
            rs1: reg(2)
        }
        .is_nondeterministic());
    }

    #[test]
    fn display_matches_paper_syntax() {
        let i = Inst::Cw {
            port: CwOperand::Imm(21),
            codeword: CwOperand::Imm(2),
        };
        assert_eq!(i.to_string(), "cw.i.i 21, 2");
        assert_eq!(
            Inst::Sync {
                target: 2,
                horizon: Reg::X0
            }
            .to_string(),
            "sync 2"
        );
        assert_eq!(
            Inst::Sync {
                target: 3,
                horizon: reg(5)
            }
            .to_string(),
            "sync 3, x5"
        );
        assert_eq!(Inst::WaitR { rs1: reg(1) }.to_string(), "waitr x1");
    }
}
