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

use std::fmt::{self, Display};

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
    /// The op's row of [`ALU_OPS`].
    pub(crate) fn row(self) -> &'static OpRow<AluOp> {
        &ALU_OPS[self as usize]
    }

    /// The mnemonic of the register-register form.
    pub fn mnemonic(self) -> &'static str {
        self.row().mnemonic
    }

    /// `true` for the shifts, whose immediate form takes a 5-bit amount.
    pub(crate) fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
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
    /// The op's row of [`BRANCH_OPS`].
    pub(crate) fn row(self) -> &'static OpRow<BranchOp> {
        &BRANCH_OPS[self as usize]
    }

    /// The branch mnemonic, e.g. `"bne"`.
    pub fn mnemonic(self) -> &'static str {
        self.row().mnemonic
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
    /// The op's row of [`LOAD_OPS`].
    pub(crate) fn row(self) -> &'static OpRow<LoadOp> {
        &LOAD_OPS[self as usize]
    }

    /// The load mnemonic, e.g. `"lw"`.
    pub fn mnemonic(self) -> &'static str {
        self.row().mnemonic
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
    /// The op's row of [`STORE_OPS`].
    pub(crate) fn row(self) -> &'static OpRow<StoreOp> {
        &STORE_OPS[self as usize]
    }

    /// The store mnemonic, e.g. `"sw"`.
    pub fn mnemonic(self) -> &'static str {
        self.row().mnemonic
    }
}

/// One row of an op table: an op, its mnemonics and its function bits.
/// Each table lists its kind's ops in declaration order, so `op as
/// usize` indexes it. `mnemonic()`, `encode`, `decode` and the
/// assembler all read an op's names and bits from its row.
#[derive(Debug)]
pub(crate) struct OpRow<Op> {
    pub(crate) op: Op,
    /// The mnemonic (of the register form, for an ALU op).
    pub(crate) mnemonic: &'static str,
    /// The immediate form's mnemonic (ALU ops only).
    pub(crate) imm_mnemonic: &'static str,
    pub(crate) funct3: u32,
    /// funct7 (ALU ops only). A shift's immediate form carries it in
    /// `imm[11:5]`; no other immediate form has room for it.
    pub(crate) funct7: u32,
}

const fn alu(op: AluOp, reg: &'static str, imm: &'static str, f3: u32, f7: u32) -> OpRow<AluOp> {
    OpRow {
        imm_mnemonic: imm,
        funct7: f7,
        ..row(op, reg, f3)
    }
}

const fn row<Op>(op: Op, mnemonic: &'static str, funct3: u32) -> OpRow<Op> {
    OpRow {
        op,
        mnemonic,
        imm_mnemonic: "",
        funct3,
        funct7: 0,
    }
}

/// The ALU ops: register and immediate mnemonics, funct3, funct7.
/// `sub`'s funct7 would sit in `subi`'s immediate, so `subi` has no
/// encoding.
pub(crate) static ALU_OPS: [OpRow<AluOp>; 10] = [
    alu(AluOp::Add, "add", "addi", 0b000, 0b000_0000),
    alu(AluOp::Sub, "sub", "subi", 0b000, 0b010_0000),
    alu(AluOp::Sll, "sll", "slli", 0b001, 0b000_0000),
    alu(AluOp::Slt, "slt", "slti", 0b010, 0b000_0000),
    alu(AluOp::Sltu, "sltu", "sltiu", 0b011, 0b000_0000),
    alu(AluOp::Xor, "xor", "xori", 0b100, 0b000_0000),
    alu(AluOp::Srl, "srl", "srli", 0b101, 0b000_0000),
    alu(AluOp::Sra, "sra", "srai", 0b101, 0b010_0000),
    alu(AluOp::Or, "or", "ori", 0b110, 0b000_0000),
    alu(AluOp::And, "and", "andi", 0b111, 0b000_0000),
];

/// The branches: mnemonic and funct3.
pub(crate) static BRANCH_OPS: [OpRow<BranchOp>; 6] = [
    row(BranchOp::Eq, "beq", 0b000),
    row(BranchOp::Ne, "bne", 0b001),
    row(BranchOp::Lt, "blt", 0b100),
    row(BranchOp::Ge, "bge", 0b101),
    row(BranchOp::Ltu, "bltu", 0b110),
    row(BranchOp::Geu, "bgeu", 0b111),
];

/// The loads: mnemonic and funct3.
pub(crate) static LOAD_OPS: [OpRow<LoadOp>; 5] = [
    row(LoadOp::Byte, "lb", 0b000),
    row(LoadOp::Half, "lh", 0b001),
    row(LoadOp::Word, "lw", 0b010),
    row(LoadOp::ByteU, "lbu", 0b100),
    row(LoadOp::HalfU, "lhu", 0b101),
];

/// The stores: mnemonic and funct3.
pub(crate) static STORE_OPS: [OpRow<StoreOp>; 3] = [
    row(StoreOp::Byte, "sb", 0b000),
    row(StoreOp::Half, "sh", 0b001),
    row(StoreOp::Word, "sw", 0b010),
];

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
            CwOperand::Imm(v) => v.fmt(f),
            CwOperand::Reg(r) => r.fmt(f),
        }
    }
}

/// A single HISQ instruction.
///
/// Offsets on control-transfer instructions are **byte** offsets relative
/// to the instruction's own address, matching both RISC-V convention and
/// the paper's listings (e.g. `bne $1,$2,-28`).
///
/// # Example
///
/// `Display` prints assembler input: `x5`-style registers under `{}`,
/// ABI names under `{:#}` (the compiler's listing style).
///
/// ```
/// use hisq_isa::{Inst, Program, Reg};
///
/// let wait = Inst::WaitR { rs1: Reg::T0 };
/// assert_eq!(wait.to_string(), "waitr x5");
/// assert_eq!(format!("{wait:#}"), "waitr t0");
///
/// // A program prints one instruction per line.
/// let program = Program::new(vec![Inst::WaitI { cycles: 57 }, Inst::Stop]);
/// assert_eq!(program.to_string(), "waiti 57\nstop\n");
/// ```
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
            Inst::OpImm { op, .. } => op.row().imm_mnemonic,
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

/// Assembler syntax, which re-assembles to the same instruction:
/// registers print as `x5`, or by ABI name (`t0`) under `{:#}`.
impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Each operand formats with `f` itself, so `{:#}` reaches the
        // registers (an integer prints the same under either flag).
        let operands: &[&dyn Display] = match self {
            Inst::Lui { rd, imm20 } | Inst::Auipc { rd, imm20 } => &[rd, imm20],
            Inst::Jal { rd, offset } => &[rd, offset],
            Inst::Jalr { rd, rs1, offset } => &[rd, rs1, offset],
            Inst::Branch {
                rs1, rs2, offset, ..
            } => &[rs1, rs2, offset],
            Inst::Load {
                rd, rs1, offset, ..
            } => &[rd, &Mem(*offset, *rs1)],
            Inst::Store {
                rs1, rs2, offset, ..
            } => &[rs2, &Mem(*offset, *rs1)],
            Inst::OpImm { rd, rs1, imm, .. } => &[rd, rs1, imm],
            Inst::Op { rd, rs1, rs2, .. } => &[rd, rs1, rs2],
            Inst::WaitI { cycles } => &[cycles],
            Inst::WaitR { rs1 } => &[rs1],
            Inst::Cw { port, codeword } => &[port, codeword],
            Inst::Sync {
                target,
                horizon: Reg::X0,
            } => &[target],
            Inst::Sync { target, horizon } => &[target, horizon],
            Inst::Send { target, rs1 } => &[target, rs1],
            Inst::Recv { rd, source } => &[rd, source],
            Inst::Stop => &[],
        };
        f.write_str(self.mnemonic())?;
        for (i, operand) in operands.iter().enumerate() {
            f.write_str(if i == 0 { " " } else { ", " })?;
            operand.fmt(f)?;
        }
        Ok(())
    }
}

/// A load or store's `offset(base)` operand.
struct Mem(i32, Reg);

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.0)?;
        self.1.fmt(f)?;
        f.write_str(")")
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
    fn alternate_display_names_registers_by_abi() {
        let cases = [
            (
                Inst::Load {
                    op: LoadOp::Word,
                    rd: reg(10),
                    rs1: reg(2),
                    offset: -4,
                },
                "lw x10, -4(x2)",
                "lw a0, -4(sp)",
            ),
            (
                Inst::Store {
                    op: StoreOp::Byte,
                    rs1: reg(8),
                    rs2: reg(10),
                    offset: 8,
                },
                "sb x10, 8(x8)",
                "sb a0, 8(s0)",
            ),
            (
                Inst::OpImm {
                    op: AluOp::Sra,
                    rd: Reg::T0,
                    rs1: Reg::X0,
                    imm: 3,
                },
                "srai x5, x0, 3",
                "srai t0, zero, 3",
            ),
            (
                Inst::Cw {
                    port: CwOperand::Reg(Reg::T0),
                    codeword: CwOperand::Imm(9),
                },
                "cw.r.i x5, 9",
                "cw.r.i t0, 9",
            ),
            (
                Inst::Sync {
                    target: 3,
                    horizon: Reg::T6,
                },
                "sync 3, x31",
                "sync 3, t6",
            ),
            (Inst::Stop, "stop", "stop"),
        ];
        for (inst, plain, abi) in cases {
            assert_eq!(inst.to_string(), plain);
            assert_eq!(format!("{inst:#}"), abi);
        }
    }

    #[test]
    fn op_tables_are_indexed_by_op_with_unique_names_and_bits() {
        fn check<Op: Copy + fmt::Debug>(
            table: &[OpRow<Op>],
            index: fn(Op) -> usize,
            names: &mut Vec<&'static str>,
        ) {
            for (i, row) in table.iter().enumerate() {
                assert_eq!(index(row.op), i, "{:?} sits at its index", row.op);
                let bits = |r: &OpRow<Op>| (r.funct3, r.funct7);
                let clash = table[..i].iter().find(|r| bits(r) == bits(row));
                assert!(clash.is_none(), "{:?} repeats {clash:?}'s bits", row.op);
                names.extend(
                    [row.mnemonic, row.imm_mnemonic]
                        .iter()
                        .filter(|n| !n.is_empty()),
                );
            }
        }
        let mut names = Vec::new();
        check(&ALU_OPS, |op| op as usize, &mut names);
        check(&BRANCH_OPS, |op| op as usize, &mut names);
        check(&LOAD_OPS, |op| op as usize, &mut names);
        check(&STORE_OPS, |op| op as usize, &mut names);
        let count = names.len();
        assert_eq!(count, 2 * 10 + 6 + 5 + 3);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every mnemonic names one form");
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
