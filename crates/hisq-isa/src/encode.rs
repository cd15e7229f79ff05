//! Binary encoding of HISQ instructions.
//!
//! RV32I base instructions use their standard RISC-V encodings. The HISQ
//! quantum-control extension occupies the RISC-V *custom-0* (`0x0B`) and
//! *custom-1* (`0x2B`) major opcodes so that a HISQ core remains a
//! conforming RV32I implementation:
//!
//! | funct3 | custom-0 (`0x0B`) | field layout |
//! |---|---|---|
//! | `000` | `waiti`  | `cycles[4:0]` in `[11:7]`, `cycles[21:5]` in `[31:15]` |
//! | `001` | `waitr`  | `rs1` in bits `[19:15]` |
//! | `010` | `cw.i.i` | `port[4:0]` in `[11:7]`, `cw[16:0]` in `[31:15]` |
//! | `011` | `cw.i.r` | `port[4:0]` in `[11:7]`, `rs1` in `[19:15]` |
//! | `100` | `cw.r.i` | `rs1` in `[19:15]`, `cw[11:0]` in `[31:20]` |
//! | `101` | `cw.r.r` | `rs1` in `[19:15]`, `rs2` in `[24:20]` |
//! | `110` | `sync`   | `tgt[11:0]` in `[31:20]` |
//! | `111` | `stop`   | all other bits zero |
//!
//! | funct3 | custom-1 (`0x2B`) | field layout |
//! |---|---|---|
//! | `000` | `send` | `tgt[11:0]` in `[31:20]`, `rs1` in `[19:15]` |
//! | `001` | `recv` | `src[11:0]` in `[31:20]`, `rd` in `[11:7]` |

use crate::error::EncodeError;
use crate::inst::{AluOp, BranchOp, CwOperand, Inst, LoadOp, StoreOp};
use crate::reg::Reg;
use crate::{MAX_NODE_ADDR, MAX_WAITI_CYCLES};

/// Major opcode of the RV32I `lui` instruction.
pub const OPC_LUI: u32 = 0b011_0111;
/// Major opcode of `auipc`.
pub const OPC_AUIPC: u32 = 0b001_0111;
/// Major opcode of `jal`.
pub const OPC_JAL: u32 = 0b110_1111;
/// Major opcode of `jalr`.
pub const OPC_JALR: u32 = 0b110_0111;
/// Major opcode of conditional branches.
pub const OPC_BRANCH: u32 = 0b110_0011;
/// Major opcode of loads.
pub const OPC_LOAD: u32 = 0b000_0011;
/// Major opcode of stores.
pub const OPC_STORE: u32 = 0b010_0011;
/// Major opcode of register-immediate ALU operations.
pub const OPC_OP_IMM: u32 = 0b001_0011;
/// Major opcode of register-register ALU operations.
pub const OPC_OP: u32 = 0b011_0011;
/// RISC-V custom-0 opcode, hosting the HISQ timing/trigger/sync group.
pub const OPC_HISQ: u32 = 0b000_1011;
/// RISC-V custom-1 opcode, hosting the HISQ message-unit group.
pub const OPC_MSG: u32 = 0b010_1011;

fn imm_range(mnemonic: &'static str, value: i64, min: i64, max: i64) -> Result<(), EncodeError> {
    if value < min || value > max {
        return Err(EncodeError::ImmediateOutOfRange {
            mnemonic,
            value,
            min,
            max,
        });
    }
    Ok(())
}

fn aligned(mnemonic: &'static str, offset: i32) -> Result<(), EncodeError> {
    if offset % 4 != 0 {
        return Err(EncodeError::MisalignedOffset { mnemonic, offset });
    }
    Ok(())
}

fn rd(reg: Reg) -> u32 {
    reg.bits() << 7
}

fn rs1(reg: Reg) -> u32 {
    reg.bits() << 15
}

fn rs2(reg: Reg) -> u32 {
    reg.bits() << 20
}

fn funct3(bits: u32) -> u32 {
    bits << 12
}

fn i_type(opcode: u32, f3: u32, dst: Reg, src: Reg, imm: i32) -> u32 {
    opcode | rd(dst) | funct3(f3) | rs1(src) | (((imm as u32) & 0xfff) << 20)
}

fn b_type(f3: u32, left: Reg, right: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    let imm12 = (imm >> 12) & 1;
    let imm11 = (imm >> 11) & 1;
    let imm10_5 = (imm >> 5) & 0x3f;
    let imm4_1 = (imm >> 1) & 0xf;
    OPC_BRANCH
        | (imm11 << 7)
        | (imm4_1 << 8)
        | funct3(f3)
        | rs1(left)
        | rs2(right)
        | (imm10_5 << 25)
        | (imm12 << 31)
}

fn s_type(f3: u32, base: Reg, src: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    OPC_STORE
        | ((imm & 0x1f) << 7)
        | funct3(f3)
        | rs1(base)
        | rs2(src)
        | (((imm >> 5) & 0x7f) << 25)
}

fn j_type(dst: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    let imm20 = (imm >> 20) & 1;
    let imm19_12 = (imm >> 12) & 0xff;
    let imm11 = (imm >> 11) & 1;
    let imm10_1 = (imm >> 1) & 0x3ff;
    OPC_JAL | rd(dst) | (imm19_12 << 12) | (imm11 << 20) | (imm10_1 << 21) | (imm20 << 31)
}

/// Encodes one instruction into its 32-bit word.
///
/// # Errors
///
/// Returns [`EncodeError`] if an immediate operand does not fit its field
/// or a control-flow offset is not 4-byte aligned. `subi` (an
/// [`Inst::OpImm`] with [`AluOp::Sub`]) is rejected as in RV32I.
///
/// # Example
///
/// ```
/// use hisq_isa::{encode::encode, Inst};
///
/// let word = encode(&Inst::Stop)?;
/// assert_eq!(word & 0x7f, 0x0b); // custom-0 opcode
/// # Ok::<(), hisq_isa::EncodeError>(())
/// ```
pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
    match *inst {
        Inst::Lui { rd: dst, imm20 } => {
            imm_range("lui", i64::from(imm20), 0, (1 << 20) - 1)?;
            Ok(OPC_LUI | rd(dst) | (imm20 << 12))
        }
        Inst::Auipc { rd: dst, imm20 } => {
            imm_range("auipc", i64::from(imm20), 0, (1 << 20) - 1)?;
            Ok(OPC_AUIPC | rd(dst) | (imm20 << 12))
        }
        Inst::Jal { rd: dst, offset } => {
            imm_range("jal", i64::from(offset), -(1 << 20), (1 << 20) - 2)?;
            aligned("jal", offset)?;
            Ok(j_type(dst, offset))
        }
        Inst::Jalr {
            rd: dst,
            rs1: base,
            offset,
        } => {
            imm_range("jalr", i64::from(offset), -2048, 2047)?;
            Ok(i_type(OPC_JALR, 0b000, dst, base, offset))
        }
        Inst::Branch {
            op,
            rs1: left,
            rs2: right,
            offset,
        } => {
            imm_range(op.mnemonic(), i64::from(offset), -4096, 4094)?;
            aligned(op.mnemonic(), offset)?;
            let f3 = match op {
                BranchOp::Eq => 0b000,
                BranchOp::Ne => 0b001,
                BranchOp::Lt => 0b100,
                BranchOp::Ge => 0b101,
                BranchOp::Ltu => 0b110,
                BranchOp::Geu => 0b111,
            };
            Ok(b_type(f3, left, right, offset))
        }
        Inst::Load {
            op,
            rd: dst,
            rs1: base,
            offset,
        } => {
            imm_range(op.mnemonic(), i64::from(offset), -2048, 2047)?;
            let f3 = match op {
                LoadOp::Byte => 0b000,
                LoadOp::Half => 0b001,
                LoadOp::Word => 0b010,
                LoadOp::ByteU => 0b100,
                LoadOp::HalfU => 0b101,
            };
            Ok(i_type(OPC_LOAD, f3, dst, base, offset))
        }
        Inst::Store {
            op,
            rs1: base,
            rs2: src,
            offset,
        } => {
            imm_range(op.mnemonic(), i64::from(offset), -2048, 2047)?;
            let f3 = match op {
                StoreOp::Byte => 0b000,
                StoreOp::Half => 0b001,
                StoreOp::Word => 0b010,
            };
            Ok(s_type(f3, base, src, offset))
        }
        Inst::OpImm {
            op,
            rd: dst,
            rs1: src,
            imm,
        } => {
            let (f3, imm_field) = match op {
                AluOp::Add => (0b000, imm),
                AluOp::Slt => (0b010, imm),
                AluOp::Sltu => (0b011, imm),
                AluOp::Xor => (0b100, imm),
                AluOp::Or => (0b110, imm),
                AluOp::And => (0b111, imm),
                AluOp::Sll => {
                    imm_range("slli", i64::from(imm), 0, 31)?;
                    (0b001, imm)
                }
                AluOp::Srl => {
                    imm_range("srli", i64::from(imm), 0, 31)?;
                    (0b101, imm)
                }
                AluOp::Sra => {
                    imm_range("srai", i64::from(imm), 0, 31)?;
                    (0b101, imm | (0b010_0000 << 5))
                }
                AluOp::Sub => {
                    return Err(EncodeError::ImmediateOutOfRange {
                        mnemonic: "subi",
                        value: i64::from(imm),
                        min: 0,
                        max: -1, // empty range: no such instruction
                    });
                }
            };
            if !matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                imm_range(inst.mnemonic(), i64::from(imm), -2048, 2047)?;
            }
            Ok(i_type(OPC_OP_IMM, f3, dst, src, imm_field))
        }
        Inst::Op {
            op,
            rd: dst,
            rs1: left,
            rs2: right,
        } => {
            let (f3, f7) = match op {
                AluOp::Add => (0b000, 0b000_0000),
                AluOp::Sub => (0b000, 0b010_0000),
                AluOp::Sll => (0b001, 0b000_0000),
                AluOp::Slt => (0b010, 0b000_0000),
                AluOp::Sltu => (0b011, 0b000_0000),
                AluOp::Xor => (0b100, 0b000_0000),
                AluOp::Srl => (0b101, 0b000_0000),
                AluOp::Sra => (0b101, 0b010_0000),
                AluOp::Or => (0b110, 0b000_0000),
                AluOp::And => (0b111, 0b000_0000),
            };
            Ok(OPC_OP | rd(dst) | funct3(f3) | rs1(left) | rs2(right) | (f7 << 25))
        }

        Inst::WaitI { cycles } => {
            imm_range("waiti", i64::from(cycles), 0, i64::from(MAX_WAITI_CYCLES))?;
            Ok(OPC_HISQ | funct3(0b000) | ((cycles & 0x1f) << 7) | ((cycles >> 5) << 15))
        }
        Inst::WaitR { rs1: src } => Ok(OPC_HISQ | funct3(0b001) | rs1(src)),
        Inst::Cw { port, codeword } => match (port, codeword) {
            (CwOperand::Imm(p), CwOperand::Imm(cw)) => {
                imm_range("cw.i.i", i64::from(p), 0, 31)?;
                imm_range("cw.i.i", i64::from(cw), 0, (1 << 17) - 1)?;
                Ok(OPC_HISQ | (p << 7) | funct3(0b010) | (cw << 15))
            }
            (CwOperand::Imm(p), CwOperand::Reg(r)) => {
                imm_range("cw.i.r", i64::from(p), 0, 31)?;
                Ok(OPC_HISQ | (p << 7) | funct3(0b011) | rs1(r))
            }
            (CwOperand::Reg(r), CwOperand::Imm(cw)) => {
                imm_range("cw.r.i", i64::from(cw), 0, (1 << 12) - 1)?;
                Ok(OPC_HISQ | funct3(0b100) | rs1(r) | (cw << 20))
            }
            (CwOperand::Reg(rp), CwOperand::Reg(rc)) => {
                Ok(OPC_HISQ | funct3(0b101) | rs1(rp) | rs2(rc))
            }
        },
        Inst::Sync { target, horizon } => {
            imm_range("sync", i64::from(target), 0, i64::from(MAX_NODE_ADDR))?;
            Ok(OPC_HISQ | funct3(0b110) | rs1(horizon) | (u32::from(target) << 20))
        }
        Inst::Stop => Ok(OPC_HISQ | funct3(0b111)),
        Inst::Send { target, rs1: src } => {
            imm_range("send", i64::from(target), 0, i64::from(MAX_NODE_ADDR))?;
            Ok(OPC_MSG | funct3(0b000) | rs1(src) | (u32::from(target) << 20))
        }
        Inst::Recv { rd: dst, source } => {
            imm_range("recv", i64::from(source), 0, i64::from(MAX_NODE_ADDR))?;
            Ok(OPC_MSG | funct3(0b001) | rd(dst) | (u32::from(source) << 20))
        }
    }
}

/// Encodes a slice of instructions into a contiguous word vector.
///
/// # Errors
///
/// Propagates the first [`EncodeError`] encountered.
pub fn encode_all(insts: &[Inst]) -> Result<Vec<u32>, EncodeError> {
    insts.iter().map(encode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn addi_matches_reference_encoding() {
        // addi x2, x0, 120 — reference encoding 0x07800113.
        let word = encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: reg(2),
            rs1: reg(0),
            imm: 120,
        })
        .unwrap();
        assert_eq!(word, 0x0780_0113);
    }

    #[test]
    fn bne_negative_offset_matches_reference() {
        // bne x1, x2, -28 — reference encoding 0xfe2092e3 computed by hand:
        // imm = -28 = 0xFFFFFFE4; imm[12]=1 imm[10:5]=0b111111 imm[4:1]=0b0010 imm[11]=1.
        let word = encode(&Inst::Branch {
            op: BranchOp::Ne,
            rs1: reg(1),
            rs2: reg(2),
            offset: -28,
        })
        .unwrap();
        assert_eq!(word, 0xfe20_92e3);
    }

    #[test]
    fn jal_negative_offset_round_numbers() {
        // jal x0, -44 from the paper's Figure 12.
        let word = encode(&Inst::Jal {
            rd: reg(0),
            offset: -44,
        })
        .unwrap();
        let decoded = crate::decode::decode(word).unwrap();
        assert_eq!(
            decoded,
            Inst::Jal {
                rd: reg(0),
                offset: -44
            }
        );
    }

    #[test]
    fn misaligned_offsets_rejected() {
        let err = encode(&Inst::Jal {
            rd: reg(0),
            offset: -42,
        })
        .unwrap_err();
        assert!(matches!(err, EncodeError::MisalignedOffset { .. }));

        let err = encode(&Inst::Branch {
            op: BranchOp::Eq,
            rs1: reg(1),
            rs2: reg(2),
            offset: 6,
        })
        .unwrap_err();
        assert!(matches!(err, EncodeError::MisalignedOffset { .. }));
    }

    #[test]
    fn immediates_out_of_range_rejected() {
        assert!(encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: reg(1),
            rs1: reg(0),
            imm: 2048,
        })
        .is_err());
        assert!(encode(&Inst::WaitI {
            cycles: MAX_WAITI_CYCLES + 1
        })
        .is_err());
        assert!(encode(&Inst::Cw {
            port: CwOperand::Imm(32),
            codeword: CwOperand::Imm(0),
        })
        .is_err());
        assert!(encode(&Inst::Cw {
            port: CwOperand::Imm(0),
            codeword: CwOperand::Imm(1 << 17),
        })
        .is_err());
        assert!(encode(&Inst::Sync {
            target: 4096,
            horizon: Reg::X0
        })
        .is_err());
    }

    #[test]
    fn subi_is_not_an_instruction() {
        assert!(encode(&Inst::OpImm {
            op: AluOp::Sub,
            rd: reg(1),
            rs1: reg(1),
            imm: 1,
        })
        .is_err());
    }

    #[test]
    fn hisq_extension_uses_custom_opcodes() {
        for inst in [
            Inst::WaitI { cycles: 57 },
            Inst::WaitR { rs1: reg(1) },
            Inst::Sync {
                target: 2,
                horizon: Reg::X0,
            },
            Inst::Stop,
        ] {
            assert_eq!(encode(&inst).unwrap() & 0x7f, OPC_HISQ);
        }
        for inst in [
            Inst::Send {
                target: 3,
                rs1: reg(5),
            },
            Inst::Recv {
                rd: reg(6),
                source: 3,
            },
        ] {
            assert_eq!(encode(&inst).unwrap() & 0x7f, OPC_MSG);
        }
    }
}
