//! Binary decoding of HISQ instructions (inverse of [`crate::encode`]).

use crate::error::DecodeError;
use crate::inst::{AluOp, BranchOp, CwOperand, Inst, LoadOp, StoreOp};
use crate::reg::Reg;

use crate::encode::{
    OPC_AUIPC, OPC_BRANCH, OPC_HISQ, OPC_JAL, OPC_JALR, OPC_LOAD, OPC_LUI, OPC_MSG, OPC_OP,
    OPC_OP_IMM, OPC_STORE,
};

fn field_rd(word: u32) -> Result<Reg, DecodeError> {
    Reg::try_from(((word >> 7) & 0x1f) as u8)
}

fn field_rs1(word: u32) -> Result<Reg, DecodeError> {
    Reg::try_from(((word >> 15) & 0x1f) as u8)
}

fn field_rs2(word: u32) -> Result<Reg, DecodeError> {
    Reg::try_from(((word >> 20) & 0x1f) as u8)
}

fn field_funct3(word: u32) -> u32 {
    (word >> 12) & 0x7
}

fn field_funct7(word: u32) -> u32 {
    word >> 25
}

/// Sign-extends the low `bits` bits of `value`.
fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn i_imm(word: u32) -> i32 {
    sign_extend(word >> 20, 12)
}

fn s_imm(word: u32) -> i32 {
    let imm = ((word >> 25) << 5) | ((word >> 7) & 0x1f);
    sign_extend(imm, 12)
}

fn b_imm(word: u32) -> i32 {
    let imm12 = (word >> 31) & 1;
    let imm11 = (word >> 7) & 1;
    let imm10_5 = (word >> 25) & 0x3f;
    let imm4_1 = (word >> 8) & 0xf;
    let imm = (imm12 << 12) | (imm11 << 11) | (imm10_5 << 5) | (imm4_1 << 1);
    sign_extend(imm, 13)
}

fn j_imm(word: u32) -> i32 {
    let imm20 = (word >> 31) & 1;
    let imm19_12 = (word >> 12) & 0xff;
    let imm11 = (word >> 20) & 1;
    let imm10_1 = (word >> 21) & 0x3ff;
    let imm = (imm20 << 20) | (imm19_12 << 12) | (imm11 << 11) | (imm10_1 << 1);
    sign_extend(imm, 21)
}

/// Decodes a 32-bit word into an [`Inst`].
///
/// # Errors
///
/// Returns [`DecodeError`] for opcodes outside HISQ (including the RV32I
/// instructions HISQ disables, such as `fence` and `ecall`) and for
/// undefined funct3/funct7 combinations.
///
/// # Example
///
/// ```
/// use hisq_isa::{decode::decode, encode::encode, Inst};
///
/// let inst = Inst::WaitI { cycles: 57 };
/// assert_eq!(decode(encode(&inst)?)?, inst);
/// # Ok::<(), hisq_isa::IsaError>(())
/// ```
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    let opcode = word & 0x7f;
    match opcode {
        OPC_LUI => Ok(Inst::Lui {
            rd: field_rd(word)?,
            imm20: word >> 12,
        }),
        OPC_AUIPC => Ok(Inst::Auipc {
            rd: field_rd(word)?,
            imm20: word >> 12,
        }),
        OPC_JAL => {
            let offset = j_imm(word);
            if offset % 4 != 0 {
                return Err(DecodeError::MisalignedTarget { offset });
            }
            Ok(Inst::Jal {
                rd: field_rd(word)?,
                offset,
            })
        }
        OPC_JALR => Ok(Inst::Jalr {
            rd: field_rd(word)?,
            rs1: field_rs1(word)?,
            offset: i_imm(word),
        }),
        OPC_BRANCH => {
            let op = match field_funct3(word) {
                0b000 => BranchOp::Eq,
                0b001 => BranchOp::Ne,
                0b100 => BranchOp::Lt,
                0b101 => BranchOp::Ge,
                0b110 => BranchOp::Ltu,
                0b111 => BranchOp::Geu,
                _ => return Err(DecodeError::UnknownFunction { word }),
            };
            let offset = b_imm(word);
            if offset % 4 != 0 {
                return Err(DecodeError::MisalignedTarget { offset });
            }
            Ok(Inst::Branch {
                op,
                rs1: field_rs1(word)?,
                rs2: field_rs2(word)?,
                offset,
            })
        }
        OPC_LOAD => {
            let op = match field_funct3(word) {
                0b000 => LoadOp::Byte,
                0b001 => LoadOp::Half,
                0b010 => LoadOp::Word,
                0b100 => LoadOp::ByteU,
                0b101 => LoadOp::HalfU,
                _ => return Err(DecodeError::UnknownFunction { word }),
            };
            Ok(Inst::Load {
                op,
                rd: field_rd(word)?,
                rs1: field_rs1(word)?,
                offset: i_imm(word),
            })
        }
        OPC_STORE => {
            let op = match field_funct3(word) {
                0b000 => StoreOp::Byte,
                0b001 => StoreOp::Half,
                0b010 => StoreOp::Word,
                _ => return Err(DecodeError::UnknownFunction { word }),
            };
            Ok(Inst::Store {
                op,
                rs1: field_rs1(word)?,
                rs2: field_rs2(word)?,
                offset: s_imm(word),
            })
        }
        OPC_OP_IMM => {
            let rd = field_rd(word)?;
            let rs1 = field_rs1(word)?;
            let (op, imm) = match field_funct3(word) {
                0b000 => (AluOp::Add, i_imm(word)),
                0b010 => (AluOp::Slt, i_imm(word)),
                0b011 => (AluOp::Sltu, i_imm(word)),
                0b100 => (AluOp::Xor, i_imm(word)),
                0b110 => (AluOp::Or, i_imm(word)),
                0b111 => (AluOp::And, i_imm(word)),
                0b001 => {
                    if field_funct7(word) != 0 {
                        return Err(DecodeError::UnknownFunction { word });
                    }
                    (AluOp::Sll, ((word >> 20) & 0x1f) as i32)
                }
                0b101 => match field_funct7(word) {
                    0b000_0000 => (AluOp::Srl, ((word >> 20) & 0x1f) as i32),
                    0b010_0000 => (AluOp::Sra, ((word >> 20) & 0x1f) as i32),
                    _ => return Err(DecodeError::UnknownFunction { word }),
                },
                _ => unreachable!("funct3 is 3 bits"),
            };
            Ok(Inst::OpImm { op, rd, rs1, imm })
        }
        OPC_OP => {
            let op = match (field_funct3(word), field_funct7(word)) {
                (0b000, 0b000_0000) => AluOp::Add,
                (0b000, 0b010_0000) => AluOp::Sub,
                (0b001, 0b000_0000) => AluOp::Sll,
                (0b010, 0b000_0000) => AluOp::Slt,
                (0b011, 0b000_0000) => AluOp::Sltu,
                (0b100, 0b000_0000) => AluOp::Xor,
                (0b101, 0b000_0000) => AluOp::Srl,
                (0b101, 0b010_0000) => AluOp::Sra,
                (0b110, 0b000_0000) => AluOp::Or,
                (0b111, 0b000_0000) => AluOp::And,
                _ => return Err(DecodeError::UnknownFunction { word }),
            };
            Ok(Inst::Op {
                op,
                rd: field_rd(word)?,
                rs1: field_rs1(word)?,
                rs2: field_rs2(word)?,
            })
        }
        OPC_HISQ => match field_funct3(word) {
            0b000 => Ok(Inst::WaitI {
                cycles: ((word >> 7) & 0x1f) | ((word >> 15) << 5),
            }),
            0b001 => Ok(Inst::WaitR {
                rs1: field_rs1(word)?,
            }),
            0b010 => Ok(Inst::Cw {
                port: CwOperand::Imm((word >> 7) & 0x1f),
                codeword: CwOperand::Imm(word >> 15),
            }),
            0b011 => Ok(Inst::Cw {
                port: CwOperand::Imm((word >> 7) & 0x1f),
                codeword: CwOperand::Reg(field_rs1(word)?),
            }),
            0b100 => Ok(Inst::Cw {
                port: CwOperand::Reg(field_rs1(word)?),
                codeword: CwOperand::Imm(word >> 20),
            }),
            0b101 => Ok(Inst::Cw {
                port: CwOperand::Reg(field_rs1(word)?),
                codeword: CwOperand::Reg(field_rs2(word)?),
            }),
            0b110 => Ok(Inst::Sync {
                target: (word >> 20) as u16,
                horizon: field_rs1(word)?,
            }),
            0b111 => Ok(Inst::Stop),
            _ => unreachable!("funct3 is 3 bits"),
        },
        OPC_MSG => match field_funct3(word) {
            0b000 => Ok(Inst::Send {
                target: (word >> 20) as u16,
                rs1: field_rs1(word)?,
            }),
            0b001 => Ok(Inst::Recv {
                rd: field_rd(word)?,
                source: (word >> 20) as u16,
            }),
            _ => Err(DecodeError::UnknownFunction { word }),
        },
        other => Err(DecodeError::UnknownOpcode(other)),
    }
}

/// Decodes a contiguous word slice into instructions.
///
/// # Errors
///
/// Propagates the first [`DecodeError`] encountered.
pub fn decode_all(words: &[u32]) -> Result<Vec<Inst>, DecodeError> {
    words.iter().map(|&w| decode(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn reg(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn round_trip(inst: Inst) {
        let word = encode(&inst).unwrap();
        assert_eq!(decode(word).unwrap(), inst, "word {word:#010x}");
    }

    #[test]
    fn round_trips_representative_base_instructions() {
        round_trip(Inst::Lui {
            rd: reg(5),
            imm20: 0xfffff,
        });
        round_trip(Inst::Auipc {
            rd: reg(5),
            imm20: 1,
        });
        round_trip(Inst::Jal {
            rd: reg(1),
            offset: 2044,
        });
        round_trip(Inst::Jalr {
            rd: reg(0),
            rs1: reg(1),
            offset: -4,
        });
        for op in [
            BranchOp::Eq,
            BranchOp::Ne,
            BranchOp::Lt,
            BranchOp::Ge,
            BranchOp::Ltu,
            BranchOp::Geu,
        ] {
            round_trip(Inst::Branch {
                op,
                rs1: reg(1),
                rs2: reg(2),
                offset: -28,
            });
        }
        for op in [
            LoadOp::Byte,
            LoadOp::Half,
            LoadOp::Word,
            LoadOp::ByteU,
            LoadOp::HalfU,
        ] {
            round_trip(Inst::Load {
                op,
                rd: reg(3),
                rs1: reg(4),
                offset: -2048,
            });
        }
        for op in [StoreOp::Byte, StoreOp::Half, StoreOp::Word] {
            round_trip(Inst::Store {
                op,
                rs1: reg(3),
                rs2: reg(4),
                offset: 2047,
            });
        }
    }

    #[test]
    fn round_trips_alu_operations() {
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ] {
            round_trip(Inst::Op {
                op,
                rd: reg(1),
                rs1: reg(2),
                rs2: reg(3),
            });
        }
        for op in [
            AluOp::Add,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Or,
            AluOp::And,
        ] {
            round_trip(Inst::OpImm {
                op,
                rd: reg(1),
                rs1: reg(2),
                imm: -1,
            });
        }
        for op in [AluOp::Sll, AluOp::Srl, AluOp::Sra] {
            round_trip(Inst::OpImm {
                op,
                rd: reg(1),
                rs1: reg(2),
                imm: 31,
            });
        }
    }

    #[test]
    fn round_trips_hisq_extension() {
        round_trip(Inst::WaitI {
            cycles: crate::MAX_WAITI_CYCLES,
        });
        round_trip(Inst::WaitI { cycles: 2 });
        round_trip(Inst::WaitR { rs1: reg(1) });
        round_trip(Inst::Cw {
            port: CwOperand::Imm(21),
            codeword: CwOperand::Imm(2),
        });
        round_trip(Inst::Cw {
            port: CwOperand::Imm(31),
            codeword: CwOperand::Imm((1 << 17) - 1),
        });
        round_trip(Inst::Cw {
            port: CwOperand::Imm(3),
            codeword: CwOperand::Reg(reg(3)),
        });
        round_trip(Inst::Cw {
            port: CwOperand::Reg(reg(7)),
            codeword: CwOperand::Imm(4095),
        });
        round_trip(Inst::Cw {
            port: CwOperand::Reg(reg(7)),
            codeword: CwOperand::Reg(reg(8)),
        });
        round_trip(Inst::Sync {
            target: 4095,
            horizon: Reg::X0,
        });
        round_trip(Inst::Sync {
            target: 7,
            horizon: reg(11),
        });
        round_trip(Inst::Send {
            target: 9,
            rs1: reg(5),
        });
        round_trip(Inst::Recv {
            rd: reg(6),
            source: 9,
        });
        round_trip(Inst::Stop);
    }

    #[test]
    fn disabled_rv32i_instructions_do_not_decode() {
        // fence (0x0ff0000f) and ecall (0x00000073) are outside HISQ.
        assert!(matches!(
            decode(0x0ff0_000f),
            Err(DecodeError::UnknownOpcode(_))
        ));
        assert!(matches!(
            decode(0x0000_0073),
            Err(DecodeError::UnknownOpcode(_))
        ));
    }

    #[test]
    fn undefined_function_bits_rejected() {
        // OP opcode with funct7 garbage.
        let word = OPC_OP | (0b011_1111 << 25);
        assert!(matches!(
            decode(word),
            Err(DecodeError::UnknownFunction { .. })
        ));
        // custom-1 with funct3 that is not send/recv.
        let word = OPC_MSG | (0b111 << 12);
        assert!(matches!(
            decode(word),
            Err(DecodeError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn sign_extension_helpers() {
        assert_eq!(sign_extend(0xfff, 12), -1);
        assert_eq!(sign_extend(0x7ff, 12), 2047);
        assert_eq!(sign_extend(0x800, 12), -2048);
    }
}
