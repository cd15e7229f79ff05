//! Property-based tests for the HISQ ISA toolchain: arbitrary valid
//! instructions must survive encode → decode and print → assemble
//! round trips unchanged, in both register styles.

use proptest::prelude::*;

use hisq_isa::encode::{
    OPC_AUIPC, OPC_BRANCH, OPC_JAL, OPC_JALR, OPC_LOAD, OPC_LUI, OPC_OP, OPC_OP_IMM, OPC_STORE,
};
use hisq_isa::{
    decode::decode, encode::encode, AluOp, Assembler, BranchOp, CwOperand, Inst, LoadOp, Program,
    Reg, StoreOp,
};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).expect("in range"))
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
    ]
}

fn arb_imm_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Or),
        Just(AluOp::And),
    ]
}

fn arb_shift_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![Just(AluOp::Sll), Just(AluOp::Srl), Just(AluOp::Sra)]
}

fn arb_branch_op() -> impl Strategy<Value = BranchOp> {
    prop_oneof![
        Just(BranchOp::Eq),
        Just(BranchOp::Ne),
        Just(BranchOp::Lt),
        Just(BranchOp::Ge),
        Just(BranchOp::Ltu),
        Just(BranchOp::Geu),
    ]
}

fn arb_load_op() -> impl Strategy<Value = LoadOp> {
    prop_oneof![
        Just(LoadOp::Byte),
        Just(LoadOp::Half),
        Just(LoadOp::Word),
        Just(LoadOp::ByteU),
        Just(LoadOp::HalfU),
    ]
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        Just(StoreOp::Byte),
        Just(StoreOp::Half),
        Just(StoreOp::Word)
    ]
}

/// Strategy producing any encodable HISQ instruction.
fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (arb_reg(), 0u32..(1 << 20)).prop_map(|(rd, imm20)| Inst::Lui { rd, imm20 }),
        (arb_reg(), 0u32..(1 << 20)).prop_map(|(rd, imm20)| Inst::Auipc { rd, imm20 }),
        (arb_reg(), -(1i32 << 18)..(1 << 18)).prop_map(|(rd, words)| Inst::Jal {
            rd,
            offset: words * 4
        }),
        (arb_reg(), arb_reg(), -2048i32..=2047).prop_map(|(rd, rs1, offset)| Inst::Jalr {
            rd,
            rs1,
            offset
        }),
        (arb_branch_op(), arb_reg(), arb_reg(), -1024i32..=1023).prop_map(
            |(op, rs1, rs2, words)| Inst::Branch {
                op,
                rs1,
                rs2,
                offset: words * 4
            }
        ),
        (arb_load_op(), arb_reg(), arb_reg(), -2048i32..=2047).prop_map(|(op, rd, rs1, offset)| {
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            }
        }),
        (arb_store_op(), arb_reg(), arb_reg(), -2048i32..=2047).prop_map(
            |(op, rs1, rs2, offset)| Inst::Store {
                op,
                rs1,
                rs2,
                offset
            }
        ),
        (arb_imm_alu_op(), arb_reg(), arb_reg(), -2048i32..=2047)
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm { op, rd, rs1, imm }),
        (arb_shift_op(), arb_reg(), arb_reg(), 0i32..=31)
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm { op, rd, rs1, imm }),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        (0u32..(1 << 22)).prop_map(|cycles| Inst::WaitI { cycles }),
        arb_reg().prop_map(|rs1| Inst::WaitR { rs1 }),
        (0u32..32, 0u32..(1 << 17)).prop_map(|(p, c)| Inst::Cw {
            port: CwOperand::Imm(p),
            codeword: CwOperand::Imm(c)
        }),
        (0u32..32, arb_reg()).prop_map(|(p, r)| Inst::Cw {
            port: CwOperand::Imm(p),
            codeword: CwOperand::Reg(r)
        }),
        (arb_reg(), 0u32..(1 << 12)).prop_map(|(r, c)| Inst::Cw {
            port: CwOperand::Reg(r),
            codeword: CwOperand::Imm(c)
        }),
        (arb_reg(), arb_reg()).prop_map(|(rp, rc)| Inst::Cw {
            port: CwOperand::Reg(rp),
            codeword: CwOperand::Reg(rc)
        }),
        (0u16..(1 << 12), arb_reg()).prop_map(|(target, horizon)| Inst::Sync { target, horizon }),
        (0u16..(1 << 12), arb_reg()).prop_map(|(target, rs1)| Inst::Send { target, rs1 }),
        (arb_reg(), 0u16..(1 << 12)).prop_map(|(rd, source)| Inst::Recv { rd, source }),
        Just(Inst::Stop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_round_trip(inst in arb_inst()) {
        let word = encode(&inst).expect("strategy only yields encodable instructions");
        let back = decode(word).expect("encoded words must decode");
        prop_assert_eq!(inst, back);
    }

    /// `{}` prints `x5`-style registers and `{:#}` ABI names; the
    /// assembler reads both back.
    #[test]
    fn disassemble_assemble_round_trip(insts in proptest::collection::vec(arb_inst(), 1..40)) {
        let printed = Program::new(insts);
        for text in [printed.to_string(), format!("{printed:#}")] {
            let program = Assembler::new()
                .assemble(&text)
                .expect("a printed program must be valid assembly");
            prop_assert_eq!(program.insts(), printed.insts());
        }
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = decode(word); // must return Ok or Err, never panic
    }

    #[test]
    fn decoded_instructions_reencode_to_same_word(word in any::<u32>()) {
        if let Ok(inst) = decode(word) {
            // Any word that decodes must re-encode canonically; we only
            // require semantic stability (decode(encode(decode(w))) ==
            // decode(w)) because don't-care bits may differ.
            let reencoded = encode(&inst).expect("decoded instruction must encode");
            let back = decode(reencoded).expect("re-encoded word must decode");
            prop_assert_eq!(inst, back);
        }
    }
}

/// The nine RV32I major opcodes HISQ keeps.
const RV32I_OPCODES: [u32; 9] = [
    OPC_LUI, OPC_AUIPC, OPC_JAL, OPC_JALR, OPC_BRANCH, OPC_LOAD, OPC_STORE, OPC_OP_IMM, OPC_OP,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// RV32I words have no don't-care bits: a word that decodes is the
    /// encoding of what it decodes to.
    #[test]
    fn rv32i_words_reencode_to_themselves(opcode in 0usize..9, bits in any::<u32>()) {
        let word = (bits & !0x7f) | RV32I_OPCODES[opcode];
        if let Ok(inst) = decode(word) {
            prop_assert_eq!(encode(&inst), Ok(word), "{:#010x} decodes to {}", word, inst);
        }
    }
}
