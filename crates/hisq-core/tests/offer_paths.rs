//! Property: a controller's two completion paths agree. An input that
//! [`Controller::offer`] hands to an instruction already blocked on its
//! lane completes it in place; an input offered before the instruction
//! issues is banked and popped when it does. Both must leave the
//! controller in the same state.

use proptest::prelude::*;

use hisq_core::{BlockReason, Controller, NodeConfig, StepOutcome};
use hisq_isa::{Assembler, Inst, Reg};

/// The neighbour, router and message source the programs wait on.
const PARTNER: u16 = 1;
const ROUTER: u16 = 100;
const SOURCE: u16 = 2;

/// One program segment, drawn as `(kind, operand, input time, input
/// value)`, and the input its blocking instruction (if any) is given.
type Segment = (u8, u32, u64, u32);

fn config() -> NodeConfig {
    NodeConfig::new(0)
        .with_neighbor(PARTNER, 5)
        .with_router(ROUTER, 8)
}

/// Assembles the segments and lists one `(lane, time, value)` input per
/// blocking instruction, in program order.
fn build(segments: &[Segment]) -> (Vec<Inst>, Vec<(BlockReason, u64, u32)>) {
    let mut src = String::new();
    let mut inputs = Vec::new();
    for &(kind, operand, time, value) in segments {
        match kind {
            0 => src += &format!("waiti {operand}\n"),
            1 => src += &format!("cw.i.i {}, {operand}\n", operand % 8),
            2 => {
                // The 5-cycle wait covers the link latency, so the next
                // sync's gate never precedes this one.
                src += &format!("sync {PARTNER}\nwaiti 5\n");
                inputs.push((BlockReason::AwaitSyncPulse { partner: PARTNER }, time, 0));
            }
            3 => {
                src += &format!("li t0, {operand}\nsync {ROUTER}, t0\nwaiti {operand}\n");
                inputs.push((BlockReason::AwaitMaxTime { router: ROUTER }, time, 0));
            }
            _ => {
                src += &format!("recv t1, {SOURCE}\n");
                inputs.push((BlockReason::AwaitMessage { source: SOURCE }, time, value));
            }
        }
    }
    src += "stop\n";
    let program = Assembler::new()
        .assemble(&src)
        .expect("generated program assembles")
        .insts()
        .to_vec();
    (program, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Offering each input once the controller blocks on it, and
    /// offering every input before the first step, end with equal
    /// commits, messages, stats, clocks, stall and received value.
    #[test]
    fn in_place_and_banked_completion_agree(
        segments in proptest::collection::vec(
            (0u8..5, 1u32..64, 0u64..2_000, any::<u32>()),
            0..16,
        ),
    ) {
        let (program, inputs) = build(&segments);

        let mut stepped = Controller::new(config(), program.clone());
        let mut stepped_out = Vec::new();
        let mut pending = inputs.iter();
        loop {
            match stepped.step(&mut stepped_out) {
                StepOutcome::Halted => break,
                StepOutcome::Blocked(reason) => {
                    let &(lane, time, value) =
                        pending.next().expect("one input per blocking instruction");
                    prop_assert_eq!(reason, lane);
                    prop_assert!(stepped.offer(lane, time, value), "a blocked lane completes");
                }
                StepOutcome::Faulted => {
                    prop_assert!(false, "faulted: {:?}", stepped.status());
                }
            }
        }
        prop_assert!(pending.next().is_none(), "every input was consumed");

        let mut banked = Controller::new(config(), program);
        let mut banked_out = Vec::new();
        for &(lane, time, value) in &inputs {
            prop_assert!(banked.offer(lane, time, value), "a ready controller can step");
        }
        prop_assert!(banked.step(&mut banked_out).is_halted(), "{:?}", banked.status());

        prop_assert_eq!(stepped.commits(), banked.commits());
        prop_assert_eq!(stepped_out, banked_out);
        prop_assert_eq!(stepped.stats(), banked.stats());
        prop_assert_eq!(stepped.now_wall(), banked.now_wall());
        prop_assert_eq!(stepped.total_stall(), banked.total_stall());
        prop_assert_eq!(stepped.reg(Reg::T1), banked.reg(Reg::T1));
    }
}
