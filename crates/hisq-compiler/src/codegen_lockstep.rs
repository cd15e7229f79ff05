//! The lock-step baseline code generator (§6.4.3 of the paper).
//!
//! Reproduces the IBM-style shared-program-flow scheme (the paper's
//! reference \[51\]) the paper
//! evaluates against:
//!
//! - a **central hub** (star topology) re-broadcasts every measurement
//!   result to **every** controller at a constant latency, independent
//!   of system size (the paper's deliberately generous assumption);
//! - all controllers follow the **same program flow**: every feedback
//!   operation is a global window — all controllers stall, evaluate the
//!   same branch, and advance together, so concurrent feedback
//!   operations serialize;
//! - deterministic regions are statically scheduled on a single global
//!   timeline, so two-qubit gates need no `sync` instructions at all.
//!
//! Broadcast values are index-tagged (`(measurement_index << 1) | bit`)
//! and stored to a ring buffer in data memory, making the receive stream
//! self-describing regardless of same-cycle delivery order.

use std::collections::{BTreeMap, BTreeSet};

use hisq_core::{NodeAddr, MEAS_FIFO_ADDR};
use hisq_isa::{AluOp, Inst, LoadOp, Reg, StoreOp};
use hisq_quantum::{Circuit, Condition, Gate, Instruction, Operation};

use crate::codewords::{CodewordTable, PORT_GATE, PORT_READOUT};
use crate::emit::StreamBuilder;
use crate::{CompileError, CompileStats, CompiledSystem, CycleDurations, HubSpec, Scheme};

/// Ring-buffer slots for broadcast measurement bits (must be a power of
/// two; the `andi` mask must fit a 12-bit immediate).
const RING_SLOTS: u32 = 2048;

/// Pipeline margin after a measurement's result handling, in cycles
/// (recv + tag + send instructions), folded into the static schedule so
/// issue-rate effects cannot compound at run time.
const MEAS_PIPELINE_MARGIN: u64 = 16;

/// Pipeline margin closing a feedback window (branch evaluation).
const WINDOW_PIPELINE_MARGIN: u64 = 16;

/// Options for the lock-step baseline backend.
#[derive(Debug, Clone)]
pub struct LockstepOptions {
    /// Operation durations in TCU cycles.
    pub durations: CycleDurations,
    /// Producer → hub latency in cycles (constant, size-independent).
    pub star_up_latency: u64,
    /// Hub → controller broadcast latency in cycles.
    pub star_down_latency: u64,
    /// Number of program repetitions (statically unrolled; lock-step
    /// needs no re-synchronization between shots).
    pub shots: u32,
}

impl Default for LockstepOptions {
    fn default() -> LockstepOptions {
        LockstepOptions {
            durations: CycleDurations::PAPER,
            star_up_latency: 25,
            star_down_latency: 25,
            shots: 1,
        }
    }
}

/// A per-controller timed emission item.
#[derive(Debug, Clone)]
enum Item {
    /// Align the grid to `time` and fire a codeword.
    Trigger { time: u64, port: u32, cw: u32 },
    /// Measurement sequence: trigger at `time`, collect the local
    /// result, and publish it (index-tagged) to the hub.
    Measure {
        time: u64,
        cw: u32,
        meas_index: usize,
    },
    /// Receive one hub broadcast (no grid alignment; ordered by arrival).
    Broadcast { time: u64 },
    /// A shared-flow feedback window `[w0, w1]`: evaluate the branch and
    /// run the body (or idle for the same duration).
    Window {
        w0: u64,
        w1: u64,
        bits: Vec<usize>,
        value: bool,
        body: Vec<(u64, u32, u32, u64)>, // (start, port, cw, duration)
    },
}

impl Item {
    fn time(&self) -> u64 {
        match self {
            Item::Trigger { time, .. } | Item::Measure { time, .. } | Item::Broadcast { time } => {
                *time
            }
            Item::Window { w0, .. } => *w0,
        }
    }
}

/// Compiles a dynamic circuit for the lock-step baseline.
///
/// # Errors
///
/// Returns [`CompileError`] when the hub's address (one past the last
/// controller) is not below [`MEAS_FIFO_ADDR`], for conditions on
/// multi-qubit operations, or for conditions referencing unwritten
/// clbits.
pub fn compile_lockstep(
    circuit: &Circuit,
    options: &LockstepOptions,
) -> Result<CompiledSystem, CompileError> {
    let n = circuit.num_qubits();
    // The hub takes the address after the last controller.
    if n >= usize::from(MEAS_FIFO_ADDR) {
        return Err(CompileError::AddrOutOfRange {
            node: "hub",
            addr: n,
            limit: MEAS_FIFO_ADDR,
        });
    }
    let hub_addr = n as NodeAddr;
    let d = options.durations;
    let broadcast_latency = options.star_up_latency + options.star_down_latency;

    let mut table = CodewordTable::new();
    let mut stats = CompileStats::default();
    let mut items: BTreeMap<NodeAddr, Vec<Item>> =
        (0..n as u16).map(|addr| (addr, Vec::new())).collect();

    // Pre-scan: which controllers consume each measurement's bit. The
    // central hub broadcasts in hardware; only consumers spend pipeline
    // cycles latching results (the paper's generous baseline).
    let consumers_of_clbit: BTreeMap<usize, BTreeSet<NodeAddr>> = {
        let mut writers: BTreeMap<usize, usize> = BTreeMap::new(); // clbit -> meas order idx
        let mut order = 0usize;
        let mut per_meas: BTreeMap<usize, BTreeSet<NodeAddr>> = BTreeMap::new();
        for instruction in circuit.instructions() {
            if let Some(condition) = &instruction.condition {
                for q in instruction.qubits() {
                    for clbit in condition.clbits() {
                        if let Some(&m) = writers.get(&clbit) {
                            per_meas.entry(m).or_default().insert(q as NodeAddr);
                        }
                    }
                }
            }
            if let Operation::Measure { clbit, .. } = instruction.op {
                writers.insert(clbit, order);
                order += 1;
            }
        }
        // Re-key by clbit writer order at schedule time below.
        per_meas
    };

    // ---- Pass 1: static global schedule -----------------------------
    let mut qubit_ready = vec![0u64; n];
    let mut feedback_cursor = 0u64;
    let mut meas_count = 0usize;
    // clbit → (meas_index, broadcast arrival time).
    let mut bit_sources: BTreeMap<usize, (usize, u64)> = BTreeMap::new();

    let shots = options.shots.max(1);
    for _ in 0..shots {
        let instructions = circuit.instructions();
        let mut idx = 0;
        while idx < instructions.len() {
            let instruction = &instructions[idx];
            match (&instruction.op, &instruction.condition) {
                (_, Some(condition)) => {
                    // Collect the maximal run sharing this condition into
                    // one shared-flow window.
                    let mut body: Vec<&Instruction> = Vec::new();
                    let mut end = idx;
                    while end < instructions.len()
                        && instructions[end].condition.as_ref() == Some(condition)
                    {
                        body.push(&instructions[end]);
                        end += 1;
                    }

                    let mut bits = Vec::new();
                    let mut bits_ready = 0u64;
                    for clbit in condition.clbits() {
                        let &(meas_index, arrival) = bit_sources.get(&clbit).ok_or(
                            CompileError::ConditionBeforeMeasurement { index: idx, clbit },
                        )?;
                        bits.push(meas_index);
                        bits_ready = bits_ready.max(arrival);
                    }
                    let value = match condition {
                        Condition::Bit { value, .. } | Condition::Parity { value, .. } => *value,
                    };

                    // Global barrier: every controller stalls.
                    let global_ready = qubit_ready.iter().copied().max().unwrap_or(0);
                    let w0 = feedback_cursor.max(bits_ready).max(global_ready);

                    // Schedule the body ASAP inside the window.
                    let mut local_ready = vec![w0; n];
                    let mut scheduled: BTreeMap<NodeAddr, Vec<(u64, u32, u32, u64)>> =
                        BTreeMap::new();
                    let mut w1 = w0;
                    let mut participants: BTreeSet<NodeAddr> = BTreeSet::new();
                    for inst in &body {
                        match &inst.op {
                            Operation::Gate { gate, qubits } if qubits.len() == 1 => {
                                let q = qubits[0];
                                let start = local_ready[q];
                                let dur = d.gate_cycles(*gate);
                                local_ready[q] = start + dur;
                                w1 = w1.max(start + dur);
                                let addr = q as NodeAddr;
                                let cw = table.gate(addr, *gate, qubits);
                                scheduled
                                    .entry(addr)
                                    .or_default()
                                    .push((start, PORT_GATE, cw, dur));
                                participants.insert(addr);
                                stats.feedbacks += 1;
                            }
                            Operation::Delay { qubit, duration_ns } => {
                                // Conditioned idle: occupies the window
                                // without a trigger.
                                let dur = duration_ns.div_ceil(hisq_isa::CYCLE_NS);
                                local_ready[*qubit] += dur;
                                w1 = w1.max(local_ready[*qubit]);
                                participants.insert(*qubit as NodeAddr);
                                stats.feedbacks += 1;
                            }
                            _ => {
                                return Err(CompileError::UnsupportedConditional { index: idx });
                            }
                        }
                    }
                    for (addr, body) in scheduled {
                        items
                            .get_mut(&addr)
                            .expect("controller exists")
                            .push(Item::Window {
                                w0,
                                w1,
                                bits: bits.clone(),
                                value,
                                body,
                            });
                    }
                    // Shared flow: everyone resumes together after the
                    // window plus the branch-evaluation margin.
                    let resume = w1 + WINDOW_PIPELINE_MARGIN;
                    qubit_ready.iter_mut().for_each(|r| *r = resume);
                    feedback_cursor = resume;
                    idx = end;
                    continue;
                }
                (Operation::Gate { gate, qubits }, None) => {
                    let start = qubits.iter().map(|&q| qubit_ready[q]).max().unwrap_or(0);
                    let dur = d.gate_cycles(*gate);
                    for &q in qubits {
                        qubit_ready[q] = start + dur;
                    }
                    let first = qubits[0] as NodeAddr;
                    let cw = table.gate(first, *gate, qubits);
                    items.get_mut(&first).expect("exists").push(Item::Trigger {
                        time: start,
                        port: PORT_GATE,
                        cw,
                    });
                    if qubits.len() == 2 {
                        let second = qubits[1] as NodeAddr;
                        let pulse = table.pulse(second);
                        items.get_mut(&second).expect("exists").push(Item::Trigger {
                            time: start,
                            port: PORT_GATE,
                            cw: pulse,
                        });
                    }
                }
                (Operation::Measure { qubit, clbit }, None) => {
                    let start = qubit_ready[*qubit];
                    qubit_ready[*qubit] = start + d.measurement + MEAS_PIPELINE_MARGIN;
                    let addr = *qubit as NodeAddr;
                    let cw = table.measure(addr, *qubit);
                    let meas_index = meas_count;
                    meas_count += 1;
                    let arrival = start + d.measurement + broadcast_latency;
                    bit_sources.insert(*clbit, (meas_index, arrival));
                    items.get_mut(&addr).expect("exists").push(Item::Measure {
                        time: start,
                        cw,
                        meas_index,
                    });
                    // Hardware broadcast bus: only consuming controllers
                    // spend pipeline cycles latching the result.
                    if let Some(consumers) = consumers_of_clbit.get(&meas_index) {
                        for &consumer in consumers {
                            items
                                .get_mut(&consumer)
                                .expect("exists")
                                .push(Item::Broadcast { time: arrival });
                            stats.recvs += 1;
                        }
                    }
                    stats.sends += 1;
                }
                (Operation::Reset { qubit }, None) => {
                    let start = qubit_ready[*qubit];
                    qubit_ready[*qubit] = start + d.reset;
                    let addr = *qubit as NodeAddr;
                    let cw = table.reset(addr, *qubit);
                    items.get_mut(&addr).expect("exists").push(Item::Trigger {
                        time: start,
                        port: PORT_GATE,
                        cw,
                    });
                }
                (Operation::Delay { qubit, duration_ns }, None) => {
                    qubit_ready[*qubit] += duration_ns.div_ceil(hisq_isa::CYCLE_NS);
                }
                (Operation::Barrier { qubits }, None) => {
                    let affected: Vec<usize> = if qubits.is_empty() {
                        (0..n).collect()
                    } else {
                        qubits.clone()
                    };
                    let sync = affected.iter().map(|&q| qubit_ready[q]).max().unwrap_or(0);
                    for q in affected {
                        qubit_ready[q] = sync;
                    }
                }
            }
            idx += 1;
        }
        // Shots are back-to-back on the shared timeline.
        let end = qubit_ready.iter().copied().max().unwrap_or(0);
        qubit_ready.iter_mut().for_each(|r| *r = end);
    }

    // ---- Pass 2: per-controller emission -----------------------------
    let mut programs = BTreeMap::new();
    let mut listings = BTreeMap::new();
    for (addr, mut node_items) in items {
        // Stable sort by time preserves schedule order for ties.
        node_items.sort_by_key(Item::time);
        let mut builder = StreamBuilder::new(addr);
        let mut cursor = 0u64;
        for item in node_items {
            match item {
                Item::Trigger { time, port, cw } => {
                    debug_assert!(time >= cursor, "static schedule went backwards");
                    builder.wait(time.saturating_sub(cursor));
                    cursor = cursor.max(time);
                    builder.cw(port, cw);
                }
                Item::Measure {
                    time,
                    cw,
                    meas_index,
                } => {
                    builder.wait(time.saturating_sub(cursor));
                    cursor = cursor.max(time) + d.measurement;
                    builder.cw(PORT_READOUT, cw);
                    builder.wait(d.measurement);
                    builder.recv(Reg::T0, MEAS_FIFO_ADDR);
                    builder.li(Reg::T5, (meas_index as u32) << 1);
                    builder.alu(AluOp::Add, Reg::T5, Reg::T5, Reg::T0);
                    builder.send(hub_addr, Reg::T5);
                    builder.mark_blocker();
                }
                Item::Broadcast { .. } => {
                    // Pipeline-only work: receive, decode the tag, store
                    // the bit into its ring slot.
                    builder.recv(Reg::T2, hub_addr);
                    builder.alu_imm(AluOp::And, Reg::T4, Reg::T2, 1);
                    builder.alu_imm(AluOp::Srl, Reg::T3, Reg::T2, 1);
                    builder.alu_imm(AluOp::And, Reg::T3, Reg::T3, RING_SLOTS as i32 - 1);
                    builder.alu_imm(AluOp::Sll, Reg::T3, Reg::T3, 2);
                    builder.inst(Inst::Store {
                        op: StoreOp::Word,
                        rs1: Reg::T3,
                        rs2: Reg::T4,
                        offset: 0,
                    });
                    builder.mark_blocker();
                }
                Item::Window {
                    w0,
                    w1,
                    bits,
                    value,
                    body,
                } => {
                    builder.wait(w0.saturating_sub(cursor));
                    cursor = w1;
                    for (i, meas_index) in bits.iter().enumerate() {
                        let slot = ((*meas_index as u32) % RING_SLOTS) * 4;
                        builder.li(Reg::T3, slot);
                        builder.inst(Inst::Load {
                            op: LoadOp::Word,
                            rd: Reg::T2,
                            rs1: Reg::T3,
                            offset: 0,
                        });
                        if i == 0 {
                            builder.mv(Reg::T1, Reg::T2);
                        } else {
                            builder.alu(AluOp::Xor, Reg::T1, Reg::T1, Reg::T2);
                        }
                    }
                    let skip = builder.fresh_label("skip");
                    let end = builder.fresh_label("end");
                    if value {
                        builder.beqz(Reg::T1, skip);
                    } else {
                        builder.bnez(Reg::T1, skip);
                    }
                    let mut local = w0;
                    for (start, port, cw, dur) in body {
                        builder.wait(start.saturating_sub(local));
                        builder.cw(port, cw);
                        builder.wait(dur);
                        local = start + dur;
                    }
                    builder.wait(w1.saturating_sub(local));
                    builder.j(end);
                    builder.label(skip);
                    // The untaken path idles for the same window.
                    builder.wait(w1 - w0);
                    builder.label(end);
                    builder.mark_blocker();
                }
            }
        }
        let (program, listing) = builder.finish();
        stats.instructions += program.len() as u64;
        programs.insert(addr, program);
        listings.insert(addr, listing);
    }

    Ok(CompiledSystem {
        scheme: Scheme::Lockstep,
        programs,
        listings,
        bindings: table.into_bindings(),
        num_qubits: n,
        hub: Some(HubSpec {
            addr: hub_addr,
            up_latency: options.star_up_latency,
            down_latency: options.star_down_latency,
        }),
        stats,
    })
}

/// Exposes gate durations on [`CycleDurations`] for scheduling.
impl CycleDurations {
    /// Duration of a gate in cycles.
    pub fn gate_cycles(&self, gate: Gate) -> u64 {
        if gate.arity() == 1 {
            self.single
        } else {
            self.two_qubit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_circuit_needs_no_syncs() {
        let mut circuit = Circuit::new(3, 1);
        circuit.h(0).cx(0, 1).cx(1, 2);
        let compiled = compile_lockstep(&circuit, &LockstepOptions::default()).unwrap();
        assert_eq!(compiled.stats.nearby_syncs, 0);
        assert_eq!(compiled.stats.region_syncs, 0);
        for &addr in compiled.programs.keys() {
            assert!(!compiled.listing(addr).unwrap().contains("sync"));
        }
        assert!(compiled.hub.is_some());
    }

    #[test]
    fn only_consumers_receive_broadcasts() {
        let mut circuit = Circuit::new(3, 1);
        circuit.measure(0, 0);
        circuit.x_if(2, Condition::bit(0, true));
        let compiled = compile_lockstep(&circuit, &LockstepOptions::default()).unwrap();
        // Only controller 2 consumes the bit.
        assert_eq!(compiled.stats.recvs, 1);
        assert!(
            compiled.listing(2).unwrap().contains("recv t2, 3"),
            "consumer latches"
        );
        assert!(
            !compiled.listing(1).unwrap().contains("recv t2, 3"),
            "bystander skips"
        );
        // The producer publishes an index-tagged value through the hub.
        assert!(compiled.listing(0).unwrap().contains("send 3, t5"));
    }

    #[test]
    fn feedback_becomes_a_shared_window() {
        let mut circuit = Circuit::new(2, 1);
        circuit.measure(0, 0);
        circuit.x_if(1, Condition::bit(0, true));
        let compiled = compile_lockstep(&circuit, &LockstepOptions::default()).unwrap();
        let src1 = compiled.listing(1).unwrap();
        assert!(src1.contains("lw t2, 0(t3)"));
        assert!(src1.contains("beqz t1"));
        // Both paths exist: a body and the idle arm.
        assert!(src1.contains("j .end_1_"), "{src1}");
    }

    #[test]
    fn consecutive_same_condition_ops_share_one_window() {
        let mut circuit = Circuit::new(3, 1);
        circuit.measure(0, 0);
        circuit.x_if(1, Condition::bit(0, true));
        circuit.z_if(2, Condition::bit(0, true));
        let compiled = compile_lockstep(&circuit, &LockstepOptions::default()).unwrap();
        // One window spans both ops: each participant branches once.
        assert_eq!(compiled.listing(1).unwrap().matches("beqz t1").count(), 1);
        assert_eq!(compiled.listing(2).unwrap().matches("beqz t1").count(), 1);
    }

    #[test]
    fn distinct_conditions_serialize_into_two_windows() {
        let mut circuit = Circuit::new(3, 2);
        circuit.measure(0, 0);
        circuit.measure(1, 1);
        circuit.x_if(2, Condition::bit(0, true));
        circuit.x_if(2, Condition::bit(1, true));
        let compiled = compile_lockstep(&circuit, &LockstepOptions::default()).unwrap();
        assert_eq!(compiled.listing(2).unwrap().matches("beqz t1").count(), 2);
        assert_eq!(compiled.stats.feedbacks, 2);
    }

    #[test]
    fn sources_assemble_and_carry_hub_spec() {
        let mut circuit = Circuit::new(2, 2);
        circuit.h(0).cx(0, 1);
        circuit.measure(0, 0).measure(1, 1);
        circuit.x_if(0, Condition::parity(vec![0, 1], true));
        let options = LockstepOptions {
            star_up_latency: 30,
            star_down_latency: 40,
            ..LockstepOptions::default()
        };
        let compiled = compile_lockstep(&circuit, &options).unwrap();
        let hub = compiled.hub.unwrap();
        assert_eq!(hub.addr, 2);
        assert_eq!(hub.up_latency, 30);
        assert_eq!(hub.down_latency, 40);
        for (&addr, program) in &compiled.programs {
            assert!(!program.is_empty(), "controller {addr} has a program");
            let listing = compiled.listing(addr).unwrap();
            let assembled = hisq_isa::Assembler::new().assemble(&listing).unwrap();
            assert_eq!(&assembled, program, "controller {addr}:\n{listing}");
        }
    }
}
