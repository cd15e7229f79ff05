//! The HISQ controller: classical pipeline + TCU + SyncU + MsgU.

use std::collections::VecDeque;

use hisq_isa::{AluOp, CwOperand, Inst, LoadOp, Reg, StoreOp};

use crate::config::{Link, LinkKind, NodeConfig};
use crate::msg::{CommitRecord, NodeAddr, OutboundMessage};
use crate::pipeline::{sign_extend, Memory, RegFile};
use crate::timeline::Timeline;

/// Why a controller stopped executing in [`Controller::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for the nearby-sync 1-bit signal from a neighbour
    /// (BISP Condition II, Figure 4).
    AwaitSyncPulse {
        /// The neighbour whose signal is awaited.
        partner: NodeAddr,
    },
    /// Waiting for the region-level earliest-start broadcast `T_m` from
    /// an ancestor router (§4.3).
    AwaitMaxTime {
        /// The coordinating router.
        router: NodeAddr,
    },
    /// Waiting for a classical message (`recv`).
    AwaitMessage {
        /// The expected source address.
        source: NodeAddr,
    },
}

/// Execution status of a controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Ready to execute instructions.
    Ready,
    /// Blocked on an external input; the pending instruction completes
    /// once the input is delivered.
    Blocked(PendingOp),
    /// Program ran to `stop`.
    Halted,
    /// The program faulted (bad memory access, invalid target, …).
    Faulted(String),
}

/// The suspended half of a blocking instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// A nearby `sync` awaiting the partner's pulse.
    SyncPulse {
        /// Sync partner.
        partner: NodeAddr,
        /// Raw grid position at which the timer gates (B + N).
        raw_gate: u64,
        /// Wall-clock floor: booking time + countdown (Condition I).
        floor_eff: u64,
    },
    /// A region `sync` awaiting the router's max-time broadcast.
    MaxTime {
        /// Coordinating router.
        router: NodeAddr,
        /// Raw grid position of the booked synchronization point.
        raw_gate: u64,
        /// The booked time-point `T_i` (Condition I).
        t_i: u64,
    },
    /// A `recv` awaiting a classical message.
    Recv {
        /// Message source.
        source: NodeAddr,
        /// Destination register.
        rd: Reg,
    },
}

impl PendingOp {
    /// The input lane this instruction waits on: the inbox lane
    /// [`Controller::offer`] must be given to complete it.
    pub fn reason(&self) -> BlockReason {
        match *self {
            PendingOp::SyncPulse { partner, .. } => BlockReason::AwaitSyncPulse { partner },
            PendingOp::MaxTime { router, .. } => BlockReason::AwaitMaxTime { router },
            PendingOp::Recv { source, .. } => BlockReason::AwaitMessage { source },
        }
    }
}

/// Result of a [`Controller::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The controller blocked on external input.
    Blocked(BlockReason),
    /// The program halted normally.
    Halted,
    /// The program faulted.
    Faulted,
}

impl StepOutcome {
    /// `true` for [`StepOutcome::Halted`].
    pub fn is_halted(self) -> bool {
        matches!(self, StepOutcome::Halted)
    }
}

/// Execution counters, exposed for evaluation harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Total instructions retired.
    pub executed: u64,
    /// Quantum-extension instructions retired.
    pub quantum: u64,
    /// `sync` instructions retired.
    pub syncs: u64,
    /// Codeword commits issued.
    pub commits: u64,
    /// Times the timing grid had to catch up to the pipeline (expected
    /// only after non-deterministic operations).
    pub grid_slips: u64,
    /// Classical messages sent.
    pub sends: u64,
    /// Classical messages received.
    pub recvs: u64,
}

/// The controller's one inbox: a FIFO lane per input kind and sender,
/// keyed by the [`BlockReason`] an instruction waiting on it reports (a
/// pulse from a partner, a max-time from a router, a message from a
/// source), each item an `(time, value)` pair. Pulses and max-times
/// carry no value; a max-time's time is the broadcast `T_m`.
///
/// A linear-scan association list: a controller only ever hears from a
/// handful of peers (its mesh neighbours and ancestor routers), and the
/// inbox is probed on every delivery *and* every blocked-retry, so a
/// short scan over a flat vector beats a tree walk on the simulator's
/// hottest path. Access is strictly keyed (push one lane, pop one
/// lane) — lane order is never observed, so swapping the map for a
/// list cannot change behavior.
#[derive(Debug, Clone, Default)]
struct Inbox {
    lanes: Vec<(BlockReason, VecDeque<(u64, u32)>)>,
}

impl Inbox {
    /// Appends to `lane`, creating it on first contact.
    fn push(&mut self, lane: BlockReason, item: (u64, u32)) {
        match self.lanes.iter_mut().find(|(key, _)| *key == lane) {
            Some((_, items)) => items.push_back(item),
            None => self.lanes.push((lane, VecDeque::from_iter([item]))),
        }
    }

    /// Pops the oldest item of `lane`, if any.
    fn pop(&mut self, lane: BlockReason) -> Option<(u64, u32)> {
        self.lanes
            .iter_mut()
            .find(|(key, _)| *key == lane)
            .and_then(|(_, items)| items.pop_front())
    }

    /// `true` when `lane` holds nothing (or was never opened).
    fn lane_is_empty(&self, lane: BlockReason) -> bool {
        self.lanes
            .iter()
            .find(|(key, _)| *key == lane)
            .is_none_or(|(_, items)| items.is_empty())
    }
}

/// The controller state the per-event hot loop never touches, boxed
/// out of [`Controller`]'s inline stride (the SoA-style cold split):
/// data memory only matters to the rare load/store instructions, and
/// the configuration is consumed at construction (its links flatten
/// into `link_table`; the two scalars the execute path reads, `addr`
/// and `pipeline_headroom`, are copied into the hot struct). Keeping
/// the memory behind one pointer shrinks the inline controller
/// footprint, so the arena's per-event line fills stay on
/// fetch/execute state.
#[derive(Debug, Clone)]
struct ColdState {
    mem: Memory,
}

/// A single HISQ controller node (see the crate-level docs).
///
/// `repr(C)` with the hottest fields first: a simulation arena holds
/// hundreds of controllers and touches one per delivered event, so
/// every access starts cold. Packing the fetch/execute state
/// (`status`, `pc`, clocks, `program`) into the leading cache lines —
/// ahead of the register file and the inbox lanes — keeps the
/// per-event working set to a couple of line fills instead of a walk
/// across the whole struct; the data memory the hot loop never reads
/// lives behind the trailing `ColdState` box.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Controller {
    status: Status,
    pc: usize,
    /// Classical-pipeline clock in TCU cycles (wall clock).
    pipe_cycle: u64,
    /// TCU timing-grid pointer in raw (pre-stall) coordinates.
    grid_raw: u64,
    program: Vec<Inst>,
    timeline: Timeline,
    stats: ControllerStats,
    regs: RegFile,
    /// Inputs not yet consumed: nearby-sync pulses (sticky flags,
    /// cleared on read — Figure 4), region max-times and classical
    /// messages, one lane per [`BlockReason`].
    inbox: Inbox,
    commits: Vec<CommitRecord>,
    /// The calibrated links of the configuration, flattened to a sorted
    /// slice so the per-`sync` lookup is a binary search instead of a
    /// tree walk.
    link_table: Vec<(NodeAddr, Link)>,
    /// Hot copy of the configured network address (TELF attribution on
    /// every commit).
    addr: NodeAddr,
    /// Hot copy of the queue-decoupling margin (read on every
    /// non-deterministic grid rebase).
    pipeline_headroom: u64,
    /// Everything the per-event path never reads, one pointer away.
    cold: Box<ColdState>,
}

impl Controller {
    /// Creates a controller with a loaded program, ready at cycle 0.
    pub fn new(config: NodeConfig, program: Vec<Inst>) -> Controller {
        let mem = Memory::new(config.mem_bytes);
        let grid_raw = config.pipeline_headroom;
        // BTreeMap iterates in key order, so the table arrives sorted.
        let link_table: Vec<(NodeAddr, Link)> = config
            .links
            .iter()
            .map(|(&addr, &link)| (addr, link))
            .collect();
        Controller {
            addr: config.addr,
            pipeline_headroom: config.pipeline_headroom,
            cold: Box::new(ColdState { mem }),
            link_table,
            program,
            pc: 0,
            regs: RegFile::new(),
            pipe_cycle: 0,
            grid_raw,
            timeline: Timeline::new(),
            status: Status::Ready,
            inbox: Inbox::default(),
            commits: Vec::new(),
            stats: ControllerStats::default(),
        }
    }

    /// This node's network address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Current status.
    pub fn status(&self) -> &Status {
        &self.status
    }

    /// Committed codeword events in commit order (the TELF trace).
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// Execution statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Register read-back (test and debug aid).
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs.read(reg)
    }

    /// Presets a register before execution (test and harness aid).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        self.regs.write(reg, value);
    }

    /// The wall-clock cycle the controller has reached: the later of the
    /// pipeline clock and the effective timing-grid position.
    pub fn now_wall(&self) -> u64 {
        self.pipe_cycle.max(self.timeline.effective(self.grid_raw))
    }

    /// Calibrated one-way latency of this controller's link to
    /// `remote`, if one exists.
    pub fn link_latency(&self, remote: NodeAddr) -> Option<u64> {
        self.link(remote).map(|link| link.latency)
    }

    /// The calibrated link to `remote` (binary search of the sorted
    /// table).
    fn link(&self, remote: NodeAddr) -> Option<Link> {
        self.link_table
            .binary_search_by_key(&remote, |&(addr, _)| addr)
            .ok()
            .map(|i| self.link_table[i].1)
    }

    /// Total timer stall inserted by synchronizations, in cycles.
    pub fn total_stall(&self) -> u64 {
        self.timeline.total_stall()
    }

    /// Delivers one input on `lane` — a pulse arriving at `time`, a
    /// max-time `T_m = time`, or a message `value` arriving at `time` —
    /// and reports whether a [`Controller::step`] would now make
    /// progress.
    ///
    /// An input that completes the pending instruction does so in
    /// place, skipping the inbox: a controller blocks only on an empty
    /// lane, so that input is the one [`Controller::step`] would pop.
    /// Any other input is banked in its lane, and `false` tells the
    /// caller that stepping now would be a no-op.
    pub fn offer(&mut self, lane: BlockReason, time: u64, value: u32) -> bool {
        if let Status::Blocked(pending) = self.status {
            if pending.reason() == lane && self.inbox.lane_is_empty(lane) {
                self.complete(pending, time, value);
                return true;
            }
        }
        self.inbox.push(lane, (time, value));
        match &self.status {
            Status::Ready => true,
            Status::Blocked(pending) => pending.reason() == lane,
            _ => false,
        }
    }

    /// `true` when the program holds a `recv` from `source`. A `recv`
    /// names its source as an immediate and is the only instruction that
    /// pops a message lane, so messages from a source this returns
    /// `false` for are banked and never read: a caller may skip
    /// offering them without changing anything the controller does.
    pub fn can_recv_from(&self, source: NodeAddr) -> bool {
        self.program
            .iter()
            .any(|inst| matches!(*inst, Inst::Recv { source: s, .. } if s == source))
    }

    /// Runs the instruction stream until it halts, faults, or blocks on
    /// an external input. Outgoing messages are appended to `outbox`.
    pub fn step(&mut self, outbox: &mut Vec<OutboundMessage>) -> StepOutcome {
        loop {
            match &self.status {
                Status::Halted => return StepOutcome::Halted,
                Status::Faulted(_) => return StepOutcome::Faulted,
                Status::Blocked(pending) => {
                    let pending = *pending;
                    if !self.try_complete(pending) {
                        return StepOutcome::Blocked(pending.reason());
                    }
                }
                Status::Ready => {
                    if let Err(message) = self.execute_one(outbox) {
                        self.status = Status::Faulted(message);
                        return StepOutcome::Faulted;
                    }
                }
            }
        }
    }

    /// Attempts to finish a pending blocking instruction with the oldest
    /// input of its lane. Returns `true` on completion.
    fn try_complete(&mut self, pending: PendingOp) -> bool {
        let Some((time, value)) = self.inbox.pop(pending.reason()) else {
            return false;
        };
        self.complete(pending, time, value);
        true
    }

    /// Finishes a blocking instruction with its input (see
    /// [`Controller::offer`]) and moves on to the next instruction.
    fn complete(&mut self, pending: PendingOp, time: u64, value: u32) {
        match pending {
            PendingOp::SyncPulse {
                raw_gate,
                floor_eff,
                ..
            } => self.timeline.add_gate(raw_gate, floor_eff.max(time)),
            PendingOp::MaxTime { raw_gate, t_i, .. } => {
                self.timeline.add_gate(raw_gate, t_i.max(time))
            }
            PendingOp::Recv { rd, .. } => {
                self.regs.write(rd, value);
                self.pipe_cycle = self.pipe_cycle.max(time);
                self.stats.recvs += 1;
            }
        }
        self.status = Status::Ready;
        self.pc += 1;
    }

    /// Catches the timing grid up to the pipeline clock (queue underflow
    /// protection; legitimate only after non-deterministic operations).
    ///
    /// The floor is the *issue* time of the current instruction
    /// (`pipe_cycle` was already incremented for it): an event enqueued
    /// by an instruction issued at cycle `t` can commit at `t` earliest.
    fn rebase_grid(&mut self) {
        let floor = self.pipe_cycle.saturating_sub(1);
        if self.timeline.effective(self.grid_raw) < floor {
            self.grid_raw = self.timeline.raw_for_wall(floor + self.pipeline_headroom);
            self.stats.grid_slips += 1;
        }
    }

    fn branch_target(&self, offset: i32) -> Result<usize, String> {
        let byte = self.pc as i64 * 4 + i64::from(offset);
        if byte < 0 || byte % 4 != 0 {
            return Err(format!("bad branch target byte address {byte}"));
        }
        let index = (byte / 4) as usize;
        if index >= self.program.len() {
            return Err(format!(
                "branch target {index} outside program of {} instructions",
                self.program.len()
            ));
        }
        Ok(index)
    }

    /// Executes the instruction at `pc`. On success the controller is
    /// left Ready / Blocked / Halted with `pc` advanced appropriately.
    fn execute_one(&mut self, outbox: &mut Vec<OutboundMessage>) -> Result<(), String> {
        let Some(&inst) = self.program.get(self.pc) else {
            return Err(format!("pc {} past end of program", self.pc));
        };
        self.stats.executed += 1;
        self.pipe_cycle += 1;
        if inst.is_quantum_extension() {
            self.stats.quantum += 1;
        }

        match inst {
            Inst::Lui { rd, imm20 } => {
                self.regs.write(rd, imm20 << 12);
                self.pc += 1;
            }
            Inst::Auipc { rd, imm20 } => {
                let value = (self.pc as u32 * 4).wrapping_add(imm20 << 12);
                self.regs.write(rd, value);
                self.pc += 1;
            }
            Inst::Jal { rd, offset } => {
                let target = self.branch_target(offset)?;
                self.regs.write(rd, (self.pc as u32 + 1) * 4);
                self.pc = target;
            }
            Inst::Jalr { rd, rs1, offset } => {
                let byte = self.regs.read(rs1).wrapping_add(offset as u32) & !1;
                if byte % 4 != 0 || (byte / 4) as usize >= self.program.len() {
                    return Err(format!("bad jalr target {byte:#x}"));
                }
                self.regs.write(rd, (self.pc as u32 + 1) * 4);
                self.pc = (byte / 4) as usize;
            }
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if op.evaluate(self.regs.read(rs1), self.regs.read(rs2)) {
                    self.pc = self.branch_target(offset)?;
                } else {
                    self.pc += 1;
                }
            }
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.regs.read(rs1).wrapping_add(offset as u32);
                let value = match op {
                    LoadOp::Byte => {
                        sign_extend(self.cold.mem.load(addr, 1).map_err(|e| e.to_string())?, 8)
                    }
                    LoadOp::Half => {
                        sign_extend(self.cold.mem.load(addr, 2).map_err(|e| e.to_string())?, 16)
                    }
                    LoadOp::Word => self.cold.mem.load(addr, 4).map_err(|e| e.to_string())?,
                    LoadOp::ByteU => self.cold.mem.load(addr, 1).map_err(|e| e.to_string())?,
                    LoadOp::HalfU => self.cold.mem.load(addr, 2).map_err(|e| e.to_string())?,
                };
                self.regs.write(rd, value);
                self.pc += 1;
            }
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.regs.read(rs1).wrapping_add(offset as u32);
                let value = self.regs.read(rs2);
                let width = match op {
                    StoreOp::Byte => 1,
                    StoreOp::Half => 2,
                    StoreOp::Word => 4,
                };
                self.cold
                    .mem
                    .store(addr, width, value)
                    .map_err(|e| e.to_string())?;
                self.pc += 1;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let value = alu(op, self.regs.read(rs1), imm as u32);
                self.regs.write(rd, value);
                self.pc += 1;
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let value = alu(op, self.regs.read(rs1), self.regs.read(rs2));
                self.regs.write(rd, value);
                self.pc += 1;
            }

            Inst::WaitI { cycles } => {
                self.rebase_grid();
                self.grid_raw += u64::from(cycles);
                self.pc += 1;
            }
            Inst::WaitR { rs1 } => {
                self.rebase_grid();
                self.grid_raw += u64::from(self.regs.read(rs1));
                self.pc += 1;
            }
            Inst::Cw { port, codeword } => {
                self.rebase_grid();
                let port = match port {
                    CwOperand::Imm(p) => p,
                    CwOperand::Reg(r) => self.regs.read(r),
                };
                let codeword = match codeword {
                    CwOperand::Imm(c) => c,
                    CwOperand::Reg(r) => self.regs.read(r),
                };
                let cycle = self.timeline.effective(self.grid_raw);
                self.commits.push(CommitRecord {
                    port,
                    codeword,
                    cycle,
                });
                self.stats.commits += 1;
                self.pc += 1;
            }
            Inst::Sync { target, horizon } => {
                self.stats.syncs += 1;
                self.rebase_grid();
                let link = self
                    .link(target)
                    .ok_or_else(|| format!("sync target {target} has no calibrated link"))?;
                let b_raw = self.grid_raw;
                let b_eff = self.timeline.effective(b_raw);
                let (raw_gate, booking, pending) = match link.kind {
                    LinkKind::Neighbor => {
                        let raw_gate = b_raw + link.latency;
                        let booking = OutboundMessage::SyncPulse {
                            to: target,
                            sent_at: b_eff,
                        };
                        let pending = PendingOp::SyncPulse {
                            partner: target,
                            raw_gate,
                            floor_eff: b_eff + link.latency,
                        };
                        (raw_gate, booking, pending)
                    }
                    LinkKind::Router => {
                        let horizon_cycles = u64::from(self.regs.read(horizon));
                        let raw_gate = b_raw + horizon_cycles;
                        let t_i = b_eff + horizon_cycles;
                        let booking = OutboundMessage::BookTime {
                            router: target,
                            time_point: t_i,
                            sent_at: b_eff,
                        };
                        let pending = PendingOp::MaxTime {
                            router: target,
                            raw_gate,
                            t_i,
                        };
                        (raw_gate, booking, pending)
                    }
                };
                // The timer gates in program order: a sync whose gate
                // would land before an earlier sync's stall (a short
                // horizon after a long countdown) cannot be timed.
                if let Some(last) = self.timeline.last_gate().filter(|&last| raw_gate < last) {
                    return Err(format!(
                        "sync {target} gates at raw cycle {raw_gate}, before an earlier sync's gate at {last}"
                    ));
                }
                outbox.push(booking);
                if !self.try_complete(pending) {
                    self.status = Status::Blocked(pending);
                }
            }
            Inst::Send { target, rs1 } => {
                outbox.push(OutboundMessage::Classical {
                    to: target,
                    value: self.regs.read(rs1),
                    sent_at: self.pipe_cycle,
                });
                self.stats.sends += 1;
                self.pc += 1;
            }
            Inst::Recv { rd, source } => {
                let pending = PendingOp::Recv { source, rd };
                if !self.try_complete(pending) {
                    self.status = Status::Blocked(pending);
                }
            }
            Inst::Stop => {
                self.status = Status::Halted;
            }
        }
        Ok(())
    }
}

fn alu(op: AluOp, lhs: u32, rhs: u32) -> u32 {
    match op {
        AluOp::Add => lhs.wrapping_add(rhs),
        AluOp::Sub => lhs.wrapping_sub(rhs),
        AluOp::Sll => lhs.wrapping_shl(rhs & 0x1f),
        AluOp::Slt => u32::from((lhs as i32) < (rhs as i32)),
        AluOp::Sltu => u32::from(lhs < rhs),
        AluOp::Xor => lhs ^ rhs,
        AluOp::Srl => lhs.wrapping_shr(rhs & 0x1f),
        AluOp::Sra => ((lhs as i32).wrapping_shr(rhs & 0x1f)) as u32,
        AluOp::Or => lhs | rhs,
        AluOp::And => lhs & rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_isa::Assembler;

    fn assemble(src: &str) -> Vec<Inst> {
        Assembler::new()
            .assemble(src)
            .expect("test program must assemble")
            .insts()
            .to_vec()
    }

    fn run_to_halt(src: &str) -> Controller {
        let mut ctrl = Controller::new(NodeConfig::new(1), assemble(src));
        let mut outbox = Vec::new();
        assert_eq!(ctrl.step(&mut outbox), StepOutcome::Halted);
        ctrl
    }

    fn reg(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn classical_arithmetic_loop() {
        // Sum 1..=10 into x3.
        let ctrl = run_to_halt(
            "
            addi x1, x0, 10
            addi x2, x0, 0
            addi x3, x0, 0
        loop:
            add x3, x3, x2
            addi x2, x2, 1
            bne x2, x1, loop
            add x3, x3, x1
            stop
        ",
        );
        assert_eq!(ctrl.reg(reg(3)), 55);
    }

    #[test]
    fn memory_and_shift_operations() {
        let ctrl = run_to_halt(
            "
            li t0, 0x1234
            slli t1, t0, 4
            sw t1, 8(x0)
            lh t2, 8(x0)
            lb t3, 9(x0)
            stop
        ",
        );
        assert_eq!(ctrl.reg(Reg::parse("t1").unwrap()), 0x12340);
        assert_eq!(ctrl.reg(Reg::parse("t2").unwrap()), 0x2340);
        assert_eq!(ctrl.reg(Reg::parse("t3").unwrap()), 0x23);
    }

    #[test]
    fn signed_unsigned_comparisons() {
        let ctrl = run_to_halt(
            "
            li t0, -1
            slti t1, t0, 0
            sltiu t2, t0, 1
            sra t3, t0, x0
            stop
        ",
        );
        assert_eq!(ctrl.reg(Reg::parse("t1").unwrap()), 1); // -1 < 0 signed
        assert_eq!(ctrl.reg(Reg::parse("t2").unwrap()), 0); // max unsigned
        assert_eq!(ctrl.reg(Reg::parse("t3").unwrap()) as i32, -1);
    }

    #[test]
    fn waits_build_the_timing_grid() {
        let ctrl = run_to_halt(
            "
            waiti 10
            cw.i.i 1, 7
            waiti 5
            cw.i.i 2, 9
            stop
        ",
        );
        let commits = ctrl.commits();
        assert_eq!(commits.len(), 2);
        assert_eq!(commits[0].cycle, 10);
        assert_eq!(commits[0].port, 1);
        assert_eq!(commits[0].codeword, 7);
        assert_eq!(commits[1].cycle, 15);
    }

    #[test]
    fn grid_never_runs_behind_pipeline() {
        // Many classical instructions push the pipeline past the grid;
        // the first cw must not commit in the past.
        let src = (0..20).map(|_| "addi x1, x1, 1\n").collect::<String>() + "cw.i.i 1, 1\nstop";
        let ctrl = run_to_halt(&src);
        // 20 classical + 1 cw issue cycle = pipeline at 21.
        assert!(ctrl.commits()[0].cycle >= 20);
        assert_eq!(ctrl.stats().grid_slips, 1);
    }

    #[test]
    fn cw_register_forms() {
        let ctrl = run_to_halt(
            "
            li t0, 21
            li t1, 0x2a
            waiti 100
            cw.r.r t0, t1
            cw.r.i t0, 3
            cw.i.r 4, t1
            stop
        ",
        );
        let commits = ctrl.commits();
        assert_eq!(commits[0].port, 21);
        assert_eq!(commits[0].codeword, 0x2a);
        assert_eq!(commits[1].codeword, 3);
        assert_eq!(commits[2].port, 4);
        // The two-instruction classical prologue occupies cycles 0..2, so
        // the grid rebases to 2 before the 100-cycle wait.
        assert!(commits.iter().all(|c| c.cycle == 102));
    }

    #[test]
    fn nearby_sync_pulse_already_present_no_stall() {
        // Partner pulse arrived long ago; Condition II met before
        // Condition I → no stall, commit at booking + countdown + wait.
        let config = NodeConfig::new(1).with_neighbor(2, 5);
        let mut ctrl = Controller::new(
            config,
            assemble("waiti 100\nsync 2\nwaiti 5\ncw.i.i 1, 1\nstop"),
        );
        assert!(ctrl.offer(BlockReason::AwaitSyncPulse { partner: 2 }, 50, 0));
        let mut outbox = Vec::new();
        assert!(ctrl.step(&mut outbox).is_halted());
        // Booking at 100, gate at 105, pulse at 50 → resume 105, cw at
        // 105 (the 5-cycle deterministic pad exactly covers the latency:
        // zero-cycle overhead).
        assert_eq!(ctrl.commits()[0].cycle, 105);
        assert_eq!(ctrl.total_stall(), 0);
        // The booking signal went out at the booking time.
        assert_eq!(
            outbox[0],
            OutboundMessage::SyncPulse {
                to: 2,
                sent_at: 100
            }
        );
    }

    #[test]
    fn nearby_sync_stalls_until_partner_signal() {
        let config = NodeConfig::new(1).with_neighbor(2, 5);
        let mut ctrl = Controller::new(
            config,
            assemble("waiti 100\nsync 2\nwaiti 5\ncw.i.i 1, 1\nstop"),
        );
        let mut outbox = Vec::new();
        assert_eq!(
            ctrl.step(&mut outbox),
            StepOutcome::Blocked(BlockReason::AwaitSyncPulse { partner: 2 })
        );
        // Partner booked late: its pulse arrives at 130.
        assert!(ctrl.offer(BlockReason::AwaitSyncPulse { partner: 2 }, 130, 0));
        assert!(ctrl.step(&mut outbox).is_halted());
        // Gate at 105 stalls until 130; cw at offset 5 past the gate
        // commits at 130.
        assert_eq!(ctrl.commits()[0].cycle, 130);
        assert_eq!(ctrl.total_stall(), 25);
    }

    #[test]
    fn deterministic_tasks_before_gate_unaffected_by_stall() {
        // A cw scheduled within the countdown window commits on the old
        // timeline even when the sync stalls (Figure 5a's light-yellow
        // deterministic tasks).
        let config = NodeConfig::new(1).with_neighbor(2, 10);
        let mut ctrl = Controller::new(
            config,
            assemble("waiti 100\nsync 2\nwaiti 4\ncw.i.i 1, 1\nwaiti 6\ncw.i.i 1, 2\nstop"),
        );
        let mut outbox = Vec::new();
        assert!(matches!(ctrl.step(&mut outbox), StepOutcome::Blocked(_)));
        assert!(ctrl.offer(BlockReason::AwaitSyncPulse { partner: 2 }, 150, 0));
        assert!(ctrl.step(&mut outbox).is_halted());
        let commits = ctrl.commits();
        // Offset 4 < N=10: commits at 104, before the gate.
        assert_eq!(commits[0].cycle, 104);
        // Offset 10 = N: gated, commits at the resume time 150.
        assert_eq!(commits[1].cycle, 150);
    }

    #[test]
    fn region_sync_books_time_point_with_horizon() {
        let config = NodeConfig::new(1).with_router(100, 8);
        let mut ctrl = Controller::new(
            config,
            assemble("li t0, 20\nwaiti 50\nsync 100, t0\nwaiti 20\ncw.i.i 1, 1\nstop"),
        );
        let mut outbox = Vec::new();
        assert_eq!(
            ctrl.step(&mut outbox),
            StepOutcome::Blocked(BlockReason::AwaitMaxTime { router: 100 })
        );
        // Booking: the `li` prologue shifts the grid by 1, so the sync
        // books at 51 with T_i = 51 + 20 = 71.
        assert!(outbox.iter().any(|m| matches!(
            m,
            OutboundMessage::BookTime {
                router: 100,
                time_point: 71,
                sent_at: 51
            }
        )));
        // Router announces T_m = 90 (some other controller is slower).
        assert!(ctrl.offer(BlockReason::AwaitMaxTime { router: 100 }, 90, 0));
        assert!(ctrl.step(&mut outbox).is_halted());
        // The synchronization point (offset 20) resumes at T_m = 90.
        assert_eq!(ctrl.commits()[0].cycle, 90);
    }

    #[test]
    fn region_sync_zero_overhead_when_t_m_not_later() {
        let config = NodeConfig::new(1).with_router(100, 8);
        let mut ctrl = Controller::new(
            config,
            assemble("li t0, 30\nwaiti 50\nsync 100, t0\nwaiti 30\ncw.i.i 1, 1\nstop"),
        );
        assert!(ctrl.offer(BlockReason::AwaitMaxTime { router: 100 }, 75, 0)); // T_m earlier than our T_i = 81
        let mut outbox = Vec::new();
        assert!(ctrl.step(&mut outbox).is_halted());
        assert_eq!(ctrl.commits()[0].cycle, 81); // zero-cycle overhead
        assert_eq!(ctrl.total_stall(), 0);
    }

    #[test]
    fn send_recv_round_trip() {
        // Controller receives a value, adds one, sends it back.
        let config = NodeConfig::new(1);
        let mut ctrl = Controller::new(
            config,
            assemble("recv t0, 2\naddi t0, t0, 1\nsend 2, t0\nstop"),
        );
        let mut outbox = Vec::new();
        assert_eq!(
            ctrl.step(&mut outbox),
            StepOutcome::Blocked(BlockReason::AwaitMessage { source: 2 })
        );
        assert!(ctrl.offer(BlockReason::AwaitMessage { source: 2 }, 200, 41));
        assert!(ctrl.step(&mut outbox).is_halted());
        let reply = outbox
            .iter()
            .find_map(|m| match *m {
                OutboundMessage::Classical { to, value, sent_at } => Some((to, value, sent_at)),
                _ => None,
            })
            .expect("reply sent");
        assert_eq!(reply.0, 2);
        assert_eq!(reply.1, 42);
        // The reply cannot leave before the request arrived.
        assert!(reply.2 >= 200);
        assert_eq!(ctrl.stats().recvs, 1);
        assert_eq!(ctrl.stats().sends, 1);
        assert!(ctrl.can_recv_from(2));
        assert!(!ctrl.can_recv_from(1), "no recv names source 1");
    }

    #[test]
    fn recv_rebases_timing_grid() {
        // Feedback: the wait after a recv starts no earlier than arrival.
        let mut ctrl = Controller::new(
            NodeConfig::new(1),
            assemble("recv t0, 2\nwaiti 10\ncw.i.i 1, 1\nstop"),
        );
        assert!(ctrl.offer(BlockReason::AwaitMessage { source: 2 }, 500, 1));
        let mut outbox = Vec::new();
        assert!(ctrl.step(&mut outbox).is_halted());
        assert!(ctrl.commits()[0].cycle >= 510);
        assert_eq!(ctrl.stats().grid_slips, 1);
    }

    #[test]
    fn sync_without_link_faults() {
        let mut ctrl = Controller::new(NodeConfig::new(1), assemble("sync 9\nstop"));
        let mut outbox = Vec::new();
        assert_eq!(ctrl.step(&mut outbox), StepOutcome::Faulted);
        assert!(matches!(ctrl.status(), Status::Faulted(m) if m.contains("no calibrated link")));
    }

    #[test]
    fn bad_memory_access_faults() {
        let mut ctrl = Controller::new(
            NodeConfig::new(1).with_mem_bytes(16),
            assemble("li t0, 1000\nlw t1, 0(t0)\nstop"),
        );
        let mut outbox = Vec::new();
        assert_eq!(ctrl.step(&mut outbox), StepOutcome::Faulted);
    }

    #[test]
    fn data_memory_is_allocated_on_first_store() {
        // Loads, even of the last word, read zero without allocating.
        let ctrl = run_to_halt("li t0, 65532\nlw t1, 0(t0)\nstop");
        assert_eq!(ctrl.reg(Reg::T1), 0);
        assert_eq!(ctrl.cold.mem.allocated(), 0);
        // The top word of an 8 KiB result ring allocates the ring only.
        let ctrl = run_to_halt("li t0, 8188\nli t1, 7\nsw t1, 0(t0)\nlw t2, 0(t0)\nstop");
        assert_eq!(ctrl.reg(Reg::T2), 7);
        assert!(ctrl.cold.mem.allocated() <= 8192);
    }

    #[test]
    fn link_latency_reads_the_calibrated_table() {
        let ctrl = Controller::new(
            NodeConfig::new(1).with_neighbor(2, 5).with_router(100, 12),
            assemble("stop"),
        );
        assert_eq!(ctrl.link_latency(2), Some(5));
        assert_eq!(ctrl.link_latency(100), Some(12));
        assert_eq!(ctrl.link_latency(3), None);
    }

    #[test]
    fn infinite_loop_guard_via_jal() {
        // jal back to self would loop forever; verify jal executes and
        // the register link value is written (program counter * 4).
        let mut ctrl = Controller::new(
            NodeConfig::new(1),
            assemble("jal ra, skip\nstop\nskip: stop"),
        );
        let mut outbox = Vec::new();
        assert!(ctrl.step(&mut outbox).is_halted());
        assert_eq!(ctrl.reg(Reg::parse("ra").unwrap()), 4);
    }

    #[test]
    fn two_controller_bisp_co_simulation_zero_overhead() {
        // Full Figure 5(a): two controllers with different-length
        // deterministic prologues synchronize with zero overhead.
        let latency = 6;
        let mut c0 = Controller::new(
            NodeConfig::new(0).with_neighbor(1, latency),
            assemble("waiti 40\nsync 1\nwaiti 6\ncw.i.i 1, 1\nstop"),
        );
        let mut c1 = Controller::new(
            NodeConfig::new(1).with_neighbor(0, latency),
            assemble("waiti 70\nsync 0\nwaiti 6\ncw.i.i 1, 1\nstop"),
        );
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        let _ = c0.step(&mut out0);
        let _ = c1.step(&mut out1);
        // Exchange pulses with the link latency applied.
        for m in out0.drain(..) {
            if let OutboundMessage::SyncPulse { to: 1, sent_at } = m {
                assert!(c1.offer(
                    BlockReason::AwaitSyncPulse { partner: 0 },
                    sent_at + latency,
                    0
                ));
            }
        }
        for m in out1.drain(..) {
            if let OutboundMessage::SyncPulse { to: 0, sent_at } = m {
                assert!(c0.offer(
                    BlockReason::AwaitSyncPulse { partner: 1 },
                    sent_at + latency,
                    0
                ));
            }
        }
        assert!(c0.step(&mut out0).is_halted());
        assert!(c1.step(&mut out1).is_halted());
        // Bookings at 40 and 70; T0 = 46, T1 = 76. Both must commit at
        // max(T0, T1) = 76: cycle-level synchronization, zero overhead
        // for the later controller.
        assert_eq!(c0.commits()[0].cycle, 76);
        assert_eq!(c1.commits()[0].cycle, 76);
        assert_eq!(c1.total_stall(), 0, "later controller never stalls");
    }
}
