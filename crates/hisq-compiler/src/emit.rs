//! Per-controller instruction stream builders.
//!
//! Code generation appends **typed lines** — machine instructions, the
//! `li`/`mv` pseudo-instructions, `beqz`/`bnez`/`j` to a [`Label`]
//! handle, and label definitions — and [`StreamBuilder::finish`]
//! resolves the labels straight into a [`Program`], with the symbol
//! table the assembler would build. No assembly text is formatted or
//! parsed on the compile path.
//!
//! The human-readable listing is rendered from the same lines only on
//! request ([`Listing`]'s `Display`, reached through
//! [`crate::CompiledSystem::listing`]), in the assembler's syntax: ABI
//! register names, the pseudo-instructions as written, and
//! `.{prefix}_{addr}_{n}` labels. The workspace's `compiled_program_pins`
//! test assembles every compiled listing with [`hisq_isa::Assembler`]
//! and requires the emitted program back, so the production assembler
//! stays checked against every shape the compiler emits.
//!
//! The builder also implements the **booking advance** of BISP (§4.2):
//! a `sync` is inserted at the *hoist point* — just after the last
//! instruction whose timing is non-deterministic (a `recv`, a branch, a
//! previous synchronization point) — so the calibrated countdown overlaps
//! the deterministic work emitted since.

use std::collections::BTreeMap;
use std::fmt;

use hisq_core::NodeAddr;
use hisq_isa::asm::expand_li;
use hisq_isa::{AluOp, BranchOp, CwOperand, Inst, Program, Reg, MAX_WAITI_CYCLES};

/// A branch target issued by [`StreamBuilder::fresh_label`] and placed
/// with [`StreamBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// One typed line of a controller's stream.
#[derive(Debug, Clone, Copy)]
enum Line {
    /// A machine instruction.
    Inst(Inst),
    /// `li rd, imm` (see [`expand_li`]).
    Li { rd: Reg, imm: u32 },
    /// `mv rd, rs`, i.e. `addi rd, rs, 0`.
    Mv { rd: Reg, rs: Reg },
    /// `beqz rs, target` (`op` = `Eq`) or `bnez rs, target` (`Ne`).
    BranchZero {
        op: BranchOp,
        rs: Reg,
        target: Label,
    },
    /// `j target`, i.e. `jal x0, target`.
    Jump(Label),
    /// `target:`.
    Label(Label),
}

impl Line {
    /// Grid cycles this line advances (non-zero only for `waiti`).
    fn cycles(&self) -> u64 {
        match self {
            Line::Inst(Inst::WaitI { cycles }) => u64::from(*cycles),
            _ => 0,
        }
    }

    /// Machine instructions this line occupies.
    fn slots(&self) -> usize {
        match *self {
            Line::Li { rd, imm } => expand_li(rd, imm as i32).count(),
            Line::Label(_) => 0,
            _ => 1,
        }
    }
}

/// The typed lines of one controller's program, ending in `stop`. Its
/// `Display` renders the assembly listing, one line per typed line.
#[derive(Debug, Clone)]
pub struct Listing {
    addr: NodeAddr,
    lines: Vec<Line>,
    /// Name prefix of each label, indexed by handle.
    labels: Vec<&'static str>,
}

impl Listing {
    /// The label's name: `.{prefix}_{addr}_{n}`, numbered from 1 across
    /// all prefixes in issue order.
    fn label_name(&self, label: Label) -> String {
        format!(".{}_{}_{}", self.labels[label.0], self.addr, label.0 + 1)
    }

    /// Resolves labels into machine code plus the symbol table
    /// (label name → instruction index).
    fn resolve(&self) -> Program {
        let mut targets = vec![None; self.labels.len()];
        let mut slot = 0;
        for line in &self.lines {
            if let Line::Label(label) = *line {
                debug_assert!(targets[label.0].is_none(), "label placed twice");
                targets[label.0] = Some(slot);
            }
            slot += line.slots();
        }
        let mut insts = Vec::with_capacity(slot);
        for line in &self.lines {
            let here = insts.len();
            let offset_to = |label: Label| {
                let target = targets[label.0].expect("every branch target label is placed");
                (target as i32 - here as i32) * 4
            };
            match *line {
                Line::Inst(inst) => insts.push(inst),
                Line::Li { rd, imm } => insts.extend(expand_li(rd, imm as i32)),
                Line::Mv { rd, rs } => insts.push(Inst::OpImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rs,
                    imm: 0,
                }),
                Line::BranchZero { op, rs, target } => insts.push(Inst::Branch {
                    op,
                    rs1: rs,
                    rs2: Reg::X0,
                    offset: offset_to(target),
                }),
                Line::Jump(target) => insts.push(Inst::Jal {
                    rd: Reg::X0,
                    offset: offset_to(target),
                }),
                Line::Label(_) => {}
            }
        }
        let symbols: BTreeMap<String, usize> = targets
            .iter()
            .enumerate()
            .filter_map(|(i, target)| target.map(|slot| (self.label_name(Label(i)), slot)))
            .collect();
        Program::with_symbols(insts, symbols)
    }
}

impl fmt::Display for Listing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.labels.len())
            .map(|i| self.label_name(Label(i)))
            .collect();
        for line in &self.lines {
            match *line {
                Line::Inst(inst) => write_inst(f, &inst)?,
                Line::Li { rd, imm } => write!(f, "li {}, {imm}", rd.abi_name())?,
                Line::Mv { rd, rs } => write!(f, "mv {}, {}", rd.abi_name(), rs.abi_name())?,
                Line::BranchZero { op, rs, target } => {
                    let mnemonic = if op == BranchOp::Eq { "beqz" } else { "bnez" };
                    write!(f, "{mnemonic} {}, {}", rs.abi_name(), names[target.0])?;
                }
                Line::Jump(target) => write!(f, "j {}", names[target.0])?,
                Line::Label(label) => write!(f, "{}:", names[label.0])?,
            }
            f.write_str("\n")?;
        }
        Ok(())
    }
}

/// Writes one instruction in assembler syntax with ABI register names.
fn write_inst(f: &mut fmt::Formatter<'_>, inst: &Inst) -> fmt::Result {
    let m = inst.mnemonic();
    match *inst {
        Inst::Lui { rd, imm20 } | Inst::Auipc { rd, imm20 } => {
            write!(f, "{m} {}, {imm20}", rd.abi_name())
        }
        Inst::Jal { rd, offset } => write!(f, "{m} {}, {offset}", rd.abi_name()),
        Inst::Jalr { rd, rs1, offset } => {
            write!(f, "{m} {}, {}, {offset}", rd.abi_name(), rs1.abi_name())
        }
        Inst::Branch {
            rs1, rs2, offset, ..
        } => write!(f, "{m} {}, {}, {offset}", rs1.abi_name(), rs2.abi_name()),
        Inst::Load {
            rd, rs1, offset, ..
        } => write!(f, "{m} {}, {offset}({})", rd.abi_name(), rs1.abi_name()),
        Inst::Store {
            rs1, rs2, offset, ..
        } => write!(f, "{m} {}, {offset}({})", rs2.abi_name(), rs1.abi_name()),
        Inst::OpImm { rd, rs1, imm, .. } => {
            write!(f, "{m} {}, {}, {imm}", rd.abi_name(), rs1.abi_name())
        }
        Inst::Op { rd, rs1, rs2, .. } => write!(
            f,
            "{m} {}, {}, {}",
            rd.abi_name(),
            rs1.abi_name(),
            rs2.abi_name()
        ),
        Inst::WaitI { cycles } => write!(f, "{m} {cycles}"),
        Inst::WaitR { rs1 } => write!(f, "{m} {}", rs1.abi_name()),
        Inst::Cw { port, codeword } => {
            write!(f, "{m} ")?;
            write_cw_operand(f, port)?;
            f.write_str(", ")?;
            write_cw_operand(f, codeword)
        }
        Inst::Sync { target, horizon } if horizon == Reg::X0 => write!(f, "{m} {target}"),
        Inst::Sync { target, horizon } => write!(f, "{m} {target}, {}", horizon.abi_name()),
        Inst::Send { target, rs1 } => write!(f, "{m} {target}, {}", rs1.abi_name()),
        Inst::Recv { rd, source } => write!(f, "{m} {}, {source}", rd.abi_name()),
        Inst::Stop => f.write_str(m),
    }
}

fn write_cw_operand(f: &mut fmt::Formatter<'_>, operand: CwOperand) -> fmt::Result {
    match operand {
        CwOperand::Imm(v) => write!(f, "{v}"),
        CwOperand::Reg(r) => f.write_str(r.abi_name()),
    }
}

/// An append-mostly typed instruction stream for one controller.
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    listing: Listing,
    /// Index into the lines where a hoisted `sync` may be inserted.
    hoist_point: usize,
    /// Deterministic grid cycles accumulated since the hoist point.
    det_cycles: u64,
}

impl StreamBuilder {
    /// Creates an empty stream for controller `addr`.
    pub fn new(addr: NodeAddr) -> StreamBuilder {
        StreamBuilder {
            listing: Listing {
                addr,
                lines: Vec::new(),
                labels: Vec::new(),
            },
            hoist_point: 0,
            det_cycles: 0,
        }
    }

    /// The owning controller's address.
    pub fn addr(&self) -> NodeAddr {
        self.listing.addr
    }

    /// Deterministic cycles accumulated since the last blocker.
    pub fn det_cycles(&self) -> u64 {
        self.det_cycles
    }

    fn push(&mut self, line: Line) {
        self.listing.lines.push(line);
    }

    /// Appends a machine instruction. Grid advances go through
    /// [`StreamBuilder::wait`], which keeps the booking-advance
    /// bookkeeping.
    pub fn inst(&mut self, inst: Inst) {
        self.push(Line::Inst(inst));
    }

    /// Appends the register-register ALU operation `rd = rs1 op rs2`
    /// (`add`, `xor`, …).
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.inst(Inst::Op { op, rd, rs1, rs2 });
    }

    /// Appends the register-immediate ALU operation `rd = rs1 op imm`
    /// (`addi`, `andi`, `slli`, …).
    pub fn alu_imm(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i32) {
        self.inst(Inst::OpImm { op, rd, rs1, imm });
    }

    /// Appends `li rd, imm`: one instruction, or two (`lui` + `addi`)
    /// when `imm` does not fit a 12-bit signed immediate.
    pub fn li(&mut self, rd: Reg, imm: u32) {
        self.push(Line::Li { rd, imm });
    }

    /// Appends `mv rd, rs`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.push(Line::Mv { rd, rs });
    }

    /// Appends `beqz rs, target`.
    pub fn beqz(&mut self, rs: Reg, target: Label) {
        self.push(Line::BranchZero {
            op: BranchOp::Eq,
            rs,
            target,
        });
    }

    /// Appends `bnez rs, target`.
    pub fn bnez(&mut self, rs: Reg, target: Label) {
        self.push(Line::BranchZero {
            op: BranchOp::Ne,
            rs,
            target,
        });
    }

    /// Appends `j target`.
    pub fn j(&mut self, target: Label) {
        self.push(Line::Jump(target));
    }

    /// Returns a fresh unique label named `.{prefix}_{addr}_{n}`.
    pub fn fresh_label(&mut self, prefix: &'static str) -> Label {
        self.listing.labels.push(prefix);
        Label(self.listing.labels.len() - 1)
    }

    /// Places a label definition at the current position.
    pub fn label(&mut self, label: Label) {
        self.push(Line::Label(label));
    }

    /// Advances the timing grid by `cycles` (splitting waits longer than
    /// [`MAX_WAITI_CYCLES`]). Zero-cycle waits emit nothing.
    pub fn wait(&mut self, mut cycles: u64) {
        self.det_cycles += cycles;
        while cycles > 0 {
            let chunk = cycles.min(u64::from(MAX_WAITI_CYCLES));
            self.inst(waiti(chunk));
            cycles -= chunk;
        }
    }

    /// Emits a codeword trigger (does not advance the grid).
    pub fn cw(&mut self, port: u32, codeword: u32) {
        self.inst(Inst::Cw {
            port: CwOperand::Imm(port),
            codeword: CwOperand::Imm(codeword),
        });
    }

    /// Emits a blocking receive into `rd`.
    ///
    /// Receives cap the hoist point: a later `sync` must not be hoisted
    /// above a message dependency, or the controller would block on the
    /// sync before satisfying it.
    pub fn recv(&mut self, rd: Reg, source: NodeAddr) {
        self.inst(Inst::Recv { rd, source });
        self.hoist_point = self.listing.lines.len();
    }

    /// Emits a send of `rs` to `target`.
    ///
    /// Sends also cap the hoist point: hoisting a blocking `sync` above
    /// a send would delay the message a remote consumer may need before
    /// *its* half of that very synchronization (deadlock). Sends take no
    /// grid time, so the accumulated deterministic cycles are kept.
    pub fn send(&mut self, target: NodeAddr, rs: Reg) {
        self.inst(Inst::Send { target, rs1: rs });
        self.hoist_point = self.listing.lines.len();
    }

    /// Inserts `sync target` exactly `cover` deterministic grid cycles
    /// before the current stream position (the optimal booking advance:
    /// booking further ahead than the countdown buys nothing and can
    /// replay overlappable work after a late partner). The hoist stops
    /// at the last blocker. Oversized `waiti` lines are split so the
    /// insertion point is exact. Returns the deterministic cycles that
    /// actually cover the countdown (`min(cover, available work)`).
    pub fn sync_covering(&mut self, target: NodeAddr, cover: u64) -> u64 {
        let lines = &mut self.listing.lines;
        let mut acc = 0u64;
        let mut pos = lines.len();
        while pos > self.hoist_point && acc < cover {
            let cycles = lines[pos - 1].cycles();
            if acc + cycles > cover {
                // Split the wait so exactly `cover` cycles follow the sync.
                let needed = cover - acc;
                lines[pos - 1] = Line::Inst(waiti(cycles - needed));
                lines.insert(pos, Line::Inst(waiti(needed)));
                acc = cover;
                break;
            }
            acc += cycles;
            pos -= 1;
        }
        lines.insert(pos, Line::Inst(sync(target, Reg::X0)));
        acc
    }

    /// Appends `sync target` at the current position (the QubiC-style
    /// placement immediately before the synchronization point; used by
    /// the no-booking-advance ablation).
    pub fn sync_here(&mut self, target: NodeAddr) {
        self.inst(sync(target, Reg::X0));
        // Everything accumulated so far is before the sync; the countdown
        // overlaps nothing.
        self.det_cycles = 0;
        self.hoist_point = self.listing.lines.len();
    }

    /// Appends a region sync against `router` booking `horizon` cycles
    /// ahead (loads the horizon into `t6` first).
    pub fn region_sync(&mut self, router: NodeAddr, horizon: u32) {
        if horizon == 0 {
            self.inst(sync(router, Reg::X0));
        } else {
            self.li(Reg::T6, horizon);
            self.inst(sync(router, Reg::T6));
        }
        self.mark_blocker();
    }

    /// Declares that the timing of everything after this point restarts
    /// from a non-deterministic event (recv, branch, synchronization
    /// point): future hoisted syncs will not cross it.
    pub fn mark_blocker(&mut self) {
        self.hoist_point = self.listing.lines.len();
        self.det_cycles = 0;
    }

    /// Appends the `stop` epilogue and resolves labels: returns the
    /// controller's program and the typed lines its listing renders
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if a branch targets a label that was never placed (a
    /// code-generation bug).
    pub fn finish(mut self) -> (Program, Listing) {
        self.inst(Inst::Stop);
        (self.listing.resolve(), self.listing)
    }
}

/// `waiti cycles`; callers keep `cycles` within [`MAX_WAITI_CYCLES`].
fn waiti(cycles: u64) -> Inst {
    Inst::WaitI {
        cycles: cycles as u32,
    }
}

fn sync(target: NodeAddr, horizon: Reg) -> Inst {
    Inst::Sync { target, horizon }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish(b: StreamBuilder) -> (String, Program) {
        let (program, listing) = b.finish();
        (listing.to_string(), program)
    }

    #[test]
    fn waits_are_split_and_merged_into_det_cycles() {
        let mut b = StreamBuilder::new(0);
        let longest = u64::from(MAX_WAITI_CYCLES);
        b.wait(longest + 10);
        assert_eq!(b.det_cycles(), longest + 10);
        b.wait(0); // no instruction
        let (source, program) = finish(b);
        assert_eq!(source.matches("waiti").count(), 2);
        assert_eq!(program.len(), 3); // two waits + stop
    }

    #[test]
    fn sync_covering_inserts_at_exact_coverage() {
        let mut b = StreamBuilder::new(1);
        b.recv(Reg::T0, 7);
        b.mark_blocker();
        b.wait(5);
        b.cw(0, 1);
        let covered = b.sync_covering(2, 5);
        assert_eq!(covered, 5);
        let (source, _) = finish(b);
        let lines: Vec<&str> = source.lines().collect();
        // sync sits right after the recv: exactly 5 deterministic cycles
        // of coverage follow it.
        assert_eq!(lines[0], "recv t0, 7");
        assert_eq!(lines[1], "sync 2");
        assert_eq!(lines[2], "waiti 5");
    }

    #[test]
    fn sync_covering_stops_at_blocker_when_short() {
        let mut b = StreamBuilder::new(1);
        b.recv(Reg::T0, 7);
        b.mark_blocker();
        b.wait(3);
        let covered = b.sync_covering(2, 10);
        assert_eq!(covered, 3, "only 3 cycles available to cover");
        let (source, _) = finish(b);
        assert_eq!(source.lines().nth(1), Some("sync 2"));
    }

    #[test]
    fn sync_covering_splits_oversized_waits() {
        let mut b = StreamBuilder::new(1);
        b.wait(75); // one long measurement wait
        let covered = b.sync_covering(2, 5);
        assert_eq!(covered, 5);
        let (source, _) = finish(b);
        let lines: Vec<&str> = source.lines().collect();
        assert_eq!(lines[0], "waiti 70");
        assert_eq!(lines[1], "sync 2");
        assert_eq!(lines[2], "waiti 5");
    }

    #[test]
    fn sync_covering_does_not_book_too_early() {
        // 30 cycles of work available, countdown only 5: the sync must
        // be placed 5 cycles before the end, not at the stream start.
        let mut b = StreamBuilder::new(1);
        b.wait(10);
        b.wait(10);
        b.wait(10);
        let covered = b.sync_covering(2, 5);
        assert_eq!(covered, 5);
        let (source, _) = finish(b);
        let lines: Vec<&str> = source.lines().collect();
        assert_eq!(lines[0], "waiti 10");
        assert_eq!(lines[1], "waiti 10");
        assert_eq!(lines[2], "waiti 5");
        assert_eq!(lines[3], "sync 2");
        assert_eq!(lines[4], "waiti 5");
    }

    #[test]
    fn sync_here_overlaps_nothing() {
        let mut b = StreamBuilder::new(1);
        b.wait(50);
        b.sync_here(2);
        assert_eq!(b.det_cycles(), 0);
        let (source, _) = finish(b);
        let lines: Vec<&str> = source.lines().collect();
        assert_eq!(lines[0], "waiti 50");
        assert_eq!(lines[1], "sync 2");
    }

    #[test]
    fn labels_are_unique_and_assemble() {
        let mut b = StreamBuilder::new(3);
        let l1 = b.fresh_label("skip");
        let l2 = b.fresh_label("skip");
        assert_ne!(l1, l2);
        b.beqz(Reg::T0, l1);
        b.cw(0, 1);
        b.label(l1);
        let (source, program) = finish(b);
        assert_eq!(program.len(), 3);
        assert_eq!(program.symbol(".skip_3_1"), Some(2));
        assert_eq!(program.symbol(".skip_3_2"), None, "never placed");
        assert!(matches!(program.insts()[0], Inst::Branch { offset: 8, .. }));
        assert!(source.starts_with("beqz t0, .skip_3_1\n"), "{source}");
        assert!(source.contains("\n.skip_3_1:\nstop\n"), "{source}");
    }

    #[test]
    fn wide_li_takes_two_slots_before_a_label() {
        let mut b = StreamBuilder::new(0);
        let end = b.fresh_label("end");
        b.li(Reg::T3, 1 << 20);
        b.j(end);
        b.li(Reg::T3, 8);
        b.label(end);
        let (source, program) = finish(b);
        // lui + addi, jal, addi, stop: the label sits at slot 4.
        assert_eq!(program.len(), 5);
        assert_eq!(program.symbol(".end_0_1"), Some(4));
        assert_eq!(
            program.insts()[2],
            Inst::Jal {
                rd: Reg::X0,
                offset: 8
            }
        );
        assert!(source.starts_with("li t3, 1048576\nj .end_0_1\nli t3, 8\n"));
    }

    #[test]
    fn region_sync_with_horizon_loads_register() {
        let mut b = StreamBuilder::new(0);
        b.region_sync(100, 30);
        let (source, _) = finish(b);
        assert!(source.contains("li t6, 30"));
        assert!(source.contains("sync 100, t6"));
    }

    #[test]
    fn listing_uses_abi_names_and_pseudo_instructions() {
        let mut b = StreamBuilder::new(0);
        b.mv(Reg::T1, Reg::T2);
        b.alu(AluOp::Xor, Reg::T1, Reg::T1, Reg::T2);
        b.alu_imm(AluOp::Srl, Reg::T3, Reg::T2, 1);
        b.inst(Inst::Store {
            op: hisq_isa::StoreOp::Word,
            rs1: Reg::T3,
            rs2: Reg::T4,
            offset: 0,
        });
        b.send(9, Reg::T5);
        let (source, _) = finish(b);
        assert_eq!(
            source,
            "mv t1, t2\nxor t1, t1, t2\nsrli t3, t2, 1\nsw t4, 0(t3)\nsend 9, t5\nstop\n"
        );
    }
}
