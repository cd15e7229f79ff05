//! The Distributed-HISQ code generator.
//!
//! Each controller receives its **own** instruction stream; controllers
//! run asynchronously and re-align only where physics demands it:
//!
//! - two-qubit gates emit a pair of nearby `sync` instructions with the
//!   **booking advance** (§4.2): the `sync` is hoisted to just after the
//!   controller's last non-deterministic point, so the calibrated
//!   countdown overlaps the deterministic work in between, and both
//!   sides pad to a common offset `δ = max(D_a, D_b, N)` so the triggers
//!   commit at the same cycle with zero overhead whenever the
//!   deterministic work covers the link latency;
//! - measurement results travel **directly** from producer to consumer
//!   (`send`/`recv`), so independent feedback operations execute
//!   simultaneously;
//! - program repetitions open with a region-level `sync` against the
//!   root router.

use std::collections::BTreeMap;

use hisq_core::{NodeAddr, MEAS_FIFO_ADDR};
use hisq_isa::{AluOp, Reg};
use hisq_net::Topology;
use hisq_quantum::{Circuit, Condition, Operation};

use crate::codewords::{CodewordTable, PORT_GATE, PORT_READOUT};
use crate::emit::{Label, StreamBuilder};
use crate::{CompileError, CompileStats, CompiledSystem, CycleDurations, Scheme};

/// Options for the BISP backend.
#[derive(Debug, Clone)]
pub struct BispOptions {
    /// Hoist `sync` instructions ahead of deterministic work (the core
    /// BISP optimization). Disabling reproduces the QubiC-2.0-style
    /// placement immediately before the synchronization point.
    pub booking_advance: bool,
    /// Number of program repetitions, each unrolled into the program;
    /// with more than one, each opens with a region-level
    /// synchronization (§2.1.4).
    pub shots: u32,
    /// Operation durations in TCU cycles.
    pub durations: CycleDurations,
}

impl Default for BispOptions {
    fn default() -> BispOptions {
        BispOptions {
            booking_advance: true,
            shots: 1,
            durations: CycleDurations::PAPER,
        }
    }
}

/// Producer/consumer wiring derived from the dynamic circuit: which
/// controller produces each condition bit, and who must receive each
/// measurement result.
#[derive(Debug, Default)]
struct Wiring {
    /// measurement instruction index → consumer controllers (one entry
    /// per consuming conditional instruction, in circuit order).
    consumers: BTreeMap<usize, Vec<NodeAddr>>,
    /// conditional instruction index → producer controller per condition
    /// bit, in condition-bit order.
    producers: BTreeMap<usize, Vec<NodeAddr>>,
}

fn wire(circuit: &Circuit) -> Result<Wiring, CompileError> {
    let mut wiring = Wiring::default();
    // clbit → (producing instruction index, producing controller).
    let mut last_writer: BTreeMap<usize, (usize, NodeAddr)> = BTreeMap::new();
    for (idx, instruction) in circuit.instructions().iter().enumerate() {
        if let Some(condition) = &instruction.condition {
            let qubits = instruction.qubits();
            if qubits.len() != 1 {
                return Err(CompileError::UnsupportedConditional { index: idx });
            }
            let consumer = qubits[0] as NodeAddr;
            let mut producers = Vec::new();
            for clbit in condition.clbits() {
                let &(measure_idx, producer) = last_writer
                    .get(&clbit)
                    .ok_or(CompileError::ConditionBeforeMeasurement { index: idx, clbit })?;
                wiring
                    .consumers
                    .entry(measure_idx)
                    .or_default()
                    .push(consumer);
                producers.push(producer);
            }
            wiring.producers.insert(idx, producers);
        }
        if let Operation::Measure { qubit, clbit } = instruction.op {
            last_writer.insert(clbit, (idx, qubit as NodeAddr));
        }
    }
    Ok(wiring)
}

/// Compiles a dynamic circuit for Distributed-HISQ execution on
/// `topology` (qubit `i` is controlled by controller `i`).
///
/// # Errors
///
/// Returns [`CompileError`] when the circuit does not fit the topology,
/// the topology's highest address is not below [`MEAS_FIFO_ADDR`], a
/// two-qubit gate spans non-adjacent controllers, or a condition guards
/// a multi-qubit operation.
pub fn compile_bisp(
    circuit: &Circuit,
    topology: &Topology,
    options: &BispOptions,
) -> Result<CompiledSystem, CompileError> {
    let n = circuit.num_qubits();
    if n > topology.num_controllers() {
        return Err(CompileError::TooManyQubits {
            qubits: n,
            controllers: topology.num_controllers(),
        });
    }
    let root = topology.root_router().ok_or(CompileError::NoRootRouter)?;
    // Routers are numbered after the controllers, root last, so the
    // root holds the topology's highest address.
    if root >= MEAS_FIFO_ADDR {
        return Err(CompileError::AddrOutOfRange {
            node: "root router",
            addr: usize::from(root),
            limit: MEAS_FIFO_ADDR,
        });
    }
    let wiring = wire(circuit)?;

    let mut builders: BTreeMap<NodeAddr, StreamBuilder> = (0..topology.num_controllers() as u16)
        .map(|addr| (addr, StreamBuilder::new(addr)))
        .collect();
    let mut table = CodewordTable::new();
    let mut stats = CompileStats::default();

    let shots = options.shots.max(1);
    for _ in 0..shots {
        if shots > 1 {
            for builder in builders.values_mut() {
                builder.region_sync(root, 0);
                stats.region_syncs += 1;
            }
        }
        emit_body(
            circuit,
            topology,
            options,
            &wiring,
            &mut builders,
            &mut table,
            &mut stats,
        )?;
    }

    let mut programs = BTreeMap::new();
    let mut listings = BTreeMap::new();
    for (addr, builder) in builders {
        let (program, listing) = builder.finish();
        stats.instructions += program.len() as u64;
        programs.insert(addr, program);
        listings.insert(addr, listing);
    }

    Ok(CompiledSystem {
        scheme: Scheme::Bisp,
        programs,
        listings,
        bindings: table.into_bindings(),
        num_qubits: n,
        hub: None,
        stats,
    })
}

#[allow(clippy::too_many_arguments)]
fn emit_body(
    circuit: &Circuit,
    topology: &Topology,
    options: &BispOptions,
    wiring: &Wiring,
    builders: &mut BTreeMap<NodeAddr, StreamBuilder>,
    table: &mut CodewordTable,
    stats: &mut CompileStats,
) -> Result<(), CompileError> {
    let d = options.durations;
    let root = topology.root_router().expect("checked by caller");

    for (idx, instruction) in circuit.instructions().iter().enumerate() {
        match (&instruction.op, &instruction.condition) {
            (Operation::Gate { gate, qubits }, None) if qubits.len() == 1 => {
                let addr = qubits[0] as NodeAddr;
                let cw = table.gate(addr, *gate, qubits);
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.cw(PORT_GATE, cw);
                builder.wait(d.single);
            }
            (Operation::Gate { gate, qubits }, None) => {
                let a = qubits[0] as NodeAddr;
                let b = qubits[1] as NodeAddr;
                if !topology.mesh_neighbors(a).contains(&b) {
                    return Err(CompileError::NonAdjacentGate {
                        index: idx,
                        qubits: (qubits[0], qubits[1]),
                    });
                }
                let n_link = topology.neighbor_latency();
                let cw_a = table.gate(a, *gate, qubits);
                let cw_b = table.pulse(b);
                if options.booking_advance {
                    // Optimal booking: each side books exactly N cycles
                    // (the calibrated countdown) ahead of the trigger, so
                    // any pre-existing deterministic work covers the
                    // communication latency and both triggers pad to the
                    // common offset N → commit at max(B_a, B_b) + N with
                    // zero overhead whenever coverage is full (§4.4).
                    for (addr, peer, cw) in [(a, b, cw_a), (b, a, cw_b)] {
                        let builder = builders.get_mut(&addr).expect("controller exists");
                        let covered = builder.sync_covering(peer, n_link);
                        builder.wait(n_link - covered);
                        builder.cw(PORT_GATE, cw);
                        builder.mark_blocker();
                        builder.wait(d.two_qubit);
                    }
                } else {
                    for (addr, peer, cw) in [(a, b, cw_a), (b, a, cw_b)] {
                        let builder = builders.get_mut(&addr).expect("controller exists");
                        builder.sync_here(peer);
                        builder.wait(n_link);
                        builder.cw(PORT_GATE, cw);
                        builder.mark_blocker();
                        builder.wait(d.two_qubit);
                    }
                }
                stats.nearby_syncs += 2;
            }
            (Operation::Gate { gate, qubits }, Some(condition)) => {
                if qubits.len() != 1 {
                    return Err(CompileError::UnsupportedConditional { index: idx });
                }
                let addr = qubits[0] as NodeAddr;
                let cw = table.gate(addr, *gate, qubits);
                let builder = builders.get_mut(&addr).expect("controller exists");
                let skip = open_feedback(builder, &wiring.producers[&idx], condition, stats);
                builder.cw(PORT_GATE, cw);
                builder.wait(d.gate_cycles(*gate));
                close_feedback(builder, skip, stats);
            }
            (Operation::Measure { qubit, clbit: _ }, None) => {
                let addr = *qubit as NodeAddr;
                let cw = table.measure(addr, *qubit);
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.cw(PORT_READOUT, cw);
                builder.wait(d.measurement);
                builder.recv(Reg::T0, MEAS_FIFO_ADDR);
                builder.mark_blocker();
                if let Some(consumers) = wiring.consumers.get(&idx) {
                    for &consumer in consumers {
                        builder.send(consumer, Reg::T0);
                        stats.sends += 1;
                    }
                }
            }
            (Operation::Reset { qubit }, None) => {
                let addr = *qubit as NodeAddr;
                let cw = table.reset(addr, *qubit);
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.cw(PORT_GATE, cw);
                builder.wait(d.reset);
            }
            (Operation::Delay { qubit, duration_ns }, None) => {
                let addr = *qubit as NodeAddr;
                let builder = builders.get_mut(&addr).expect("controller exists");
                builder.wait(duration_ns.div_ceil(hisq_isa::CYCLE_NS));
            }
            (Operation::Barrier { .. }, None) => {
                for builder in builders.values_mut() {
                    builder.region_sync(root, 0);
                    stats.region_syncs += 1;
                }
            }
            (Operation::Delay { qubit, duration_ns }, Some(condition)) => {
                // A conditioned idle (e.g. the multi-round logical-S
                // sub-circuit duration in the QEC benchmarks).
                let addr = *qubit as NodeAddr;
                let builder = builders.get_mut(&addr).expect("controller exists");
                let skip = open_feedback(builder, &wiring.producers[&idx], condition, stats);
                builder.wait(duration_ns.div_ceil(hisq_isa::CYCLE_NS));
                close_feedback(builder, skip, stats);
            }
            (_, Some(_)) => {
                return Err(CompileError::UnsupportedConditional { index: idx });
            }
        }
    }
    Ok(())
}

/// Opens a feedback operation: receives every condition bit from its
/// producer, folds them into the parity in `t1`, and branches to the
/// returned label (placed by [`close_feedback`]) when the parity does
/// not match the condition's value.
fn open_feedback(
    builder: &mut StreamBuilder,
    producers: &[NodeAddr],
    condition: &Condition,
    stats: &mut CompileStats,
) -> Label {
    for (i, &producer) in producers.iter().enumerate() {
        builder.recv(Reg::T2, producer);
        if i == 0 {
            builder.mv(Reg::T1, Reg::T2);
        } else {
            builder.alu(AluOp::Xor, Reg::T1, Reg::T1, Reg::T2);
        }
        stats.recvs += 1;
    }
    let skip = builder.fresh_label("skip");
    let (Condition::Bit { value, .. } | Condition::Parity { value, .. }) = condition;
    if *value {
        builder.beqz(Reg::T1, skip);
    } else {
        builder.bnez(Reg::T1, skip);
    }
    skip
}

/// Closes a feedback operation opened by [`open_feedback`]: places the
/// skip label and restarts the deterministic timeline after it.
fn close_feedback(builder: &mut StreamBuilder, skip: Label, stats: &mut CompileStats) {
    builder.label(skip);
    builder.mark_blocker();
    stats.feedbacks += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_net::TopologyBuilder;

    fn linear_topology(n: usize) -> Topology {
        TopologyBuilder::linear(n)
            .neighbor_latency(5)
            .router_arity(4)
            .build()
    }

    #[test]
    fn rejects_oversized_circuits() {
        let topo = linear_topology(2);
        let circuit = Circuit::new(5, 1);
        let err = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::TooManyQubits { .. }));
    }

    #[test]
    fn rejects_non_adjacent_two_qubit_gates() {
        let topo = linear_topology(4);
        let mut circuit = Circuit::new(4, 1);
        circuit.cx(0, 3);
        let err = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::NonAdjacentGate { .. }));
    }

    #[test]
    fn two_qubit_gate_emits_paired_syncs() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.h(0);
        circuit.cz(0, 1);
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        assert_eq!(compiled.stats.nearby_syncs, 2);
        let src0 = compiled.listing(0).unwrap();
        let src1 = compiled.listing(1).unwrap();
        assert!(src0.contains("sync 1"), "{src0}");
        assert!(src1.contains("sync 0"), "{src1}");
        // The H's 5-cycle duration on controller 0 is deterministic work
        // the booking overlaps: the sync is hoisted above that wait,
        // before the CZ trigger.
        let sync_pos = src0.find("sync 1").unwrap();
        let cz_pos = src0.rfind("cw.i.i").unwrap();
        assert!(sync_pos < cz_pos, "sync precedes the CZ trigger:\n{src0}");
        let wait_pos = src0.find("waiti 5").unwrap();
        assert!(
            sync_pos < wait_pos,
            "booking advance overlaps the H duration:\n{src0}"
        );
    }

    #[test]
    fn no_booking_advance_places_sync_late() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.h(0);
        circuit.cz(0, 1);
        let options = BispOptions {
            booking_advance: false,
            ..BispOptions::default()
        };
        let compiled = compile_bisp(&circuit, &topo, &options).unwrap();
        let src0 = compiled.listing(0).unwrap();
        let sync_pos = src0.find("sync 1").unwrap();
        let h_pos = src0.find("cw.i.i").unwrap();
        assert!(
            h_pos < sync_pos,
            "sync placed immediately before the point:\n{src0}"
        );
    }

    #[test]
    fn measurement_wires_producer_to_consumer() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.measure(0, 0);
        circuit.x_if(1, Condition::bit(0, true));
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        assert_eq!(compiled.stats.sends, 1);
        assert_eq!(compiled.stats.recvs, 1);
        assert_eq!(compiled.stats.feedbacks, 1);
        assert!(compiled.listing(0).unwrap().contains("recv t0, 4095"));
        assert!(compiled.listing(0).unwrap().contains("send 1, t0"));
        assert!(compiled.listing(1).unwrap().contains("recv t2, 0"));
        assert!(compiled.listing(1).unwrap().contains("beqz t1"));
    }

    #[test]
    fn parity_condition_receives_all_bits() {
        let topo = linear_topology(3);
        let mut circuit = Circuit::new(3, 2);
        circuit.measure(0, 0);
        circuit.measure(1, 1);
        circuit.x_if(2, Condition::parity(vec![0, 1], false));
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        let src2 = compiled.listing(2).unwrap();
        assert!(src2.contains("recv t2, 0"));
        assert!(src2.contains("recv t2, 1"));
        assert!(src2.contains("xor t1, t1, t2"));
        assert!(src2.contains("bnez t1"), "value=false skips on parity 1");
    }

    #[test]
    fn condition_before_measurement_is_an_error() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.x_if(1, Condition::bit(0, true));
        let err = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CompileError::ConditionBeforeMeasurement { clbit: 0, .. }
        ));
    }

    #[test]
    fn shots_prepend_region_syncs() {
        let topo = linear_topology(2);
        let mut circuit = Circuit::new(2, 1);
        circuit.h(0);
        let options = BispOptions {
            shots: 3,
            ..BispOptions::default()
        };
        let compiled = compile_bisp(&circuit, &topo, &options).unwrap();
        let root = topo.root_router().unwrap();
        let src = compiled.listing(0).unwrap();
        assert_eq!(src.matches(&format!("sync {root}")).count(), 3);
        assert_eq!(compiled.stats.region_syncs, 6); // 2 controllers × 3
    }

    #[test]
    fn all_generated_sources_assemble() {
        let topo = linear_topology(3);
        let mut circuit = Circuit::new(3, 2);
        circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        circuit.x_if(2, Condition::parity(vec![0, 1], true));
        circuit.reset(0);
        circuit.delay(2, 1000);
        let compiled = compile_bisp(&circuit, &topo, &BispOptions::default()).unwrap();
        for (&addr, program) in &compiled.programs {
            assert!(!program.is_empty(), "controller {addr} has a program");
            let listing = compiled.listing(addr).unwrap();
            let assembled = hisq_isa::Assembler::new().assemble(&listing).unwrap();
            assert_eq!(&assembled, program, "controller {addr}:\n{listing}");
        }
        assert!(compiled.stats.instructions > 0);
    }
}
