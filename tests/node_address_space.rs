//! The ISA's 12-bit node field is the one address contract. Both
//! compilers refuse a system with a node at or above
//! [`MEAS_FIFO_ADDR`] (0xFFF, the measurement FIFO's lane) before
//! they emit anything, with a typed error that names the address and
//! the limit. The largest shapes that fit compile and build.

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, BispOptions, CompileError, LockstepOptions,
};
use distributed_hisq::core::MEAS_FIFO_ADDR;
use distributed_hisq::quantum::Circuit;
use distributed_hisq::runner::build_system;
use distributed_hisq::workloads::simultaneous_long_range_cnots;
use hisq_net::{Topology, TopologyBuilder};

/// `parallel` simultaneous span-7 long-range CNOTs on the linear mesh
/// (arity-4 router tree) a scenario file would compile them for.
fn span7(parallel: usize) -> (Circuit, Topology) {
    let (circuit, _) = simultaneous_long_range_cnots(parallel, 7);
    let topology = TopologyBuilder::linear(circuit.num_qubits()).build();
    (circuit, topology)
}

#[test]
fn bisp_compiles_up_to_a_root_router_just_below_the_fifo() {
    let (circuit, topology) = span7(192);
    assert_eq!(circuit.num_qubits(), 3071);
    assert_eq!(topology.root_router(), Some(MEAS_FIFO_ADDR - 1));
    let compiled = compile_bisp(&circuit, &topology, &BispOptions::default())
        .expect("a root router at 4094 compiles");
    assert!(build_system(&compiled, Some(&topology)).is_ok());
}

#[test]
fn bisp_rejects_a_root_router_past_the_fifo() {
    let (circuit, topology) = span7(193);
    let err = compile_bisp(&circuit, &topology, &BispOptions::default()).unwrap_err();
    assert_eq!(
        err,
        CompileError::AddrOutOfRange {
            node: "root router",
            addr: 4118,
            limit: 4095
        }
    );
    let message = err.to_string();
    assert!(
        message.contains("root router address 4118") && message.contains("limit of 4095"),
        "{message}"
    );
}

#[test]
fn lockstep_rejects_a_hub_at_the_fifo() {
    let (circuit, _) = span7(256);
    assert_eq!(circuit.num_qubits(), 4095);
    let err = compile_lockstep(&circuit, &LockstepOptions::default()).unwrap_err();
    assert_eq!(
        err,
        CompileError::AddrOutOfRange {
            node: "hub",
            addr: 4095,
            limit: 4095
        }
    );
    assert!(err.to_string().contains("hub address 4095"), "{err}");
}
