//! Repeat-until-success (§2.1.2): the paper's argument against the
//! time-reserving lock-step flavour is that it "cannot support
//! repeat-until-success circuits with non-deterministic number of
//! feedback loops". Distributed-HISQ handles them natively: a
//! controller loops measure→branch until success while its *partner*
//! re-synchronizes on demand each round, with no compile-time bound on
//! the loop count.

use distributed_hisq::core::{NodeConfig, MEAS_FIFO_ADDR};
use distributed_hisq::isa::{Assembler, Reg};
use distributed_hisq::sim::{FixedBackend, QuantumAction, System, SystemSpec};

/// Builds the two-controller RUS system: controller 0 retries a
/// heralded preparation until the measurement reads 1, then fires the
/// synchronized gate with controller 1; controller 1 syncs once.
fn rus_system(outcomes: Vec<bool>) -> System {
    let rus = format!(
        "
        li t1, 0              # attempt counter
    retry:
        addi t1, t1, 1
        cw.i.i 4, 1           # heralded preparation + measurement
        waiti 75
        recv t0, {meas}
        beqz t0, retry        # failure herald: try again
        sync 1                # success: align with the partner
        waiti 6
        cw.i.i 0, 9           # the synchronized operation
        stop
        ",
        meas = MEAS_FIFO_ADDR
    );
    let partner = "
        sync 0
        waiti 6
        cw.i.i 0, 9
        stop
    ";
    let mut spec = SystemSpec::new();
    spec.controller(
        NodeConfig::new(0).with_neighbor(1, 6),
        Assembler::new().assemble(&rus).unwrap().insts().to_vec(),
    );
    spec.controller(
        NodeConfig::new(1).with_neighbor(0, 6),
        Assembler::new().assemble(partner).unwrap().insts().to_vec(),
    );
    spec.bind(0, 4, 1, QuantumAction::Measure { qubit: 0 });
    let mut system = spec.build().expect("builds");
    let mut backend = FixedBackend::new(true);
    backend.script(0, outcomes);
    system.set_backend(backend);
    system
}

#[test]
fn rus_loops_until_the_herald_succeeds() {
    for failures in [0usize, 1, 2, 5, 11] {
        let mut outcomes = vec![false; failures];
        outcomes.push(true);
        let mut system = rus_system(outcomes);
        let report = system.run().expect("runs");
        assert!(
            report.all_halted,
            "failures={failures}: {:?}",
            report.blocked
        );

        // The attempt counter must reflect the non-deterministic loop
        // count — unknowable at compile time.
        let attempts = system.controller(0).unwrap().reg(Reg::parse("t1").unwrap());
        assert_eq!(attempts as usize, failures + 1);

        // And the synchronized operations still align at cycle level.
        let telf = system.telf();
        let c0 = telf.channel(0, 0)[0].cycle;
        let c1 = telf.channel(1, 0)[0].cycle;
        assert_eq!(c0, c1, "failures={failures}: RUS success gate aligned");

        // More failures → later success, monotonically.
        if failures > 0 {
            assert!(
                c0 > (failures as u64) * 75,
                "each retry costs at least a measurement window"
            );
        }
    }
}

#[test]
fn rus_runtime_scales_with_attempt_count() {
    let run = |failures: usize| -> u64 {
        let mut outcomes = vec![false; failures];
        outcomes.push(true);
        let mut system = rus_system(outcomes);
        let report = system.run().expect("runs");
        assert!(report.all_halted);
        report.makespan_cycles
    };
    let one = run(0);
    let four = run(3);
    let eight = run(7);
    assert!(one < four && four < eight, "runtime grows with retries");
    // Each extra retry costs roughly one measurement round (75 cycles +
    // overheads); check linear growth within a tolerant band.
    let per_retry = (eight - four) as f64 / 4.0;
    assert!(
        (75.0..300.0).contains(&per_retry),
        "per-retry cost {per_retry} cycles"
    );
}
