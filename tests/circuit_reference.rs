//! The circuit is the reference: a BISP run commits, on every qubit,
//! exactly the operations its circuit selects under the same
//! measurement outcomes.
//!
//! Each case builds the scenario's system with `runner::scenario_system`,
//! installs a `FixedBackend` scripted per qubit, runs it, and compares
//! `System::quantum_ops_by_qubit` with
//! `testing::circuit_ops_by_qubit` under the same script. The cases
//! cover every quick-suite instance plus `qft_n30` and `w_state_n800`,
//! at 1 and 3 shots, with every outcome 0, every outcome 1, and a script
//! that mixes both across qubits and shots.
//!
//! Lock-step is not covered: its feedback latches the wrong broadcasts
//! and, after the first shot, none (with every outcome 1 it applies
//! 2,724 of the 3,076 one-qubit gates `qft_n30` asks for).

use distributed_hisq::compiler::Scheme;
use distributed_hisq::runner::{scenario_system, Scenario};
use distributed_hisq::sim::FixedBackend;
use distributed_hisq::testing::circuit_ops_by_qubit;
use distributed_hisq::workloads::{WorkloadSpec, QUICK_SUITE};

/// An outcome script: the result of qubit `q`'s `k`-th measurement in
/// the run.
type Script = fn(usize, usize) -> bool;

const SCRIPTS: [(&str, Script); 3] = [
    ("every outcome 0", |_, _| false),
    ("every outcome 1", |_, _| true),
    ("mixed outcomes", |q, k| (q ^ k) & 1 == 1),
];

#[test]
fn bisp_runs_commit_what_their_circuit_selects() {
    let names = QUICK_SUITE.iter().chain(&["qft_n30", "w_state_n800"]);
    for name in names {
        let workload = WorkloadSpec::suite(*name);
        let circuit = workload.build().expect("suite instance").circuit;
        for shots in [1, 3] {
            let scenario = Scenario::new(workload.clone(), Scheme::Bisp).with_shots(shots);
            let id = scenario.id();
            for (script, outcome) in SCRIPTS {
                let expected = circuit_ops_by_qubit(&circuit, shots, outcome);
                let mut backend = FixedBackend::new(false);
                for (q, ops) in expected.iter().enumerate() {
                    backend.script(q, (0..ops.measurements as usize).map(|k| outcome(q, k)));
                }
                let mut system = scenario_system(&scenario).expect("suite instances compile");
                system.set_backend(backend);
                let report = system.run().expect("suite instances run");
                assert!(report.all_halted, "{id} under {script}: halts");

                let actual = system.quantum_ops_by_qubit();
                let qubits = expected.len().max(actual.len());
                if let Some(q) = (0..qubits).find(|&q| expected.get(q) != actual.get(q)) {
                    panic!(
                        "{id} under {script}: qubit {q} committed {:?}, its circuit selects {:?}",
                        actual.get(q),
                        expected.get(q)
                    );
                }
            }
        }
    }
}
