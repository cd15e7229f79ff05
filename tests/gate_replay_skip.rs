//! A backend that reads no gates (`QuantumBackend::reads_gates` is
//! `false`) gets no gate replay, and that changes nothing a run
//! reports. Each scenario runs twice through `runner::scenario_system`:
//! once on the runner's own backend, and once with the same backend
//! behind [`Forward`], which keeps the default `reads_gates() == true`
//! and so receives every committed gate and reset in commit-cycle
//! order. The report, the TELF trace, the exposure ledger and the
//! per-qubit op counts must agree.
//!
//! The control row uses a leak rate above zero: the leaky backend then
//! reads gates itself, and hiding the gates from it (the [`Blind`]
//! wrapper) changes some scenario's outcome, so these comparisons can
//! see a replay that should not have been skipped.

use distributed_hisq::compiler::Scheme;
use distributed_hisq::quantum::{Gate, NoiseModel, OpCounts};
use distributed_hisq::runner::{effective_maps, scenario_system, Scenario};
use distributed_hisq::sim::{
    LeakyRandomBackend, QuantumBackend, RandomBackend, SimReport, System, TelfRecord,
};
use distributed_hisq::workloads::{WorkloadSpec, QUICK_SUITE};

/// Forwards every call and keeps the default `reads_gates()`.
struct Forward<B>(B);

impl<B: QuantumBackend> QuantumBackend for Forward<B> {
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.0.apply_gate(gate, qubits);
    }

    fn measure(&mut self, qubit: usize) -> bool {
        self.0.measure(qubit)
    }

    fn reset(&mut self, qubit: usize) {
        self.0.reset(qubit);
    }
}

/// Forwards every call but claims to read no gates, so the engine
/// replays none into it.
struct Blind<B>(B);

impl<B: QuantumBackend> QuantumBackend for Blind<B> {
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.0.apply_gate(gate, qubits);
    }

    fn measure(&mut self, qubit: usize) -> bool {
        self.0.measure(qubit)
    }

    fn reset(&mut self, qubit: usize) {
        self.0.reset(qubit);
    }

    fn reads_gates(&self) -> bool {
        false
    }
}

/// Everything a run leaves behind that the comparison covers.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: SimReport,
    telf: Vec<TelfRecord>,
    exposures_ns: Vec<(usize, u64)>,
    ops_by_qubit: Vec<OpCounts>,
}

fn outcome(mut system: System) -> Outcome {
    let report = system.run().expect("quick instances run");
    assert!(report.all_halted, "quick instances halt");
    Outcome {
        report,
        telf: system.telf().records().to_vec(),
        exposures_ns: system.exposure().exposures_ns().collect(),
        ops_by_qubit: system.quantum_ops_by_qubit().to_vec(),
    }
}

/// Quick-suite instances × both schemes × seeds 1–3, with `noise` as
/// every scenario's default noise model.
fn scenarios(noise: NoiseModel) -> Vec<Scenario> {
    let mut out = Vec::new();
    for name in QUICK_SUITE {
        for scheme in [Scheme::Bisp, Scheme::Lockstep] {
            for seed in 1..=3 {
                let mut scenario =
                    Scenario::new(WorkloadSpec::suite(*name), scheme).with_seed(seed);
                scenario.params.noise = noise;
                out.push(scenario);
            }
        }
    }
    out
}

/// The backend `runner::instantiate` installs for `scenario`.
fn runner_backend(scenario: &Scenario) -> LeakyRandomBackend {
    let (_, noise) = effective_maps(scenario);
    LeakyRandomBackend::new(scenario.seed, 0.5, noise)
}

fn build(scenario: &Scenario) -> System {
    scenario_system(scenario).expect("quick instances compile")
}

#[test]
fn random_backend_skips_the_replay_without_changing_a_run() {
    for scenario in scenarios(NoiseModel::default()) {
        let id = scenario.id();
        let plain = build(&scenario);
        assert!(!plain.backend().reads_gates(), "{id}: random backend");
        let plain = outcome(plain);

        let mut wrapped = build(&scenario);
        wrapped.set_backend(Forward(RandomBackend::new(scenario.seed, 0.5)));
        let wrapped = outcome(wrapped);

        assert_eq!(plain, wrapped, "{id}");
        assert_eq!(plain.report.causality_warnings, 0, "{id}");
    }
}

#[test]
fn leak_free_leaky_backend_skips_the_replay_without_changing_a_run() {
    let noise = NoiseModel::default()
        .with_gate_errors(1e-3, 1e-2)
        .with_meas_error(1e-2)
        .with_idle_error(1e-6);
    for scenario in scenarios(noise) {
        let id = scenario.id();
        let plain = build(&scenario);
        assert!(!plain.backend().reads_gates(), "{id}: p_leak = 0");
        let plain = outcome(plain);

        let mut wrapped = build(&scenario);
        wrapped.set_backend(Forward(runner_backend(&scenario)));
        let wrapped = outcome(wrapped);

        assert_eq!(plain, wrapped, "{id}");
        assert_eq!(plain.report.causality_warnings, 0, "{id}");
    }
}

#[test]
fn leaking_backend_still_replays() {
    let noise = NoiseModel::default().with_leak(0.05);
    let mut visible = 0;
    for scenario in scenarios(noise) {
        let id = scenario.id();
        let plain = build(&scenario);
        assert!(plain.backend().reads_gates(), "{id}: p_leak > 0");
        let plain = outcome(plain);

        let mut wrapped = build(&scenario);
        wrapped.set_backend(Forward(runner_backend(&scenario)));
        assert_eq!(plain, outcome(wrapped), "{id}");

        let mut blind = build(&scenario);
        blind.set_backend(Blind(runner_backend(&scenario)));
        if outcome(blind) != plain {
            visible += 1;
        }
    }
    assert!(
        visible > 0,
        "hiding the gates from a leaking backend never changed a run"
    );
}
