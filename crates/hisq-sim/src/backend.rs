//! Pluggable quantum backends supplying measurement outcomes to the
//! simulated control system.
//!
//! Timing experiments (Figure 15/16) need only a *distribution* of
//! feedback branches, so they use [`RandomBackend`] or [`FixedBackend`].
//! Correctness verification replays every committed gate into a real
//! simulator ([`StabilizerBackend`] or [`StateVectorBackend`]) so that
//! measurement results are quantum-mechanically consistent. A backend
//! whose outcomes no gate can change says so through
//! [`QuantumBackend::reads_gates`], and the engine then replays nothing
//! into it.
//!
//! The noise-aware variants extend both families with a declarative
//! per-qubit [`NoiseMap`]: [`NoisyStabilizerBackend`] samples Pauli
//! channels
//! after each Clifford gate and flips readouts, and
//! [`LeakyRandomBackend`] adds sticky leakage to the statistical
//! backend. Both draw from a seeded counter-based
//! [`NoiseStream`], and a rate of exactly zero consumes no draws — so
//! with `NoiseModel::default()` each variant is byte-identical to its
//! noiseless twin (proptest-pinned in `tests/noise_backends.rs`).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hisq_quantum::{Gate, NoiseMap, NoiseStream, Stabilizer, StateVector};

/// A source of measurement outcomes that optionally tracks gates.
pub trait QuantumBackend {
    /// Applies a committed gate (no-op for statistical backends).
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]);

    /// Measures `qubit` in the Z basis, collapsing backend state if any.
    fn measure(&mut self, qubit: usize) -> bool;

    /// Resets `qubit` to |0⟩ (no-op for statistical backends).
    fn reset(&mut self, qubit: usize);

    /// `false` when no sequence of [`apply_gate`](Self::apply_gate) and
    /// [`reset`](Self::reset) calls can change what
    /// [`measure`](Self::measure) returns, so the engine may skip
    /// replaying committed gates into this backend.
    ///
    /// [`System::run`](crate::System::run) reads it once, when the run
    /// starts. Under a backend that reads no gates the engine still
    /// records exposure spans and operation counts, but buffers and
    /// replays nothing, so [`SimReport::causality_warnings`] stays 0.
    /// The default is `true`: a backend that tracks state gets every
    /// gate in commit-cycle order.
    ///
    /// [`SimReport::causality_warnings`]: crate::SimReport::causality_warnings
    fn reads_gates(&self) -> bool {
        true
    }
}

/// Statistically independent outcomes with probability `p_one` of 1.
///
/// # Example
///
/// ```
/// use hisq_sim::{QuantumBackend, RandomBackend};
///
/// let mut backend = RandomBackend::new(7, 0.5);
/// let _bit = backend.measure(3);
/// ```
#[derive(Debug, Clone)]
pub struct RandomBackend {
    rng: StdRng,
    p_one: f64,
}

impl RandomBackend {
    /// Creates a seeded random backend.
    pub fn new(seed: u64, p_one: f64) -> RandomBackend {
        RandomBackend {
            rng: StdRng::seed_from_u64(seed),
            p_one: p_one.clamp(0.0, 1.0),
        }
    }
}

impl QuantumBackend for RandomBackend {
    fn apply_gate(&mut self, _gate: Gate, _qubits: &[usize]) {}

    fn measure(&mut self, _qubit: usize) -> bool {
        self.rng.gen_bool(self.p_one)
    }

    fn reset(&mut self, _qubit: usize) {}

    fn reads_gates(&self) -> bool {
        false
    }
}

/// Scripted outcomes: per-qubit FIFO with a default for exhaustion.
#[derive(Debug, Clone, Default)]
pub struct FixedBackend {
    outcomes: std::collections::BTreeMap<usize, std::collections::VecDeque<bool>>,
    default: bool,
}

impl FixedBackend {
    /// Creates a backend returning `default` unless scripted otherwise.
    pub fn new(default: bool) -> FixedBackend {
        FixedBackend {
            outcomes: Default::default(),
            default,
        }
    }

    /// Scripts the next outcomes of `qubit` (consumed FIFO).
    pub fn script(&mut self, qubit: usize, outcomes: impl IntoIterator<Item = bool>) {
        self.outcomes.entry(qubit).or_default().extend(outcomes);
    }
}

impl QuantumBackend for FixedBackend {
    fn apply_gate(&mut self, _gate: Gate, _qubits: &[usize]) {}

    fn measure(&mut self, qubit: usize) -> bool {
        self.outcomes
            .get_mut(&qubit)
            .and_then(|q| q.pop_front())
            .unwrap_or(self.default)
    }

    fn reset(&mut self, _qubit: usize) {}

    fn reads_gates(&self) -> bool {
        false
    }
}

/// Stabilizer-tableau backend for Clifford workloads at QEC scale.
#[derive(Debug, Clone)]
pub struct StabilizerBackend {
    tableau: Stabilizer,
    rng: StdRng,
}

impl StabilizerBackend {
    /// Creates a seeded tableau over `num_qubits` qubits in |0…0⟩.
    pub fn new(num_qubits: usize, seed: u64) -> StabilizerBackend {
        StabilizerBackend {
            tableau: Stabilizer::new(num_qubits),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Read-only access to the tableau (verification aid).
    pub fn tableau(&self) -> &Stabilizer {
        &self.tableau
    }
}

impl QuantumBackend for StabilizerBackend {
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.tableau.apply_gate(gate, qubits);
    }

    fn measure(&mut self, qubit: usize) -> bool {
        self.tableau.measure(qubit, &mut self.rng)
    }

    fn reset(&mut self, qubit: usize) {
        self.tableau.reset(qubit, &mut self.rng);
    }
}

/// Dense state-vector backend for small non-Clifford workloads.
#[derive(Debug, Clone)]
pub struct StateVectorBackend {
    state: StateVector,
    rng: StdRng,
}

impl StateVectorBackend {
    /// Creates a seeded state vector over `num_qubits` qubits in |0…0⟩.
    pub fn new(num_qubits: usize, seed: u64) -> StateVectorBackend {
        StateVectorBackend {
            state: StateVector::new(num_qubits),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Read-only access to the state (verification aid).
    pub fn state(&self) -> &StateVector {
        &self.state
    }
}

impl QuantumBackend for StateVectorBackend {
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.state.apply_gate(gate, qubits);
    }

    fn measure(&mut self, qubit: usize) -> bool {
        self.state.measure(qubit, &mut self.rng)
    }

    fn reset(&mut self, qubit: usize) {
        self.state.reset(qubit, &mut self.rng);
    }
}

/// Stabilizer backend with sampled Pauli noise: after every committed
/// Clifford gate, each operand qubit suffers a uniform X/Y/Z error with
/// the model's arity-dependent probability, and readouts are flipped
/// with `p_meas` (a classical assignment error — the tableau is not
/// collapsed differently).
///
/// Channel sampling draws from a seeded [`NoiseStream`] that is
/// independent of the tableau's measurement RNG, so with
/// [`NoiseMap::default()`] (no draws at all) this backend's outcome
/// sequence is byte-identical to [`StabilizerBackend`] at the same
/// seed.
///
/// # Example
///
/// ```
/// use hisq_quantum::{Gate, NoiseModel};
/// use hisq_sim::{NoisyStabilizerBackend, QuantumBackend};
///
/// let noise = NoiseModel::default().with_gate_errors(1e-3, 1e-2);
/// let mut backend = NoisyStabilizerBackend::new(2, 7, noise);
/// backend.apply_gate(Gate::X, &[0]);
/// let _bit = backend.measure(0);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyStabilizerBackend {
    tableau: Stabilizer,
    rng: StdRng,
    noise: NoiseMap,
    stream: NoiseStream,
    sampled_errors: u64,
}

impl NoisyStabilizerBackend {
    /// Creates a seeded noisy tableau over `num_qubits` qubits in
    /// |0…0⟩. The measurement RNG and the noise stream both derive
    /// from `seed` (by different generators, so the streams are
    /// independent). `noise` accepts a plain
    /// [`NoiseModel`](hisq_quantum::NoiseModel) (a uniform map) or a
    /// [`NoiseMap`] with per-qubit overrides.
    pub fn new(num_qubits: usize, seed: u64, noise: impl Into<NoiseMap>) -> NoisyStabilizerBackend {
        NoisyStabilizerBackend {
            tableau: Stabilizer::new(num_qubits),
            rng: StdRng::seed_from_u64(seed),
            noise: noise.into(),
            stream: NoiseStream::new(seed),
            sampled_errors: 0,
        }
    }

    /// Read-only access to the tableau (verification aid).
    pub fn tableau(&self) -> &Stabilizer {
        &self.tableau
    }

    /// The configured per-qubit noise map.
    pub fn noise(&self) -> &NoiseMap {
        &self.noise
    }

    /// Number of error events sampled so far (Pauli injections plus
    /// readout flips) — a cheap observability hook for tests.
    pub fn sampled_errors(&self) -> u64 {
        self.sampled_errors
    }

    /// Samples the post-gate Pauli channel on one qubit.
    fn pauli_error(&mut self, p: f64, qubit: usize) {
        if !self.stream.bernoulli(p) {
            return;
        }
        self.sampled_errors += 1;
        match self.stream.next_u64() % 3 {
            0 => self.tableau.x(qubit),
            1 => self.tableau.y(qubit),
            _ => self.tableau.z(qubit),
        }
    }
}

impl QuantumBackend for NoisyStabilizerBackend {
    /// Applies a Clifford gate, then samples one Pauli-error
    /// opportunity per operand qubit.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates, like [`StabilizerBackend`].
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.tableau.apply_gate(gate, qubits);
        let single = gate.arity() == 1;
        for &q in qubits {
            let model = self.noise.model_for(q);
            let p = if single {
                model.p_gate_1q
            } else {
                model.p_gate_2q
            };
            self.pauli_error(p, q);
        }
    }

    fn measure(&mut self, qubit: usize) -> bool {
        let outcome = self.tableau.measure(qubit, &mut self.rng);
        if self.stream.bernoulli(self.noise.model_for(qubit).p_meas) {
            self.sampled_errors += 1;
            return !outcome;
        }
        outcome
    }

    fn reset(&mut self, qubit: usize) {
        self.tableau.reset(qubit, &mut self.rng);
    }
}

/// Leakage-aware variant of [`RandomBackend`]: every two-qubit-gate
/// operand leaks out of the computational subspace with `p_leak`;
/// a leaked qubit's readout is **sticky** — it discriminates as `1`
/// on every measurement until an active reset returns it to |0⟩.
///
/// Only `p_leak` is *sampled* here (the other rates of the model are
/// scored analytically by
/// [`NoiseModel::infidelity`](hisq_quantum::NoiseModel::infidelity);
/// flipping an
/// already-fair coin would not change the outcome distribution). Leak
/// draws come from a seeded [`NoiseStream`] separate from the outcome
/// RNG, and are taken for every opportunity regardless of the qubit's
/// current state — so the leaked population is monotone in `p_leak`
/// at a fixed seed, and with `p_leak = 0` the backend is
/// byte-identical to [`RandomBackend`].
///
/// # Example
///
/// ```
/// use hisq_quantum::{Gate, NoiseModel};
/// use hisq_sim::{LeakyRandomBackend, QuantumBackend};
///
/// let noise = NoiseModel::default().with_leak(1.0); // always leaks
/// let mut backend = LeakyRandomBackend::new(3, 0.5, noise);
/// backend.apply_gate(Gate::Cx, &[0, 1]);
/// assert!(backend.is_leaked(0) && backend.is_leaked(1));
/// assert!(backend.measure(0), "leaked qubits read out as 1");
/// backend.reset(0);
/// assert!(!backend.is_leaked(0));
/// ```
#[derive(Debug, Clone)]
pub struct LeakyRandomBackend {
    rng: StdRng,
    p_one: f64,
    noise: NoiseMap,
    stream: NoiseStream,
    /// Currently-leaked qubits; membership alone encodes the sticky
    /// `1` readout.
    leaked: BTreeSet<usize>,
}

impl LeakyRandomBackend {
    /// Creates a seeded leaky backend (`p_one` = probability an
    /// unleaked measurement returns 1, as in [`RandomBackend`]).
    /// `noise` accepts a plain [`NoiseModel`](hisq_quantum::NoiseModel)
    /// (a uniform map) or a [`NoiseMap`] with per-qubit overrides.
    pub fn new(seed: u64, p_one: f64, noise: impl Into<NoiseMap>) -> LeakyRandomBackend {
        LeakyRandomBackend {
            rng: StdRng::seed_from_u64(seed),
            p_one: p_one.clamp(0.0, 1.0),
            noise: noise.into(),
            stream: NoiseStream::new(seed),
            leaked: BTreeSet::new(),
        }
    }

    /// The configured per-qubit noise map.
    pub fn noise(&self) -> &NoiseMap {
        &self.noise
    }

    /// `true` if `qubit` is currently leaked.
    pub fn is_leaked(&self, qubit: usize) -> bool {
        self.leaked.contains(&qubit)
    }

    /// Number of currently-leaked qubits (the monotonicity proptest's
    /// observable).
    pub fn leaked_count(&self) -> usize {
        self.leaked.len()
    }
}

impl QuantumBackend for LeakyRandomBackend {
    fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        if gate.arity() < 2 {
            return;
        }
        for &q in qubits {
            // Draw for every operand — even already-leaked ones — so
            // the stream position depends only on the gate sequence,
            // which is what couples runs at different p_leak values.
            if self.stream.bernoulli(self.noise.model_for(q).p_leak) {
                self.leaked.insert(q);
            }
        }
    }

    fn measure(&mut self, qubit: usize) -> bool {
        if self.leaked.contains(&qubit) {
            return true;
        }
        self.rng.gen_bool(self.p_one)
    }

    fn reset(&mut self, qubit: usize) {
        self.leaked.remove(&qubit);
    }

    /// `true` only if some qubit's model has `p_leak > 0`. With every
    /// rate at or below zero no leak draw can succeed, so no qubit ever
    /// leaks and gates and resets cannot change a readout.
    fn reads_gates(&self) -> bool {
        self.noise.default_model().p_leak > 0.0
            || self.noise.overrides().any(|(_, model)| model.p_leak > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisq_quantum::NoiseModel;

    #[test]
    fn random_backend_is_seed_deterministic() {
        let mut a = RandomBackend::new(1, 0.5);
        let mut b = RandomBackend::new(1, 0.5);
        for q in 0..32 {
            assert_eq!(a.measure(q), b.measure(q));
        }
    }

    #[test]
    fn fixed_backend_scripts_then_defaults() {
        let mut f = FixedBackend::new(false);
        f.script(2, [true, true]);
        assert!(f.measure(2));
        assert!(f.measure(2));
        assert!(!f.measure(2)); // exhausted → default
        assert!(!f.measure(5)); // unscripted → default
    }

    #[test]
    fn stabilizer_backend_tracks_gates() {
        let mut s = StabilizerBackend::new(2, 3);
        s.apply_gate(Gate::X, &[0]);
        s.apply_gate(Gate::Cx, &[0, 1]);
        assert!(s.measure(0));
        assert!(s.measure(1));
    }

    #[test]
    fn statevector_backend_tracks_gates() {
        let mut s = StateVectorBackend::new(2, 3);
        s.apply_gate(Gate::X, &[1]);
        assert!(!s.measure(0));
        assert!(s.measure(1));
    }

    #[test]
    fn noisy_stabilizer_with_default_model_matches_noiseless_twin() {
        let mut noiseless = StabilizerBackend::new(4, 11);
        let mut noisy = NoisyStabilizerBackend::new(4, 11, NoiseModel::default());
        for round in 0..16 {
            noiseless.apply_gate(Gate::H, &[round % 4]);
            noisy.apply_gate(Gate::H, &[round % 4]);
            noiseless.apply_gate(Gate::Cx, &[round % 4, (round + 1) % 4]);
            noisy.apply_gate(Gate::Cx, &[round % 4, (round + 1) % 4]);
            for q in 0..4 {
                assert_eq!(noiseless.measure(q), noisy.measure(q));
            }
        }
        assert_eq!(noisy.sampled_errors(), 0);
    }

    #[test]
    fn noisy_stabilizer_certain_error_flips_deterministic_outcome() {
        // p_meas = 1 flips every readout: a fresh |0> measures 1.
        let noise = NoiseModel::default().with_meas_error(1.0);
        let mut backend = NoisyStabilizerBackend::new(1, 0, noise);
        assert!(backend.measure(0));
        assert_eq!(backend.sampled_errors(), 1);

        // p_1q = 1 injects a Pauli after every 1q gate; an X-or-Y error
        // after the identity-like double-X leaves |0> flipped half the
        // time — just assert errors were actually sampled.
        let noise = NoiseModel::default().with_gate_errors(1.0, 1.0);
        let mut backend = NoisyStabilizerBackend::new(1, 0, noise);
        backend.apply_gate(Gate::X, &[0]);
        assert_eq!(backend.sampled_errors(), 1);
    }

    #[test]
    fn leaky_backend_with_default_model_matches_random_twin() {
        let mut plain = RandomBackend::new(5, 0.5);
        let mut leaky = LeakyRandomBackend::new(5, 0.5, NoiseModel::default());
        for q in 0..64 {
            leaky.apply_gate(Gate::Cx, &[q % 4, (q + 1) % 4]);
            assert_eq!(plain.measure(q % 4), leaky.measure(q % 4));
        }
        assert_eq!(leaky.leaked_count(), 0);
    }

    #[test]
    fn only_backends_whose_readouts_gates_can_change_read_gates() {
        assert!(!RandomBackend::new(1, 0.5).reads_gates());
        assert!(!FixedBackend::new(true).reads_gates());
        assert!(StabilizerBackend::new(2, 1).reads_gates());
        assert!(StateVectorBackend::new(2, 1).reads_gates());
        assert!(NoisyStabilizerBackend::new(2, 1, NoiseModel::default()).reads_gates());

        let leaky = |noise: NoiseMap| LeakyRandomBackend::new(1, 0.5, noise).reads_gates();
        let no_leak = NoiseModel::default()
            .with_gate_errors(0.1, 0.1)
            .with_meas_error(0.1);
        assert!(!leaky(no_leak.into()));
        assert!(!leaky(NoiseModel::default().with_leak(-0.5).into()));
        assert!(leaky(NoiseModel::default().with_leak(1e-9).into()));
        // One leaking qubit is enough, and it may be an override.
        let mut one_qubit = NoiseMap::uniform(no_leak);
        one_qubit.set_qubit(3, no_leak.with_leak(0.01));
        assert!(leaky(one_qubit));
    }

    #[test]
    fn leaked_qubits_are_sticky_until_reset() {
        let noise = NoiseModel::default().with_leak(1.0);
        let mut backend = LeakyRandomBackend::new(1, 0.5, noise);
        backend.apply_gate(Gate::H, &[0]);
        assert!(!backend.is_leaked(0), "1q gates never leak");
        backend.apply_gate(Gate::Cz, &[0, 2]);
        assert!(backend.is_leaked(0) && backend.is_leaked(2));
        for _ in 0..8 {
            assert!(backend.measure(0), "sticky outcome");
        }
        backend.reset(0);
        assert!(!backend.is_leaked(0));
        assert_eq!(backend.leaked_count(), 1, "qubit 2 still leaked");
    }
}
