//! Gate-error noise models: the gate-error-dominated extension of the
//! [`fidelity`](crate::fidelity) module's pure-decoherence scoring.
//!
//! The paper's Figure 16 scores schemes by decoherence alone — the
//! scheme that finishes earlier exposes its qubits for less wall-clock
//! time and wins. Real devices are usually *gate-error*-dominated:
//! every gate, measurement, and idle nanosecond carries an error
//! probability that is independent of T1/T2. [`NoiseModel`] makes those
//! per-operation rates a declarative, sweepable architecture input
//! (after Gupta & Raina, arXiv:2403.07596, and DiAdamo et al.,
//! arXiv:2101.02504, which both treat per-gate channels as first-class
//! inputs to distributed-quantum-computation scoring):
//!
//! - **Sampled channels** — the noisy simulator backends
//!   (`hisq-sim`'s `NoisyStabilizerBackend` / `LeakyRandomBackend`)
//!   draw concrete error events from a seeded [`NoiseStream`] so that
//!   measurement outcomes, and therefore feedback branches, reflect the
//!   noise. The stream is counter-based SplitMix64: a draw depends only
//!   on `(seed, draw index)`, so every run replays identically on any
//!   thread count, and a rate of exactly `0.0` consumes **no** draws —
//!   which is what pins `NoiseModel::default()` byte-identical to the
//!   noiseless backends.
//! - **Analytic scoring** — [`NoiseModel::infidelity`] charges the
//!   *expected* error of a schedule: per-gate and per-measurement
//!   survival from the operation counts ([`OpCounts`]) and idle error
//!   from the per-qubit exposure durations already accumulated by the
//!   engine's [`ExposureLedger`] — the same ledger the T1/T2 model
//!   scores, so the decoherence and gate-error regimes share one
//!   timing source.
//!
//! # Example
//!
//! ```
//! use hisq_quantum::{ExposureLedger, NoiseModel, OpCounts};
//!
//! let noise = NoiseModel::default()
//!     .with_gate_errors(1e-4, 1e-3)
//!     .with_idle_error(1e-6);
//! let ops = OpCounts {
//!     gates_1q: 40,
//!     gates_2q: 10,
//!     ..OpCounts::default()
//! };
//! let ledger: ExposureLedger = [(0, 0, 2_000), (1, 0, 2_000)].into_iter().collect();
//! let infid = noise.infidelity(&ops, &ledger);
//! assert!(infid > 0.0 && infid < 1.0);
//! assert_eq!(NoiseModel::default().infidelity(&ops, &ledger), 0.0);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::fidelity::ExposureLedger;

/// Declarative per-operation error rates — the noise counterpart of
/// [`CoherenceParams`](crate::CoherenceParams). All rates are
/// probabilities per operation (or per nanosecond for idle error); the
/// default is exactly noiseless, so specs and sweeps that never touch
/// noise behave byte-identically to the historical engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseModel {
    /// Error probability per single-qubit gate.
    pub p_gate_1q: f64,
    /// Error probability per two-qubit-gate **operand qubit** — both
    /// the sampled backends (one channel draw per operand) and the
    /// analytic scoring (`(1 − p)^(2·gates_2q)`) charge it twice per
    /// gate.
    pub p_gate_2q: f64,
    /// Readout (measurement assignment) error probability.
    pub p_meas: f64,
    /// Idle error probability per nanosecond of exposure, charged from
    /// the [`ExposureLedger`]'s per-qubit durations.
    pub p_idle_per_ns: f64,
    /// Leakage probability per two-qubit-gate operand qubit: a leaked
    /// qubit leaves the computational subspace and reads out as a
    /// sticky `1` until it is actively reset.
    pub p_leak: f64,
}

impl NoiseModel {
    /// The exactly-noiseless model (`== NoiseModel::default()`).
    pub const NOISELESS: NoiseModel = NoiseModel {
        p_gate_1q: 0.0,
        p_gate_2q: 0.0,
        p_meas: 0.0,
        p_idle_per_ns: 0.0,
        p_leak: 0.0,
    };

    /// `true` if every rate is exactly zero — the contract under which
    /// the noisy backends are byte-identical to their noiseless twins
    /// and the harness emits no noise metrics.
    pub fn is_noiseless(&self) -> bool {
        *self == NoiseModel::NOISELESS
    }

    /// Replaces the gate error rates (builder style).
    #[must_use]
    pub fn with_gate_errors(mut self, p_1q: f64, p_2q: f64) -> NoiseModel {
        self.p_gate_1q = p_1q;
        self.p_gate_2q = p_2q;
        self
    }

    /// Replaces the readout error rate (builder style).
    #[must_use]
    pub fn with_meas_error(mut self, p_meas: f64) -> NoiseModel {
        self.p_meas = p_meas;
        self
    }

    /// Replaces the per-nanosecond idle error rate (builder style).
    #[must_use]
    pub fn with_idle_error(mut self, p_idle_per_ns: f64) -> NoiseModel {
        self.p_idle_per_ns = p_idle_per_ns;
        self
    }

    /// Replaces the leakage rate (builder style).
    #[must_use]
    pub fn with_leak(mut self, p_leak: f64) -> NoiseModel {
        self.p_leak = p_leak;
        self
    }

    /// Survival probability of one qubit idling for `t_ns` nanoseconds:
    /// `(1 − p_idle_per_ns)^t_ns`.
    pub fn idle_survival(&self, t_ns: u64) -> f64 {
        if self.p_idle_per_ns <= 0.0 {
            return 1.0;
        }
        (1.0 - self.p_idle_per_ns).max(0.0).powf(t_ns as f64)
    }

    /// Expected circuit survival probability of a schedule: per-gate,
    /// per-measurement, and per-leak-opportunity survivals from the
    /// operation counts, times per-qubit idle survival over the
    /// exposure durations the engine's ledger recorded. Resets are
    /// treated as error-free (they end a qubit's useful history).
    ///
    /// Every term is charged at the sampled backends' draw sites, so
    /// the analytic score is the exact expectation of the sampled
    /// channel count: one opportunity per single-qubit gate, per
    /// measurement, and per two-qubit-gate **operand** — i.e.
    /// `(1 − p_gate_2q)^(2·gates_2q)` and
    /// `(1 − p_leak)^(2·gates_2q)`.
    pub fn survival(&self, ops: &OpCounts, exposure: &ExposureLedger) -> f64 {
        let operands_2q = saturating_i32(ops.gates_2q.saturating_mul(2));
        let gates = (1.0 - self.p_gate_1q).powi(saturating_i32(ops.gates_1q))
            * (1.0 - self.p_gate_2q).powi(operands_2q)
            * (1.0 - self.p_meas).powi(saturating_i32(ops.measurements))
            * (1.0 - self.p_leak).powi(operands_2q);
        let idle: f64 = exposure
            .exposures_ns()
            .map(|(_, t_ns)| self.idle_survival(t_ns))
            .product();
        gates * idle
    }

    /// Expected circuit infidelity `1 − survival` — the `fig_noise`
    /// metric.
    pub fn infidelity(&self, ops: &OpCounts, exposure: &ExposureLedger) -> f64 {
        1.0 - self.survival(ops, exposure)
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p1q={} p2q={} pmeas={} pidle/ns={} pleak={}",
            self.p_gate_1q, self.p_gate_2q, self.p_meas, self.p_idle_per_ns, self.p_leak
        )
    }
}

fn saturating_i32(v: u64) -> i32 {
    v.min(i32::MAX as u64) as i32
}

/// Counts of the quantum operations a simulated schedule committed —
/// the denominators of [`NoiseModel::survival`]. The engine accumulates
/// these alongside its exposure ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Single-qubit gates committed.
    pub gates_1q: u64,
    /// Two-qubit gates committed.
    pub gates_2q: u64,
    /// Measurements triggered.
    pub measurements: u64,
    /// Active resets committed.
    pub resets: u64,
}

impl OpCounts {
    /// Total quantum operations.
    pub fn total(&self) -> u64 {
        self.gates_1q + self.gates_2q + self.measurements + self.resets
    }
}

/// A per-qubit noise assignment: a uniform default [`NoiseModel`] plus
/// sparse per-qubit overrides — the qubit-side counterpart of
/// `hisq-net`'s per-edge fabric map.
///
/// The map normalizes itself: an override equal to the current default
/// is never stored, so `is_uniform` is exactly "no overrides" and two
/// maps describing the same physics compare equal. Harness layers keep
/// uniform maps byte-identical to the historical single-model path by
/// delegating to [`NoiseModel::survival`] on the global operation
/// counts whenever [`NoiseMap::is_uniform`] holds; the per-qubit
/// product below is only reached when at least one override exists
/// (f64 multiplication is not associative, so the two factorings are
/// not bit-equal in general).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseMap {
    default: NoiseModel,
    overrides: BTreeMap<usize, NoiseModel>,
}

impl NoiseMap {
    /// A map where every qubit uses `default`.
    pub fn uniform(default: NoiseModel) -> NoiseMap {
        NoiseMap {
            default,
            overrides: BTreeMap::new(),
        }
    }

    /// The uniform default model (what [`NoiseMap::model_for`] returns
    /// for any qubit without an override).
    pub fn default_model(&self) -> NoiseModel {
        self.default
    }

    /// Overrides one qubit's model. Setting a qubit back to the default
    /// removes the override.
    pub fn set_qubit(&mut self, qubit: usize, model: NoiseModel) {
        if model == self.default {
            self.overrides.remove(&qubit);
        } else {
            self.overrides.insert(qubit, model);
        }
    }

    /// The model governing `qubit`: its override if present, else the
    /// default.
    pub fn model_for(&self, qubit: usize) -> NoiseModel {
        self.overrides.get(&qubit).copied().unwrap_or(self.default)
    }

    /// The per-qubit overrides in ascending qubit order.
    pub fn overrides(&self) -> impl Iterator<Item = (usize, NoiseModel)> + '_ {
        self.overrides.iter().map(|(&q, &m)| (q, m))
    }

    /// `true` when no qubit deviates from the default — the contract
    /// under which callers delegate to the legacy single-model scoring
    /// path.
    pub fn is_uniform(&self) -> bool {
        self.overrides.is_empty()
    }

    /// `true` when every qubit is exactly noiseless. Because overrides
    /// never equal the default, this is "noiseless default and no
    /// overrides".
    pub fn is_noiseless(&self) -> bool {
        self.default.is_noiseless() && self.overrides.is_empty()
    }

    /// Expected circuit survival from **per-qubit** operation counts:
    /// `ops_by_qubit[q]` charges qubit `q`'s rates, then each qubit's
    /// idle exposure charges its own `p_idle_per_ns`.
    ///
    /// Unlike the global [`OpCounts`] fed to [`NoiseModel::survival`],
    /// the per-qubit `gates_2q` field counts **operand occurrences**
    /// (a CX increments both operands' counters by one, so the sum over
    /// qubits is `2 ·` the global gate count) — the exponent is used
    /// as-is, not doubled.
    pub fn survival(&self, ops_by_qubit: &[OpCounts], exposure: &ExposureLedger) -> f64 {
        let gates: f64 = ops_by_qubit
            .iter()
            .enumerate()
            .map(|(q, ops)| {
                let m = self.model_for(q);
                (1.0 - m.p_gate_1q).powi(saturating_i32(ops.gates_1q))
                    * (1.0 - m.p_gate_2q).powi(saturating_i32(ops.gates_2q))
                    * (1.0 - m.p_meas).powi(saturating_i32(ops.measurements))
                    * (1.0 - m.p_leak).powi(saturating_i32(ops.gates_2q))
            })
            .product();
        let idle: f64 = exposure
            .exposures_ns()
            .map(|(q, t_ns)| self.model_for(q).idle_survival(t_ns))
            .product();
        gates * idle
    }

    /// Expected circuit infidelity `1 − survival` over per-qubit
    /// operation counts (see [`NoiseMap::survival`]).
    pub fn infidelity(&self, ops_by_qubit: &[OpCounts], exposure: &ExposureLedger) -> f64 {
        1.0 - self.survival(ops_by_qubit, exposure)
    }
}

impl From<NoiseModel> for NoiseMap {
    fn from(default: NoiseModel) -> NoiseMap {
        NoiseMap::uniform(default)
    }
}

/// A deterministic counter-based SplitMix64 random stream for channel
/// sampling.
///
/// Each draw is `splitmix64(seed ⊕ f(index))` where `index` is a
/// monotonic per-stream counter, so the stream's values depend only on
/// `(seed, draw index)` — never on wall clock, thread interleaving, or
/// process layout. Two properties the noise proptests rest on:
///
/// - **Replay**: the same seed produces the same draw sequence on any
///   thread count;
/// - **Coupling**: [`NoiseStream::bernoulli`] with `p = 0` consumes no
///   draw, while any `p > 0` consumes exactly one uniform draw, so
///   increasing a rate can only turn existing draws from "survived"
///   into "errored" — error populations are monotone in the rate.
#[derive(Debug, Clone)]
pub struct NoiseStream {
    seed: u64,
    draws: u64,
}

impl NoiseStream {
    /// Creates a stream at draw index 0.
    pub fn new(seed: u64) -> NoiseStream {
        NoiseStream { seed, draws: 0 }
    }

    /// Number of draws consumed so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let index = self.draws;
        self.draws += 1;
        splitmix64(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next uniform draw in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Bernoulli trial: `true` with probability `p`.
    ///
    /// A rate `p ≤ 0` returns `false` **without consuming a draw** —
    /// the noiseless-equivalence contract; any `p > 0` consumes exactly
    /// one uniform draw, keeping streams aligned across different
    /// positive rates (the monotonicity contract).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

/// SplitMix64 finalizer (Steele et al.): a well-mixed 64-bit hash.
/// Public because it is the workspace's one shared counter-hashing
/// primitive — the link-loss stream in `hisq-sim` keys the same
/// function, so the two determinism contracts cannot drift apart.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noiseless_and_scores_zero() {
        let noise = NoiseModel::default();
        assert!(noise.is_noiseless());
        let ops = OpCounts {
            gates_1q: 100,
            gates_2q: 50,
            measurements: 20,
            resets: 5,
        };
        let ledger: ExposureLedger = [(0, 0, 1_000_000)].into_iter().collect();
        assert_eq!(noise.survival(&ops, &ledger), 1.0);
        assert_eq!(noise.infidelity(&ops, &ledger), 0.0);
    }

    #[test]
    fn builders_set_each_rate() {
        let noise = NoiseModel::default()
            .with_gate_errors(1e-4, 1e-3)
            .with_meas_error(1e-2)
            .with_idle_error(1e-6)
            .with_leak(1e-5);
        assert!(!noise.is_noiseless());
        assert_eq!(noise.p_gate_1q, 1e-4);
        assert_eq!(noise.p_gate_2q, 1e-3);
        assert_eq!(noise.p_meas, 1e-2);
        assert_eq!(noise.p_idle_per_ns, 1e-6);
        assert_eq!(noise.p_leak, 1e-5);
        assert!(format!("{noise}").contains("p2q=0.001"));
    }

    #[test]
    fn survival_is_monotone_in_rates_and_counts() {
        let ledger: ExposureLedger = [(0, 0, 10_000), (1, 0, 20_000)].into_iter().collect();
        let few = OpCounts {
            gates_1q: 10,
            gates_2q: 2,
            measurements: 1,
            resets: 0,
        };
        let many = OpCounts {
            gates_1q: 100,
            gates_2q: 20,
            measurements: 10,
            resets: 0,
        };
        let low = NoiseModel::default()
            .with_gate_errors(1e-5, 1e-4)
            .with_idle_error(1e-8);
        let high = NoiseModel::default()
            .with_gate_errors(1e-3, 1e-2)
            .with_idle_error(1e-6);
        assert!(low.survival(&few, &ledger) > low.survival(&many, &ledger));
        assert!(low.survival(&many, &ledger) > high.survival(&many, &ledger));
        assert!(high.infidelity(&many, &ledger) < 1.0);
    }

    #[test]
    fn idle_survival_uses_exposure_durations() {
        let noise = NoiseModel::default().with_idle_error(1e-4);
        let short: ExposureLedger = [(0, 0, 1_000)].into_iter().collect();
        let long: ExposureLedger = [(0, 0, 100_000)].into_iter().collect();
        let ops = OpCounts::default();
        assert!(noise.survival(&ops, &short) > noise.survival(&ops, &long));
        assert!((noise.idle_survival(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_is_deterministic_and_uniform_ish() {
        let mut a = NoiseStream::new(42);
        let mut b = NoiseStream::new(42);
        let draws_a: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        let mut c = NoiseStream::new(43);
        assert_ne!(draws_a[0], c.next_u64(), "seed must matter");
        let mut s = NoiseStream::new(7);
        let hits = (0..10_000).filter(|_| s.bernoulli(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "≈25%: {hits}");
    }

    #[test]
    fn zero_rate_consumes_no_draws() {
        let mut s = NoiseStream::new(1);
        assert!(!s.bernoulli(0.0));
        assert!(!s.bernoulli(-1.0));
        assert_eq!(s.draws(), 0);
        let _ = s.bernoulli(0.5);
        assert_eq!(s.draws(), 1);
    }

    #[test]
    fn noise_map_resolves_default_then_override() {
        let default = NoiseModel::default().with_gate_errors(1e-4, 1e-3);
        let hot = NoiseModel::default().with_gate_errors(1e-2, 1e-1);
        let mut map = NoiseMap::uniform(default);
        assert!(map.is_uniform());
        assert!(!map.is_noiseless());
        map.set_qubit(3, hot);
        assert!(!map.is_uniform());
        assert_eq!(map.model_for(3), hot);
        assert_eq!(map.model_for(0), default);
        assert_eq!(map.overrides().collect::<Vec<_>>(), vec![(3, hot)]);
        // Setting a qubit back to the default removes the override.
        map.set_qubit(3, default);
        assert!(map.is_uniform());
        assert_eq!(map.default_model(), default);
        assert_eq!(NoiseMap::from(default).model_for(7), default);
        assert!(NoiseMap::default().is_noiseless());
    }

    #[test]
    fn noise_map_survival_charges_per_qubit_rates() {
        let default = NoiseModel::default().with_gate_errors(1e-4, 1e-3);
        let hot = NoiseModel::default().with_gate_errors(1e-2, 1e-1);
        let per_qubit = [
            OpCounts {
                gates_1q: 4,
                gates_2q: 2, // operand occurrences, not global gate count
                measurements: 1,
                ..OpCounts::default()
            },
            OpCounts {
                gates_1q: 4,
                gates_2q: 2,
                measurements: 1,
                ..OpCounts::default()
            },
        ];
        let ledger: ExposureLedger = [(0, 0, 1_000), (1, 0, 1_000)].into_iter().collect();
        let uniform = NoiseMap::uniform(default);
        let mut heated = uniform.clone();
        heated.set_qubit(1, hot);
        let s_uniform = uniform.survival(&per_qubit, &ledger);
        let s_heated = heated.survival(&per_qubit, &ledger);
        assert!(s_heated < s_uniform, "{s_heated} vs {s_uniform}");
        assert!(heated.infidelity(&per_qubit, &ledger) > uniform.infidelity(&per_qubit, &ledger));
        // A heated qubit with zero activity and zero exposure changes
        // nothing.
        let idle_heat = {
            let mut m = uniform.clone();
            m.set_qubit(9, hot);
            m
        };
        assert_eq!(idle_heat.survival(&per_qubit, &ledger), s_uniform);
        // The per-qubit factoring matches the global closed form when
        // every term is charged at the same rate (same powers, grouped
        // per qubit).
        let global = OpCounts {
            gates_1q: 8,
            gates_2q: 2,
            measurements: 2,
            ..OpCounts::default()
        };
        let expected = default.survival(&global, &ledger);
        assert!(
            (s_uniform - expected).abs() < 1e-12,
            "{s_uniform} vs {expected}"
        );
    }

    #[test]
    fn bernoulli_draws_couple_across_rates() {
        // The same stream position decides both rates, so every hit at
        // the lower rate is a hit at the higher rate.
        let mut low = NoiseStream::new(9);
        let mut high = NoiseStream::new(9);
        for _ in 0..4_096 {
            let l = low.bernoulli(0.05);
            let h = high.bernoulli(0.2);
            assert!(!l || h, "monotone coupling violated");
        }
    }
}
