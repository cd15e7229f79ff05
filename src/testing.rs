//! Shared test-support utilities: the dependency-free FNV-1a digest
//! and the byte pin that `tests/noise_determinism.rs` and the bench
//! crate's `tests/figure_cli.rs` use to freeze report JSON
//! byte-for-byte, and the circuit walk that `tests/circuit_reference.rs`
//! holds runs to.
//!
//! Pinning lives in one place so engine work that legitimately changes
//! report bytes (it should not — the sweep contract is byte identity)
//! has exactly one helper to re-pin against, and every pin failure
//! prints the replacement values.

use hisq_quantum::{Circuit, OpCounts, Operation};

/// FNV-1a 64 over `data` — the workspace's standard dependency-free
/// byte digest for pinning report JSON in tests.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Asserts `json` matches a committed `(length, FNV-1a 64)` pin,
/// naming `label` and printing the replacement pin values on drift so
/// an intentional re-pin is a copy-paste.
///
/// # Panics
///
/// Panics when either the byte length or the digest differs from the
/// pinned values.
pub fn assert_pinned(label: &str, json: &str, pinned_len: usize, pinned_fnv: u64) {
    let len = json.len();
    let fnv = fnv1a64(json.as_bytes());
    assert!(
        len == pinned_len && fnv == pinned_fnv,
        "{label} drifted from its byte pin:\n  pinned  len {pinned_len}, fnv 0x{pinned_fnv:016x}\n  actual  len {len}, fnv 0x{fnv:016x}\nif the change is intentional, re-pin with the actual values"
    );
}

/// The operations a run of `circuit`, repeated `shots` times, must
/// commit on each qubit, indexed by qubit and ending at the highest
/// qubit touched — the shape of `System::quantum_ops_by_qubit`. As
/// there, a two-qubit gate counts once on each operand.
///
/// The walk follows the circuit itself: every shot starts from a
/// cleared classical register, a conditional operation counts only
/// when its condition holds, and the `k`-th measurement of qubit `q`
/// in the whole run reads `outcome(q, k)` — the `k`-th result that a
/// `FixedBackend` scripted with the same function returns for `q`.
/// Barriers and delays commit nothing.
pub fn circuit_ops_by_qubit(
    circuit: &Circuit,
    shots: u32,
    outcome: impl Fn(usize, usize) -> bool,
) -> Vec<OpCounts> {
    fn at(counts: &mut Vec<OpCounts>, qubit: usize) -> &mut OpCounts {
        if counts.len() <= qubit {
            counts.resize(qubit + 1, OpCounts::default());
        }
        &mut counts[qubit]
    }
    let mut counts = Vec::new();
    let mut measured = vec![0; circuit.num_qubits()];
    for _ in 0..shots {
        let mut clbits = vec![false; circuit.num_clbits()];
        for inst in circuit.instructions() {
            let taken = inst.condition.as_ref().is_none_or(|c| c.evaluate(&clbits));
            if !taken {
                continue;
            }
            match inst.op {
                Operation::Gate { gate, ref qubits } => {
                    for &q in qubits {
                        let ops = at(&mut counts, q);
                        if gate.arity() == 1 {
                            ops.gates_1q += 1;
                        } else {
                            ops.gates_2q += 1;
                        }
                    }
                }
                Operation::Measure { qubit, clbit } => {
                    at(&mut counts, qubit).measurements += 1;
                    clbits[clbit] = outcome(qubit, measured[qubit]);
                    measured[qubit] += 1;
                }
                Operation::Reset { qubit } => at(&mut counts, qubit).resets += 1,
                Operation::Barrier { .. } | Operation::Delay { .. } => {}
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn assert_pinned_accepts_matching_pin() {
        assert_pinned("vector", "foobar", 6, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_circuit_walk_follows_conditions_and_scripted_outcomes() {
        use hisq_quantum::Condition;
        // Teleportation-style feedback: corrections on qubit 2 read the
        // two measurements of this shot.
        let mut c = Circuit::new(3, 2);
        c.h(1).cx(1, 2).measure(0, 0).measure(1, 1);
        c.x_if(2, Condition::bit(1, true));
        c.z_if(2, Condition::bit(0, true));
        c.reset(0).barrier();
        // Qubit 0 reads 1, 0, 1, ...; qubit 1 always reads 1.
        let counts = circuit_ops_by_qubit(&c, 3, |q, k| q == 1 || k % 2 == 0);
        let ops = |gates_1q, gates_2q, measurements, resets| OpCounts {
            gates_1q,
            gates_2q,
            measurements,
            resets,
        };
        assert_eq!(
            counts,
            [ops(0, 0, 3, 3), ops(3, 3, 3, 0), ops(3 + 2, 3, 0, 0)]
        );
    }

    #[test]
    #[should_panic(expected = "drifted from its byte pin")]
    fn assert_pinned_rejects_drift() {
        assert_pinned("vector", "foobarX", 6, 0x8594_4171_f739_67e8);
    }
}
