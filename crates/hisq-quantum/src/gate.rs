//! The gate set of the dynamic-circuit IR, and the [`QuantumAction`] a
//! committed codeword is bound to.

use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

use crate::complex::C64;

/// A quantum gate.
///
/// The set covers everything the paper's benchmarks need: the Clifford
/// group generators (`H`, `S`, `CX`, `CZ`), Paulis, the non-Clifford `T`
/// family, and parameterized rotations (used by QFT's controlled phases
/// after decomposition, and by calibration experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// Inverse T.
    Tdg,
    /// X-axis rotation by an angle in radians.
    Rx(f64),
    /// Y-axis rotation by an angle in radians.
    Ry(f64),
    /// Z-axis rotation by an angle in radians.
    Rz(f64),
    /// Phase gate `diag(1, e^{iθ})`.
    Phase(f64),
    /// Controlled-X (CNOT). Qubit order: control, target.
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
    /// Controlled phase `diag(1,1,1,e^{iθ})` — the QFT workhorse.
    Cphase(f64),
    /// SWAP.
    Swap,
}

impl Gate {
    /// Number of qubits the gate acts on.
    pub fn arity(self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_) => 1,
            Gate::Cx | Gate::Cz | Gate::Cphase(_) | Gate::Swap => 2,
        }
    }

    /// `true` if the gate is a member of the Clifford group (and thus
    /// executable by the [`crate::Stabilizer`] backend).
    pub fn is_clifford(self) -> bool {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::Cx
            | Gate::Cz
            | Gate::Swap => true,
            Gate::T | Gate::Tdg => false,
            // Rotations are Clifford only at multiples of π/2; we treat
            // parameterized gates as non-Clifford for backend selection.
            Gate::Rx(_) | Gate::Ry(_) | Gate::Rz(_) | Gate::Phase(_) | Gate::Cphase(_) => false,
        }
    }

    /// Short lowercase name used in textual dumps, e.g. `"cx"`.
    pub fn name(self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Cphase(_) => "cp",
            Gate::Swap => "swap",
        }
    }

    /// The 2×2 unitary of a single-qubit gate, row-major.
    ///
    /// # Panics
    ///
    /// Panics if called on a two-qubit gate; use [`Gate::matrix2q`].
    pub fn matrix1q(self) -> [[C64; 2]; 2] {
        let o = C64::ONE;
        let z = C64::ZERO;
        let i = C64::I;
        let h = C64::real(FRAC_1_SQRT_2);
        match self {
            Gate::I => [[o, z], [z, o]],
            Gate::X => [[z, o], [o, z]],
            Gate::Y => [[z, -i], [i, z]],
            Gate::Z => [[o, z], [z, -o]],
            Gate::H => [[h, h], [h, -h]],
            Gate::S => [[o, z], [z, i]],
            Gate::Sdg => [[o, z], [z, -i]],
            Gate::T => [[o, z], [z, C64::from_polar(std::f64::consts::FRAC_PI_4)]],
            Gate::Tdg => [[o, z], [z, C64::from_polar(-std::f64::consts::FRAC_PI_4)]],
            Gate::Rx(theta) => {
                let c = C64::real((theta / 2.0).cos());
                let s = C64::new(0.0, -(theta / 2.0).sin());
                [[c, s], [s, c]]
            }
            Gate::Ry(theta) => {
                let c = C64::real((theta / 2.0).cos());
                let s = C64::real((theta / 2.0).sin());
                [[c, -s], [s, c]]
            }
            Gate::Rz(theta) => [
                [C64::from_polar(-theta / 2.0), z],
                [z, C64::from_polar(theta / 2.0)],
            ],
            Gate::Phase(theta) => [[o, z], [z, C64::from_polar(theta)]],
            _ => panic!("matrix1q called on two-qubit gate {self:?}"),
        }
    }

    /// The 4×4 unitary of a two-qubit gate in the basis
    /// `|q1 q0⟩ ∈ {00, 01, 10, 11}` with the **first** listed qubit as
    /// the low-order bit.
    ///
    /// # Panics
    ///
    /// Panics if called on a single-qubit gate; use [`Gate::matrix1q`].
    pub fn matrix2q(self) -> [[C64; 4]; 4] {
        let o = C64::ONE;
        let z = C64::ZERO;
        match self {
            // Basis order: index = (second_qubit << 1) | first_qubit,
            // first listed qubit = control for Cx.
            Gate::Cx => [[o, z, z, z], [z, z, z, o], [z, z, o, z], [z, o, z, z]],
            Gate::Cz => [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, -o]],
            Gate::Cphase(theta) => [
                [o, z, z, z],
                [z, o, z, z],
                [z, z, o, z],
                [z, z, z, C64::from_polar(theta)],
            ],
            Gate::Swap => [[o, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]],
            _ => panic!("matrix2q called on single-qubit gate {self:?}"),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) | Gate::Cphase(t) => {
                write!(f, "{}({t:.6})", self.name())
            }
            _ => f.write_str(self.name()),
        }
    }
}

/// What a committed codeword does to the qubits. A codeword means only
/// what "the compiler and hardware configurations" bind it to (§3.1.2):
/// the compiler's codeword table emits these and the simulator's
/// backend performs them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantumAction {
    /// Apply `gate` to its operands, `qubits[..gate.arity()]` (build
    /// one from a slice with [`QuantumAction::gate`]).
    Gate {
        /// The gate.
        gate: Gate,
        /// The operands, inline; a one-qubit gate ignores `qubits[1]`.
        qubits: [usize; 2],
    },
    /// Trigger a measurement; the discrimination result returns to the
    /// committing controller's measurement FIFO after the measurement
    /// duration ([`GateDurations::PAPER`](crate::GateDurations::PAPER)).
    Measure {
        /// The measured qubit.
        qubit: usize,
    },
    /// Reset a qubit to |0⟩ (active reset pulse).
    Reset {
        /// The reset qubit.
        qubit: usize,
    },
}

impl QuantumAction {
    /// `gate` on `qubits`.
    ///
    /// # Panics
    ///
    /// Panics unless `qubits` holds exactly `gate.arity()` qubits, as
    /// [`Circuit::gate`](crate::Circuit::gate) does.
    pub fn gate(gate: Gate, qubits: &[usize]) -> QuantumAction {
        assert_eq!(qubits.len(), gate.arity(), "invalid operands for {gate}");
        let mut operands = [0; 2];
        operands[..qubits.len()].copy_from_slice(qubits);
        QuantumAction::Gate {
            gate,
            qubits: operands,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_mul2(a: [[C64; 2]; 2], b: [[C64; 2]; 2]) -> [[C64; 2]; 2] {
        let mut out = [[C64::ZERO; 2]; 2];
        for r in 0..2 {
            for c in 0..2 {
                for k in 0..2 {
                    out[r][c] += a[r][k] * b[k][c];
                }
            }
        }
        out
    }

    fn assert_identity2(m: [[C64; 2]; 2]) {
        for (r, row) in m.iter().enumerate() {
            for (c, entry) in row.iter().enumerate() {
                let expect = if r == c { C64::ONE } else { C64::ZERO };
                assert!(entry.approx_eq(expect, 1e-12), "entry ({r},{c}) = {entry}");
            }
        }
    }

    #[test]
    fn single_qubit_gates_are_unitary() {
        for gate in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(1.3),
            Gate::Rz(-0.4),
            Gate::Phase(2.2),
        ] {
            let m = gate.matrix1q();
            let dagger = [
                [m[0][0].conj(), m[1][0].conj()],
                [m[0][1].conj(), m[1][1].conj()],
            ];
            assert_identity2(mat_mul2(m, dagger));
        }
    }

    #[test]
    fn two_qubit_gates_are_unitary() {
        for gate in [Gate::Cx, Gate::Cz, Gate::Swap, Gate::Cphase(0.9)] {
            let m = gate.matrix2q();
            for r in 0..4 {
                for c in 0..4 {
                    let mut dot = C64::ZERO;
                    for (x, y) in m[r].iter().zip(&m[c]) {
                        dot += *x * y.conj();
                    }
                    let expect = if r == c { C64::ONE } else { C64::ZERO };
                    assert!(dot.approx_eq(expect, 1e-12));
                }
            }
        }
    }

    #[test]
    fn s_squared_is_z() {
        let s = Gate::S.matrix1q();
        let z = Gate::Z.matrix1q();
        let ss = mat_mul2(s, s);
        for r in 0..2 {
            for c in 0..2 {
                assert!(ss[r][c].approx_eq(z[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn t_squared_is_s() {
        let t = Gate::T.matrix1q();
        let s = Gate::S.matrix1q();
        let tt = mat_mul2(t, t);
        for r in 0..2 {
            for c in 0..2 {
                assert!(tt[r][c].approx_eq(s[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn arity_and_cliffordness() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Cx.arity(), 2);
        assert!(Gate::Cz.is_clifford());
        assert!(!Gate::T.is_clifford());
        assert!(!Gate::Cphase(0.1).is_clifford());
    }

    #[test]
    fn display_includes_angles() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
    }

    #[test]
    #[should_panic(expected = "invalid operands for cx")]
    fn quantum_action_gate_checks_arity() {
        let _ = QuantumAction::gate(Gate::Cx, &[3]);
    }
}
