//! The dynamic-circuit intermediate representation.
//!
//! *Dynamic circuits* — circuits with mid-circuit measurement and
//! classically conditioned operations — are the workloads that create
//! the synchronization challenge Distributed-HISQ solves (§2.1 of the
//! paper). This IR is the input to the `hisq-compiler` software stack
//! and to both quantum simulation backends.

use std::error::Error;
use std::fmt;

use crate::gate::Gate;

/// Errors raised by circuit construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A qubit index is out of range.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// Number of qubits in the circuit.
        num_qubits: usize,
    },
    /// A classical bit index is out of range.
    ClbitOutOfRange {
        /// The offending index.
        clbit: usize,
        /// Number of classical bits in the circuit.
        num_clbits: usize,
    },
    /// A gate was applied to the wrong number of qubits.
    ArityMismatch {
        /// Gate name.
        gate: &'static str,
        /// Expected operand count.
        expected: usize,
        /// Provided operand count.
        found: usize,
    },
    /// A multi-qubit gate listed the same qubit twice.
    DuplicateQubit {
        /// The repeated index.
        qubit: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            CircuitError::ClbitOutOfRange { clbit, num_clbits } => {
                write!(
                    f,
                    "clbit {clbit} out of range for {num_clbits}-clbit circuit"
                )
            }
            CircuitError::ArityMismatch {
                gate,
                expected,
                found,
            } => write!(
                f,
                "gate `{gate}` expects {expected} qubit(s), found {found}"
            ),
            CircuitError::DuplicateQubit { qubit } => {
                write!(f, "qubit {qubit} listed more than once")
            }
        }
    }
}

impl Error for CircuitError {}

/// A classical condition guarding an operation (`if (c) U` in
/// OpenQASM 3 terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// True when a single classical bit equals `value`.
    Bit {
        /// The classical bit index.
        clbit: usize,
        /// Required value.
        value: bool,
    },
    /// True when the XOR (parity) of several bits equals `value`.
    ///
    /// Long-range CNOT corrections (Figure 14) condition on the parity
    /// of the measurement layer, so parity is a first-class condition.
    Parity {
        /// The classical bits whose parity is tested.
        clbits: Vec<usize>,
        /// Required parity.
        value: bool,
    },
}

impl Condition {
    /// Single-bit condition constructor.
    pub fn bit(clbit: usize, value: bool) -> Condition {
        Condition::Bit { clbit, value }
    }

    /// Parity condition constructor.
    pub fn parity(clbits: impl Into<Vec<usize>>, value: bool) -> Condition {
        Condition::Parity {
            clbits: clbits.into(),
            value,
        }
    }

    /// All classical bits the condition reads.
    pub fn clbits(&self) -> Vec<usize> {
        match self {
            Condition::Bit { clbit, .. } => vec![*clbit],
            Condition::Parity { clbits, .. } => clbits.clone(),
        }
    }

    /// Evaluates the condition against a classical register.
    pub fn evaluate(&self, register: &[bool]) -> bool {
        match self {
            Condition::Bit { clbit, value } => {
                register.get(*clbit).copied().unwrap_or(false) == *value
            }
            Condition::Parity { clbits, value } => {
                let parity = clbits
                    .iter()
                    .map(|&c| register.get(c).copied().unwrap_or(false))
                    .fold(false, |acc, b| acc ^ b);
                parity == *value
            }
        }
    }
}

/// A primitive circuit operation (without its condition).
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// A unitary gate on the listed qubits.
    Gate {
        /// The gate.
        gate: Gate,
        /// Operand qubits, in gate order (e.g. control first for [`Gate::Cx`]).
        qubits: Vec<usize>,
    },
    /// Projective Z-basis measurement into a classical bit.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
    /// Reset a qubit to |0⟩.
    Reset {
        /// The qubit to reset.
        qubit: usize,
    },
    /// A scheduling barrier across the listed qubits (all if empty).
    Barrier {
        /// Affected qubits; empty means every qubit.
        qubits: Vec<usize>,
    },
    /// An explicit idle of fixed duration, used to model decoder latency
    /// in the logical-T benchmarks (§6.4.2).
    Delay {
        /// Idled qubit.
        qubit: usize,
        /// Idle duration in nanoseconds.
        duration_ns: u64,
    },
}

/// One instruction: an operation plus an optional classical condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation to perform.
    pub op: Operation,
    /// Condition under which the operation executes (`None` = always).
    pub condition: Option<Condition>,
}

impl Instruction {
    /// `true` if this instruction is classically conditioned (feedback).
    pub fn is_conditional(&self) -> bool {
        self.condition.is_some()
    }

    /// The qubits this instruction touches.
    pub fn qubits(&self) -> Vec<usize> {
        match &self.op {
            Operation::Gate { qubits, .. } => qubits.clone(),
            Operation::Measure { qubit, .. }
            | Operation::Reset { qubit }
            | Operation::Delay { qubit, .. } => vec![*qubit],
            Operation::Barrier { qubits } => qubits.clone(),
        }
    }
}

/// A dynamic quantum circuit.
///
/// # Example
///
/// ```
/// use hisq_quantum::{Circuit, Condition, Gate};
///
/// // Quantum teleportation of q0's state onto q2.
/// let mut c = Circuit::new(3, 2);
/// c.h(1);
/// c.cx(1, 2);
/// c.cx(0, 1);
/// c.h(0);
/// c.measure(0, 0);
/// c.measure(1, 1);
/// c.x_if(2, Condition::bit(1, true));
/// c.z_if(2, Condition::bit(0, true));
/// assert_eq!(c.feedback_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    num_clbits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and
    /// `num_clbits` classical bits.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Circuit {
        Circuit {
            name: String::new(),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// Creates an empty named circuit.
    pub fn named(name: impl Into<String>, num_qubits: usize, num_clbits: usize) -> Circuit {
        Circuit {
            name: name.into(),
            num_qubits,
            num_clbits,
            instructions: Vec::new(),
        }
    }

    /// The circuit's name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of classically conditioned instructions (feedback points).
    pub fn feedback_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_conditional())
            .count()
    }

    /// Number of measurements.
    pub fn measurement_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i.op, Operation::Measure { .. }))
            .count()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(&i.op, Operation::Gate { gate, .. } if gate.arity() == 2))
            .count()
    }

    /// `true` if every gate is Clifford (stabilizer-simulable).
    pub fn is_clifford(&self) -> bool {
        self.instructions.iter().all(|i| match &i.op {
            Operation::Gate { gate, .. } => gate.is_clifford(),
            _ => true,
        })
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), CircuitError> {
        if qubit >= self.num_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            });
        }
        Ok(())
    }

    fn check_clbit(&self, clbit: usize) -> Result<(), CircuitError> {
        if clbit >= self.num_clbits {
            return Err(CircuitError::ClbitOutOfRange {
                clbit,
                num_clbits: self.num_clbits,
            });
        }
        Ok(())
    }

    fn check_condition(&self, condition: &Option<Condition>) -> Result<(), CircuitError> {
        if let Some(cond) = condition {
            for clbit in cond.clbits() {
                self.check_clbit(clbit)?;
            }
        }
        Ok(())
    }

    /// Appends a validated instruction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] on out-of-range indices, arity mismatch,
    /// or duplicate qubit operands.
    pub fn push(&mut self, instruction: Instruction) -> Result<(), CircuitError> {
        match &instruction.op {
            Operation::Gate { gate, qubits } => {
                if gate.arity() != qubits.len() {
                    return Err(CircuitError::ArityMismatch {
                        gate: gate.name(),
                        expected: gate.arity(),
                        found: qubits.len(),
                    });
                }
                for &q in qubits {
                    self.check_qubit(q)?;
                }
                if qubits.len() == 2 && qubits[0] == qubits[1] {
                    return Err(CircuitError::DuplicateQubit { qubit: qubits[0] });
                }
            }
            Operation::Measure { qubit, clbit } => {
                self.check_qubit(*qubit)?;
                self.check_clbit(*clbit)?;
            }
            Operation::Reset { qubit } | Operation::Delay { qubit, .. } => {
                self.check_qubit(*qubit)?;
            }
            Operation::Barrier { qubits } => {
                for &q in qubits {
                    self.check_qubit(q)?;
                }
            }
        }
        self.check_condition(&instruction.condition)?;
        self.instructions.push(instruction);
        Ok(())
    }

    /// Appends an unconditional gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands; use [`Circuit::push`] for fallible
    /// construction.
    pub fn gate(&mut self, gate: Gate, qubits: &[usize]) -> &mut Circuit {
        self.push(Instruction {
            op: Operation::Gate {
                gate,
                qubits: qubits.to_vec(),
            },
            condition: None,
        })
        .expect("invalid gate operands");
        self
    }

    /// Appends a conditioned gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn gate_if(&mut self, gate: Gate, qubits: &[usize], condition: Condition) -> &mut Circuit {
        self.push(Instruction {
            op: Operation::Gate {
                gate,
                qubits: qubits.to_vec(),
            },
            condition: Some(condition),
        })
        .expect("invalid gate operands");
        self
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Circuit {
        self.gate(Gate::H, &[q])
    }

    /// Pauli X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Circuit {
        self.gate(Gate::X, &[q])
    }

    /// Pauli Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Circuit {
        self.gate(Gate::Y, &[q])
    }

    /// Pauli Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Circuit {
        self.gate(Gate::Z, &[q])
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) -> &mut Circuit {
        self.gate(Gate::S, &[q])
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Circuit {
        self.gate(Gate::T, &[q])
    }

    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Circuit {
        self.gate(Gate::Cx, &[control, target])
    }

    /// CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Circuit {
        self.gate(Gate::Cz, &[a, b])
    }

    /// Conditional X (feedback correction).
    pub fn x_if(&mut self, q: usize, condition: Condition) -> &mut Circuit {
        self.gate_if(Gate::X, &[q], condition)
    }

    /// Conditional Z (feedback correction).
    pub fn z_if(&mut self, q: usize, condition: Condition) -> &mut Circuit {
        self.gate_if(Gate::Z, &[q], condition)
    }

    /// Measures `q` into classical bit `c`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn measure(&mut self, q: usize, c: usize) -> &mut Circuit {
        self.push(Instruction {
            op: Operation::Measure { qubit: q, clbit: c },
            condition: None,
        })
        .expect("invalid measure operands");
        self
    }

    /// Resets `q` to |0⟩.
    pub fn reset(&mut self, q: usize) -> &mut Circuit {
        self.push(Instruction {
            op: Operation::Reset { qubit: q },
            condition: None,
        })
        .expect("invalid reset operand");
        self
    }

    /// Inserts a barrier over all qubits.
    pub fn barrier(&mut self) -> &mut Circuit {
        self.push(Instruction {
            op: Operation::Barrier { qubits: Vec::new() },
            condition: None,
        })
        .expect("barrier is always valid");
        self
    }

    /// Inserts an explicit idle on `q` (e.g. modelled decoder latency).
    pub fn delay(&mut self, q: usize, duration_ns: u64) -> &mut Circuit {
        self.push(Instruction {
            op: Operation::Delay {
                qubit: q,
                duration_ns,
            },
            condition: None,
        })
        .expect("invalid delay operand");
        self
    }

    /// Appends all instructions of `other` (qubit/clbit indices must
    /// already be compatible).
    ///
    /// # Errors
    ///
    /// Returns the first validation error.
    pub fn append(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        for instruction in other.instructions() {
            self.push(instruction.clone())?;
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit `{}`: {} qubits, {} clbits, {} instructions",
            self.name,
            self.num_qubits,
            self.num_clbits,
            self.instructions.len()
        )?;
        for (i, inst) in self.instructions.iter().enumerate() {
            write!(f, "  [{i:4}] ")?;
            if let Some(cond) = &inst.condition {
                match cond {
                    Condition::Bit { clbit, value } => {
                        write!(f, "if c{clbit}=={} ", u8::from(*value))?
                    }
                    Condition::Parity { clbits, value } => {
                        write!(f, "if parity{clbits:?}=={} ", u8::from(*value))?
                    }
                }
            }
            match &inst.op {
                Operation::Gate { gate, qubits } => writeln!(f, "{gate} {qubits:?}")?,
                Operation::Measure { qubit, clbit } => writeln!(f, "measure q{qubit} -> c{clbit}")?,
                Operation::Reset { qubit } => writeln!(f, "reset q{qubit}")?,
                Operation::Barrier { qubits } if qubits.is_empty() => writeln!(f, "barrier *")?,
                Operation::Barrier { qubits } => writeln!(f, "barrier {qubits:?}")?,
                Operation::Delay { qubit, duration_ns } => {
                    writeln!(f, "delay q{qubit} {duration_ns}ns")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_ranges() {
        let mut c = Circuit::new(2, 1);
        assert!(c
            .push(Instruction {
                op: Operation::Gate {
                    gate: Gate::H,
                    qubits: vec![2],
                },
                condition: None,
            })
            .is_err());
        assert!(c
            .push(Instruction {
                op: Operation::Measure { qubit: 0, clbit: 1 },
                condition: None,
            })
            .is_err());
        assert!(c
            .push(Instruction {
                op: Operation::Gate {
                    gate: Gate::Cx,
                    qubits: vec![0, 0],
                },
                condition: None,
            })
            .is_err());
        assert!(c
            .push(Instruction {
                op: Operation::Gate {
                    gate: Gate::Cx,
                    qubits: vec![0],
                },
                condition: None,
            })
            .is_err());
    }

    #[test]
    fn condition_validation() {
        let mut c = Circuit::new(1, 1);
        let err = c.push(Instruction {
            op: Operation::Gate {
                gate: Gate::X,
                qubits: vec![0],
            },
            condition: Some(Condition::bit(3, true)),
        });
        assert!(matches!(err, Err(CircuitError::ClbitOutOfRange { .. })));
    }

    #[test]
    fn condition_evaluation() {
        let reg = [true, false, true];
        assert!(Condition::bit(0, true).evaluate(&reg));
        assert!(!Condition::bit(1, true).evaluate(&reg));
        assert!(Condition::parity(vec![0, 2], false).evaluate(&reg)); // t^t = false
        assert!(Condition::parity(vec![0, 1], true).evaluate(&reg));
        // Missing bits read as false.
        assert!(Condition::bit(9, false).evaluate(&reg));
    }

    #[test]
    fn statistics() {
        let mut c = Circuit::new(3, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        c.x_if(2, Condition::parity(vec![0, 1], true));
        assert_eq!(c.measurement_count(), 2);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.feedback_count(), 1);
        assert!(c.is_clifford());
        c.t(2);
        assert!(!c.is_clifford());
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2, 1);
        a.h(0);
        let mut b = Circuit::new(2, 1);
        b.cx(0, 1).measure(1, 0);
        a.append(&b).unwrap();
        assert_eq!(a.instructions().len(), 3);
    }

    #[test]
    fn display_is_readable() {
        let mut c = Circuit::named("demo", 2, 1);
        c.h(0).measure(0, 0).x_if(1, Condition::bit(0, true));
        let text = c.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("if c0==1"));
        assert!(text.contains("measure q0 -> c0"));
    }
}
