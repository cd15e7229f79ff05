//! Operation-duration tables (§6.4.1 of the paper).
//!
//! > "In our evaluation, we set 20 ns (40 ns) for single (two)-qubit
//! > gates, and 300 ns for measurements."
//!
//! [`GateDurations::PAPER`] is the only place these values are written.
//! They are kept in nanoseconds so the quantum layer stays independent
//! of controller clocking: the compiler derives its 4 ns cycle table
//! from them, and the simulator reads them for measurement latency and
//! exposure accounting.

use crate::gate::Gate;

/// Fixed operation durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateDurations {
    /// Single-qubit gate duration.
    pub single_qubit_ns: u64,
    /// Two-qubit gate duration.
    pub two_qubit_ns: u64,
    /// Measurement duration (excitation + acquisition + discrimination).
    pub measurement_ns: u64,
    /// Active qubit reset duration.
    pub reset_ns: u64,
}

impl GateDurations {
    /// The paper's evaluation parameters: 20 / 40 / 300 ns.
    pub const PAPER: GateDurations = GateDurations {
        single_qubit_ns: 20,
        two_qubit_ns: 40,
        measurement_ns: 300,
        reset_ns: 300,
    };

    /// Duration of a gate.
    pub fn gate_ns(&self, gate: Gate) -> u64 {
        match gate.arity() {
            1 => self.single_qubit_ns,
            _ => self.two_qubit_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let d = GateDurations::PAPER;
        assert_eq!(d.gate_ns(Gate::H), 20);
        assert_eq!(d.gate_ns(Gate::Cz), 40);
        assert_eq!(d.measurement_ns, 300);
    }
}
