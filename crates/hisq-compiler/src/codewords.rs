//! Codeword tables: the binding between HISQ's hardware-agnostic
//! `(port, codeword)` pairs and the quantum operations they trigger.
//!
//! HISQ deliberately knows nothing about quantum semantics (Insight #3);
//! "the meaning of a codeword depends on the compiler and hardware
//! configurations" (§3.1.2). The compiler therefore emits, alongside the
//! per-controller binaries, a table telling the analog front-end (or the
//! simulator's quantum backend) what each committed codeword does.

use std::collections::BTreeMap;

use hisq_core::NodeAddr;
use hisq_quantum::{Gate, QuantumAction};

/// The port carrying gate-trigger codewords on every controller.
pub const PORT_GATE: u32 = 0;
/// The port carrying readout (measurement) triggers.
pub const PORT_READOUT: u32 = 2;

/// One `(node, port, codeword) → action` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The committing controller.
    pub node: NodeAddr,
    /// Port the codeword is sent to.
    pub port: u32,
    /// The codeword value.
    pub codeword: u32,
    /// The triggered action; `None` for the silent pulse of a
    /// two-qubit gate's partner controller.
    pub action: Option<QuantumAction>,
}

/// Canonical key for gate identity, including quantized rotation angles
/// so that floating-point parameters can index a table.
/// Deduplication identity of a bindable action: (kind id, quantized
/// angle, qubit operands).
type ActionKey = (u8, i64, Vec<usize>);

fn gate_key(gate: Gate, qubits: &[usize]) -> ActionKey {
    let quantize = |theta: f64| (theta * 1e9).round() as i64;
    let (id, angle) = match gate {
        Gate::I => (0, 0),
        Gate::X => (1, 0),
        Gate::Y => (2, 0),
        Gate::Z => (3, 0),
        Gate::H => (4, 0),
        Gate::S => (5, 0),
        Gate::Sdg => (6, 0),
        Gate::T => (7, 0),
        Gate::Tdg => (8, 0),
        Gate::Rx(t) => (9, quantize(t)),
        Gate::Ry(t) => (10, quantize(t)),
        Gate::Rz(t) => (11, quantize(t)),
        Gate::Phase(t) => (12, quantize(t)),
        Gate::Cx => (13, 0),
        Gate::Cz => (14, 0),
        Gate::Cphase(t) => (15, quantize(t)),
        Gate::Swap => (16, 0),
    };
    (id, angle, qubits.to_vec())
}

/// Per-controller codeword allocator and binding collector.
#[derive(Debug, Clone, Default)]
pub struct CodewordTable {
    /// Next free codeword per (node, port).
    next: BTreeMap<(NodeAddr, u32), u32>,
    /// Allocated codewords for repeated actions.
    known: BTreeMap<(NodeAddr, u32, ActionKey), u32>,
    bindings: Vec<Binding>,
}

impl CodewordTable {
    /// Creates an empty table.
    pub fn new() -> CodewordTable {
        CodewordTable::default()
    }

    fn alloc(&mut self, node: NodeAddr, port: u32) -> u32 {
        let next = self.next.entry((node, port)).or_insert(1);
        let cw = *next;
        *next += 1;
        cw
    }

    /// Allocates (or reuses) the codeword triggering `gate` on `qubits`
    /// from `node`.
    pub fn gate(&mut self, node: NodeAddr, gate: Gate, qubits: &[usize]) -> u32 {
        let key = (node, PORT_GATE, gate_key(gate, qubits));
        if let Some(&cw) = self.known.get(&key) {
            return cw;
        }
        let cw = self.alloc(node, PORT_GATE);
        self.known.insert(key, cw);
        self.bindings.push(Binding {
            node,
            port: PORT_GATE,
            codeword: cw,
            action: Some(QuantumAction::gate(gate, qubits)),
        });
        cw
    }

    /// Allocates (or reuses) the silent pulse codeword of `node` (the
    /// partner half of a two-qubit gate).
    pub fn pulse(&mut self, node: NodeAddr) -> u32 {
        let key = (node, PORT_GATE, (u8::MAX, 0, Vec::new()));
        if let Some(&cw) = self.known.get(&key) {
            return cw;
        }
        let cw = self.alloc(node, PORT_GATE);
        self.known.insert(key, cw);
        self.bindings.push(Binding {
            node,
            port: PORT_GATE,
            codeword: cw,
            action: None,
        });
        cw
    }

    /// Allocates (or reuses) the measurement-trigger codeword of `node`
    /// for `qubit`, on [`PORT_READOUT`]: the only constructor of a
    /// measure binding, so every one sits on that port.
    pub fn measure(&mut self, node: NodeAddr, qubit: usize) -> u32 {
        let key = (node, PORT_READOUT, (u8::MAX - 1, qubit as i64, Vec::new()));
        if let Some(&cw) = self.known.get(&key) {
            return cw;
        }
        let cw = self.alloc(node, PORT_READOUT);
        self.known.insert(key, cw);
        self.bindings.push(Binding {
            node,
            port: PORT_READOUT,
            codeword: cw,
            action: Some(QuantumAction::Measure { qubit }),
        });
        cw
    }

    /// Allocates (or reuses) the reset codeword of `node` for `qubit`.
    pub fn reset(&mut self, node: NodeAddr, qubit: usize) -> u32 {
        let key = (node, PORT_GATE, (u8::MAX - 2, qubit as i64, Vec::new()));
        if let Some(&cw) = self.known.get(&key) {
            return cw;
        }
        let cw = self.alloc(node, PORT_GATE);
        self.known.insert(key, cw);
        self.bindings.push(Binding {
            node,
            port: PORT_GATE,
            codeword: cw,
            action: Some(QuantumAction::Reset { qubit }),
        });
        cw
    }

    /// All bindings collected so far.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Consumes the table, returning the bindings.
    pub fn into_bindings(self) -> Vec<Binding> {
        self.bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codewords_are_reused_for_identical_actions() {
        let mut table = CodewordTable::new();
        let a = table.gate(0, Gate::H, &[0]);
        let b = table.gate(0, Gate::H, &[0]);
        assert_eq!(a, b);
        let c = table.gate(0, Gate::H, &[1]);
        assert_ne!(a, c);
        assert_eq!(table.bindings().len(), 2);
    }

    #[test]
    fn angles_distinguish_rotations() {
        let mut table = CodewordTable::new();
        let a = table.gate(0, Gate::Rz(0.5), &[0]);
        let b = table.gate(0, Gate::Rz(0.25), &[0]);
        let c = table.gate(0, Gate::Rz(0.5), &[0]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn namespaces_per_node_and_port() {
        let mut table = CodewordTable::new();
        let g = table.gate(3, Gate::X, &[3]);
        let m = table.measure(3, 3);
        let p = table.pulse(3);
        let r = table.reset(3, 3);
        // Gate/pulse/reset share the gate port's numbering; measure has
        // its own port namespace.
        assert_eq!(g, 1);
        assert_eq!(m, 1);
        assert_eq!(p, 2);
        assert_eq!(r, 3);
        assert_eq!(table.bindings().len(), 4);
        // Same action on another node allocates independently.
        assert_eq!(table.gate(4, Gate::X, &[4]), 1);
    }
}
