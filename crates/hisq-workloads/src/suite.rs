//! The Figure 15 benchmark suite: named instances, physical mapping,
//! the topologies they run on, and the [`WorkloadSpec`] enumeration
//! that the sweep engine expands parameter grids over.

use hisq_compiler::{map_to_physical, LongRangeConfig, LongRangeStats};
use hisq_net::{Topology, TopologyBuilder};
use hisq_quantum::{Circuit, Gate};

use crate::adder::vbe_adder;
use crate::bv::{bernstein_vazirani, random_secret};
use crate::logical_t::{logical_t, LogicalTConfig};
use crate::qft::qft;
use crate::w_state::w_state;

/// Suite size: the paper's instances, or scaled-down twins for tests
/// and micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteScale {
    /// The instance sizes reported in Figure 15.
    Paper,
    /// Small instances with identical structure (fast CI runs).
    Quick,
}

/// One runnable benchmark: the physical dynamic circuit plus the
/// controller grid it expects.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name (Figure 15 x-axis label).
    pub name: String,
    /// The physical dynamic circuit (after long-range rewriting, or
    /// natively grid-local for the QEC instances).
    pub physical: Circuit,
    /// Controller grid (width, height).
    pub grid: (usize, usize),
    /// Logical qubit count of the source circuit.
    pub logical_qubits: usize,
    /// Long-range rewriting statistics (None for grid-native instances).
    pub mapping: Option<LongRangeStats>,
}

impl Benchmark {
    /// Builds the topology this benchmark runs on (paper-default link
    /// latencies: 5-cycle mesh edges, 10-cycle tree edges, arity 4).
    pub fn topology(&self) -> Topology {
        TopologyBuilder::grid(self.grid.0, self.grid.1)
            .neighbor_latency(5)
            .router_latency(10)
            .router_arity(4)
            .build()
    }
}

fn mapped(name: impl Into<String>, logical: Circuit, seed: u64) -> Benchmark {
    let config = LongRangeConfig {
        substitution_probability: 1.0,
        seed,
        immediate_corrections: false,
    };
    let logical_qubits = logical.num_qubits();
    let physical = map_to_physical(&logical, &config).expect("mapping is total");
    let width = physical.circuit.num_qubits();
    Benchmark {
        name: name.into(),
        physical: physical.circuit,
        grid: (width, 1),
        logical_qubits,
        mapping: Some(physical.stats),
    }
}

fn qec(name: impl Into<String>, config: &LogicalTConfig) -> Benchmark {
    let instance = logical_t(config);
    Benchmark {
        name: name.into(),
        logical_qubits: instance.active_qubits,
        grid: (instance.width, instance.height),
        physical: instance.circuit,
        mapping: None,
    }
}

/// Instance names of the paper-scale Figure 15 suite, in figure order.
pub const PAPER_SUITE: &[&str] = &[
    "adder_n577",
    "adder_n1153",
    "bv_n400",
    "bv_n1000",
    "logical_t_n432",
    "logical_t_n864",
    "qft_n30",
    "qft_n100",
    "qft_n200",
    "qft_n300",
    "w_state_n800",
    "w_state_n1000",
];

/// Instance names of the scaled-down twin suite (fast CI runs).
pub const QUICK_SUITE: &[&str] = &[
    "adder_n13",
    "bv_n16",
    "logical_t_d3",
    "logical_t_d3x2",
    "qft_n10",
    "w_state_n12",
];

/// Enumerates the suite's instance names without building any circuit —
/// the cheap half of grid expansion (workers build per scenario).
pub fn suite_names(scale: SuiteScale) -> &'static [&'static str] {
    match scale {
        SuiteScale::Paper => PAPER_SUITE,
        SuiteScale::Quick => QUICK_SUITE,
    }
}

/// Builds one suite instance by name (names are unique across both
/// scales, so no scale argument is needed). Returns `None` for unknown
/// names.
///
/// Instance-size notes (documented substitutions, see EXPERIMENTS.md):
/// `adder_n*` are VBE adders (3n+1 qubits: 577 → 192 bits, 1153 → 384);
/// `bv_n*` use sparse 16-bit secrets to keep full-suite regeneration
/// under minutes; `qft_n*` are approximate QFTs (degree 8, no final
/// swaps); `logical_t_n432` is one distance-8 lattice-surgery unit
/// (~470 active qubits) and `logical_t_n864` two units in parallel.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    let bench = match name {
        // Paper-scale instances.
        "adder_n577" => mapped(name, vbe_adder(192, 0x5a5a_5a5a_5a5a, 0x3c3c_3c3c_3c3c), 1),
        "adder_n1153" => mapped(name, vbe_adder(384, 0x5a5a_5a5a_5a5a, 0x3c3c_3c3c_3c3c), 2),
        "bv_n400" => mapped(
            name,
            bernstein_vazirani(400, &random_secret(399, 16, 40)),
            3,
        ),
        "bv_n1000" => mapped(
            name,
            bernstein_vazirani(1000, &random_secret(999, 16, 41)),
            4,
        ),
        "logical_t_n432" => qec(name, &LogicalTConfig::distance(8)),
        "logical_t_n864" => qec(name, &LogicalTConfig::distance(8).with_parallel_units(2)),
        "qft_n30" => mapped(name, qft(30, 8, false), 5),
        "qft_n100" => mapped(name, qft(100, 8, false), 6),
        "qft_n200" => mapped(name, qft(200, 8, false), 7),
        "qft_n300" => mapped(name, qft(300, 8, false), 8),
        "w_state_n800" => mapped(name, w_state(800), 9),
        "w_state_n1000" => mapped(name, w_state(1000), 10),
        // Quick twins.
        "adder_n13" => mapped(name, vbe_adder(4, 0b1010, 0b0110), 1),
        "bv_n16" => mapped(name, bernstein_vazirani(16, &random_secret(15, 4, 40)), 3),
        "logical_t_d3" => qec(name, &LogicalTConfig::distance(3)),
        "logical_t_d3x2" => qec(name, &LogicalTConfig::distance(3).with_parallel_units(2)),
        "qft_n10" => mapped(name, qft(10, 5, false), 5),
        "w_state_n12" => mapped(name, w_state(12), 9),
        _ => return None,
    };
    Some(bench)
}

/// Assembles the Figure 15 suite.
pub fn fig15_suite(scale: SuiteScale) -> Vec<Benchmark> {
    suite_names(scale)
        .iter()
        .map(|name| benchmark(name).expect("suite names are known"))
        .collect()
}

/// The Figure 16 circuit: `parallel` long-range CNOTs (Figure 14
/// gadgets with immediate corrections) executing simultaneously — the
/// simultaneous-feedback scenario whose serialization hurts the
/// lock-step baseline. Returns the physical circuit and the physical
/// sites of the data qubits carrying |ψ₁⟩/|ψ₂⟩ (the circuit's quantum
/// output, scored over the full schedule by the fidelity model).
pub fn simultaneous_long_range_cnots(parallel: usize, span: usize) -> (Circuit, Vec<usize>) {
    let seg = span + 1;
    let n = parallel * seg;
    let mut logical = Circuit::new(n, 1);
    let mut data_sites = Vec::new();
    for g in 0..parallel {
        let c = g * seg;
        let t = c + span;
        logical.gate(Gate::Ry(0.7), &[c]);
        logical.gate(Gate::Ry(1.1), &[t]);
        logical.cx(c, t);
        data_sites.push(2 * c);
        data_sites.push(2 * t);
    }
    let config = LongRangeConfig {
        substitution_probability: 1.0,
        seed: 16,
        immediate_corrections: true,
    };
    let physical = map_to_physical(&logical, &config).expect("mapping is total");
    (physical.circuit, data_sites)
}

/// Controllers (physical sites) of [`simultaneous_long_range_cnots`]:
/// each gadget's `span + 1` logical qubits interleave with ancillas,
/// `2 · parallel · (span + 1) − 1` sites in all. `None` if the count
/// overflows or `parallel` is zero.
pub fn long_range_controllers(parallel: usize, span: usize) -> Option<usize> {
    parallel
        .checked_mul(span.checked_add(1)?)?
        .checked_mul(2)?
        .checked_sub(1)
}

/// A workload named by its parameters — the unit the sweep engine's
/// grid expansion enumerates. Building the circuit is deferred to
/// [`WorkloadSpec::build`], so expanding a grid over hundreds of
/// scenarios stays cheap and the expensive circuit generation runs on
/// the sweep workers.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A named Figure 15 suite instance (see [`suite_names`]).
    Suite {
        /// Instance name, e.g. `"qft_n10"`.
        name: String,
    },
    /// The Figure 16 simultaneous long-range CNOT circuit.
    LongRangeCnots {
        /// Number of simultaneous CNOT gadgets.
        parallel: usize,
        /// Logical control→target distance of each gadget.
        span: usize,
    },
}

impl WorkloadSpec {
    /// Spec for a named suite instance.
    pub fn suite(name: impl Into<String>) -> WorkloadSpec {
        WorkloadSpec::Suite { name: name.into() }
    }

    /// Specs for every instance of a suite scale.
    pub fn suite_specs(scale: SuiteScale) -> Vec<WorkloadSpec> {
        suite_names(scale)
            .iter()
            .map(|name| WorkloadSpec::suite(*name))
            .collect()
    }

    /// A short stable label for scenario identifiers.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Suite { name } => name.clone(),
            WorkloadSpec::LongRangeCnots { parallel, span } => {
                format!("lr_cnot_p{parallel}_s{span}")
            }
        }
    }

    /// Generates the physical circuit. Returns `None` for unknown
    /// suite names.
    pub fn build(&self) -> Option<BuiltWorkload> {
        match self {
            WorkloadSpec::Suite { name } => {
                let bench = benchmark(name)?;
                Some(BuiltWorkload {
                    label: bench.name,
                    circuit: bench.physical,
                    grid: bench.grid,
                    data_sites: Vec::new(),
                })
            }
            WorkloadSpec::LongRangeCnots { parallel, span } => {
                let (circuit, data_sites) = simultaneous_long_range_cnots(*parallel, *span);
                let width = circuit.num_qubits();
                Some(BuiltWorkload {
                    label: self.label(),
                    circuit,
                    grid: (width, 1),
                    data_sites,
                })
            }
        }
    }
}

/// A generated workload, ready for compilation: the physical circuit,
/// the controller grid it expects, and (optionally) the data-qubit
/// sites whose full-schedule exposure the fidelity model scores.
#[derive(Debug, Clone)]
pub struct BuiltWorkload {
    /// Display label.
    pub label: String,
    /// The physical dynamic circuit.
    pub circuit: Circuit,
    /// Controller grid (width, height).
    pub grid: (usize, usize),
    /// Output data-qubit sites for full-span exposure scoring; empty
    /// means "score the simulator's own exposure ledger".
    pub data_sites: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_range_controllers_counts_the_physical_sites() {
        for (parallel, span) in [(1, 1), (1, 7), (2, 3), (3, 2), (4, 7)] {
            let (circuit, _) = simultaneous_long_range_cnots(parallel, span);
            assert_eq!(
                long_range_controllers(parallel, span),
                Some(circuit.num_qubits()),
                "parallel {parallel}, span {span}"
            );
        }
        assert_eq!(long_range_controllers(0, 7), None);
        assert_eq!(long_range_controllers(usize::MAX, 1), None);
    }

    #[test]
    fn quick_suite_builds_and_fits_its_grids() {
        for bench in fig15_suite(SuiteScale::Quick) {
            assert_eq!(
                bench.physical.num_qubits(),
                bench.grid.0 * bench.grid.1,
                "{}: circuit must exactly cover its grid",
                bench.name
            );
            let topo = bench.topology();
            assert_eq!(topo.num_controllers(), bench.physical.num_qubits());
            assert!(topo.root_router().is_some());
        }
    }

    #[test]
    fn mapped_benchmarks_are_dynamic_circuits() {
        let suite = fig15_suite(SuiteScale::Quick);
        for bench in suite.iter().filter(|b| b.mapping.is_some()) {
            let stats = bench.mapping.unwrap();
            assert!(
                stats.substituted > 0,
                "{}: expected long-range substitutions",
                bench.name
            );
            assert!(
                bench.physical.feedback_count() > 0,
                "{}: dynamic circuits have feedback",
                bench.name
            );
        }
    }

    #[test]
    fn paper_suite_has_figure15_names() {
        // Building the full paper suite is slow; only check the names by
        // construction logic on the quick twin plus the two cheap paper
        // instances.
        let names: Vec<String> = fig15_suite(SuiteScale::Quick)
            .into_iter()
            .map(|b| b.name)
            .collect();
        assert!(names.iter().any(|n| n.starts_with("adder")));
        assert!(names.iter().any(|n| n.starts_with("bv")));
        assert!(names.iter().any(|n| n.starts_with("logical_t")));
        assert!(names.iter().any(|n| n.starts_with("qft")));
        assert!(names.iter().any(|n| n.starts_with("w_state")));
    }

    #[test]
    fn physical_sizes_follow_interleaved_layout() {
        let bench = &fig15_suite(SuiteScale::Quick)[0]; // adder_n13
        assert_eq!(bench.logical_qubits, 13);
        assert_eq!(bench.physical.num_qubits(), 25); // 2n − 1
    }

    #[test]
    fn suite_names_enumerate_without_building() {
        assert_eq!(suite_names(SuiteScale::Quick).len(), 6);
        assert_eq!(suite_names(SuiteScale::Paper).len(), 12);
        // Names are unique across both scales (benchmark() needs this).
        let mut all: Vec<&str> = PAPER_SUITE.iter().chain(QUICK_SUITE).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), PAPER_SUITE.len() + QUICK_SUITE.len());
        assert!(benchmark("no_such_instance").is_none());
    }

    #[test]
    fn workload_specs_build_their_circuits() {
        let specs = WorkloadSpec::suite_specs(SuiteScale::Quick);
        assert_eq!(specs.len(), QUICK_SUITE.len());
        let built = specs[0].build().expect("known instance");
        assert_eq!(built.label, "adder_n13");
        assert_eq!(built.circuit.num_qubits(), built.grid.0 * built.grid.1);
        assert!(built.data_sites.is_empty(), "suite scores the sim ledger");

        let lr = WorkloadSpec::LongRangeCnots {
            parallel: 2,
            span: 3,
        };
        assert_eq!(lr.label(), "lr_cnot_p2_s3");
        let built = lr.build().expect("total mapping");
        assert_eq!(built.data_sites.len(), 4, "two sites per gadget");
        assert!(built.circuit.feedback_count() > 0, "dynamic gadgets");

        assert!(WorkloadSpec::suite("nope").build().is_none());
    }
}
