//! The experiment harness: from a scenario description to aggregated
//! sweep results, end to end.
//!
//! This module is the facade over the whole reproduction pipeline —
//! **compile → place → simulate → aggregate**:
//!
//! 1. [`Scenario`] names one experiment point: a workload
//!    ([`WorkloadSpec`]), an execution scheme ([`Scheme`]), the system
//!    parameters ([`SystemParams`]), a backend seed, and the coherence
//!    time the fidelity model scores against.
//! 2. [`run_scenario`] executes one point: builds the circuit, the
//!    topology, compiles under the scheme, simulates, and distills the
//!    paper's metrics into a [`SweepRecord`].
//! 3. [`run_sweep`] fans a whole scenario list out over a
//!    [`hisq_sim::SweepRunner`] worker pool and aggregates the records
//!    into a deterministic [`SweepReport`] — the substrate behind every
//!    `fig*`/`table1` binary's `--threads N --json` path.
//!
//! The lower-level [`build_system`] stays public for callers that
//! bring their own compiled programs.
//!
//! # Example
//!
//! ```
//! use distributed_hisq::runner::{run_sweep, Scenario};
//! use distributed_hisq::compiler::Scheme;
//! use distributed_hisq::workloads::WorkloadSpec;
//! use distributed_hisq::sim::SweepGrid;
//!
//! // Both schemes on one quick workload, two seeds: a 1×2×2 grid.
//! let scenarios = SweepGrid::new(Scenario::new(
//!         WorkloadSpec::suite("w_state_n12"),
//!         Scheme::Bisp,
//!     ))
//!     .axis([Scheme::Bisp, Scheme::Lockstep], |s, &scheme| s.scheme = scheme)
//!     .axis([1u64, 2], |s, &seed| s.seed = seed)
//!     .into_points();
//!
//! let report = run_sweep(&scenarios, 2).unwrap();
//! assert_eq!(report.records().len(), 4);
//! assert_eq!(report.summary()["all_halted"].sum, 4.0, "every run halts");
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::load::LoadSpec;
use hisq_compiler::fabric::{apply_placement, plan_placement, FabricCosts};
use hisq_compiler::{
    compile_bisp, compile_lockstep, Binding, BindingAction, BispOptions, CompiledSystem,
    LockstepOptions, Scheme, PORT_READOUT,
};
use hisq_core::{NodeAddr, NodeConfig};
use hisq_isa::MAX_WAITI_CYCLES;
use hisq_json::{Json, JsonError, ObjReader};
use hisq_net::json::{edge_override_from_json, edge_override_to_json};
use hisq_net::{FabricMap, LinkModel, Topology, TopologyBuilder};
use hisq_quantum::{CoherenceParams, ExposureLedger, NoiseMap, NoiseModel};
use hisq_sim::{
    BackendSpec, Hub, QuantumAction, SimError, SweepRecord, SweepReport, SweepRunner, System,
    SystemSpec,
};
use hisq_workloads::WorkloadSpec;

/// The measured outcome of one executed scenario (a flat metric bag
/// keyed by the scenario's stable id — see [`run_scenario`] for the
/// metric names).
pub type ScenarioReport = SweepRecord;

/// A failure anywhere along the facade pipeline — describing, building,
/// compiling, or simulating a scenario. Every variant is a
/// malformed-but-constructible input (an unknown workload name, a
/// program map colliding with infrastructure addresses, a mis-rooted
/// tree): the facade reports them structurally instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// The scenario named a workload the suite does not know.
    UnknownWorkload {
        /// Scenario id (for sweep-level attribution).
        id: String,
    },
    /// Compilation of the workload's circuit failed.
    Compile {
        /// Scenario id.
        id: String,
        /// Compiler diagnostic.
        message: String,
    },
    /// A BISP system was described without its compilation topology.
    MissingTopology {
        /// Scenario id, or `""` outside a scenario context.
        id: String,
    },
    /// A lock-step system was described from a compile result that
    /// carries no hub specification.
    MissingHub {
        /// Scenario id, or `""` outside a scenario context.
        id: String,
    },
    /// Building or running the simulator failed (the scenario id is
    /// empty when the error came from the lower-level
    /// [`build_system`] entry point).
    Sim {
        /// Scenario id, or `""` outside a scenario context.
        id: String,
        /// The simulator error.
        source: SimError,
    },
    /// A [`SurgeryOp`] could not be applied to the scenario's topology
    /// (e.g. dropping the only router level, or a rewire that would
    /// create a cycle).
    Surgery {
        /// Scenario id.
        id: String,
        /// What the surgery op objected to.
        message: String,
    },
    /// The scenario's `load` block was missing or structurally invalid
    /// (see [`crate::load::LoadSpec::validate`]), or a job-engine run
    /// could not produce a service time.
    Load {
        /// Scenario id.
        id: String,
        /// What the job engine objected to.
        message: String,
    },
}

impl RunnerError {
    fn sim(source: SimError) -> RunnerError {
        RunnerError::Sim {
            id: String::new(),
            source,
        }
    }

    /// Re-attributes the error to scenario `id` (every variant): the
    /// compile stage produces errors without a scenario context —
    /// including *cached* errors replayed for a different scenario of
    /// the same [`CompileKey`] — and the caller stamps its own id on,
    /// so cached and fresh failures render identically.
    pub(crate) fn with_id(self, id: &str) -> RunnerError {
        let id = id.to_string();
        match self {
            RunnerError::UnknownWorkload { .. } => RunnerError::UnknownWorkload { id },
            RunnerError::Compile { message, .. } => RunnerError::Compile { id, message },
            RunnerError::MissingTopology { .. } => RunnerError::MissingTopology { id },
            RunnerError::MissingHub { .. } => RunnerError::MissingHub { id },
            RunnerError::Sim { source, .. } => RunnerError::Sim { id, source },
            RunnerError::Surgery { message, .. } => RunnerError::Surgery { id, message },
            RunnerError::Load { message, .. } => RunnerError::Load { id, message },
        }
    }
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::UnknownWorkload { id } => write!(f, "{id}: unknown workload"),
            RunnerError::Compile { id, message } => write!(f, "{id}: compile failed: {message}"),
            RunnerError::MissingTopology { id } => {
                let prefix = if id.is_empty() {
                    String::new()
                } else {
                    format!("{id}: ")
                };
                write!(f, "{prefix}BISP systems need their compilation topology")
            }
            RunnerError::MissingHub { id } => {
                let prefix = if id.is_empty() {
                    String::new()
                } else {
                    format!("{id}: ")
                };
                write!(f, "{prefix}lock-step systems carry a hub spec")
            }
            RunnerError::Sim { id, source } if id.is_empty() => write!(f, "{source}"),
            RunnerError::Sim { id, source } => write!(f, "{id}: {source}"),
            RunnerError::Surgery { id, message } => {
                write!(f, "{id}: invalid surgery: {message}")
            }
            RunnerError::Load { id, message } => {
                write!(f, "{id}: invalid load: {message}")
            }
        }
    }
}

impl Error for RunnerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunnerError::Sim { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SimError> for RunnerError {
    fn from(source: SimError) -> RunnerError {
        RunnerError::sim(source)
    }
}

/// Describes a compiled program as a declarative [`SystemSpec`].
///
/// For [`Scheme::Bisp`] the topology that the circuit was compiled
/// against must be supplied (controllers, mesh links, and the router
/// tree are described from it). For [`Scheme::Lockstep`] a star
/// system is described: bare controllers plus the broadcast hub.
///
/// # Errors
///
/// Returns [`RunnerError::MissingTopology`] if a BISP program is
/// described without its topology, or [`RunnerError::MissingHub`] if a
/// lock-step compile result carries no hub.
pub fn system_spec(
    compiled: &CompiledSystem,
    topology: Option<&Topology>,
) -> Result<SystemSpec, RunnerError> {
    let mut spec = match compiled.scheme {
        Scheme::Bisp => {
            let topology = topology.ok_or(RunnerError::MissingTopology { id: String::new() })?;
            let programs = compiled
                .programs
                .iter()
                .map(|(&addr, program)| (addr, program.insts().to_vec()))
                .collect();
            SystemSpec::from_topology(topology, programs)
        }
        Scheme::Lockstep => {
            let hub = compiled
                .hub
                .ok_or(RunnerError::MissingHub { id: String::new() })?;
            let config = hisq_sim::SimConfig {
                default_classical_latency: hub.up_latency,
                ..hisq_sim::SimConfig::default()
            };
            let mut spec = SystemSpec::new();
            spec.config(config);
            spec.hub(
                hub.addr,
                Hub {
                    subscribers: compiled.programs.keys().copied().collect(),
                    down_latency: hub.down_latency,
                },
            );
            for (&addr, program) in &compiled.programs {
                spec.controller(
                    NodeConfig::new(addr).with_pipeline_headroom(32),
                    program.insts().to_vec(),
                );
            }
            spec
        }
    };
    apply_bindings(&mut spec, &compiled.bindings);
    Ok(spec)
}

/// Builds a ready-to-run [`System`] from a compiled program — the
/// [`system_spec`] description, validated and built.
///
/// # Errors
///
/// Returns [`RunnerError`] if the description is incomplete (missing
/// topology/hub) or node addresses collide (a compiler bug).
pub fn build_system(
    compiled: &CompiledSystem,
    topology: Option<&Topology>,
) -> Result<System, RunnerError> {
    system_spec(compiled, topology)?
        .build()
        .map_err(RunnerError::sim)
}

/// Installs codeword bindings into a system description.
fn apply_bindings(spec: &mut SystemSpec, bindings: &[Binding]) {
    for binding in bindings {
        match &binding.action {
            BindingAction::Gate { gate, qubits } => {
                spec.bind(
                    binding.node,
                    binding.port,
                    binding.codeword,
                    QuantumAction::Gate {
                        gate: *gate,
                        qubits: qubits.clone(),
                    },
                );
            }
            BindingAction::Measure { qubit } => {
                debug_assert_eq!(binding.port, PORT_READOUT);
                spec.bind(
                    binding.node,
                    binding.port,
                    binding.codeword,
                    QuantumAction::Measure { qubit: *qubit },
                );
            }
            BindingAction::Reset { qubit } => {
                spec.bind(
                    binding.node,
                    binding.port,
                    binding.codeword,
                    QuantumAction::Reset { qubit: *qubit },
                );
            }
            BindingAction::Pulse => {}
        }
    }
}

/// A spec-surgery transform: a declarative edit applied to a scenario
/// before it runs, making "the same experiment, with one structural
/// change" expressible as a first-class sweep axis (and a scenario-file
/// field) instead of a forked binary.
///
/// Topology ops ([`DropRouterLevel`](SurgeryOp::DropRouterLevel),
/// [`RewireSubtree`](SurgeryOp::RewireSubtree)) mutate the built
/// router tree *before* compilation, so the BISP compiler places
/// region syncs against the surgered tree. Scenario ops
/// ([`SwapWorkload`](SurgeryOp::SwapWorkload),
/// [`OverrideLinkModel`](SurgeryOp::OverrideLinkModel),
/// [`OverrideNoise`](SurgeryOp::OverrideNoise)) replace the
/// corresponding scenario field, and the heat ops
/// ([`HeatEdge`](SurgeryOp::HeatEdge),
/// [`HeatQubit`](SurgeryOp::HeatQubit)) push one per-edge/per-qubit
/// override on top of whatever the parameters declare (see
/// [`effective_maps`] for the resolution order). Ops apply in list
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum SurgeryOp {
    /// Remove the bottom router level, splicing its children into
    /// their grandparents (see
    /// [`Topology::drop_router_level`]) — a flatter,
    /// higher-fan-in synchronization tree.
    DropRouterLevel,
    /// Reattach the subtree rooted at `subtree` under router
    /// `new_parent` (see [`Topology::rewire_subtree`]) —
    /// a region reporting through a different coordinator.
    RewireSubtree {
        /// Root of the moved subtree (controller or router address).
        subtree: NodeAddr,
        /// The router that adopts it.
        new_parent: NodeAddr,
    },
    /// Run a different workload with otherwise identical parameters.
    SwapWorkload {
        /// The replacement workload.
        workload: WorkloadSpec,
    },
    /// Replace the classical link contention model.
    OverrideLinkModel {
        /// The replacement model.
        link_model: LinkModel,
    },
    /// Replace the quantum noise model.
    OverrideNoise {
        /// The replacement model.
        noise: NoiseModel,
    },
    /// Heat one directed fabric edge: run `link_model` on the
    /// `from → to` link while every other link keeps the scenario's
    /// default — "the same machine, with one degraded cable".
    HeatEdge {
        /// Source endpoint of the heated link.
        from: NodeAddr,
        /// Destination endpoint of the heated link.
        to: NodeAddr,
        /// The model the heated link runs.
        link_model: LinkModel,
    },
    /// Heat one physical qubit: score (and sample) `noise` on that
    /// qubit while every other qubit keeps the scenario's default —
    /// "the same device, with one lossy transmon".
    HeatQubit {
        /// The heated physical qubit (= controller index).
        qubit: usize,
        /// The model the heated qubit runs.
        noise: NoiseModel,
    },
}

/// Short stable rendering of a [`LinkModel`] for scenario-id segments:
/// `serN.cK[.lossPPM.sSEED.aATTEMPTS]`.
fn link_model_fragment(model: &LinkModel) -> String {
    let mut frag = format!("ser{}.c{}", model.serialization_ns, model.capacity);
    if let Some(drop) = model.drop {
        frag.push_str(&format!(
            ".loss{}.s{}.a{}",
            drop.loss_ppm, drop.seed, drop.max_attempts
        ));
    }
    frag
}

/// Short stable rendering of a [`NoiseModel`] for scenario-id segments:
/// `p1qA.p2qB.mC.iD.lE` (every rate, so grid points along any noise
/// axis stay unique).
fn noise_fragment(noise: &NoiseModel) -> String {
    format!(
        "p1q{}.p2q{}.m{}.i{}.l{}",
        noise.p_gate_1q, noise.p_gate_2q, noise.p_meas, noise.p_idle_per_ns, noise.p_leak
    )
}

impl SurgeryOp {
    /// Short stable fragment for scenario ids (see [`Scenario::id`]).
    fn id_fragment(&self) -> String {
        match self {
            SurgeryOp::DropRouterLevel => "droplevel".to_string(),
            SurgeryOp::RewireSubtree {
                subtree,
                new_parent,
            } => format!("rewire{subtree}-{new_parent}"),
            SurgeryOp::SwapWorkload { workload } => format!("swap-{}", workload.label()),
            SurgeryOp::OverrideLinkModel { link_model } => {
                format!("lm-{}", link_model_fragment(link_model))
            }
            SurgeryOp::OverrideNoise { noise } => format!("noise-{}", noise_fragment(noise)),
            SurgeryOp::HeatEdge {
                from,
                to,
                link_model,
            } => format!("heatedge{from}-{to}.{}", link_model_fragment(link_model)),
            SurgeryOp::HeatQubit { qubit, noise } => {
                format!("heatqubit{qubit}.{}", noise_fragment(noise))
            }
        }
    }

    /// Serializes the op as an `op`-tagged object, e.g.
    /// `{"op":"rewire_subtree","subtree":5,"new_parent":21}`.
    pub fn to_json(&self) -> Json {
        match self {
            SurgeryOp::DropRouterLevel => {
                Json::Object(vec![("op".into(), Json::str("drop_router_level"))])
            }
            SurgeryOp::RewireSubtree {
                subtree,
                new_parent,
            } => Json::Object(vec![
                ("op".into(), Json::str("rewire_subtree")),
                ("subtree".into(), (*subtree).into()),
                ("new_parent".into(), (*new_parent).into()),
            ]),
            SurgeryOp::SwapWorkload { workload } => Json::Object(vec![
                ("op".into(), Json::str("swap_workload")),
                ("workload".into(), workload.to_json()),
            ]),
            SurgeryOp::OverrideLinkModel { link_model } => Json::Object(vec![
                ("op".into(), Json::str("override_link_model")),
                ("link_model".into(), link_model.to_json()),
            ]),
            SurgeryOp::OverrideNoise { noise } => Json::Object(vec![
                ("op".into(), Json::str("override_noise")),
                ("noise".into(), noise.to_json()),
            ]),
            SurgeryOp::HeatEdge {
                from,
                to,
                link_model,
            } => Json::Object(vec![
                ("op".into(), Json::str("heat_edge")),
                ("from".into(), (*from).into()),
                ("to".into(), (*to).into()),
                ("link_model".into(), link_model.to_json()),
            ]),
            SurgeryOp::HeatQubit { qubit, noise } => Json::Object(vec![
                ("op".into(), Json::str("heat_qubit")),
                ("qubit".into(), (*qubit).into()),
                ("noise".into(), noise.to_json()),
            ]),
        }
    }

    /// Parses an op serialized by [`SurgeryOp::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for an unknown `op` tag,
    /// missing/unknown fields, or wrong types.
    pub fn from_json(value: &Json, path: &str) -> Result<SurgeryOp, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let tag_path = obj.field_path("op");
        let tag = obj.required("op")?.as_str(&tag_path)?.to_owned();
        let op = match tag.as_str() {
            "drop_router_level" => SurgeryOp::DropRouterLevel,
            "rewire_subtree" => SurgeryOp::RewireSubtree {
                subtree: obj
                    .required("subtree")?
                    .as_u16(&obj.field_path("subtree"))?,
                new_parent: obj
                    .required("new_parent")?
                    .as_u16(&obj.field_path("new_parent"))?,
            },
            "swap_workload" => SurgeryOp::SwapWorkload {
                workload: WorkloadSpec::from_json(
                    obj.required("workload")?,
                    &obj.field_path("workload"),
                )?,
            },
            "override_link_model" => SurgeryOp::OverrideLinkModel {
                link_model: LinkModel::from_json(
                    obj.required("link_model")?,
                    &obj.field_path("link_model"),
                )?,
            },
            "override_noise" => SurgeryOp::OverrideNoise {
                noise: NoiseModel::from_json(obj.required("noise")?, &obj.field_path("noise"))?,
            },
            "heat_edge" => SurgeryOp::HeatEdge {
                from: obj.required("from")?.as_u16(&obj.field_path("from"))?,
                to: obj.required("to")?.as_u16(&obj.field_path("to"))?,
                link_model: LinkModel::from_json(
                    obj.required("link_model")?,
                    &obj.field_path("link_model"),
                )?,
            },
            "heat_qubit" => SurgeryOp::HeatQubit {
                qubit: obj.required("qubit")?.as_usize(&obj.field_path("qubit"))?,
                noise: NoiseModel::from_json(obj.required("noise")?, &obj.field_path("noise"))?,
            },
            other => {
                return Err(JsonError::decode(
                    tag_path,
                    format!(
                        "unknown surgery op \"{other}\" (expected \"drop_router_level\", \
                         \"rewire_subtree\", \"swap_workload\", \"override_link_model\", \
                         \"override_noise\", \"heat_edge\", or \"heat_qubit\")"
                    ),
                ))
            }
        };
        obj.reject_unknown()?;
        Ok(op)
    }
}

/// One per-directed-edge link-model override of a scenario's fabric:
/// the `from → to` link runs `link_model` while every other link keeps
/// the scenario default. The scenario-grammar form is
/// `{"from": a, "to": b, "model": {...}}` (the same shape
/// [`SystemSpec`]'s `link_overrides` field uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOverride {
    /// Source endpoint of the overridden link.
    pub from: NodeAddr,
    /// Destination endpoint of the overridden link.
    pub to: NodeAddr,
    /// The model that directed link runs.
    pub link_model: LinkModel,
}

impl LinkOverride {
    /// Serializes the override as `{"from": a, "to": b, "model": {...}}`.
    pub fn to_json(&self) -> Json {
        edge_override_to_json(self.from, self.to, &self.link_model)
    }

    /// Parses an override serialized by [`LinkOverride::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for missing/unknown fields or
    /// a malformed model.
    pub fn from_json(value: &Json, path: &str) -> Result<LinkOverride, JsonError> {
        let (from, to, link_model) = edge_override_from_json(value, path)?;
        Ok(LinkOverride {
            from,
            to,
            link_model,
        })
    }
}

/// One per-qubit noise-model override of a scenario's device: physical
/// qubit `qubit` runs `noise` while every other qubit keeps the
/// scenario default. The scenario-grammar form is
/// `{"qubit": q, "noise": {...}}` (the same shape [`NoiseMap`]'s
/// `overrides` entries use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseOverride {
    /// The overridden physical qubit (= controller index).
    pub qubit: usize,
    /// The model that qubit runs.
    pub noise: NoiseModel,
}

impl NoiseOverride {
    /// Serializes the override as `{"qubit": q, "noise": {...}}`.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("qubit".into(), self.qubit.into()),
            ("noise".into(), self.noise.to_json()),
        ])
    }

    /// Parses an override serialized by [`NoiseOverride::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for missing/unknown fields or
    /// a malformed model.
    pub fn from_json(value: &Json, path: &str) -> Result<NoiseOverride, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let qubit = obj.required("qubit")?.as_usize(&obj.field_path("qubit"))?;
        let noise = NoiseModel::from_json(obj.required("noise")?, &obj.field_path("noise"))?;
        obj.reject_unknown()?;
        Ok(NoiseOverride { qubit, noise })
    }
}

/// System-level parameters of a scenario: the mesh/tree link latencies
/// the BISP topology is built with, the star latencies of the
/// lock-step baseline's broadcast hub, the classical-link and
/// quantum-noise models both schemes run under, and the heterogeneous
/// per-edge/per-qubit overrides on top of those defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Mesh-edge latency between neighbouring controllers (cycles).
    pub neighbor_latency: u64,
    /// Tree-edge latency between routers (cycles).
    pub router_latency: u64,
    /// Router fan-in of the synchronization tree.
    pub router_arity: usize,
    /// Baseline controller → hub latency (cycles).
    pub star_up_latency: u64,
    /// Baseline hub → controller broadcast latency (cycles).
    pub star_down_latency: u64,
    /// Contention model every classical link runs — a first-class
    /// sweep axis (default: transparent pure-latency links). Applies to
    /// both schemes: mesh/tree links under BISP, the star's up/down
    /// legs under lock-step.
    pub link_model: LinkModel,
    /// Quantum noise model — a first-class sweep axis (default: exactly
    /// noiseless). A non-default model switches the scenario's backend
    /// to the leakage-aware random backend (so outcomes, and therefore
    /// feedback branches, sample the noise) and adds the analytic
    /// `noise_infidelity` metric scored from the committed operation
    /// counts and the exposure ledger (`fig_noise`'s metric).
    pub noise: NoiseModel,
    /// Per-directed-edge overrides of [`link_model`](Self::link_model)
    /// (default: none — a uniform fabric, byte-identical to the
    /// historical single-model path). Later entries for the same edge
    /// win; an entry equal to the default is a no-op.
    pub link_overrides: Vec<LinkOverride>,
    /// Per-qubit overrides of [`noise`](Self::noise) (default: none — a
    /// uniform device). Later entries for the same qubit win; an entry
    /// equal to the default is a no-op. Any override (even on an
    /// otherwise noiseless device) switches the backend to the
    /// leakage-aware one and enables the noise metrics.
    pub noise_overrides: Vec<NoiseOverride>,
    /// When `true`, the BISP compile stage reads the effective fabric
    /// and noise maps and places the circuit to avoid heated edges and
    /// qubits (see [`hisq_compiler::fabric`]); when `false` (the
    /// default) compilation is fabric-oblivious, exactly the historical
    /// pipeline. Lock-step compilation has no placement freedom and
    /// ignores the flag.
    pub fabric_aware: bool,
}

impl Default for SystemParams {
    /// The paper's Figure 15 defaults: 5-cycle mesh edges, 10-cycle
    /// tree edges, arity 4, 100 ns (25-cycle) star legs, transparent
    /// links, no gate noise.
    fn default() -> SystemParams {
        SystemParams {
            neighbor_latency: 5,
            router_latency: 10,
            router_arity: 4,
            star_up_latency: 25,
            star_down_latency: 25,
            link_model: LinkModel::default(),
            noise: NoiseModel::NOISELESS,
            link_overrides: Vec::new(),
            noise_overrides: Vec::new(),
            fabric_aware: false,
        }
    }
}

impl SystemParams {
    /// Serializes the parameters (every scalar field explicit, so a
    /// committed scenario documents its full configuration; the
    /// override lists and the `fabric_aware` flag are omitted when
    /// empty/false, so uniform-fabric scenarios render exactly as they
    /// always have).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("neighbor_latency".into(), self.neighbor_latency.into()),
            ("router_latency".into(), self.router_latency.into()),
            ("router_arity".into(), self.router_arity.into()),
            ("star_up_latency".into(), self.star_up_latency.into()),
            ("star_down_latency".into(), self.star_down_latency.into()),
            ("link_model".into(), self.link_model.to_json()),
            ("noise".into(), self.noise.to_json()),
        ];
        if !self.link_overrides.is_empty() {
            fields.push((
                "link_overrides".into(),
                Json::Array(
                    self.link_overrides
                        .iter()
                        .map(LinkOverride::to_json)
                        .collect(),
                ),
            ));
        }
        if !self.noise_overrides.is_empty() {
            fields.push((
                "noise_overrides".into(),
                Json::Array(
                    self.noise_overrides
                        .iter()
                        .map(NoiseOverride::to_json)
                        .collect(),
                ),
            ));
        }
        if self.fabric_aware {
            fields.push(("fabric_aware".into(), true.into()));
        }
        Json::Object(fields)
    }

    /// Parses parameters serialized by [`SystemParams::to_json`].
    /// Omitted fields take the paper defaults ([`SystemParams::default`]).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for unknown fields, wrong
    /// types, `router_arity < 2` (the topology builder would panic), or
    /// a latency over [`MAX_WAITI_CYCLES`].
    pub fn from_json(value: &Json, path: &str) -> Result<SystemParams, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let mut params = SystemParams::default();
        if let Some(v) = obj.optional("neighbor_latency") {
            params.neighbor_latency = latency_from_json(v, &obj.field_path("neighbor_latency"))?;
        }
        if let Some(v) = obj.optional("router_latency") {
            params.router_latency = latency_from_json(v, &obj.field_path("router_latency"))?;
        }
        if let Some(v) = obj.optional("router_arity") {
            params.router_arity = v.as_usize(&obj.field_path("router_arity"))?;
            if params.router_arity < 2 {
                return Err(JsonError::decode(
                    obj.field_path("router_arity"),
                    "router arity must be at least 2",
                ));
            }
        }
        if let Some(v) = obj.optional("star_up_latency") {
            params.star_up_latency = latency_from_json(v, &obj.field_path("star_up_latency"))?;
        }
        if let Some(v) = obj.optional("star_down_latency") {
            params.star_down_latency = latency_from_json(v, &obj.field_path("star_down_latency"))?;
        }
        if let Some(v) = obj.optional("link_model") {
            params.link_model = LinkModel::from_json(v, &obj.field_path("link_model"))?;
        }
        if let Some(v) = obj.optional("noise") {
            params.noise = NoiseModel::from_json(v, &obj.field_path("noise"))?;
        }
        if let Some(v) = obj.optional("link_overrides") {
            let list_path = obj.field_path("link_overrides");
            let mut seen = std::collections::BTreeSet::new();
            for (i, entry) in v.as_array(&list_path)?.iter().enumerate() {
                let entry_path = format!("{list_path}[{i}]");
                let over = LinkOverride::from_json(entry, &entry_path)?;
                if !seen.insert((over.from, over.to)) {
                    return Err(JsonError::decode(
                        entry_path,
                        format!("duplicate override for edge {} -> {}", over.from, over.to),
                    ));
                }
                params.link_overrides.push(over);
            }
        }
        if let Some(v) = obj.optional("noise_overrides") {
            let list_path = obj.field_path("noise_overrides");
            let mut seen = std::collections::BTreeSet::new();
            for (i, entry) in v.as_array(&list_path)?.iter().enumerate() {
                let entry_path = format!("{list_path}[{i}]");
                let over = NoiseOverride::from_json(entry, &entry_path)?;
                if !seen.insert(over.qubit) {
                    return Err(JsonError::decode(
                        entry_path,
                        format!("duplicate override for qubit {}", over.qubit),
                    ));
                }
                params.noise_overrides.push(over);
            }
        }
        if let Some(v) = obj.optional("fabric_aware") {
            params.fabric_aware = v.as_bool(&obj.field_path("fabric_aware"))?;
        }
        obj.reject_unknown()?;
        Ok(params)
    }
}

/// Parses a link latency in cycles. The compilers emit each wait of a
/// latency as `waiti`s of at most [`MAX_WAITI_CYCLES`], and the engine
/// adds latencies to cycle counts unchecked, so a latency is bounded by
/// one `waiti`.
fn latency_from_json(value: &Json, path: &str) -> Result<u64, JsonError> {
    let cycles = value.as_u64(path)?;
    let limit = u64::from(MAX_WAITI_CYCLES);
    if cycles > limit {
        return Err(JsonError::decode(
            path,
            format!("latency {cycles} cycles is over the limit of {limit} cycles (one waiti)"),
        ));
    }
    Ok(cycles)
}

/// One experiment point of a sweep: workload × scheme × system
/// parameters × seed × coherence time.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The workload to compile and run.
    pub workload: WorkloadSpec,
    /// Execution scheme (Distributed-HISQ BISP or lock-step baseline).
    pub scheme: Scheme,
    /// Seed of the random measurement backend.
    pub seed: u64,
    /// Relaxation time T1 = T2 (µs) the infidelity metric is scored at.
    pub t1_us: f64,
    /// Program repetitions per run. Under BISP every shot after the
    /// first opens with a region-level synchronization against the
    /// router tree (§2.1.4), so multi-shot scenarios are the ones where
    /// tree surgery is timing-visible; lock-step unrolls shots
    /// statically.
    pub shots: u32,
    /// Link latencies and baseline star parameters.
    pub params: SystemParams,
    /// Spec-surgery transforms applied before the run (usually empty).
    pub surgery: Vec<SurgeryOp>,
    /// Optional multi-tenant load block: when set, the scenario runs
    /// the [`crate::load`] job engine (arrival streams multiplexed
    /// over controller partitions, each job an instance of this
    /// scenario) instead of a single program run.
    pub load: Option<LoadSpec>,
}

impl Scenario {
    /// A scenario with the paper-default seed (1), coherence (300 µs),
    /// and system parameters.
    pub fn new(workload: WorkloadSpec, scheme: Scheme) -> Scenario {
        Scenario {
            workload,
            scheme,
            seed: 1,
            t1_us: 300.0,
            shots: 1,
            params: SystemParams::default(),
            surgery: Vec::new(),
            load: None,
        }
    }

    /// Replaces the shot count (builder style).
    #[must_use]
    pub fn with_shots(mut self, shots: u32) -> Scenario {
        self.shots = shots;
        self
    }

    /// Replaces the backend seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Replaces the scored coherence time (builder style).
    #[must_use]
    pub fn with_t1_us(mut self, t1_us: f64) -> Scenario {
        self.t1_us = t1_us;
        self
    }

    /// Replaces the system parameters (builder style).
    #[must_use]
    pub fn with_params(mut self, params: SystemParams) -> Scenario {
        self.params = params;
        self
    }

    /// Appends a spec-surgery transform (builder style).
    #[must_use]
    pub fn with_surgery(mut self, op: SurgeryOp) -> Scenario {
        self.surgery.push(op);
        self
    }

    /// Attaches a multi-tenant load block (builder style).
    #[must_use]
    pub fn with_load(mut self, load: LoadSpec) -> Scenario {
        self.load = Some(load);
        self
    }

    /// Stable identifier used as the sweep-record id (and for pairing
    /// scheme twins in the figure harnesses).
    ///
    /// Default-link-model single-shot ids are unchanged from their
    /// historical form; a multi-shot scenario appends a `/shotsN`
    /// segment, and a contended model appends a
    /// `/serN.cK[.lossPPM.sSEED.aATTEMPTS]` segment covering every
    /// [`LinkModel`] field, so grid points along *any* link-model axis
    /// (serialization, capacity, loss rate, drop seed, attempt budget)
    /// stay unique. A non-default noise model likewise appends a
    /// `/p1qA.p2qB.mC.iD.lE` segment covering every [`NoiseModel`]
    /// rate, so grid points along any noise axis stay unique too.
    /// Heterogeneous scenarios append one `/loF-T.<link frag>` segment
    /// per link override, one `/noQ.<noise frag>` segment per noise
    /// override, and `/aware` when fabric-aware compilation is on —
    /// all absent on uniform fabrics, keeping historical ids intact.
    pub fn id(&self) -> String {
        let scheme = match self.scheme {
            Scheme::Bisp => "bisp",
            Scheme::Lockstep => "lockstep",
        };
        let mut id = format!(
            "{}/{}/seed{}/t{}",
            self.workload.label(),
            scheme,
            self.seed,
            self.t1_us
        );
        // Single-shot ids are unchanged from their historical form.
        if self.shots != 1 {
            id.push_str(&format!("/shots{}", self.shots));
        }
        let model = self.params.link_model;
        if model != LinkModel::default() {
            id.push_str(&format!("/{}", link_model_fragment(&model)));
        }
        let noise = self.params.noise;
        if !noise.is_noiseless() {
            id.push_str(&format!("/{}", noise_fragment(&noise)));
        }
        // Uniform-fabric ids are unchanged from their historical form:
        // override segments (and the `/aware` marker) only appear when
        // the corresponding heterogeneity is actually declared.
        for over in &self.params.link_overrides {
            id.push_str(&format!(
                "/lo{}-{}.{}",
                over.from,
                over.to,
                link_model_fragment(&over.link_model)
            ));
        }
        for over in &self.params.noise_overrides {
            id.push_str(&format!(
                "/no{}.{}",
                over.qubit,
                noise_fragment(&over.noise)
            ));
        }
        if self.params.fabric_aware {
            id.push_str("/aware");
        }
        // Surgery-free ids are unchanged from their historical form.
        for op in &self.surgery {
            id.push_str("/x-");
            id.push_str(&op.id_fragment());
        }
        // Load-free ids are unchanged from their historical form.
        if let Some(load) = &self.load {
            id.push_str(&format!("/{}", load.id_fragment()));
        }
        id
    }

    /// Serializes the scenario for the scenario-file surface
    /// (`hisq run`). Every field is explicit.
    pub fn to_json(&self) -> Json {
        let scheme = match self.scheme {
            Scheme::Bisp => "bisp",
            Scheme::Lockstep => "lockstep",
        };
        let mut fields = vec![
            ("workload".into(), self.workload.to_json()),
            ("scheme".into(), Json::str(scheme)),
            ("seed".into(), self.seed.into()),
            ("t1_us".into(), Json::float(self.t1_us)),
            ("shots".into(), u64::from(self.shots).into()),
            ("params".into(), self.params.to_json()),
        ];
        if !self.surgery.is_empty() {
            fields.push((
                "surgery".into(),
                Json::Array(self.surgery.iter().map(SurgeryOp::to_json).collect()),
            ));
        }
        if let Some(load) = &self.load {
            fields.push(("load".into(), load.to_json()));
        }
        Json::Object(fields)
    }

    /// Parses a scenario serialized by [`Scenario::to_json`]. Only
    /// `workload` and `scheme` are required; `seed`, `t1_us`, `shots`,
    /// `params`, and `surgery` default as in [`Scenario::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for missing/unknown fields,
    /// an unknown scheme, wrong types, a non-positive `t1_us`, or zero
    /// `shots`.
    pub fn from_json(value: &Json, path: &str) -> Result<Scenario, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let workload =
            WorkloadSpec::from_json(obj.required("workload")?, &obj.field_path("workload"))?;
        let scheme_path = obj.field_path("scheme");
        let scheme = match obj.required("scheme")?.as_str(&scheme_path)? {
            "bisp" => Scheme::Bisp,
            "lockstep" => Scheme::Lockstep,
            other => {
                return Err(JsonError::decode(
                    scheme_path,
                    format!("unknown scheme \"{other}\" (expected \"bisp\" or \"lockstep\")"),
                ))
            }
        };
        let mut scenario = Scenario::new(workload, scheme);
        if let Some(v) = obj.optional("seed") {
            scenario.seed = v.as_u64(&obj.field_path("seed"))?;
        }
        if let Some(v) = obj.optional("t1_us") {
            let t1_path = obj.field_path("t1_us");
            scenario.t1_us = v.as_f64(&t1_path)?;
            if scenario.t1_us <= 0.0 {
                return Err(JsonError::decode(t1_path, "t1_us must be positive"));
            }
        }
        if let Some(v) = obj.optional("shots") {
            let shots_path = obj.field_path("shots");
            scenario.shots = v.as_u32(&shots_path)?;
            if scenario.shots == 0 {
                return Err(JsonError::decode(shots_path, "shots must be at least 1"));
            }
        }
        if let Some(v) = obj.optional("params") {
            scenario.params = SystemParams::from_json(v, &obj.field_path("params"))?;
        }
        if let Some(v) = obj.optional("surgery") {
            let list_path = obj.field_path("surgery");
            for (i, entry) in v.as_array(&list_path)?.iter().enumerate() {
                scenario
                    .surgery
                    .push(SurgeryOp::from_json(entry, &format!("{list_path}[{i}]"))?);
            }
        }
        if let Some(v) = obj.optional("load") {
            scenario.load = Some(LoadSpec::from_json(v, &obj.field_path("load"))?);
        }
        obj.reject_unknown()?;
        Ok(scenario)
    }

    /// The scenario's compile-stage identity: every input the
    /// **compile → place → describe** pipeline stage reads, and nothing
    /// it does not. Two scenarios with equal keys compile to
    /// bit-identical programs and system descriptions (the
    /// `compile_cache_equivalence` suite asserts exactly this), so a
    /// sweep's [`CompileCache`] shares one [`CompiledArtifact`] across
    /// grid points that differ only in seed, noise, coherence time, or
    /// link model — the axes the paper figures actually sweep.
    pub fn compile_key(&self) -> CompileKey {
        // Scenario-level surgery folds into the effective inputs the
        // same way `compile_scenario` applies it: the last workload
        // swap wins; link-model and noise overrides are run-stage
        // parameters the compiler never sees. The load block is
        // run-stage too (the job engine schedules *instances* of the
        // compiled program), so a load sweep's grid points share one
        // artifact with their unloaded twin.
        let mut workload = self.workload.clone();
        for op in &self.surgery {
            if let SurgeryOp::SwapWorkload { workload: w } = op {
                workload = w.clone();
            }
        }
        let topology_surgery = self
            .surgery
            .iter()
            .filter_map(|op| match op {
                SurgeryOp::DropRouterLevel => Some(TopologySurgeryKey::DropRouterLevel),
                SurgeryOp::RewireSubtree {
                    subtree,
                    new_parent,
                } => Some(TopologySurgeryKey::RewireSubtree {
                    subtree: *subtree,
                    new_parent: *new_parent,
                }),
                _ => None,
            })
            .collect();
        // The lock-step compiler is the only reader of the star
        // latencies; zeroing them under BISP lets BISP grid points
        // that sweep the baseline's star share one artifact.
        let star_latencies = match self.scheme {
            Scheme::Bisp => (0, 0),
            Scheme::Lockstep => (self.params.star_up_latency, self.params.star_down_latency),
        };
        // Fabric-aware compilation *does* read the effective fabric and
        // noise maps (placement depends on them), so an aware scenario
        // keys on their canonical JSON. Oblivious scenarios keep the
        // historical key and go on sharing artifacts across link-model
        // and noise axes.
        let fabric = if self.params.fabric_aware {
            let (fabric, noise) = effective_maps(self);
            Some(format!(
                "{}\n{}",
                fabric.to_json().to_string_compact(),
                noise.to_json().to_string_compact()
            ))
        } else {
            None
        };
        CompileKey {
            workload_json: workload.to_json().to_string_compact(),
            scheme: match self.scheme {
                Scheme::Bisp => 0,
                Scheme::Lockstep => 1,
            },
            shots: self.shots,
            neighbor_latency: self.params.neighbor_latency,
            router_latency: self.params.router_latency,
            router_arity: self.params.router_arity,
            star_latencies,
            topology_surgery,
            fabric,
        }
    }
}

/// The effective heterogeneity maps of a scenario: the parameter-level
/// defaults and override lists, with the scenario's surgery ops folded
/// on top in list order. The resolution order is **default →
/// per-edge/per-qubit override → surgery override**:
/// [`SurgeryOp::OverrideLinkModel`]/[`SurgeryOp::OverrideNoise`]
/// replace the *default* (keeping distinct per-edge/per-qubit entries),
/// while [`SurgeryOp::HeatEdge`]/[`SurgeryOp::HeatQubit`] push one more
/// override (last write to an edge/qubit wins).
///
/// This is the single source of truth both the compile stage (under
/// fabric-aware placement) and the run stage (engine link queues,
/// backend noise, metric gating) consume, so the two can never disagree
/// about what fabric a scenario runs on.
pub fn effective_maps(scenario: &Scenario) -> (FabricMap, NoiseMap) {
    let p = &scenario.params;
    let mut fabric = FabricMap::uniform(p.link_model);
    for over in &p.link_overrides {
        fabric.set_edge(over.from, over.to, over.link_model);
    }
    let mut noise = NoiseMap::uniform(p.noise);
    for over in &p.noise_overrides {
        noise.set_qubit(over.qubit, over.noise);
    }
    for op in &scenario.surgery {
        match op {
            SurgeryOp::OverrideLinkModel { link_model } => fabric.set_default(*link_model),
            SurgeryOp::OverrideNoise { noise: model } => noise.set_default(*model),
            SurgeryOp::HeatEdge {
                from,
                to,
                link_model,
            } => fabric.set_edge(*from, *to, *link_model),
            SurgeryOp::HeatQubit {
                qubit,
                noise: model,
            } => noise.set_qubit(*qubit, *model),
            SurgeryOp::SwapWorkload { .. }
            | SurgeryOp::DropRouterLevel
            | SurgeryOp::RewireSubtree { .. } => {}
        }
    }
    (fabric, noise)
}

/// The hashable identity of a scenario's compile stage (see
/// [`Scenario::compile_key`]). Deliberately *excludes* the run-stage
/// axes — backend seed, noise model, coherence time, and the link
/// contention model: the oblivious compiler never reads them (the
/// topology's embedded link model is overridden per scenario after the
/// cached description is cloned), so scenarios differing only along
/// those axes hash and compare equal and share one compiled artifact.
/// The one exception is fabric-*aware* compilation, whose placement
/// pass does read the effective fabric/noise maps — aware scenarios
/// additionally key on the maps' canonical encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// Effective workload (post scenario surgery), in its canonical
    /// JSON form — the only total encoding [`WorkloadSpec`] has.
    workload_json: String,
    /// Scheme tag (0 = BISP, 1 = lock-step).
    scheme: u8,
    /// Shot count (compiled into the program: BISP loops shots against
    /// the region tree; lock-step unrolls them).
    shots: u32,
    neighbor_latency: u64,
    router_latency: u64,
    router_arity: usize,
    /// Star up/down latencies; zeroed under BISP (unread there).
    star_latencies: (u64, u64),
    /// Topology surgery ops in application order (validity and effect
    /// both depend on the tree they apply to, so they are part of the
    /// compile identity even when a later op fails).
    topology_surgery: Vec<TopologySurgeryKey>,
    /// Canonical JSON of the effective fabric and noise maps when the
    /// scenario compiles fabric-aware (placement reads them); `None`
    /// for oblivious scenarios, which share artifacts across the
    /// link-model and noise axes exactly as before.
    fabric: Option<String>,
}

/// Hashable mirror of the topology-mutating [`SurgeryOp`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TopologySurgeryKey {
    DropRouterLevel,
    RewireSubtree {
        subtree: NodeAddr,
        new_parent: NodeAddr,
    },
}

/// The reusable output of a scenario's compile stage: the validated
/// system description (backend and link model still unset — those are
/// run-stage), plus the metric inputs [`run_scenario`] needs from the
/// built workload. Shared behind an [`Arc`] by every grid point of a
/// sweep whose [`CompileKey`] matches.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// The compiled system as a declarative spec (cloned, then given
    /// its backend + link model, per consuming scenario).
    spec: SystemSpec,
    /// Output data qubits of the workload (Figure-16 scoring).
    data_sites: Vec<usize>,
    /// Machine-code fingerprint of the compiled programs (see
    /// [`CompiledSystem::fingerprint`]).
    fingerprint: u64,
}

impl CompiledArtifact {
    /// FNV-1a fingerprint of the compiled program words (scheme +
    /// per-controller machine code) — equal fingerprints mean the
    /// compiler emitted bit-identical programs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Number of independently-locked shards of a [`CompileCache`]. Eight
/// comfortably exceeds the sweep pool's typical thread counts, so two
/// workers only contend when their keys land in one shard *and* both
/// are in the (brief) lookup critical section — compilation itself
/// runs outside the shard lock.
const CACHE_SHARDS: usize = 8;

/// One cache slot: a leader-computes cell. The first worker to claim
/// the key compiles inside [`OnceLock::get_or_init`]; concurrent
/// workers with the same key block on the cell (not the shard lock)
/// and wake to the shared result. Errors are cached too — a failing
/// compile fails every scenario of the key identically, each
/// re-attributed to its own id.
type CacheCell = Arc<OnceLock<Result<Arc<CompiledArtifact>, RunnerError>>>;

/// A lock-sharded, leader-computes cache of compile-stage artifacts,
/// shared across the grid points of a sweep (see [`run_sweep_cached`];
/// [`run_sweep`] threads one through automatically). Grid points
/// differing only in seed, noise, shots-independent scoring inputs, or
/// link model hit the same [`CompileKey`] and reuse one compiled
/// program — byte-identical results to compiling fresh per point,
/// pinned by the determinism FNV tests and the
/// `compile_cache_equivalence` suite.
#[derive(Debug, Default)]
pub struct CompileCache {
    shards: [Mutex<HashMap<CompileKey, CacheCell>>; CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Lookups that reused an already-compiled (or in-flight) artifact.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that compiled their key (the leader of each cell).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The artifact for `scenario`'s compile key, compiling it on this
    /// thread if no worker has yet. Errors come back *without* a
    /// scenario id (the caller stamps its own via `with_id`).
    pub(crate) fn get_or_compile(
        &self,
        scenario: &Scenario,
    ) -> Result<Arc<CompiledArtifact>, RunnerError> {
        let key = scenario.compile_key();
        let mut hasher = std::hash::DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[hasher.finish() as usize % CACHE_SHARDS];
        let cell = shard
            .lock()
            .expect("compile-cache shard lock")
            .entry(key)
            .or_default()
            .clone();
        let mut compiled_here = false;
        let result = cell.get_or_init(|| {
            compiled_here = true;
            compile_stage(scenario).map(Arc::new)
        });
        if compiled_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }
}

/// Runs `scenario`'s compile stage fresh (no cache): surgery fold,
/// workload build, topology construction + surgery, compilation, and
/// the system description — everything [`run_scenario`] does before
/// seeding a backend. Exposed for the cache-equivalence suite; sweep
/// callers get this transparently through [`run_sweep`].
///
/// # Errors
///
/// The compile-time subset of [`run_scenario`]'s errors (unknown
/// workload, invalid surgery, compile failure, incomplete description),
/// attributed to the scenario's id.
pub fn compile_scenario(scenario: &Scenario) -> Result<CompiledArtifact, RunnerError> {
    compile_stage(scenario).map_err(|e| e.with_id(&scenario.id()))
}

/// Executes one scenario end to end — build circuit, build topology,
/// compile, simulate, score — and distills the paper's metrics.
///
/// The record carries: `makespan_cycles` / `makespan_ns` (end-to-end
/// runtime), `instructions`, `syncs`, `stall_cycles` (synchronization
/// overhead), `messages` (engine events processed), `infidelity` at the
/// scenario's coherence time, and the `all_halted` flag. Under a
/// contended link model the record additionally carries
/// `link_messages`, `link_retransmits`, `link_dropped`, and
/// `link_peak_occupancy`; under a non-default noise model it carries
/// `noise_infidelity` (the analytic gate-error score) plus the
/// `gates_1q`/`gates_2q`/`measurements` operation counts; a nonzero
/// routing-warning count surfaces as `routing_warnings`
/// (default-model records stay byte-identical to their historical
/// form).
///
/// # Errors
///
/// Returns [`RunnerError`] if the workload name is unknown,
/// compilation fails, node addresses collide, or the simulation faults
/// — all reported with the scenario id for context.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, RunnerError> {
    run_scenario_with(scenario, None)
}

/// [`run_scenario`] with the compile stage served from `cache` — the
/// per-point body of [`run_sweep_cached`]. Results are byte-identical
/// to the uncached path; only the compile work is shared.
///
/// # Errors
///
/// As [`run_scenario`] (cached compile errors included, re-attributed
/// to this scenario's id).
pub fn run_scenario_cached(
    scenario: &Scenario,
    cache: &CompileCache,
) -> Result<ScenarioReport, RunnerError> {
    run_scenario_with(scenario, Some(cache))
}

fn run_scenario_with(
    scenario: &Scenario,
    cache: Option<&CompileCache>,
) -> Result<ScenarioReport, RunnerError> {
    // Load scenarios run the multi-tenant job engine instead: every
    // job is an instance of this scenario (minus the load block),
    // compiled once through the cache and run per job.
    if scenario.load.is_some() {
        return match cache {
            Some(cache) => crate::load::load_record(scenario, cache),
            None => crate::load::load_record(scenario, &CompileCache::new()),
        };
    }
    let (system, artifact, fabric, noise) = build_scenario_with(scenario, cache)?;
    run_built(scenario, system, artifact, fabric, noise)
}

/// [`run_scenario`] against an already-resolved compile artifact: the
/// run stage alone, with no cache consult. The job engine uses this to
/// run every job of a load scenario from the artifact its `run_load`
/// resolved once.
pub(crate) fn run_scenario_from_artifact(
    scenario: &Scenario,
    artifact: Arc<CompiledArtifact>,
) -> Result<ScenarioReport, RunnerError> {
    let (system, artifact, fabric, noise) = build_from_artifact(scenario, artifact)?;
    run_built(scenario, system, artifact, fabric, noise)
}

/// The run-and-score tail shared by [`run_scenario_with`] and
/// [`run_scenario_from_artifact`]: simulate the built system and
/// distill the scenario's metric record.
fn run_built(
    scenario: &Scenario,
    mut system: System,
    artifact: Arc<CompiledArtifact>,
    fabric: FabricMap,
    noise: NoiseMap,
) -> Result<ScenarioReport, RunnerError> {
    let id = scenario.id();
    let report = system.run().map_err(|e| RunnerError::sim(e).with_id(&id))?;

    let coherence = CoherenceParams::uniform(scenario.t1_us);
    let scored_exposure: ExposureLedger = if artifact.data_sites.is_empty() {
        system.exposure().clone()
    } else {
        // Output data qubits stay coherent from circuit start until the
        // whole dynamic circuit completes (the Figure 16 scoring).
        artifact
            .data_sites
            .iter()
            .map(|&q| (q, 0, report.makespan_ns))
            .collect()
    };
    let infidelity = scored_exposure.infidelity(coherence);

    let mut record = SweepRecord::new(id)
        .with("makespan_cycles", report.makespan_cycles)
        .with("makespan_ns", report.makespan_ns)
        .with("instructions", report.total_instructions)
        .with("syncs", report.total_syncs)
        .with("stall_cycles", report.total_stall_cycles)
        .with("messages", report.events_processed)
        .with("infidelity", infidelity)
        .with("all_halted", report.all_halted);
    if fabric.default_model() != LinkModel::default() || !fabric.is_uniform() {
        let messages: u64 = report.link_stats.iter().map(|l| l.messages).sum();
        record.set("link_messages", messages);
        record.set("link_retransmits", report.total_retransmits());
        record.set("link_dropped", report.total_dropped());
        record.set(
            "link_peak_occupancy",
            u64::from(report.peak_link_occupancy()),
        );
    }
    if !noise.is_noiseless() {
        // Analytic gate-error scoring: expected infidelity from the
        // committed operation counts plus per-nanosecond idle error
        // charged from the same exposure ledger the T1/T2 metric
        // reads. A uniform map scores through the exact closed-form
        // global-count path (byte-identical to the historical single
        // model); a heterogeneous map charges each qubit its own rates
        // from the engine's per-qubit operation counts.
        let noise_infidelity = if noise.is_uniform() {
            noise
                .default_model()
                .infidelity(&report.quantum_ops, &scored_exposure)
        } else {
            noise.infidelity(system.quantum_ops_by_qubit(), &scored_exposure)
        };
        record.set("noise_infidelity", noise_infidelity);
        record.set("gates_1q", report.quantum_ops.gates_1q);
        record.set("gates_2q", report.quantum_ops.gates_2q);
        record.set("measurements", report.quantum_ops.measurements);
    }
    if report.routing_warnings > 0 {
        record.set("routing_warnings", report.routing_warnings);
    }
    Ok(record)
}

/// Builds the ready-to-run [`System`] a scenario describes — surgery,
/// workload, topology, compilation, backend and link-model selection —
/// without running it: [`run_scenario`] up to (but excluding) the
/// `run()` call.
///
/// Exposed so test harnesses can instrument the engine before the run —
/// e.g. record a pop trace ([`System::record_event_trace`]) or select
/// the reference event queue ([`System::use_reference_queue`]) for the
/// wheel-vs-heap differential oracle in `tests/queue_trace_replay.rs`.
///
/// # Errors
///
/// As [`run_scenario`], minus simulation-time failures.
pub fn scenario_system(scenario: &Scenario) -> Result<System, RunnerError> {
    build_scenario_with(scenario, None).map(|(system, _, _, _)| system)
}

/// The pure compile stage: everything a scenario's pipeline does
/// before seed, noise, or link model matter. Reads exactly the inputs
/// [`Scenario::compile_key`] hashes; errors carry no scenario id (the
/// consumer stamps its own on, so cached errors replay verbatim).
fn compile_stage(scenario: &Scenario) -> Result<CompiledArtifact, RunnerError> {
    // Scenario-level surgery first: the effective workload feeds
    // everything downstream (link-model/noise overrides are run-stage
    // and folded by `build_scenario_with` instead).
    let mut workload = scenario.workload.clone();
    for op in &scenario.surgery {
        if let SurgeryOp::SwapWorkload { workload: w } = op {
            workload = w.clone();
        }
    }
    let built = workload
        .build()
        .ok_or_else(|| RunnerError::UnknownWorkload { id: String::new() })?;
    let p = &scenario.params;
    // The topology is built with the *default* link model even when the
    // scenario runs a contended one: neither compiler reads the model,
    // and the spec-level override below the cache seam
    // (`build_scenario_with`) replaces whatever the description
    // inherited — so scenarios differing only in link model share this
    // stage, and results stay byte-identical either way.
    let mut topology = TopologyBuilder::grid(built.grid.0, built.grid.1)
        .neighbor_latency(p.neighbor_latency)
        .router_latency(p.router_latency)
        .router_arity(p.router_arity)
        .build();
    // Topology surgery second, so the compiler places region syncs
    // against the surgered tree.
    for op in &scenario.surgery {
        let result = match op {
            SurgeryOp::DropRouterLevel => topology.drop_router_level(),
            SurgeryOp::RewireSubtree {
                subtree,
                new_parent,
            } => topology.rewire_subtree(*subtree, *new_parent),
            _ => Ok(()),
        };
        result.map_err(|message| RunnerError::Surgery {
            id: String::new(),
            message,
        })?;
    }
    let mut circuit = built.circuit;
    let mut data_sites = built.data_sites;
    // Fabric-aware placement: under BISP, remap circuit qubits onto
    // the grid automorphism that minimizes heated-edge traffic and
    // heated-qubit exposure. A flat fabric plans the identity, so the
    // flag alone never changes a uniform scenario's programs;
    // lock-step has no placement freedom and compiles obliviously.
    if p.fabric_aware && matches!(scenario.scheme, Scheme::Bisp) {
        let (fabric, noise) = effective_maps(scenario);
        let costs = FabricCosts::from_maps(&topology, &fabric, &noise);
        if !costs.is_flat() {
            let placement = plan_placement(&circuit, &data_sites, &topology, &costs);
            let (placed, sites) = apply_placement(&circuit, &data_sites, &placement);
            circuit = placed;
            data_sites = sites;
        }
    }
    let (compiled, topology) = match scenario.scheme {
        Scheme::Bisp => {
            let options = BispOptions {
                shots: scenario.shots,
                ..BispOptions::default()
            };
            let compiled =
                compile_bisp(&circuit, &topology, &options).map_err(|e| RunnerError::Compile {
                    id: String::new(),
                    message: format!("BISP: {e}"),
                })?;
            (compiled, Some(&topology))
        }
        Scheme::Lockstep => {
            let options = LockstepOptions {
                star_up_latency: p.star_up_latency,
                star_down_latency: p.star_down_latency,
                shots: scenario.shots,
                ..LockstepOptions::default()
            };
            let compiled =
                compile_lockstep(&circuit, &options).map_err(|e| RunnerError::Compile {
                    id: String::new(),
                    message: format!("lock-step: {e}"),
                })?;
            (compiled, None)
        }
    };
    let fingerprint = compiled.fingerprint();
    let spec = system_spec(&compiled, topology)?;
    Ok(CompiledArtifact {
        spec,
        data_sites,
        fingerprint,
    })
}

/// The shared scenario-to-[`System`] pipeline behind [`run_scenario`]
/// and [`scenario_system`]: the (possibly cached) compile stage, then
/// the per-scenario tail — clone the description, seed the backend,
/// install the fabric, build. Also returns the artifact and the
/// effective fabric/noise maps the metric distillation needs.
fn build_scenario_with(
    scenario: &Scenario,
    cache: Option<&CompileCache>,
) -> Result<(System, Arc<CompiledArtifact>, FabricMap, NoiseMap), RunnerError> {
    let artifact = match cache {
        Some(cache) => cache.get_or_compile(scenario),
        None => compile_stage(scenario).map(Arc::new),
    }
    .map_err(|e| e.with_id(&scenario.id()))?;
    build_from_artifact(scenario, artifact)
}

/// The cache-free half of [`build_scenario_with`]: backend seeding and
/// fabric resolution onto an already-compiled artifact.
fn build_from_artifact(
    scenario: &Scenario,
    artifact: Arc<CompiledArtifact>,
) -> Result<(System, Arc<CompiledArtifact>, FabricMap, NoiseMap), RunnerError> {
    let id = scenario.id();
    let (fabric, noise) = effective_maps(scenario);
    let mut spec = artifact.spec.clone();
    // Noiseless scenarios keep the historical random backend (and its
    // byte-identical outcome stream); a noisy map samples leakage so
    // sticky readouts steer the feedback branches.
    spec.backend(if noise.is_noiseless() {
        BackendSpec::Random {
            seed: scenario.seed,
            p_one: 0.5,
        }
    } else {
        BackendSpec::Leaky {
            seed: scenario.seed,
            p_one: 0.5,
            noise: noise.clone(),
        }
    });
    // The run-stage fabric: overrides whatever the description
    // inherited (the lock-step star has no topology to inherit from,
    // and the cached BISP description carries the default).
    spec.link_model(fabric.default_model());
    for (from, to, model) in fabric.overrides() {
        spec.link_model_for(from, to, model);
    }
    let system = spec.build().map_err(|e| RunnerError::sim(e).with_id(&id))?;
    Ok((system, artifact, fabric, noise))
}

/// Runs a batch of scenarios on `threads` workers and aggregates their
/// records (in scenario order) into a deterministic report.
///
/// The output is byte-identical for any thread count: records land at
/// their scenario's index and statistics fold in that order. See the
/// module docs for an end-to-end example.
///
/// The compile stage is served from a sweep-scoped [`CompileCache`],
/// so grid points differing only in seed, noise, coherence time, or
/// link model compile once — byte-identical results to compiling
/// fresh per point ([`run_sweep_uncached`] is the differential
/// reference).
///
/// # Errors
///
/// Returns the first failing scenario's [`RunnerError`], in *scenario*
/// order (deterministic regardless of worker scheduling).
pub fn run_sweep(scenarios: &[Scenario], threads: usize) -> Result<SweepReport, RunnerError> {
    run_sweep_cached(scenarios, threads, &CompileCache::new())
}

/// [`run_sweep`] against a caller-owned [`CompileCache`] — for reuse
/// across successive sweeps over the same workloads, and for reading
/// the hit/miss counters afterwards (`fig_sweep_throughput` reports
/// the hit rate).
///
/// # Errors
///
/// As [`run_sweep`].
pub fn run_sweep_cached(
    scenarios: &[Scenario],
    threads: usize,
    cache: &CompileCache,
) -> Result<SweepReport, RunnerError> {
    let results = SweepRunner::new(threads).map(scenarios, |_, scenario| {
        run_scenario_cached(scenario, cache)
    });
    let records = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SweepReport::from_records(records))
}

/// [`run_sweep`] with a fresh compile per grid point (the pre-cache
/// behavior): the differential reference the
/// `compile_cache_equivalence` suite and the `fig_sweep_throughput`
/// uncached baseline run against.
///
/// # Errors
///
/// As [`run_sweep`].
pub fn run_sweep_uncached(
    scenarios: &[Scenario],
    threads: usize,
) -> Result<SweepReport, RunnerError> {
    let results = SweepRunner::new(threads).map(scenarios, |_, scenario| run_scenario(scenario));
    let records = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SweepReport::from_records(records))
}
