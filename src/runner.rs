//! The experiment pipeline: from a [`Scenario`] to its metric record,
//! and from a scenario list to an aggregated sweep report.
//!
//! Every scenario runs the same three stages:
//!
//! 1. **compile** — workload build, topology and its surgery,
//!    placement, compilation, and the system description
//!    ([`CompiledArtifact`]), served through a [`CompileCache`] keyed
//!    by [`Scenario::compile_key`], so grid points that differ only in
//!    run-stage fields share one compile;
//! 2. **instantiate** — clone the description (reference-count bumps:
//!    the programs, link tables, topology and bindings stay shared with
//!    the cached artifact), seed the backend, install the effective
//!    fabric ([`effective_maps`]), and build the [`System`], which
//!    allocates only the run's own mutable state;
//! 3. **run + score** — simulate and distill the paper's metrics into
//!    a [`SweepRecord`].
//!
//! [`run_scenario`] runs one point on a fresh cache,
//! [`run_scenario_cached`] on a shared one, and [`run_sweep`] fans a
//! scenario list out over a [`hisq_sim::SweepRunner`] worker pool into a
//! deterministic [`SweepReport`] — the substrate behind `hisq run` and
//! the `figure` binary's sweep figures. The scenario model and its file grammar live
//! in [`crate::scenario`]; [`Scenario`] is re-exported here. The
//! lower-level [`build_system`] stays public for callers that bring
//! their own compiled programs.
//!
//! # Example
//!
//! ```
//! use distributed_hisq::compiler::Scheme;
//! use distributed_hisq::runner::{run_sweep, Scenario};
//! use distributed_hisq::scenario::{Axis, ScenarioFile};
//! use distributed_hisq::workloads::WorkloadSpec;
//!
//! // Both schemes on one quick workload, two seeds: a 1×2×2 grid.
//! let base = Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp);
//! let mut grid = ScenarioFile::new("quick", base);
//! grid.axes = vec![
//!     Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
//!     Axis::Seed(vec![1, 2]),
//! ];
//! let scenarios = grid.expand(None);
//!
//! let report = run_sweep(&scenarios, 2).unwrap();
//! assert_eq!(report.records().len(), 4);
//! assert_eq!(report.summary()["all_halted"].sum, 4.0, "every run halts");
//! ```

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hisq_compiler::fabric::{apply_placement, plan_placement, FabricCosts};
use hisq_compiler::{
    compile_bisp, compile_lockstep, BispOptions, CompiledSystem, LockstepOptions, Scheme,
};
use hisq_core::{NodeAddr, NodeConfig};
use hisq_isa::Inst;
use hisq_net::{FabricMap, LinkModel, Topology, TopologyBuilder};
use hisq_quantum::{CoherenceParams, ExposureLedger, NoiseMap};
use hisq_sim::{
    BackendSpec, Hub, SimError, SweepRecord, SweepReport, SweepRunner, System, SystemSpec,
};

pub use crate::scenario::Scenario;
use crate::scenario::SurgeryOp;

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
/// Each program is copied once, straight from the compiler's
/// instruction slice into the `Arc<[Inst]>` every system built from
/// the spec shares.
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
            let programs: BTreeMap<NodeAddr, Arc<[Inst]>> = compiled
                .programs
                .iter()
                .map(|(&addr, program)| (addr, Arc::from(program.insts())))
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
                    Arc::<[Inst]>::from(program.insts()),
                );
            }
            spec
        }
    };
    for binding in &compiled.bindings {
        if let Some(action) = binding.action {
            spec.bind(binding.node, binding.port, binding.codeword, action);
        }
    }
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

impl Scenario {
    /// The scenario's compile-stage identity: every input the
    /// **compile → place → describe** pipeline stage reads, and nothing
    /// it does not. Two scenarios with equal keys compile to
    /// bit-identical programs and system descriptions (the
    /// `compile_cache_equivalence` suite asserts exactly this), so a
    /// sweep's [`CompileCache`] shares one [`CompiledArtifact`] across
    /// grid points that differ only in seed, noise, coherence time, or
    /// link model — the axes the paper figures actually sweep.
    pub fn compile_key(&self) -> CompileKey {
        // The load block is run-stage (the job engine schedules
        // *instances* of the compiled program), so a load sweep's grid
        // points share one artifact with their unloaded twin.
        //
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
            workload_json: self.workload.to_json().to_string_compact(),
            scheme: match self.scheme {
                Scheme::Bisp => 0,
                Scheme::Lockstep => 1,
            },
            shots: self.shots,
            neighbor_latency: self.params.neighbor_latency,
            router_latency: self.params.router_latency,
            router_arity: self.params.router_arity,
            star_latencies,
            surgery: self.surgery.clone(),
            fabric,
        }
    }
}

/// The effective heterogeneity maps of a scenario: the parameter-level
/// defaults with the per-edge/per-qubit override lists on top (last
/// write to an edge/qubit wins).
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
    /// The workload in its canonical JSON form — the only total
    /// encoding [`WorkloadSpec`](hisq_workloads::WorkloadSpec) has.
    workload_json: String,
    /// Scheme tag (0 = BISP, 1 = lock-step).
    scheme: u8,
    /// Shot count (compiled into the program: both schemes unroll every
    /// shot, and BISP opens each with a region sync once there is more
    /// than one).
    shots: u32,
    neighbor_latency: u64,
    router_latency: u64,
    router_arity: usize,
    /// Star up/down latencies; zeroed under BISP (unread there).
    star_latencies: (u64, u64),
    /// Surgery ops in application order (validity and effect both
    /// depend on the tree they apply to, so they are part of the
    /// compile identity even when a later op fails).
    surgery: Vec<SurgeryOp>,
    /// Canonical JSON of the effective fabric and noise maps when the
    /// scenario compiles fabric-aware (placement reads them); `None`
    /// for oblivious scenarios, which share artifacts across the
    /// link-model and noise axes exactly as before.
    fabric: Option<String>,
}

/// The reusable output of a scenario's compile stage: the validated
/// system description (backend and link model still unset — those are
/// run-stage), plus the metric inputs [`run_scenario`] needs from the
/// built workload. Shared behind an [`Arc`] by every grid point of a
/// sweep whose [`CompileKey`] matches.
///
/// The description holds each program once, as the `Arc<[Inst]>`
/// copied from the compiler's output, with the controllers' flattened
/// link tables, per-controller binding tables and the topology, all
/// shared. A grid point's clone of it copies none of them, and the
/// address layout its first build derives is reused by every later
/// build.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// The compiled system as a declarative spec (cloned, then given
    /// its backend + link model, per consuming scenario; the clone
    /// shares the deployment).
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

/// Runs `scenario`'s compile stage fresh, outside any cache: workload
/// build, topology construction + surgery, placement, compilation, and
/// the system description — everything
/// [`run_scenario`] does before seeding a backend. Exposed for the
/// cache-equivalence suite; sweep callers get this transparently
/// through [`run_sweep`].
///
/// # Errors
///
/// The compile-time subset of [`run_scenario`]'s errors (unknown
/// workload, invalid surgery, compile failure, incomplete description),
/// attributed to the scenario's id.
pub fn compile_scenario(scenario: &Scenario) -> Result<CompiledArtifact, RunnerError> {
    compile_stage(scenario).map_err(|e| e.with_id(&scenario.id()))
}

/// Executes one scenario end to end on a fresh [`CompileCache`] —
/// compile, instantiate, run and score — and distills the paper's
/// metrics.
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
    run_scenario_cached(scenario, &CompileCache::new())
}

/// [`run_scenario`] with the compile stage served from `cache` — the
/// per-point body of [`run_sweep_cached`]. Results are byte-identical
/// to a fresh cache; only the compile work is shared.
///
/// # Errors
///
/// As [`run_scenario`] (cached compile errors included, re-attributed
/// to this scenario's id).
pub fn run_scenario_cached(
    scenario: &Scenario,
    cache: &CompileCache,
) -> Result<ScenarioReport, RunnerError> {
    // Load scenarios run the multi-tenant job engine instead: every
    // job is an instance of this scenario (minus the load block),
    // compiled once through the cache and run per job.
    if scenario.load.is_some() {
        return crate::load::load_record(scenario, cache);
    }
    let artifact = compile(scenario, cache)?;
    run_scenario_from_artifact(scenario, &artifact)
}

/// The pipeline after the compile stage — instantiate, then run and
/// score — on an already-compiled artifact. The job engine runs every
/// job of a load scenario through this, from the artifact its
/// `run_load` resolved once.
pub(crate) fn run_scenario_from_artifact(
    scenario: &Scenario,
    artifact: &CompiledArtifact,
) -> Result<ScenarioReport, RunnerError> {
    let (fabric, noise) = effective_maps(scenario);
    let system = instantiate(scenario, artifact, &fabric, &noise)?;
    run_and_score(scenario, system, artifact, &fabric, &noise)
}

/// Builds the ready-to-run [`System`] a scenario describes — compile
/// on a fresh cache, then instantiate — without running it:
/// [`run_scenario`] up to (but excluding) the `run()` call.
///
/// Exposed so test harnesses can instrument the engine before the run,
/// e.g. record the pop trace ([`System::record_event_trace`]) that
/// `tests/queue_trace_replay.rs` pins.
///
/// # Errors
///
/// As [`run_scenario`], minus simulation-time failures.
pub fn scenario_system(scenario: &Scenario) -> Result<System, RunnerError> {
    let artifact = compile(scenario, &CompileCache::new())?;
    let (fabric, noise) = effective_maps(scenario);
    instantiate(scenario, &artifact, &fabric, &noise)
}

/// Stage 1, compile: `scenario`'s artifact from `cache` (compiled on
/// this thread on a miss), with errors attributed to the scenario.
fn compile(
    scenario: &Scenario,
    cache: &CompileCache,
) -> Result<Arc<CompiledArtifact>, RunnerError> {
    cache
        .get_or_compile(scenario)
        .map_err(|e| e.with_id(&scenario.id()))
}

/// The pure compile stage: everything a scenario's pipeline does
/// before seed, noise, or link model matter. Reads exactly the inputs
/// [`Scenario::compile_key`] hashes; errors carry no scenario id (the
/// consumer stamps its own on, so cached errors replay verbatim).
fn compile_stage(scenario: &Scenario) -> Result<CompiledArtifact, RunnerError> {
    let built = scenario
        .workload
        .build()
        .ok_or_else(|| RunnerError::UnknownWorkload { id: String::new() })?;
    let p = &scenario.params;
    // The topology is built with the *default* link model even when the
    // scenario runs a contended one: neither compiler reads the model,
    // and the spec-level override below the cache seam
    // (`instantiate`) replaces whatever the description
    // inherited — so scenarios differing only in link model share this
    // stage, and results stay byte-identical either way.
    let mut topology = TopologyBuilder::grid(built.grid.0, built.grid.1)
        .neighbor_latency(p.neighbor_latency)
        .router_latency(p.router_latency)
        .router_arity(p.router_arity)
        .build();
    // Surgery before compiling, so the compiler places region syncs
    // against the surgered tree.
    for op in &scenario.surgery {
        let result = match *op {
            SurgeryOp::DropRouterLevel => topology.drop_router_level(),
            SurgeryOp::RewireSubtree {
                subtree,
                new_parent,
            } => topology.rewire_subtree(subtree, new_parent),
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
    // heated-qubit exposure. A flat fabric plans the identity, and
    // every workload fills its grid, so the flag alone never changes a
    // uniform scenario's programs; lock-step has no placement freedom
    // and compiles obliviously.
    if p.fabric_aware && matches!(scenario.scheme, Scheme::Bisp) {
        let (fabric, noise) = effective_maps(scenario);
        let costs = FabricCosts::from_maps(&topology, &fabric, &noise);
        let placement = plan_placement(&circuit, &data_sites, &topology, &costs);
        let (placed, sites) = apply_placement(&circuit, &data_sites, &placement);
        circuit = placed;
        data_sites = sites;
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

/// Stage 2, instantiate: clone the compiled description (sharing its
/// deployment), seed the backend, install the scenario's effective
/// fabric, and build.
fn instantiate(
    scenario: &Scenario,
    artifact: &CompiledArtifact,
    fabric: &FabricMap,
    noise: &NoiseMap,
) -> Result<System, RunnerError> {
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
    // The run-stage fabric: the spec is its only owner, and the cached
    // description carries the default.
    spec.link_model(fabric.default_model());
    for (from, to, model) in fabric.overrides() {
        spec.link_model_for(from, to, model);
    }
    spec.build()
        .map_err(|e| RunnerError::sim(e).with_id(&scenario.id()))
}

/// Stage 3, run + score: simulate the built system and distill the
/// scenario's metric record.
fn run_and_score(
    scenario: &Scenario,
    mut system: System,
    artifact: &CompiledArtifact,
    fabric: &FabricMap,
    noise: &NoiseMap,
) -> Result<ScenarioReport, RunnerError> {
    let id = scenario.id();
    let report = system.run().map_err(|e| RunnerError::sim(e).with_id(&id))?;

    let coherence = CoherenceParams::uniform(scenario.t1_us);
    let data_exposure: ExposureLedger;
    let scored_exposure = if artifact.data_sites.is_empty() {
        system.exposure()
    } else {
        // Output data qubits stay coherent from circuit start until the
        // whole dynamic circuit completes (the Figure 16 scoring).
        data_exposure = artifact
            .data_sites
            .iter()
            .map(|&q| (q, 0, report.makespan_ns))
            .collect();
        &data_exposure
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
        // reads. A uniform map scores the global counts, a heterogeneous
        // one each qubit's counts at its own rates. The split is a byte
        // contract: per-qubit sums round differently in pinned reports.
        let noise_infidelity = if noise.is_uniform() {
            noise
                .default_model()
                .infidelity(&report.quantum_ops, scored_exposure)
        } else {
            noise.infidelity(system.quantum_ops_by_qubit(), scored_exposure)
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
/// the hit/miss counters afterwards (the `sweep_throughput` bench
/// reports the hit rate).
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
/// `compile_cache_equivalence` suite and the uncached rows of the
/// `sweep_throughput` bench run against.
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
