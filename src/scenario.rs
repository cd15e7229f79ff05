//! The scenario model and the scenario-file grammar: what one
//! experiment point is ([`Scenario`], [`SystemParams`], [`SurgeryOp`]
//! and the per-edge/per-qubit overrides), its stable id, its JSON form,
//! and how a scenario file's axes expand into a grid.
//!
//! A scenario file is a JSON document describing a whole experiment —
//! one or more base [`Scenario`]s, sweep axes expanded into the
//! cartesian grid, and a repetition count — that the `hisq run` binary
//! executes through the deterministic sweep engine
//! ([`crate::runner::run_sweep`]). Committed scenario files plus their
//! committed reports form the golden replay corpus in `scenarios/`,
//! compared byte-for-byte by `cargo test` and in CI. In-process grids
//! are built the same way: a [`ScenarioFile`] with typed [`Axis`]
//! values, then [`ScenarioFile::expand`].
//!
//! # Format
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "quick-bisp-vs-lockstep",
//!   "description": "Both schemes on one quick workload, two seeds.",
//!   "repetitions": 1,
//!   "base": {"workload": {"suite": "w_state_n12"}, "scheme": "bisp"},
//!   "axes": [
//!     {"axis": "scheme", "values": ["bisp", "lockstep"]},
//!     {"axis": "seed", "values": [1, 2]}
//!   ]
//! }
//! ```
//!
//! - `schema_version` is **required** and must equal
//!   [`SCHEMA_VERSION`]; decoding any other version fails loudly so a
//!   stale tool never silently misreads a newer file.
//! - Unknown fields are rejected everywhere, with dotted-path errors
//!   (`base.params.noise: unknown field ...`) — a typo in a
//!   hand-edited file is a parse error, not a silently ignored knob.
//! - `base` is one scenario object or a non-empty array of them. Each
//!   base is crossed with every axis, and the grids are concatenated
//!   in base order — for comparisons whose points differ in several
//!   fields at once.
//! - `axes` (optional) expand in file order into the cartesian
//!   product, later axes varying fastest. Axis values overwrite the
//!   corresponding base field, including whole `surgery` op lists — a
//!   structural transform is a grid axis like any other. Each value is
//!   decoded by its base field's decoder, so it obeys the same rules
//!   (a positive `t1_us`, an override list naming each edge or qubit
//!   once, …).
//! - `repetitions` (optional, default 1) runs every grid point `N`
//!   times with consecutive seeds (`seed`, `seed+1`, …), golem-des
//!   style; `hisq run --repetitions N` overrides it.
//! - The expanded size (bases × axis lengths × repetitions) may not
//!   exceed [`MAX_SCENARIOS`]; a larger file is rejected at parse
//!   time, before anything is allocated for it.

use std::collections::BTreeSet;

use hisq_compiler::Scheme;
use hisq_core::NodeAddr;
use hisq_isa::MAX_WAITI_CYCLES;
use hisq_json::{Json, JsonError, ObjReader};
use hisq_net::json::{edge_override_from_json, edge_override_to_json};
use hisq_net::LinkModel;
use hisq_quantum::NoiseModel;
use hisq_workloads::WorkloadSpec;

use crate::load::LoadSpec;

/// The scenario-file schema version this build reads and writes.
///
/// Bump when the scenario grammar changes incompatibly; decoding a
/// file with any other version fails with an error naming both
/// versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The most scenarios one file may expand to (bases × axis lengths ×
/// repetitions): about 260× the largest grid in the repository, so a
/// legitimate sweep never meets it, while a hostile or mistyped file
/// fails at parse time instead of running until killed.
pub const MAX_SCENARIOS: u64 = 100_000;

/// A spec-surgery transform: a declarative edit of the router tree,
/// making "the same experiment, with one structural change"
/// expressible as a first-class sweep axis (and a scenario-file field)
/// instead of a forked binary. Surgery holds only the edits no other
/// scenario field can express.
///
/// Ops edit the built tree *before* compilation, in list order, so the
/// BISP compiler places region syncs against the surgered tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurgeryOp {
    /// Remove the bottom router level, splicing its children into
    /// their grandparents (see
    /// [`Topology::drop_router_level`](hisq_net::Topology::drop_router_level))
    /// — a flatter, higher-fan-in synchronization tree.
    DropRouterLevel,
    /// Reattach the subtree rooted at `subtree` under router
    /// `new_parent` (see
    /// [`Topology::rewire_subtree`](hisq_net::Topology::rewire_subtree))
    /// — a region reporting through a different coordinator.
    RewireSubtree {
        /// Root of the moved subtree (controller or router address).
        subtree: NodeAddr,
        /// The router that adopts it.
        new_parent: NodeAddr,
    },
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
            other => {
                return Err(JsonError::decode(
                    tag_path,
                    format!(
                        "unknown surgery op \"{other}\" (expected \"drop_router_level\" or \
                         \"rewire_subtree\")"
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
/// `{"from": a, "to": b, "model": {...}}`.
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
/// `{"qubit": q, "noise": {...}}` (the same shape
/// [`NoiseMap`](hisq_quantum::NoiseMap)'s `overrides` entries use).
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
    /// historical single-model path). A scenario file may name each
    /// edge once; in a list built in code, later entries for the same
    /// edge win. An entry equal to the default is a no-op.
    pub link_overrides: Vec<LinkOverride>,
    /// Per-qubit overrides of [`noise`](Self::noise) (default: none — a
    /// uniform device). A scenario file may name each qubit once; in a
    /// list built in code, later entries for the same qubit win. An
    /// entry equal to the default is a no-op. Any override (even on an
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
                link_overrides_to_json(&self.link_overrides),
            ));
        }
        if !self.noise_overrides.is_empty() {
            fields.push((
                "noise_overrides".into(),
                noise_overrides_to_json(&self.noise_overrides),
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
    /// types, `router_arity < 2` (the topology builder would panic), a
    /// latency over [`MAX_WAITI_CYCLES`], or an override list naming
    /// one edge or qubit twice.
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
            params.link_overrides = link_overrides_from_json(v, &obj.field_path("link_overrides"))?;
        }
        if let Some(v) = obj.optional("noise_overrides") {
            params.noise_overrides =
                noise_overrides_from_json(v, &obj.field_path("noise_overrides"))?;
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
    /// Program repetitions per run, each unrolled into the compiled
    /// program by both schemes. Under BISP with more than one shot,
    /// every shot (the first included) opens with a region-level
    /// synchronization against the router tree (§2.1.4), so multi-shot
    /// scenarios are the ones where tree surgery is timing-visible;
    /// lock-step needs no synchronization between shots.
    pub shots: u32,
    /// Link latencies and baseline star parameters.
    pub params: SystemParams,
    /// Router-tree surgery applied before compilation (usually empty).
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
        let mut id = format!(
            "{}/{}/seed{}/t{}",
            self.workload.label(),
            scheme_name(self.scheme),
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
        let mut fields = vec![
            ("workload".into(), self.workload.to_json()),
            ("scheme".into(), scheme_to_json(&self.scheme)),
            ("seed".into(), self.seed.into()),
            ("t1_us".into(), t1_us_to_json(&self.t1_us)),
            ("shots".into(), shots_to_json(&self.shots)),
            ("params".into(), self.params.to_json()),
        ];
        if !self.surgery.is_empty() {
            fields.push(("surgery".into(), surgery_to_json(&self.surgery)));
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
        let scheme = scheme_from_json(obj.required("scheme")?, &obj.field_path("scheme"))?;
        let mut scenario = Scenario::new(workload, scheme);
        if let Some(v) = obj.optional("seed") {
            scenario.seed = v.as_u64(&obj.field_path("seed"))?;
        }
        if let Some(v) = obj.optional("t1_us") {
            scenario.t1_us = t1_us_from_json(v, &obj.field_path("t1_us"))?;
        }
        if let Some(v) = obj.optional("shots") {
            scenario.shots = shots_from_json(v, &obj.field_path("shots"))?;
        }
        if let Some(v) = obj.optional("params") {
            scenario.params = SystemParams::from_json(v, &obj.field_path("params"))?;
        }
        if let Some(v) = obj.optional("surgery") {
            scenario.surgery = surgery_from_json(v, &obj.field_path("surgery"))?;
        }
        if let Some(v) = obj.optional("load") {
            scenario.load = Some(LoadSpec::from_json(v, &obj.field_path("load"))?);
        }
        obj.reject_unknown()?;
        Ok(scenario)
    }
}

/// The scheme's name in scenario files and ids.
fn scheme_name(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Bisp => "bisp",
        Scheme::Lockstep => "lockstep",
    }
}

// Field codecs: the one JSON form and validation of each scenario
// field that is also a sweep axis. `base` (through `Scenario` and
// `SystemParams`) and axis values (through `Axis`) both call these,
// so an axis value obeys exactly its base field's rules.

fn scheme_to_json(scheme: &Scheme) -> Json {
    Json::str(scheme_name(*scheme))
}

fn scheme_from_json(value: &Json, path: &str) -> Result<Scheme, JsonError> {
    let name = value.as_str(path)?;
    [Scheme::Bisp, Scheme::Lockstep]
        .into_iter()
        .find(|&scheme| scheme_name(scheme) == name)
        .ok_or_else(|| {
            JsonError::decode(
                path,
                format!(
                    "unknown scheme \"{name}\" (expected \"{}\" or \"{}\")",
                    scheme_name(Scheme::Bisp),
                    scheme_name(Scheme::Lockstep)
                ),
            )
        })
}

fn t1_us_to_json(t1_us: &f64) -> Json {
    Json::float(*t1_us)
}

fn t1_us_from_json(value: &Json, path: &str) -> Result<f64, JsonError> {
    let t1_us = value.as_f64(path)?;
    if t1_us <= 0.0 {
        return Err(JsonError::decode(path, "t1_us must be positive"));
    }
    Ok(t1_us)
}

fn shots_to_json(shots: &u32) -> Json {
    u64::from(*shots).into()
}

fn shots_from_json(value: &Json, path: &str) -> Result<u32, JsonError> {
    let shots = value.as_u32(path)?;
    if shots == 0 {
        return Err(JsonError::decode(path, "shots must be at least 1"));
    }
    Ok(shots)
}

fn link_overrides_to_json(overrides: &[LinkOverride]) -> Json {
    Json::Array(overrides.iter().map(LinkOverride::to_json).collect())
}

fn link_overrides_from_json(value: &Json, path: &str) -> Result<Vec<LinkOverride>, JsonError> {
    distinct_from_json(value, path, LinkOverride::from_json, |over| {
        format!("edge {} -> {}", over.from, over.to)
    })
}

fn noise_overrides_to_json(overrides: &[NoiseOverride]) -> Json {
    Json::Array(overrides.iter().map(NoiseOverride::to_json).collect())
}

fn noise_overrides_from_json(value: &Json, path: &str) -> Result<Vec<NoiseOverride>, JsonError> {
    distinct_from_json(value, path, NoiseOverride::from_json, |over| {
        format!("qubit {}", over.qubit)
    })
}

fn surgery_to_json(ops: &[SurgeryOp]) -> Json {
    Json::Array(ops.iter().map(SurgeryOp::to_json).collect())
}

fn surgery_from_json(value: &Json, path: &str) -> Result<Vec<SurgeryOp>, JsonError> {
    decode_each(value.as_array(path)?, path, SurgeryOp::from_json)
}

/// Decodes `values` (the array at `path`) element by element.
fn decode_each<T>(
    values: &[Json],
    path: &str,
    decode: impl Fn(&Json, &str) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    values
        .iter()
        .enumerate()
        .map(|(i, value)| decode(value, &format!("{path}[{i}]")))
        .collect()
}

/// Decodes an override list whose entries must name distinct targets:
/// `target` renders an entry's edge or qubit, and the first entry
/// repeating one is an error at its own path.
fn distinct_from_json<T>(
    value: &Json,
    path: &str,
    decode: impl Fn(&Json, &str) -> Result<T, JsonError>,
    target: impl Fn(&T) -> String,
) -> Result<Vec<T>, JsonError> {
    let mut seen = BTreeSet::new();
    let mut list = Vec::new();
    for (i, entry) in value.as_array(path)?.iter().enumerate() {
        let entry_path = format!("{path}[{i}]");
        let over = decode(entry, &entry_path)?;
        let target = target(&over);
        if seen.contains(&target) {
            return Err(JsonError::decode(
                entry_path,
                format!("duplicate override for {target}"),
            ));
        }
        seen.insert(target);
        list.push(over);
    }
    Ok(list)
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

/// One sweep axis of a scenario file: which base field varies, and the
/// values it takes. Axes expand in file order into the cartesian
/// product of their values (later axes vary fastest).
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Vary the execution scheme.
    Scheme(Vec<Scheme>),
    /// Vary the backend seed.
    Seed(Vec<u64>),
    /// Vary the scored coherence time (µs).
    T1Us(Vec<f64>),
    /// Vary the per-run shot count (each shot after the first opens
    /// with a region sync under BISP).
    Shots(Vec<u32>),
    /// Vary the workload.
    Workload(Vec<WorkloadSpec>),
    /// Vary the classical link contention model.
    LinkModel(Vec<LinkModel>),
    /// Vary the quantum noise model.
    Noise(Vec<NoiseModel>),
    /// Vary the per-edge link-model override list (each value
    /// *replaces* the base list, so `[]` is the uniform fabric).
    LinkOverrides(Vec<Vec<LinkOverride>>),
    /// Vary the per-qubit noise override list (each value *replaces*
    /// the base list, so `[]` is the uniform device).
    NoiseOverrides(Vec<Vec<NoiseOverride>>),
    /// Vary fabric-aware compilation on/off (the `fig_hetero`
    /// aware-vs-oblivious comparison axis).
    FabricAware(Vec<bool>),
    /// Vary the spec-surgery op list (each value *replaces* the base
    /// list, so `[]` is the unmodified machine).
    Surgery(Vec<Vec<SurgeryOp>>),
    /// Vary the multi-tenant load block (each value *replaces* the
    /// base block — the `fig_load` offered-load × partition-count
    /// axes).
    Load(Vec<LoadSpec>),
}

impl Axis {
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Scheme(v) => v.len(),
            Axis::Seed(v) => v.len(),
            Axis::T1Us(v) => v.len(),
            Axis::Shots(v) => v.len(),
            Axis::Workload(v) => v.len(),
            Axis::LinkModel(v) => v.len(),
            Axis::Noise(v) => v.len(),
            Axis::LinkOverrides(v) => v.len(),
            Axis::NoiseOverrides(v) => v.len(),
            Axis::FabricAware(v) => v.len(),
            Axis::Surgery(v) => v.len(),
            Axis::Load(v) => v.len(),
        }
    }

    /// `true` when the axis carries no values (rejected at parse time,
    /// so an expanded file never silently produces zero scenarios).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The JSON name of the varied field.
    fn axis_name(&self) -> &'static str {
        match self {
            Axis::Scheme(_) => "scheme",
            Axis::Seed(_) => "seed",
            Axis::T1Us(_) => "t1_us",
            Axis::Shots(_) => "shots",
            Axis::Workload(_) => "workload",
            Axis::LinkModel(_) => "link_model",
            Axis::Noise(_) => "noise",
            Axis::LinkOverrides(_) => "link_overrides",
            Axis::NoiseOverrides(_) => "noise_overrides",
            Axis::FabricAware(_) => "fabric_aware",
            Axis::Surgery(_) => "surgery",
            Axis::Load(_) => "load",
        }
    }

    /// Applies value `index` of this axis to `scenario`.
    fn apply(&self, scenario: &mut Scenario, index: usize) {
        match self {
            Axis::Scheme(v) => scenario.scheme = v[index],
            Axis::Seed(v) => scenario.seed = v[index],
            Axis::T1Us(v) => scenario.t1_us = v[index],
            Axis::Shots(v) => scenario.shots = v[index],
            Axis::Workload(v) => scenario.workload = v[index].clone(),
            Axis::LinkModel(v) => scenario.params.link_model = v[index],
            Axis::Noise(v) => scenario.params.noise = v[index],
            Axis::LinkOverrides(v) => scenario.params.link_overrides = v[index].clone(),
            Axis::NoiseOverrides(v) => scenario.params.noise_overrides = v[index].clone(),
            Axis::FabricAware(v) => scenario.params.fabric_aware = v[index],
            Axis::Surgery(v) => scenario.surgery = v[index].clone(),
            Axis::Load(v) => scenario.load = Some(v[index].clone()),
        }
    }

    /// Serializes the axis as `{"axis": name, "values": [...]}`, each
    /// value in its base field's form.
    pub fn to_json(&self) -> Json {
        let values = match self {
            Axis::Scheme(v) => v.iter().map(scheme_to_json).collect(),
            Axis::Seed(v) => v.iter().map(|&seed| seed.into()).collect(),
            Axis::T1Us(v) => v.iter().map(t1_us_to_json).collect(),
            Axis::Shots(v) => v.iter().map(shots_to_json).collect(),
            Axis::Workload(v) => v.iter().map(WorkloadSpec::to_json).collect(),
            Axis::LinkModel(v) => v.iter().map(LinkModel::to_json).collect(),
            Axis::Noise(v) => v.iter().map(NoiseModel::to_json).collect(),
            Axis::LinkOverrides(v) => v.iter().map(|list| link_overrides_to_json(list)).collect(),
            Axis::NoiseOverrides(v) => v.iter().map(|list| noise_overrides_to_json(list)).collect(),
            Axis::FabricAware(v) => v.iter().map(|&aware| aware.into()).collect(),
            Axis::Surgery(v) => v.iter().map(|ops| surgery_to_json(ops)).collect(),
            Axis::Load(v) => v.iter().map(LoadSpec::to_json).collect(),
        };
        Json::Object(vec![
            ("axis".into(), Json::str(self.axis_name())),
            ("values".into(), Json::Array(values)),
        ])
    }

    /// Parses an axis serialized by [`Axis::to_json`]; each value is
    /// decoded by its base field's decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for an unknown axis name, an
    /// empty value list, or a value its base field would reject.
    pub fn from_json(value: &Json, path: &str) -> Result<Axis, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let name_path = obj.field_path("axis");
        let name = obj.required("axis")?.as_str(&name_path)?.to_owned();
        let at = obj.field_path("values");
        let values = obj.required("values")?.as_array(&at)?;
        let axis = match name.as_str() {
            "scheme" => Axis::Scheme(decode_each(values, &at, scheme_from_json)?),
            "seed" => Axis::Seed(decode_each(values, &at, Json::as_u64)?),
            "t1_us" => Axis::T1Us(decode_each(values, &at, t1_us_from_json)?),
            "shots" => Axis::Shots(decode_each(values, &at, shots_from_json)?),
            "workload" => Axis::Workload(decode_each(values, &at, WorkloadSpec::from_json)?),
            "link_model" => Axis::LinkModel(decode_each(values, &at, LinkModel::from_json)?),
            "noise" => Axis::Noise(decode_each(values, &at, NoiseModel::from_json)?),
            "link_overrides" => {
                Axis::LinkOverrides(decode_each(values, &at, link_overrides_from_json)?)
            }
            "noise_overrides" => {
                Axis::NoiseOverrides(decode_each(values, &at, noise_overrides_from_json)?)
            }
            "fabric_aware" => Axis::FabricAware(decode_each(values, &at, Json::as_bool)?),
            "surgery" => Axis::Surgery(decode_each(values, &at, surgery_from_json)?),
            "load" => Axis::Load(decode_each(values, &at, LoadSpec::from_json)?),
            other => {
                return Err(JsonError::decode(
                    name_path,
                    format!(
                        "unknown axis \"{other}\" (expected \"scheme\", \"seed\", \"t1_us\", \
                         \"shots\", \"workload\", \"link_model\", \"noise\", \
                         \"link_overrides\", \"noise_overrides\", \"fabric_aware\", \
                         \"surgery\", or \"load\")"
                    ),
                ))
            }
        };
        obj.reject_unknown()?;
        if axis.is_empty() {
            return Err(JsonError::decode(at, "axis has no values"));
        }
        Ok(axis)
    }
}

/// A parsed scenario file: name, base scenarios, sweep axes, and the
/// repetition count. See the [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Display name (also the suggested report file stem).
    pub name: String,
    /// Free-form description (optional, empty when absent).
    pub description: String,
    /// Times each grid point runs, with consecutive seeds. Must be ≥ 1.
    pub repetitions: u64,
    /// The base scenarios, never empty. Each is crossed with every
    /// axis; the grids concatenate in base order.
    pub bases: Vec<Scenario>,
    /// Sweep axes, expanded in order (later axes vary fastest).
    pub axes: Vec<Axis>,
}

impl ScenarioFile {
    /// A single-point scenario file around `base`.
    pub fn new(name: impl Into<String>, base: Scenario) -> ScenarioFile {
        ScenarioFile {
            name: name.into(),
            description: String::new(),
            repetitions: 1,
            bases: vec![base],
            axes: Vec::new(),
        }
    }

    /// Parses a scenario-file document from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with line/column information for
    /// malformed JSON, or a dotted-path error for schema violations
    /// (wrong `schema_version`, unknown fields, empty axes, an
    /// expansion over [`MAX_SCENARIOS`], …).
    pub fn parse(text: &str) -> Result<ScenarioFile, JsonError> {
        ScenarioFile::from_json(&Json::parse(text)?, "scenario")
    }

    /// Parses a scenario file serialized by [`ScenarioFile::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path`; see [`ScenarioFile::parse`].
    pub fn from_json(value: &Json, path: &str) -> Result<ScenarioFile, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let version_path = obj.field_path("schema_version");
        let version = obj.required("schema_version")?.as_u64(&version_path)?;
        if version != SCHEMA_VERSION {
            return Err(JsonError::decode(
                version_path,
                format!(
                    "unsupported schema_version {version} (this build reads version \
                     {SCHEMA_VERSION})"
                ),
            ));
        }
        let name = obj
            .required("name")?
            .as_str(&obj.field_path("name"))?
            .to_owned();
        if name.is_empty() {
            return Err(JsonError::decode(obj.field_path("name"), "name is empty"));
        }
        let description = match obj.optional("description") {
            Some(v) => v.as_str(&obj.field_path("description"))?.to_owned(),
            None => String::new(),
        };
        let repetitions = match obj.optional("repetitions") {
            Some(v) => {
                let n = v.as_u64(&obj.field_path("repetitions"))?;
                if n == 0 {
                    return Err(JsonError::decode(
                        obj.field_path("repetitions"),
                        "repetitions must be at least 1",
                    ));
                }
                n
            }
            None => 1,
        };
        let base_path = obj.field_path("base");
        let bases = match obj.required("base")? {
            Json::Array(items) if items.is_empty() => {
                return Err(JsonError::decode(base_path, "base array is empty"));
            }
            Json::Array(items) => decode_each(items, &base_path, Scenario::from_json)?,
            single => vec![Scenario::from_json(single, &base_path)?],
        };
        let mut axes = Vec::new();
        if let Some(v) = obj.optional("axes") {
            let axes_path = obj.field_path("axes");
            axes = decode_each(v.as_array(&axes_path)?, &axes_path, Axis::from_json)?;
        }
        obj.reject_unknown()?;
        let file = ScenarioFile {
            name,
            description,
            repetitions,
            bases,
            axes,
        };
        file.check_scenario_count(None)
            .map_err(|message| JsonError::decode(path, message))?;
        Ok(file)
    }

    /// Serializes the file (omitting an empty description, a
    /// repetition count of 1, and an empty axis list; a single base is
    /// written as an object, several as an array).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("name".into(), Json::str(self.name.clone())),
        ];
        if !self.description.is_empty() {
            fields.push(("description".into(), Json::str(self.description.clone())));
        }
        if self.repetitions != 1 {
            fields.push(("repetitions".into(), self.repetitions.into()));
        }
        let base = match self.bases.as_slice() {
            [single] => single.to_json(),
            bases => Json::Array(bases.iter().map(Scenario::to_json).collect()),
        };
        fields.push(("base".into(), base));
        if !self.axes.is_empty() {
            fields.push((
                "axes".into(),
                Json::Array(self.axes.iter().map(Axis::to_json).collect()),
            ));
        }
        Json::Object(fields)
    }

    /// Number of grid points (bases × axis lengths, before
    /// repetitions).
    pub fn grid_len(&self) -> usize {
        self.bases.len() * self.axes.iter().map(Axis::len).product::<usize>()
    }

    /// Checks the number of scenarios [`ScenarioFile::expand`] returns
    /// for `repetitions_override` (bases × axis lengths × repetitions,
    /// in overflow-checked arithmetic) against [`MAX_SCENARIOS`].
    /// Parsing applies this check to the file's own repetition count;
    /// callers passing an override to `expand` apply it to theirs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the count and the limit when the
    /// expansion would exceed it.
    pub fn check_scenario_count(&self, repetitions_override: Option<u64>) -> Result<(), String> {
        let repetitions = repetitions_override.unwrap_or(self.repetitions).max(1);
        let count = self
            .axes
            .iter()
            .try_fold(self.bases.len() as u64, |n, axis| {
                n.checked_mul(axis.len() as u64)
            })
            .and_then(|n| n.checked_mul(repetitions));
        match count {
            Some(count) if count <= MAX_SCENARIOS => Ok(()),
            Some(count) => Err(format!(
                "expands to {count} scenarios, over the limit of {MAX_SCENARIOS}"
            )),
            None => Err(format!(
                "expands to more than {} scenarios, over the limit of {MAX_SCENARIOS}",
                u64::MAX
            )),
        }
    }

    /// Expands the file into the concrete scenario list the sweep
    /// engine runs: for each base in order, the cartesian product of
    /// the axes over that base (later axes varying fastest), each point
    /// repeated `repetitions` times with consecutive seeds (`seed`,
    /// `seed+1`, …). An axis with no values (only constructible in
    /// code; parsing rejects it) empties the grid. Pass
    /// `repetitions_override` to replace the file's count (the
    /// `--repetitions` flag); check it with
    /// [`ScenarioFile::check_scenario_count`] first.
    pub fn expand(&self, repetitions_override: Option<u64>) -> Vec<Scenario> {
        let repetitions = repetitions_override.unwrap_or(self.repetitions).max(1);
        let mut points = self.bases.clone();
        for axis in &self.axes {
            let mut next = Vec::with_capacity(points.len() * axis.len());
            for point in &points {
                for index in 0..axis.len() {
                    let mut varied = point.clone();
                    axis.apply(&mut varied, index);
                    next.push(varied);
                }
            }
            points = next;
        }
        let mut scenarios = Vec::with_capacity(points.len() * repetitions as usize);
        for point in points {
            for rep in 0..repetitions {
                let mut repeated = point.clone();
                repeated.seed = point.seed.wrapping_add(rep);
                scenarios.push(repeated);
            }
        }
        scenarios
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_file() -> ScenarioFile {
        ScenarioFile::parse(
            r#"{
                "schema_version": 1,
                "name": "quick",
                "base": {"workload": {"suite": "w_state_n12"}, "scheme": "bisp"},
                "axes": [
                    {"axis": "scheme", "values": ["bisp", "lockstep"]},
                    {"axis": "seed", "values": [1, 2]}
                ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_cartesian_with_later_axes_fastest() {
        let file = quick_file();
        assert_eq!(file.grid_len(), 4);
        let scenarios = file.expand(None);
        assert_eq!(scenarios.len(), 4);
        let ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
        assert_eq!(
            ids,
            [
                "w_state_n12/bisp/seed1/t300",
                "w_state_n12/bisp/seed2/t300",
                "w_state_n12/lockstep/seed1/t300",
                "w_state_n12/lockstep/seed2/t300",
            ]
        );
    }

    #[test]
    fn grid_expands_cartesian_product_in_axis_major_order() {
        // Axes of unequal length: a transposed walk would change both
        // the order and the run lengths.
        let mut file = quick_file();
        file.axes = vec![Axis::Seed(vec![1, 2]), Axis::T1Us(vec![10.0, 20.0, 30.0])];
        assert_eq!(file.grid_len(), 6);
        let points: Vec<(u64, f64)> = file
            .expand(None)
            .iter()
            .map(|s| (s.seed, s.t1_us))
            .collect();
        assert_eq!(
            points,
            [
                (1, 10.0),
                (1, 20.0),
                (1, 30.0),
                (2, 10.0),
                (2, 20.0),
                (2, 30.0),
            ]
        );
    }

    #[test]
    fn empty_axis_annihilates_the_grid() {
        let mut file = quick_file();
        file.axes.insert(1, Axis::Shots(Vec::new()));
        assert_eq!(file.grid_len(), 0);
        // Later axes keep it empty rather than resurrecting points.
        assert!(file.expand(None).is_empty());
    }

    #[test]
    fn single_point_axis_keeps_the_count() {
        let mut file = quick_file();
        file.axes.push(Axis::T1Us(vec![150.0]));
        let ids: Vec<String> = file.expand(None).iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|id| id.ends_with("/t150")), "{ids:?}");
    }

    #[test]
    fn repetitions_expand_with_consecutive_seeds() {
        let mut file = quick_file();
        file.axes.truncate(1); // scheme only
        file.repetitions = 3;
        let scenarios = file.expand(None);
        assert_eq!(scenarios.len(), 6);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, [1, 2, 3, 1, 2, 3]);
        // The flag overrides the file.
        assert_eq!(file.expand(Some(1)).len(), 2);
    }

    #[test]
    fn file_round_trips_through_json() {
        let mut file = quick_file();
        file.description = "round-trip exemplar".into();
        file.repetitions = 2;
        file.axes.push(Axis::Surgery(vec![
            Vec::new(),
            vec![SurgeryOp::DropRouterLevel],
        ]));
        let text = file.to_json().to_string_pretty();
        assert_eq!(ScenarioFile::parse(&text).unwrap(), file);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let err = ScenarioFile::parse(
            r#"{"schema_version": 2, "name": "x",
                "base": {"workload": {"suite": "w_state_n12"}, "scheme": "bisp"}}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unsupported schema_version 2"),
            "{err}"
        );
    }

    #[test]
    fn schema_violations_name_their_paths() {
        for (text, needle) in [
            (r#"{"name": "x"}"#, "missing field `schema_version`"),
            (
                r#"{"schema_version": 1, "name": "x",
                    "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                    "axes": [{"axis": "seed", "values": []}]}"#,
                "axis has no values",
            ),
            (
                r#"{"schema_version": 1, "name": "x",
                    "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                    "axes": [{"axis": "temperature", "values": [1]}]}"#,
                "unknown axis \"temperature\"",
            ),
            (
                r#"{"schema_version": 1, "name": "x", "repetitions": 0,
                    "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
                "repetitions must be at least 1",
            ),
            (
                r#"{"schema_version": 1, "name": "x",
                    "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                             "params": {"noize": {}}}}"#,
                "scenario.base.params: unknown field `noize`",
            ),
        ] {
            let err = ScenarioFile::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}\n-> {err}");
        }
    }
}
