//! Versioned scenario files: the product surface of the reproduction.
//!
//! A scenario file is a JSON document describing a whole experiment —
//! one or more base [`Scenario`]s, sweep axes expanded into the
//! cartesian grid (exactly what the in-process
//! [`SweepGrid`](hisq_sim::SweepGrid) builders do), and a repetition
//! count — that the `hisq run` binary executes through the
//! deterministic sweep engine. Committed scenario files plus their
//! committed reports form the golden replay corpus in `scenarios/`,
//! compared byte-for-byte by `cargo test` and in CI.
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
//!   structural transform is a grid axis like any other.
//! - `repetitions` (optional, default 1) runs every grid point `N`
//!   times with consecutive seeds (`seed`, `seed+1`, …), golem-des
//!   style; `hisq run --repetitions N` overrides it.
//! - The expanded size (bases × axis lengths × repetitions) may not
//!   exceed [`MAX_SCENARIOS`]; a larger file is rejected at parse
//!   time, before anything is allocated for it.

use hisq_compiler::Scheme;
use hisq_json::{Json, JsonError, ObjReader};
use hisq_net::LinkModel;
use hisq_quantum::NoiseModel;
use hisq_workloads::WorkloadSpec;

use crate::load::LoadSpec;
use crate::runner::{LinkOverride, NoiseOverride, Scenario, SurgeryOp};

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

    /// Serializes the axis as `{"axis": name, "values": [...]}`.
    pub fn to_json(&self) -> Json {
        let values = match self {
            Axis::Scheme(v) => v
                .iter()
                .map(|s| {
                    Json::str(match s {
                        Scheme::Bisp => "bisp",
                        Scheme::Lockstep => "lockstep",
                    })
                })
                .collect(),
            Axis::Seed(v) => v.iter().map(|&s| s.into()).collect(),
            Axis::T1Us(v) => v.iter().map(|&t| Json::float(t)).collect(),
            Axis::Shots(v) => v.iter().map(|&s| u64::from(s).into()).collect(),
            Axis::Workload(v) => v.iter().map(WorkloadSpec::to_json).collect(),
            Axis::LinkModel(v) => v.iter().map(LinkModel::to_json).collect(),
            Axis::Noise(v) => v.iter().map(NoiseModel::to_json).collect(),
            Axis::LinkOverrides(v) => v
                .iter()
                .map(|overs| Json::Array(overs.iter().map(LinkOverride::to_json).collect()))
                .collect(),
            Axis::NoiseOverrides(v) => v
                .iter()
                .map(|overs| Json::Array(overs.iter().map(NoiseOverride::to_json).collect()))
                .collect(),
            Axis::FabricAware(v) => v.iter().map(|&b| b.into()).collect(),
            Axis::Surgery(v) => v
                .iter()
                .map(|ops| Json::Array(ops.iter().map(SurgeryOp::to_json).collect()))
                .collect(),
            Axis::Load(v) => v.iter().map(LoadSpec::to_json).collect(),
        };
        Json::Object(vec![
            ("axis".into(), Json::str(self.axis_name())),
            ("values".into(), Json::Array(values)),
        ])
    }

    /// Parses an axis serialized by [`Axis::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at `path` for an unknown axis name, an
    /// empty value list, or malformed values.
    pub fn from_json(value: &Json, path: &str) -> Result<Axis, JsonError> {
        let mut obj = ObjReader::new(value, path)?;
        let name_path = obj.field_path("axis");
        let name = obj.required("axis")?.as_str(&name_path)?.to_owned();
        let values_path = obj.field_path("values");
        let values = obj.required("values")?.as_array(&values_path)?;
        let at = |i: usize| format!("{values_path}[{i}]");
        let axis = match name.as_str() {
            "scheme" => Axis::Scheme(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match v.as_str(&at(i))? {
                        "bisp" => Ok(Scheme::Bisp),
                        "lockstep" => Ok(Scheme::Lockstep),
                        other => Err(JsonError::decode(
                            at(i),
                            format!(
                                "unknown scheme \"{other}\" (expected \"bisp\" or \"lockstep\")"
                            ),
                        )),
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "seed" => Axis::Seed(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v.as_u64(&at(i)))
                    .collect::<Result<_, _>>()?,
            ),
            "t1_us" => Axis::T1Us(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let t1_us = v.as_f64(&at(i))?;
                        if t1_us <= 0.0 {
                            return Err(JsonError::decode(at(i), "t1_us must be positive"));
                        }
                        Ok(t1_us)
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "shots" => Axis::Shots(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let shots = v.as_u32(&at(i))?;
                        if shots == 0 {
                            return Err(JsonError::decode(at(i), "shots must be at least 1"));
                        }
                        Ok(shots)
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "workload" => Axis::Workload(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| WorkloadSpec::from_json(v, &at(i)))
                    .collect::<Result<_, _>>()?,
            ),
            "link_model" => Axis::LinkModel(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| LinkModel::from_json(v, &at(i)))
                    .collect::<Result<_, _>>()?,
            ),
            "noise" => Axis::Noise(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| NoiseModel::from_json(v, &at(i)))
                    .collect::<Result<_, _>>()?,
            ),
            "link_overrides" => Axis::LinkOverrides(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_array(&at(i))?
                            .iter()
                            .enumerate()
                            .map(|(j, over)| {
                                LinkOverride::from_json(over, &format!("{}[{j}]", at(i)))
                            })
                            .collect::<Result<Vec<LinkOverride>, _>>()
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "noise_overrides" => Axis::NoiseOverrides(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_array(&at(i))?
                            .iter()
                            .enumerate()
                            .map(|(j, over)| {
                                NoiseOverride::from_json(over, &format!("{}[{j}]", at(i)))
                            })
                            .collect::<Result<Vec<NoiseOverride>, _>>()
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "fabric_aware" => Axis::FabricAware(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v.as_bool(&at(i)))
                    .collect::<Result<_, _>>()?,
            ),
            "surgery" => Axis::Surgery(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_array(&at(i))?
                            .iter()
                            .enumerate()
                            .map(|(j, op)| SurgeryOp::from_json(op, &format!("{}[{j}]", at(i))))
                            .collect::<Result<Vec<SurgeryOp>, _>>()
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "load" => Axis::Load(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| LoadSpec::from_json(v, &at(i)))
                    .collect::<Result<_, _>>()?,
            ),
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
            return Err(JsonError::decode(values_path, "axis has no values"));
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
            Json::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| Scenario::from_json(item, &format!("{base_path}[{i}]")))
                .collect::<Result<_, _>>()?,
            single => vec![Scenario::from_json(single, &base_path)?],
        };
        let mut axes = Vec::new();
        if let Some(v) = obj.optional("axes") {
            let axes_path = obj.field_path("axes");
            for (i, entry) in v.as_array(&axes_path)?.iter().enumerate() {
                axes.push(Axis::from_json(entry, &format!("{axes_path}[{i}]"))?);
            }
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
    /// `seed+1`, …). Pass `repetitions_override` to replace the file's
    /// count (the `--repetitions` flag); check it with
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

    /// The `--quick` expansion (`hisq run --quick`, mirroring the
    /// `fig*` binaries' flag): one repetition, every scenario clamped
    /// to a single shot, and grid points that collapse onto the same
    /// id (e.g. along a `shots` axis) deduplicated in grid order — a
    /// smoke pass over the file's structure at a fraction of the work.
    pub fn expand_quick(&self) -> Vec<Scenario> {
        let mut scenarios = self.expand(Some(1));
        for scenario in &mut scenarios {
            scenario.shots = 1;
        }
        let mut seen = std::collections::HashSet::new();
        scenarios.retain(|s| seen.insert(s.id()));
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
    fn quick_expansion_clamps_shots_and_reps_and_dedups() {
        let mut file = quick_file();
        file.repetitions = 5;
        file.axes.push(Axis::Shots(vec![1, 8]));
        // Full expansion: 2 schemes × 2 seeds × 2 shots × 5 reps.
        assert_eq!(file.expand(None).len(), 40);
        let quick = file.expand_quick();
        // Quick: one rep, shots clamped to 1, and the collapsed shots
        // axis deduplicated — back to the 2×2 core grid.
        assert_eq!(quick.len(), 4);
        assert!(quick.iter().all(|s| s.shots == 1));
        let ids: Vec<String> = quick.iter().map(Scenario::id).collect();
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(ids, unique, "quick ids stay unique");
    }

    #[test]
    fn file_round_trips_through_json() {
        let mut file = quick_file();
        file.description = "round-trip exemplar".into();
        file.repetitions = 2;
        file.axes.push(Axis::Surgery(vec![
            Vec::new(),
            vec![crate::runner::SurgeryOp::DropRouterLevel],
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
