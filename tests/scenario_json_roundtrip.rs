//! Property and table tests for the scenario-file surface.
//!
//! The contract under test is `from_json(to_json(x)) == x` for
//! generated [`Scenario`]s and scenario files (including surgery op
//! lists, contended link models, noise models, and one axis of every
//! kind), plus a table of malformed inputs that must fail with
//! readable, dotted-path errors rather than silently defaulting.

use distributed_hisq::load::{ArrivalStream, LoadSpec};
use distributed_hisq::scenario::{
    Axis, LinkOverride, NoiseOverride, Scenario, ScenarioFile, SurgeryOp, SystemParams,
    MAX_SCENARIOS,
};
use hisq_compiler::Scheme;
use hisq_isa::{CYCLE_NS, MAX_WAITI_CYCLES};
use hisq_json::Json;
use hisq_net::{DropPolicy, LinkModel};
use hisq_quantum::NoiseModel;
use hisq_workloads::WorkloadSpec;
use proptest::prelude::*;

fn workload_of(kind: u8) -> WorkloadSpec {
    match kind % 3 {
        0 => WorkloadSpec::suite("w_state_n12"),
        1 => WorkloadSpec::suite("qft_n10"),
        _ => WorkloadSpec::LongRangeCnots {
            parallel: 1 + (kind as usize % 4),
            span: 2 + (kind as usize % 3),
        },
    }
}

fn link_model_of(kind: u8) -> LinkModel {
    match kind % 3 {
        0 => LinkModel::default(),
        1 => LinkModel::serialized(u64::from(kind) + 1).with_capacity(2),
        _ => LinkModel::serialized(4).with_drop(DropPolicy {
            loss_ppm: u32::from(kind) * 1000,
            seed: u64::from(kind),
            max_attempts: 1 + u32::from(kind % 7),
        }),
    }
}

fn noise_of(kind: u8) -> NoiseModel {
    match kind % 3 {
        0 => NoiseModel::NOISELESS,
        1 => NoiseModel::NOISELESS.with_gate_errors(0.001, 0.01),
        _ => NoiseModel::NOISELESS
            .with_meas_error(f64::from(kind) / 512.0)
            .with_leak(0.002),
    }
}

fn surgery_of(kind: u8) -> Vec<SurgeryOp> {
    match kind % 4 {
        0 => Vec::new(),
        1 => vec![SurgeryOp::DropRouterLevel],
        2 => vec![SurgeryOp::RewireSubtree {
            subtree: u16::from(kind),
            new_parent: u16::from(kind) + 1,
        }],
        _ => vec![
            SurgeryOp::DropRouterLevel,
            SurgeryOp::RewireSubtree {
                subtree: u16::from(kind),
                new_parent: u16::from(kind) + 2,
            },
        ],
    }
}

/// Up to two link overrides, on distinct edges.
fn link_overrides_of(kind: u8) -> Vec<LinkOverride> {
    (0..kind % 3)
        .map(|e| LinkOverride {
            from: u16::from(e),
            to: u16::from(e) + 1,
            link_model: link_model_of(kind.wrapping_add(e)),
        })
        .collect()
}

/// Up to two noise overrides, on distinct qubits.
fn noise_overrides_of(kind: u8) -> Vec<NoiseOverride> {
    (0..kind % 3)
        .map(|q| NoiseOverride {
            qubit: usize::from(q),
            noise: noise_of(kind.wrapping_add(q)),
        })
        .collect()
}

fn load_of(kind: u8) -> LoadSpec {
    let stream = if kind % 2 == 0 {
        ArrivalStream::trace(vec![0, 1_000 * u64::from(kind)])
    } else {
        ArrivalStream::poisson(f64::from(kind) / 4.0, 1 + u64::from(kind % 5))
    };
    LoadSpec::new(vec![stream], 1 + u32::from(kind % 3))
}

/// `count` values drawn from consecutive kinds starting at `kind`.
fn draws<T>(count: usize, kind: u8, value: impl Fn(u8) -> T) -> Vec<T> {
    (0..count as u8)
        .map(|k| value(kind.wrapping_add(k)))
        .collect()
}

/// One axis of every kind, in declaration order. The seed axis takes
/// `seeds`; every other axis takes two values when `wide` names its
/// position and one otherwise.
fn every_axis(kind: u8, seeds: &[u64], wide: &[usize]) -> Vec<Axis> {
    let n = |i: usize| if wide.contains(&i) { 2 } else { 1 };
    let scheme = |k: u8| {
        if k % 2 == 0 {
            Scheme::Bisp
        } else {
            Scheme::Lockstep
        }
    };
    vec![
        Axis::Scheme(draws(n(0), kind, scheme)),
        Axis::Seed(seeds.to_vec()),
        Axis::T1Us(draws(n(2), kind, |k| f64::from(k) + 0.25)),
        Axis::Shots(draws(n(3), kind, |k| 1 + u32::from(k % 5))),
        Axis::Workload(draws(n(4), kind, workload_of)),
        Axis::LinkModel(draws(n(5), kind, link_model_of)),
        Axis::Noise(draws(n(6), kind, noise_of)),
        Axis::LinkOverrides(draws(n(7), kind, link_overrides_of)),
        Axis::NoiseOverrides(draws(n(8), kind, noise_overrides_of)),
        Axis::FabricAware(draws(n(9), kind, |k| k % 2 == 1)),
        Axis::Surgery(draws(n(10), kind, surgery_of)),
        Axis::Load(draws(n(11), kind, load_of)),
    ]
}

/// Builds a scenario from primitive draws. Every choice point in the
/// scenario grammar (scheme, workload selector, link model, drop
/// policy, noise model, surgery ops, shots) is reachable.
#[allow(clippy::too_many_arguments)]
fn scenario_from_draws(
    scheme_bisp: bool,
    workload_kind: u8,
    seed: u64,
    t1_us: u32,
    shots: u32,
    link_kind: u8,
    noise_kind: u8,
    surgery_kind: u8,
) -> Scenario {
    let scheme = if scheme_bisp {
        Scheme::Bisp
    } else {
        Scheme::Lockstep
    };
    let params = SystemParams {
        link_model: link_model_of(link_kind),
        noise: noise_of(noise_kind),
        ..SystemParams::default()
    };
    let mut scenario = Scenario::new(workload_of(workload_kind), scheme)
        .with_seed(seed)
        .with_t1_us(f64::from(t1_us) + 0.5)
        .with_shots(1 + shots % 5)
        .with_params(params);
    scenario.surgery = surgery_of(surgery_kind);
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Scenario::from_json(Scenario::to_json(x)) == x`, through both
    /// text renderings (the compact report convention and the pretty
    /// scenario-file convention).
    #[test]
    fn scenario_round_trips_through_json(
        scheme_bisp in any::<bool>(),
        workload_kind in 0u8..=255,
        seed in any::<u64>(),
        t1_us in 1u32..2000,
        kinds in (0u32..10, 0u8..=255, 0u8..=255, 0u8..=255),
    ) {
        let (shots, link_kind, noise_kind, surgery_kind) = kinds;
        let scenario = scenario_from_draws(
            scheme_bisp, workload_kind, seed, t1_us, shots,
            link_kind, noise_kind, surgery_kind,
        );
        for text in [
            scenario.to_json().to_string_compact(),
            scenario.to_json().to_string_pretty(),
        ] {
            let parsed = Json::parse(&text).expect("self-produced JSON parses");
            let back = Scenario::from_json(&parsed, "s").expect("round-trip decodes");
            prop_assert_eq!(&back, &scenario, "{}", text);
        }
    }

    /// A whole scenario *file* (one to three bases + one axis of every
    /// kind + repetitions) survives the same round trip, and the
    /// re-read file expands to the identical scenario list — ids and
    /// all — with each base's grid in base order.
    #[test]
    fn scenario_file_round_trips_and_expands_identically(
        scheme_bisp in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        repetitions in 1u64..4,
        surgery_kind in 0u8..=255,
        base_count in 1u8..4,
        axis_draws in (0u8..=255, proptest::collection::vec(0usize..12, 0..3)),
    ) {
        let (axis_kind, wide) = axis_draws;
        // Bases differ in a field no axis varies, so each base's grid
        // is recognizable after expansion.
        let bases: Vec<Scenario> = (0..base_count)
            .map(|i| {
                let mut base = scenario_from_draws(
                    scheme_bisp ^ (i == 1), i, 1, 300, 0, i, i, surgery_kind.wrapping_add(i),
                );
                base.params.neighbor_latency = 5 + u64::from(i);
                base
            })
            .collect();
        let mut file = ScenarioFile::new("prop", bases[0].clone());
        file.bases = bases.clone();
        file.repetitions = repetitions;
        file.axes = every_axis(axis_kind, &seeds, &wide);
        let text = file.to_json().to_string_pretty();
        let back = ScenarioFile::parse(&text).expect("file round-trips");
        prop_assert_eq!(&back, &file, "{}", text);
        let expanded = file.expand(None);
        let ids: Vec<String> = expanded.iter().map(Scenario::id).collect();
        let back_ids: Vec<String> = back.expand(None).iter().map(Scenario::id).collect();
        prop_assert_eq!(ids, back_ids);
        let per_base = file.grid_len() / bases.len() * repetitions as usize;
        prop_assert_eq!(expanded.len(), bases.len() * per_base);
        for (base, grid) in bases.iter().zip(expanded.chunks(per_base)) {
            prop_assert!(
                grid.iter().all(|s| s.params.neighbor_latency == base.params.neighbor_latency),
                "each base's grid follows the previous one"
            );
        }
    }
}

/// Malformed inputs must fail with errors a person editing a scenario
/// file by hand can act on: syntax errors carry line/column, schema
/// errors carry the dotted path of the offending field.
#[test]
fn malformed_scenario_files_fail_readably() {
    let cases: &[(&str, &str)] = &[
        // Truncated document: a parse error with position, not a panic.
        (
            r#"{"schema_version": 1, "name": "x", "base": {"workload"#,
            "line 1",
        ),
        // Duplicate keys are rejected by the parser outright.
        (
            r#"{"schema_version": 1, "schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
            "duplicate object key \"schema_version\"",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "seed": 1, "seed": 2}}"#,
            "duplicate object key \"seed\"",
        ),
        // A future schema version fails loudly, naming both versions.
        (
            r#"{"schema_version": 99, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
            "unsupported schema_version 99 (this build reads version 1)",
        ),
        // Unknown fields are typos, not extension points.
        (
            r#"{"schema_version": 1, "name": "x", "reps": 3,
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"}}"#,
            "unknown field `reps`",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "sched": "greedy"}}"#,
            "scenario.base: unknown field `sched`",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "params": {"link_model": {"serialization": 4}}}}"#,
            "scenario.base.params.link_model: unknown field `serialization`",
        ),
        // Wrong value domains carry their path too.
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp", "shots": 0}}"#,
            "scenario.base.shots: shots must be at least 1",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "turbo"}}"#,
            "unknown scheme \"turbo\"",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "surgery": [{"op": "teleport"}]}}"#,
            "scenario.base.surgery[0].op",
        ),
        // Surgery holds only router-tree edits: an op that repeated a
        // scenario field is an unknown op, in `base` and in an axis.
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "surgery": [{"op": "heat_qubit", "qubit": 19,
                                      "noise": {"p_meas": 0.03}}]}}"#,
            "scenario.base.surgery[0].op: unknown surgery op \"heat_qubit\" \
             (expected \"drop_router_level\" or \"rewire_subtree\")",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "surgery", "values": [[], [
                    {"op": "swap_workload", "workload": {"suite": "bv_n16"}}
                ]]}]}"#,
            "scenario.axes[0].values[1][0].op: unknown surgery op \"swap_workload\"",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "shots", "values": [2, 0]}]}"#,
            "scenario.axes[0].values[1]: shots must be at least 1",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp", "t1_us": -5}}"#,
            "scenario.base.t1_us: t1_us must be positive",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "t1_us", "values": [300, -1, 0]}]}"#,
            "scenario.axes[0].values[1]: t1_us must be positive",
        ),
        // An axis value obeys its base field's rules: an override list
        // names each edge or qubit once.
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "link_overrides", "values": [[
                    {"from": 0, "to": 1, "model": {"serialization_ns": 4, "capacity": 1}},
                    {"from": 0, "to": 1, "model": {"serialization_ns": 8, "capacity": 1}}
                ]]}]}"#,
            "scenario.axes[0].values[0][1]: duplicate override for edge 0 -> 1",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "noise_overrides", "values": [[
                    {"qubit": 2, "noise": {"p_meas": 0.01}},
                    {"qubit": 2, "noise": {"p_meas": 0.02}}
                ]]}]}"#,
            "scenario.axes[0].values[0][1]: duplicate override for qubit 2",
        ),
        // A `long_range_cnots` shape needs a gadget, a span, and
        // controllers that all sit below the measurement FIFO's
        // address, in `base` and in an axis.
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"long_range_cnots": {"parallel": 0, "span": 7}},
                         "scheme": "bisp"}}"#,
            "scenario.base.workload.long_range_cnots.parallel: parallel must be at least 1",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"long_range_cnots": {"parallel": 1, "span": 0}},
                         "scheme": "bisp"}}"#,
            "scenario.base.workload.long_range_cnots.span: span must be at least 1",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "workload", "values": [
                    {"long_range_cnots": {"parallel": 256, "span": 7}},
                    {"long_range_cnots": {"parallel": 100000000, "span": 7}}
                ]}]}"#,
            "scenario.axes[0].values[1].long_range_cnots: 1599999999 controllers are over \
             the limit of 4095",
        ),
        // A partition holds at least one controller, so a load block
        // splits the machine into at most as many partitions as there
        // are node addresses below the measurement FIFO: 4095 parses
        // (the axis's first value), 4096 does not.
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp",
                         "load": {"streams": [{"process": "poisson", "rate_per_ms": 1.0,
                                               "jobs": 5}],
                                  "partitions": 4096}}}"#,
            "scenario.base.load: 4096 partitions are over the limit of 4095",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "load", "values": [
                    {"streams": [{"process": "trace", "submit_ns": [0]}], "partitions": 4095},
                    {"streams": [{"process": "trace", "submit_ns": [0]}],
                     "partitions": 4294967295}
                ]}]}"#,
            "scenario.axes[0].values[1]: 4294967295 partitions are over the limit of 4095",
        ),
        // A base array must name at least one base, and each entry
        // carries its index in the path.
        (
            r#"{"schema_version": 1, "name": "x", "base": []}"#,
            "scenario.base: base array is empty",
        ),
        (
            r#"{"schema_version": 1, "name": "x",
                "base": [{"workload": {"suite": "a"}, "scheme": "bisp"},
                         {"workload": {"suite": "a"}, "scheme": "turbo"}]}"#,
            "scenario.base[1].scheme",
        ),
    ];
    for (text, needle) in cases {
        let err = ScenarioFile::parse(text).expect_err(text);
        let message = err.to_string();
        assert!(
            message.contains(needle),
            "expected {needle:?} in error for {text}\n-> {message}"
        );
    }
}

/// Every time-valued system parameter is bounded by one `waiti`
/// ([`MAX_WAITI_CYCLES`] cycles): the limit itself parses, one more
/// fails with the dotted path, the value and the limit.
#[test]
fn time_valued_params_are_bounded_by_one_waiti() {
    let cycles = u64::from(MAX_WAITI_CYCLES);
    let ns = cycles * CYCLE_NS;
    assert_eq!(LinkModel::MAX_SERIALIZATION_NS, ns);
    type Read = fn(&SystemParams) -> u64;
    let cases: [(&str, u64, &str, Read); 5] = [
        ("neighbor_latency", cycles, "latency", |p| {
            p.neighbor_latency
        }),
        ("router_latency", cycles, "latency", |p| p.router_latency),
        ("star_up_latency", cycles, "latency", |p| p.star_up_latency),
        ("star_down_latency", cycles, "latency", |p| {
            p.star_down_latency
        }),
        (
            "link_model.serialization_ns",
            ns,
            "serialization time",
            |p| p.link_model.serialization_ns,
        ),
    ];
    for (field, limit, noun, value_of) in cases {
        let unit = if field.ends_with("_ns") {
            "ns"
        } else {
            "cycles"
        };
        let parse = |value: u64| {
            let text = match field.split_once('.') {
                Some((outer, inner)) => format!(r#"{{"{outer}": {{"{inner}": {value}}}}}"#),
                None => format!(r#"{{"{field}": {value}}}"#),
            };
            SystemParams::from_json(&Json::parse(&text).unwrap(), "params")
        };
        let at_limit = parse(limit).unwrap_or_else(|e| panic!("{field} at the limit: {e}"));
        assert_eq!(value_of(&at_limit), limit, "{field}");
        let message = parse(limit + 1).expect_err(field).to_string();
        let expected = format!(
            "params.{field}: {noun} {} {unit} is over the limit of {limit} {unit}",
            limit + 1
        );
        assert!(message.contains(&expected), "{field}: {message}");
    }
}

/// The report id segments added by non-default fields (shots, link
/// model, noise, surgery) never collide with the historical
/// default-model form — the sweep engine requires unique ids.
#[test]
fn grid_point_ids_stay_unique_across_axes() {
    let file = ScenarioFile::parse(
        r#"{
            "schema_version": 1,
            "name": "uniq",
            "base": {"workload": {"suite": "w_state_n12"}, "scheme": "bisp"},
            "axes": [
                {"axis": "scheme", "values": ["bisp", "lockstep"]},
                {"axis": "shots", "values": [1, 2]},
                {"axis": "link_model", "values": [
                    {"serialization_ns": 0, "capacity": 1},
                    {"serialization_ns": 4, "capacity": 1},
                    {"serialization_ns": 4, "capacity": 2}
                ]},
                {"axis": "surgery", "values": [[], [{"op": "drop_router_level"}]]}
            ]
        }"#,
    )
    .expect("valid file");
    let ids: Vec<String> = file.expand(None).iter().map(Scenario::id).collect();
    let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(ids.len(), 24);
    assert_eq!(unique.len(), ids.len(), "{ids:#?}");
}

/// The expansion limit sits exactly at [`MAX_SCENARIOS`]: a file that
/// expands to the limit parses, one a step past it fails at its root
/// path with a message naming the count and the limit.
#[test]
fn expansion_limit_is_inclusive_and_named_in_the_error() {
    // 2 bases × 5 seeds × `repetitions`.
    let file = |repetitions: u64| {
        format!(
            r#"{{"schema_version": 1, "name": "x", "repetitions": {repetitions},
                "base": [{{"workload": {{"suite": "a"}}, "scheme": "bisp"}},
                         {{"workload": {{"suite": "a"}}, "scheme": "lockstep"}}],
                "axes": [{{"axis": "seed", "values": [1, 2, 3, 4, 5]}}]}}"#
        )
    };
    let at_limit = MAX_SCENARIOS / 10;
    let parsed = ScenarioFile::parse(&file(at_limit)).expect("a file at the limit parses");

    let err = ScenarioFile::parse(&file(at_limit + 1)).expect_err("one step past the limit");
    assert_eq!(
        err.to_string(),
        format!(
            "scenario: expands to {} scenarios, over the limit of {MAX_SCENARIOS}",
            MAX_SCENARIOS + 10
        )
    );
    // A repetitions override is held to the same limit.
    assert!(parsed.check_scenario_count(Some(at_limit)).is_ok());
    assert!(parsed.check_scenario_count(Some(u64::MAX)).is_err());
}

/// Every committed scenario file (the corpus and the full figure
/// grids) survives `parse → to_json → parse` unchanged, and a file
/// with one base writes it back as an object, exactly as before base
/// arrays existed.
#[test]
fn committed_scenario_files_round_trip() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut checked = 0;
    for dir in [root.to_string(), format!("{root}/full")] {
        for entry in std::fs::read_dir(&dir).expect("scenario dir exists") {
            let path = entry.expect("readable dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable scenario file");
            let file = ScenarioFile::parse(&text).expect("committed file parses");
            let json = file.to_json();
            let back = ScenarioFile::parse(&json.to_string_pretty()).expect("re-parses");
            assert_eq!(back, file, "{}", path.display());
            let Json::Object(fields) = &json else {
                panic!("a file serializes as an object");
            };
            let base = &fields.iter().find(|(k, _)| k == "base").expect("base").1;
            assert_eq!(
                matches!(base, Json::Object(_)),
                file.bases.len() == 1,
                "{}: one base is an object, several an array",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "corpus unexpectedly small: {checked}");
}
