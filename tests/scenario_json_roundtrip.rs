//! Property and table tests for the scenario-file surface.
//!
//! The contract under test is `from_json(to_json(x)) == x` — for
//! generated [`Scenario`]s (including surgery op lists, contended link
//! models, and noise models) and for [`SystemSpec`]s built from real
//! topologies — plus a table of malformed inputs that must fail with
//! readable, dotted-path errors rather than silently defaulting.

use std::collections::BTreeMap;

use distributed_hisq::runner::{Scenario, SurgeryOp, SystemParams};
use distributed_hisq::scenario::{ScenarioFile, MAX_SCENARIOS};
use hisq_compiler::Scheme;
use hisq_json::Json;
use hisq_net::{DropPolicy, LinkModel, TopologyBuilder};
use hisq_quantum::NoiseModel;
use hisq_sim::{BackendSpec, SystemSpec};
use hisq_workloads::WorkloadSpec;
use proptest::prelude::*;

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
    let workload = match workload_kind % 3 {
        0 => WorkloadSpec::suite("w_state_n12"),
        1 => WorkloadSpec::suite("qft_n10"),
        _ => WorkloadSpec::LongRangeCnots {
            parallel: 1 + (workload_kind as usize % 4),
            span: 2 + (workload_kind as usize % 3),
        },
    };
    let scheme = if scheme_bisp {
        Scheme::Bisp
    } else {
        Scheme::Lockstep
    };
    let params = SystemParams {
        link_model: match link_kind % 3 {
            0 => LinkModel::default(),
            1 => LinkModel::serialized(u64::from(link_kind) + 1).with_capacity(2),
            _ => LinkModel::serialized(4).with_drop(DropPolicy {
                loss_ppm: u32::from(link_kind) * 1000,
                seed: u64::from(link_kind),
                max_attempts: 1 + u32::from(link_kind % 7),
            }),
        },
        noise: match noise_kind % 3 {
            0 => NoiseModel::NOISELESS,
            1 => NoiseModel::NOISELESS.with_gate_errors(0.001, 0.01),
            _ => NoiseModel::NOISELESS
                .with_meas_error(f64::from(noise_kind) / 512.0)
                .with_leak(0.002),
        },
        ..SystemParams::default()
    };
    let mut scenario = Scenario::new(workload, scheme)
        .with_seed(seed)
        .with_t1_us(f64::from(t1_us) + 0.5)
        .with_shots(1 + shots % 5)
        .with_params(params);
    match surgery_kind % 4 {
        0 => {}
        1 => scenario = scenario.with_surgery(SurgeryOp::DropRouterLevel),
        2 => {
            scenario = scenario.with_surgery(SurgeryOp::RewireSubtree {
                subtree: u16::from(surgery_kind),
                new_parent: u16::from(surgery_kind) + 1,
            })
        }
        _ => {
            scenario = scenario
                .with_surgery(SurgeryOp::SwapWorkload {
                    workload: WorkloadSpec::suite("bv_n16"),
                })
                .with_surgery(SurgeryOp::OverrideNoise {
                    noise: NoiseModel::NOISELESS.with_gate_errors(0.002, 0.02),
                })
                .with_surgery(SurgeryOp::OverrideLinkModel {
                    link_model: LinkModel::serialized(8),
                })
        }
    }
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

    /// A whole scenario *file* (one to three bases + axes +
    /// repetitions) survives the same round trip, and the re-read file
    /// expands to the identical scenario list — ids and all — with each
    /// base's grid in base order.
    #[test]
    fn scenario_file_round_trips_and_expands_identically(
        scheme_bisp in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        repetitions in 1u64..4,
        surgery_kind in 0u8..=255,
        base_count in 1u8..4,
    ) {
        let bases: Vec<Scenario> = (0..base_count)
            .map(|i| {
                scenario_from_draws(
                    scheme_bisp ^ (i == 1), i, 1, 300, 0, i, i, surgery_kind.wrapping_add(i),
                )
            })
            .collect();
        let mut file = ScenarioFile::new("prop", bases[0].clone());
        file.bases = bases.clone();
        file.repetitions = repetitions;
        file.axes.push(distributed_hisq::scenario::Axis::Seed(seeds.clone()));
        let text = file.to_json().to_string_pretty();
        let back = ScenarioFile::parse(&text).expect("file round-trips");
        prop_assert_eq!(&back, &file, "{}", text);
        let expanded = file.expand(None);
        let ids: Vec<String> = expanded.iter().map(Scenario::id).collect();
        let back_ids: Vec<String> = back.expand(None).iter().map(Scenario::id).collect();
        prop_assert_eq!(ids, back_ids);
        let per_base = seeds.len() * repetitions as usize;
        prop_assert_eq!(expanded.len(), bases.len() * per_base);
        for (base, grid) in bases.iter().zip(expanded.chunks(per_base)) {
            prop_assert!(
                grid.iter().all(|s| s.workload == base.workload && s.scheme == base.scheme),
                "each base's grid follows the previous one"
            );
        }
    }

    /// `SystemSpec::from_json(SystemSpec::to_json(x)) == x` for specs
    /// built from real grid topologies with varied link parameters and
    /// backends.
    #[test]
    fn system_spec_round_trips_through_json(
        width in 2usize..8,
        height in 1usize..4,
        neighbor_latency in 1u64..20,
        router_latency in 1u64..30,
        backend_kind in 0u8..=255,
        seed in any::<u64>(),
    ) {
        let topology = TopologyBuilder::grid(width, height)
            .neighbor_latency(neighbor_latency)
            .router_latency(router_latency)
            .build();
        let program = hisq_isa::Assembler::new()
            .assemble("addi x1, x0, 7\nsync 2\n")
            .expect("valid program");
        let programs: BTreeMap<_, _> = (0..(width * height) as u16)
            .map(|addr| (addr, program.insts().to_vec()))
            .collect();
        let mut spec = SystemSpec::from_topology(&topology, programs);
        spec.backend(match backend_kind % 3 {
            0 => BackendSpec::Random { seed, p_one: 0.5 },
            1 => BackendSpec::Fixed { outcome: seed % 2 == 0 },
            _ => BackendSpec::Leaky {
                seed,
                p_one: 0.5,
                noise: NoiseModel::NOISELESS.with_leak(0.01).into(),
            },
        });
        let json = spec.to_json().expect("spec serializes");
        for text in [json.to_string_compact(), json.to_string_pretty()] {
            let parsed = Json::parse(&text).expect("self-produced JSON parses");
            let back = SystemSpec::from_json(&parsed, "spec").expect("decodes");
            prop_assert_eq!(&back, &spec, "{}", text);
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
        (
            r#"{"schema_version": 1, "name": "x",
                "base": {"workload": {"suite": "a"}, "scheme": "bisp"},
                "axes": [{"axis": "shots", "values": [2, 0]}]}"#,
            "scenario.axes[0].values[1]: shots must be at least 1",
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
