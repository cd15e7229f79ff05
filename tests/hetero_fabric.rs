//! Heterogeneous-fabric contract tests: the per-edge/per-qubit maps
//! must be invisible when uniform (byte-identical reports, no new id
//! segments, thread-count independent), visible only where heated
//! (one heated element perturbs exactly the scenarios routing through
//! it), and every distinguishing knob — drop policies included — must
//! reach the scenario id. Every workload fills its grid, so placement
//! on a flat fabric is the identity.

use distributed_hisq::runner::{effective_maps, run_sweep};
use distributed_hisq::scenario::{LinkOverride, NoiseOverride, Scenario, ScenarioFile};
use hisq_compiler::Scheme;
use hisq_net::{DropPolicy, LinkModel};
use hisq_quantum::NoiseModel;
use hisq_workloads::{SuiteScale, WorkloadSpec};
use proptest::prelude::*;

fn hot_link(seed: u64) -> LinkModel {
    LinkModel::serialized(512).with_drop(DropPolicy {
        loss_ppm: 300_000,
        seed,
        max_attempts: 10,
    })
}

/// Two link models differing *only* in their drop policy must yield
/// distinct scenario ids — the sweep engine requires unique ids, and a
/// drop policy changes every downstream byte.
#[test]
fn link_model_ids_distinguish_drop_policies() {
    let with_drop = |drop: Option<DropPolicy>| {
        let mut scenario =
            Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp).with_seed(3);
        scenario.params.link_model = LinkModel::serialized(8);
        scenario.params.link_model.drop = drop;
        scenario.id()
    };
    let policy = DropPolicy {
        loss_ppm: 1000,
        seed: 1,
        max_attempts: 3,
    };
    let ids = [
        with_drop(None),
        with_drop(Some(policy)),
        with_drop(Some(DropPolicy { seed: 2, ..policy })),
        with_drop(Some(DropPolicy {
            loss_ppm: 2000,
            ..policy
        })),
        with_drop(Some(DropPolicy {
            max_attempts: 4,
            ..policy
        })),
    ];
    let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "{ids:#?}");
}

/// Every committed golden-corpus scenario expands to uniform fabric
/// and noise maps and carries none of the heterogeneous-fabric id
/// segments — so the corpus replay gates (`ci/check_scenarios.sh` and
/// `tests/compile_cache_equivalence.rs`, byte-comparing runs against
/// committed reports)
/// keeps pinning the uniform maps to the legacy single-model engine.
#[test]
fn golden_corpus_scenarios_stay_on_uniform_maps() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable scenario file");
        let file = ScenarioFile::parse(&text).expect("committed corpus parses");
        for scenario in file.expand(None) {
            let (fabric, noise) = effective_maps(&scenario);
            let id = scenario.id();
            // hetero_fabric.json and fig_hetero.json are the corpus
            // files that *do* heat elements; every other file must stay
            // uniform.
            let stem = path.file_stem().and_then(|s| s.to_str());
            if matches!(stem, Some("hetero_fabric" | "fig_hetero")) {
                continue;
            }
            assert!(fabric.is_uniform(), "{id}: non-uniform fabric map");
            assert!(noise.is_uniform(), "{id}: non-uniform noise map");
            // Override segments are `lo<from>-<to>.…` / `no<qubit>.…`;
            // a prefix check alone would trip on `lockstep`.
            let is_override_segment = |segment: &str| {
                segment == "aware"
                    || ["lo", "no"].iter().any(|prefix| {
                        segment
                            .strip_prefix(prefix)
                            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
                    })
            };
            assert!(
                !id.split('/').any(is_override_segment),
                "{id}: uniform scenario grew an override segment"
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "corpus unexpectedly small: {checked}");
}

/// The `fabric_aware` flag alone must never change what a uniform
/// scenario computes: the planner sees a flat fabric, keeps the
/// identity placement, and every metric matches the oblivious twin
/// byte-for-byte (only the `/aware` id segment differs).
#[test]
fn aware_flag_alone_never_changes_uniform_metrics() {
    let mut oblivious = Scenario::new(WorkloadSpec::suite("qft_n10"), Scheme::Bisp).with_seed(11);
    oblivious.params.link_model = LinkModel::serialized(4);
    oblivious.params.noise = NoiseModel::NOISELESS.with_gate_errors(1e-4, 1e-3);
    let mut aware = oblivious.clone();
    aware.params.fabric_aware = true;

    let report = run_sweep(&[oblivious, aware], 1).expect("pair runs");
    let [obl, awr] = report.records() else {
        panic!("two records");
    };
    assert_eq!(format!("{}/aware", obl.id), awr.id);
    let strip_id = |json: &str, id: &str| json.replacen(id, "<id>", 1);
    assert_eq!(
        strip_id(&obl.to_json(), &obl.id),
        strip_id(&awr.to_json(), &awr.id),
        "aware flag must be metric-invisible on a uniform fabric"
    );
}

/// Every workload fills its controller grid. Fabric-aware compilation
/// plans and applies a placement even on a flat fabric, where the plan
/// is the identity and `apply_placement` could only change a circuit
/// narrower than its grid (by widening it). Checked for every suite
/// instance at both scales and every `long_range_cnots` shape a
/// committed scenario file names, so a narrower workload fails here
/// first.
#[test]
fn every_workload_fills_its_grid() {
    let mut workloads: Vec<WorkloadSpec> = [SuiteScale::Quick, SuiteScale::Paper]
        .into_iter()
        .flat_map(WorkloadSpec::suite_specs)
        .collect();
    let suite_len = workloads.len();
    for dir in ["scenarios", "scenarios/full"] {
        let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
            let path = entry.expect("readable dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable scenario file");
            let file = ScenarioFile::parse(&text).expect("committed scenario file parses");
            for scenario in file.expand(Some(1)) {
                let shape = scenario.workload;
                if matches!(shape, WorkloadSpec::LongRangeCnots { .. })
                    && !workloads.contains(&shape)
                {
                    workloads.push(shape);
                }
            }
        }
    }
    assert_eq!(suite_len, 18, "both suite scales");
    assert!(
        workloads.len() > suite_len,
        "no long_range_cnots shape found"
    );
    for workload in &workloads {
        let built = workload.build().expect("known workload");
        let (width, height) = built.grid;
        assert_eq!(
            built.circuit.num_qubits(),
            width * height,
            "{}: the circuit must fill its {width}x{height} grid",
            workload.label()
        );
    }
}

/// One heated *edge* perturbs exactly the scenario routing through it:
/// in a three-scenario sweep where only the middle scenario heats an
/// edge, the flanking records are byte-identical to the all-uniform
/// replay of the same sweep.
#[test]
fn one_heated_edge_changes_only_reports_routing_through_it() {
    let scenarios = |heated: bool| {
        let mut middle = Scenario::new(WorkloadSpec::suite("adder_n13"), Scheme::Bisp).with_seed(5);
        middle.params.link_model = LinkModel::serialized(4);
        if heated {
            middle.params.link_overrides = vec![
                LinkOverride {
                    from: 4,
                    to: 5,
                    link_model: hot_link(9),
                },
                LinkOverride {
                    from: 5,
                    to: 4,
                    link_model: hot_link(10),
                },
            ];
        }
        let mut flank_a =
            Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp).with_seed(5);
        flank_a.params.link_model = LinkModel::serialized(4);
        let mut flank_b =
            Scenario::new(WorkloadSpec::suite("qft_n10"), Scheme::Lockstep).with_seed(5);
        flank_b.params.link_model = LinkModel::serialized(4);
        vec![flank_a, middle, flank_b]
    };
    let uniform = run_sweep(&scenarios(false), 2).expect("uniform sweep runs");
    let heated = run_sweep(&scenarios(true), 2).expect("heated sweep runs");
    for (u, h) in [(0usize, 0usize), (2, 2)] {
        assert_eq!(
            uniform.records()[u].to_json(),
            heated.records()[h].to_json(),
            "a heated edge in another scenario leaked into record {u}"
        );
    }
    let (u, h) = (&uniform.records()[1], &heated.records()[1]);
    assert_ne!(u.id, h.id, "the heated scenario must carry a /lo segment");
    assert!(h.id.contains("/lo4-5."), "{}", h.id);
    assert!(
        h.counter("makespan_ns") > u.counter("makespan_ns"),
        "serializing + dropping a hot edge must cost makespan: {:?} vs {:?}",
        h.counter("makespan_ns"),
        u.counter("makespan_ns")
    );
}

/// One heated *qubit* perturbs exactly the scenario whose work runs on
/// it, and only through the per-qubit error accounting: the flanking
/// records of a three-scenario sweep are byte-identical to the
/// all-uniform replay.
#[test]
fn one_heated_qubit_changes_only_reports_running_on_it() {
    let base_noise = NoiseModel::NOISELESS
        .with_gate_errors(1e-5, 1e-4)
        .with_meas_error(1e-4);
    let scenarios = |heated: bool| {
        let mut middle = Scenario::new(WorkloadSpec::suite("adder_n13"), Scheme::Bisp).with_seed(5);
        middle.params.noise = base_noise;
        if heated {
            middle.params.noise_overrides = vec![NoiseOverride {
                qubit: 5,
                noise: base_noise.with_meas_error(0.05),
            }];
        }
        let mut flank_a =
            Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp).with_seed(5);
        flank_a.params.noise = base_noise;
        let mut flank_b = Scenario::new(WorkloadSpec::suite("bv_n16"), Scheme::Bisp).with_seed(5);
        flank_b.params.noise = base_noise;
        vec![flank_a, middle, flank_b]
    };
    let uniform = run_sweep(&scenarios(false), 2).expect("uniform sweep runs");
    let heated = run_sweep(&scenarios(true), 2).expect("heated sweep runs");
    for i in [0usize, 2] {
        assert_eq!(
            uniform.records()[i].to_json(),
            heated.records()[i].to_json(),
            "a heated qubit in another scenario leaked into record {i}"
        );
    }
    let (u, h) = (&uniform.records()[1], &heated.records()[1]);
    assert!(h.id.contains("/no5."), "{}", h.id);
    let (u_inf, h_inf) = (
        u.value("noise_infidelity").expect("noise metrics"),
        h.value("noise_infidelity").expect("noise metrics"),
    );
    assert!(
        h_inf > u_inf,
        "heating a busy qubit must raise expected infidelity: {h_inf} vs {u_inf}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scenarios whose override lists are empty resolve to uniform
    /// maps, gain no id segments, and sweep byte-identically on 1 and
    /// 4 threads — the uniform-fabric determinism contract, hit from
    /// randomly drawn link/noise parameters.
    #[test]
    fn uniform_scenarios_are_thread_and_segment_invariant(
        seed in 0u64..1000,
        serialization in prop_oneof![Just(0u64), 1u64..16],
        p1q in prop_oneof![Just(0.0), Just(1e-4), Just(1e-3)],
        aware in any::<bool>(),
    ) {
        let mut scenario =
            Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp).with_seed(seed);
        scenario.params.link_model = LinkModel::serialized(serialization);
        scenario.params.noise = NoiseModel::NOISELESS.with_gate_errors(p1q, 10.0 * p1q);
        scenario.params.fabric_aware = aware;
        let (fabric, noise) = effective_maps(&scenario);
        prop_assert!(fabric.is_uniform());
        prop_assert!(noise.is_uniform());
        let id = scenario.id();
        prop_assert!(!id.contains("/lo"), "{}", id);
        prop_assert!(!id.contains("/no"), "{}", id);
        prop_assert_eq!(id.contains("/aware"), aware);
        let scenarios = [scenario];
        let single = run_sweep(&scenarios, 1).expect("runs").to_json();
        let quad = run_sweep(&scenarios, 4).expect("runs").to_json();
        prop_assert_eq!(single, quad);
    }
}
