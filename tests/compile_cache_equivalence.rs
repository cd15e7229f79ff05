//! The compile-cache differential suite: a sweep served from the
//! shared [`CompileCache`] must be **byte-identical** to one that
//! compiles every grid point fresh — on one thread and on four — and
//! equal [`CompileKey`]s must mean the compiler emitted bit-identical
//! program words.
//!
//! The scenario inputs are the committed golden corpus
//! (`scenarios/*.json`), so the cache is exercised against exactly the
//! grids the byte-replay CI gate runs: scheme twins, seed repetitions,
//! link-model axes, noise axes, surgery axes, and the figure grids. The
//! fresh-compile reference is also the golden check: it must equal the
//! committed `scenarios/reports/<stem>.json` byte for byte, exactly as
//! `hisq run <file> --json` prints it.

use proptest::prelude::*;

use distributed_hisq::runner::{
    compile_scenario, run_sweep_cached, run_sweep_uncached, CompileCache, LinkOverride,
    NoiseOverride, Scenario, SurgeryOp, SystemParams,
};
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::workloads::WorkloadSpec;
use hisq_compiler::Scheme;
use hisq_net::LinkModel;
use hisq_quantum::NoiseModel;

/// Workspace-root path of the committed scenario corpus.
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");

/// Every committed scenario file in `dir` (sorted by name), expanded.
fn grids_in(dir: &str) -> Vec<(String, Vec<Scenario>)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .filter_map(|entry| {
            let name = entry.expect("corpus entry").file_name();
            let name = name.to_string_lossy().into_owned();
            name.ends_with(".json").then_some(name)
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "{dir} is populated");
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("file reads");
            let file =
                ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{dir}/{name} parses: {e}"));
            (name, file.expand(None))
        })
        .collect()
}

#[test]
fn cached_sweeps_are_byte_identical_to_uncached_on_1_and_4_threads() {
    for (name, scenarios) in grids_in(CORPUS_DIR) {
        let reference = run_sweep_uncached(&scenarios, 1)
            .unwrap_or_else(|e| panic!("{name}: uncached sweep: {e}"))
            .to_json();
        let golden = std::fs::read_to_string(format!("{CORPUS_DIR}/reports/{name}"))
            .unwrap_or_else(|e| panic!("{name}: committed report: {e}"));
        assert!(
            format!("{reference}\n") == golden,
            "{name}: report drifted from scenarios/reports/{name}; regenerate with \
             `hisq run scenarios/{name} --json > scenarios/reports/{name}` if the change \
             is intended"
        );
        for threads in [1usize, 4] {
            let cache = CompileCache::new();
            let cached = run_sweep_cached(&scenarios, threads, &cache)
                .unwrap_or_else(|e| panic!("{name}: cached sweep ({threads} threads): {e}"))
                .to_json();
            assert_eq!(
                cached, reference,
                "{name}: cached sweep on {threads} thread(s) drifted from fresh compiles"
            );
            assert_eq!(
                cache.hits() + cache.misses(),
                scenarios.len() as u64,
                "{name}: every grid point consults the cache"
            );
            assert!(
                cache.misses() <= scenarios.len() as u64,
                "{name}: at most one compile per grid point"
            );
        }
    }
}

/// Report records are keyed by scenario id, so every committed file —
/// the corpus and the full figure grids — must expand to unique ids.
#[test]
fn every_committed_scenario_file_expands_to_unique_ids() {
    for dir in [CORPUS_DIR.to_string(), format!("{CORPUS_DIR}/full")] {
        for (name, scenarios) in grids_in(&dir) {
            let mut ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), scenarios.len(), "{dir}/{name}: duplicate ids");
        }
    }
}

#[test]
fn seed_repetitions_share_one_compile() {
    // A seed×noise-style grid: 6 seeds over one compiled program.
    let base = Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp);
    let scenarios: Vec<Scenario> = (1..=6u64)
        .map(|seed| base.clone().with_seed(seed))
        .collect();
    let cache = CompileCache::new();
    run_sweep_cached(&scenarios, 2, &cache).expect("sweep runs");
    assert_eq!(cache.misses(), 1, "one compile for the whole seed axis");
    assert_eq!(cache.hits(), 5, "every other grid point reuses it");
}

#[test]
fn cached_compile_errors_replay_with_each_scenarios_own_id() {
    // An invalid surgery op fails the compile stage; both seeds of the
    // key must report the error under their *own* ids, cached or not.
    let bad = Scenario::new(WorkloadSpec::suite("w_state_n12"), Scheme::Bisp).with_surgery(
        SurgeryOp::RewireSubtree {
            subtree: 0,
            new_parent: 0,
        },
    );
    let scenarios = [bad.clone().with_seed(1), bad.with_seed(2)];
    let uncached = run_sweep_uncached(&scenarios, 1).expect_err("surgery is invalid");
    let cached =
        run_sweep_cached(&scenarios, 1, &CompileCache::new()).expect_err("surgery is invalid");
    assert_eq!(cached, uncached, "cached errors replay verbatim");
    assert!(
        cached.to_string().contains("seed1"),
        "first failure in scenario order carries its id: {cached}"
    );
}

/// Strategy over scenarios that share a handful of compile-relevant
/// knobs, so random pairs collide on their [`CompileKey`]s often
/// enough to exercise the implication in both directions.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        prop_oneof![Just("w_state_n12"), Just("qft_n10")],
        prop_oneof![Just(Scheme::Bisp), Just(Scheme::Lockstep)],
        1..3u32,
        prop_oneof![Just((5u64, 10u64)), Just((7, 14))],
        0..100u64,
        prop_oneof![Just(25u64), Just(40)],
    )
        .prop_map(|(suite, scheme, shots, (neighbor, router), seed, star)| {
            let mut scenario = Scenario::new(WorkloadSpec::suite(suite), scheme).with_shots(shots);
            scenario.seed = seed;
            scenario.params = SystemParams {
                neighbor_latency: neighbor,
                router_latency: router,
                star_up_latency: star,
                star_down_latency: star,
                ..SystemParams::default()
            };
            scenario
        })
}

/// A fabric-aware BISP scenario on one of three fabrics: no override
/// (0), a heated link 0→1 (1), or a heated qubit 2 (2).
fn aware_scenario(suite: &str, shots: u32, fabric: u8, seed: u64, star: u64) -> Scenario {
    let mut scenario = Scenario::new(WorkloadSpec::suite(suite), Scheme::Bisp).with_shots(shots);
    scenario.seed = seed;
    scenario.params.star_up_latency = star;
    scenario.params.star_down_latency = star;
    scenario.params.fabric_aware = true;
    match fabric {
        0 => {}
        1 => {
            scenario.params.link_overrides = vec![LinkOverride {
                from: 0,
                to: 1,
                link_model: LinkModel::serialized(64),
            }]
        }
        _ => {
            scenario.params.noise_overrides = vec![NoiseOverride {
                qubit: 2,
                noise: NoiseModel::NOISELESS.with_gate_errors(5e-2, 1e-1),
            }]
        }
    }
    scenario
}

/// Strategy over pairs of fabric-aware BISP scenarios that share a
/// workload and shot count and differ in seed, star latencies (which
/// BISP never reads) and fabric. The fabrics match in one pair of
/// three, so key-equal and key-split pairs both occur; two independent
/// draws of [`scenario_strategy`] plus a fabric would rarely collide.
fn aware_pair_strategy() -> impl Strategy<Value = (Scenario, Scenario)> {
    (
        prop_oneof![Just("w_state_n12"), Just("qft_n10")],
        1..3u32,
        (0..3u8, 0..3u8),
        (0..100u64, 0..100u64),
        (
            prop_oneof![Just(25u64), Just(40)],
            prop_oneof![Just(25u64), Just(40)],
        ),
    )
        .prop_map(|(suite, shots, fabrics, seeds, stars)| {
            (
                aware_scenario(suite, shots, fabrics.0, seeds.0, stars.0),
                aware_scenario(suite, shots, fabrics.1, seeds.1, stars.1),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equal compile keys ⇒ the compiler emitted bit-identical program
    /// words (per-controller machine code, compared via the compiled
    /// artifact's FNV fingerprint), for fabric-oblivious points and for
    /// fabric-aware ones, whose keys hash the effective fabric and
    /// noise maps.
    #[test]
    fn equal_compile_keys_mean_identical_program_words(
        a in scenario_strategy(),
        b in scenario_strategy(),
        aware in aware_pair_strategy(),
    ) {
        for (a, b) in [(&a, &b), (&aware.0, &aware.1)] {
            if a.compile_key() == b.compile_key() {
                let fp_a = compile_scenario(a).expect("a compiles").fingerprint();
                let fp_b = compile_scenario(b).expect("b compiles").fingerprint();
                prop_assert_eq!(fp_a, fp_b, "key-equal scenarios compiled differently");
            }
        }
    }

    /// A scenario's key is insensitive to its run-stage axes: varying
    /// seed (above) — and here t1 — never changes the key, so those
    /// sweeps always share one artifact.
    #[test]
    fn run_stage_axes_do_not_split_the_key(scenario in scenario_strategy(), t1 in 1.0..500.0f64) {
        let retimed = scenario.clone().with_t1_us(t1).with_seed(scenario.seed ^ 0xffff);
        prop_assert_eq!(scenario.compile_key(), retimed.compile_key());
    }
}
