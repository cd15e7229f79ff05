//! The workloads: their input files, the fixed op list of one pass,
//! the output checks, and the plain and traced passes over them.
//!
//! One op is one scenario grid point. A pass replays every input file
//! of a workload the way `hisq run --json` does: parse, expand, run
//! each point through `run_scenario_cached`, emit the report, and
//! check it. Every pass runs the same op list in the same order.

use std::time::Instant;

use distributed_hisq::compiler::{
    compile_bisp, compile_lockstep, BispOptions, LockstepOptions, Scheme,
};
use distributed_hisq::load::run_load;
use distributed_hisq::net::{LinkModel, TopologyBuilder};
use distributed_hisq::quantum::NoiseModel;
use distributed_hisq::runner::{
    compile_scenario, effective_maps, run_scenario_cached, run_sweep_uncached, system_spec,
    CompileCache, Scenario,
};
use distributed_hisq::scenario::{Axis, ScenarioFile};
use distributed_hisq::sim::{BackendSpec, Metric, SweepRecord, SweepReport, SystemSpec};
use distributed_hisq::testing::fnv1a64;
use distributed_hisq::workloads::suite::QUICK_SUITE;
use distributed_hisq::workloads::WorkloadSpec;

use crate::measure::PassStats;
use crate::trace::{Tracer, NO_POINT};

/// The seed whose reports are pinned in [`PINS`]; any other seed is
/// checked against an uncached reference run.
pub const DEFAULT_SEED: u64 = 1;

/// Seeds per grid point of `seed_fanout`.
const FANOUT_SEEDS: u64 = 8;

/// Seeds per grid point of `paper_scale`.
const PAPER_SEEDS: u64 = 3;

/// The golden corpus, replayed unchanged by `corpus_replay`.
pub const CORPUS: [&str; 8] = [
    "bisp_vs_lockstep",
    "contended_links",
    "hetero_fabric",
    "load_saturation",
    "noisy_backends",
    "seed_stability",
    "surgery_flat_tree",
    "workload_matrix",
];

/// Paper-size instances run under BISP in `paper_scale`.
const PAPER_BISP: [&str; 5] = [
    "qft_n30",
    "qft_n100",
    "bv_n400",
    "logical_t_n432",
    "w_state_n800",
];

/// Paper-size instances run under lock-step in `paper_scale` (the
/// lock-step paper points that take under 0.15 s each).
const PAPER_LOCKSTEP: [&str; 2] = ["qft_n30", "logical_t_n432"];

/// Byte pins `(file, length, FNV-1a 64)` of every generated file's
/// report at [`DEFAULT_SEED`]. Re-pin with `--print-pins`.
const PINS: [(&str, usize, u64); 3] = [
    ("seed_fanout", 121280, 0x3c8a_3409_9fa5_3d35),
    ("paper_scale_bisp", 3916, 0x6990_7838_9d15_3a39),
    ("paper_scale_lockstep", 1993, 0xa1a8_b213_a244_61dc),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The golden corpus, a fresh compile cache per file.
    CorpusReplay,
    /// Quick-suite instances fanned out over schemes, noise, links and
    /// seeds on one warm cache.
    SeedFanout,
    /// Paper-size instances over seeds on one warm cache.
    PaperScale,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CorpusReplay,
        Workload::SeedFanout,
        Workload::PaperScale,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusReplay => "corpus_replay",
            Workload::SeedFanout => "seed_fanout",
            Workload::PaperScale => "paper_scale",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether all files share one compile cache across passes (warm),
    /// or each file gets a fresh one per pass, as `hisq run` does.
    pub fn shares_cache(self) -> bool {
        self != Workload::CorpusReplay
    }
}

/// One input file of a pass.
#[derive(Debug, Clone)]
pub struct Source {
    /// File name (report stem).
    pub name: String,
    /// Scenario-file JSON text.
    pub text: String,
}

/// What a file's emitted report must equal.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// These exact bytes.
    Bytes(String),
    /// A `(length, FNV-1a 64)` byte pin.
    Pin(usize, u64),
}

impl Expected {
    /// Whether `report` satisfies the expectation.
    pub fn matches(&self, report: &str) -> bool {
        match self {
            Expected::Bytes(bytes) => bytes == report,
            Expected::Pin(len, fnv) => report.len() == *len && fnv1a64(report.as_bytes()) == *fnv,
        }
    }
}

/// Seed-axis values for workload seed `seed`: `n` consecutive values,
/// disjoint between workload seeds.
fn seed_axis(seed: u64, n: u64) -> Axis {
    Axis::Seed(
        (0..n)
            .map(|i| seed.wrapping_mul(n).wrapping_add(i))
            .collect(),
    )
}

fn suite_specs(names: &[&str]) -> Vec<WorkloadSpec> {
    names
        .iter()
        .map(|&name| WorkloadSpec::suite(name))
        .collect()
}

/// The `seed_fanout` grid: quick suite × scheme × {noiseless,
/// depolarizing gate + readout noise} × {transparent, 8 ns two-lane
/// links} × seeds.
fn seed_fanout_file(seed: u64) -> ScenarioFile {
    let base = Scenario::new(WorkloadSpec::suite(QUICK_SUITE[0]), Scheme::Bisp);
    let mut file = ScenarioFile::new("seed_fanout", base);
    file.axes = vec![
        Axis::Workload(suite_specs(QUICK_SUITE)),
        Axis::Scheme(vec![Scheme::Bisp, Scheme::Lockstep]),
        Axis::Noise(vec![
            NoiseModel::default(),
            NoiseModel::default()
                .with_gate_errors(0.001, 0.01)
                .with_meas_error(0.02),
        ]),
        Axis::LinkModel(vec![
            LinkModel::default(),
            LinkModel {
                capacity: 2,
                ..LinkModel::serialized(8)
            },
        ]),
        seed_axis(seed, FANOUT_SEEDS),
    ];
    file
}

/// One `paper_scale` file: `names` under `scheme` × seeds.
fn paper_file(name: &str, scheme: Scheme, names: &[&str], seed: u64) -> ScenarioFile {
    let base = Scenario::new(WorkloadSpec::suite(names[0]), scheme);
    let mut file = ScenarioFile::new(name, base);
    file.axes = vec![
        Axis::Workload(suite_specs(names)),
        seed_axis(seed, PAPER_SEEDS),
    ];
    file
}

fn generated(file: &ScenarioFile) -> Source {
    Source {
        name: file.name.clone(),
        text: file.to_json().to_string_pretty(),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The workload's input files: the committed corpus (read from the
/// current directory) or files generated from `seed`.
///
/// # Errors
///
/// A corpus file that cannot be read.
pub fn sources(workload: Workload, seed: u64) -> Result<Vec<Source>, String> {
    match workload {
        Workload::CorpusReplay => CORPUS
            .iter()
            .map(|name| {
                Ok(Source {
                    name: (*name).to_string(),
                    text: read(&format!("scenarios/{name}.json"))?,
                })
            })
            .collect(),
        Workload::SeedFanout => Ok(vec![generated(&seed_fanout_file(seed))]),
        Workload::PaperScale => Ok(vec![
            generated(&paper_file(
                "paper_scale_bisp",
                Scheme::Bisp,
                &PAPER_BISP,
                seed,
            )),
            generated(&paper_file(
                "paper_scale_lockstep",
                Scheme::Lockstep,
                &PAPER_LOCKSTEP,
                seed,
            )),
        ]),
    }
}

/// The report each source must emit: the committed report for the
/// corpus, the pin at [`DEFAULT_SEED`], or else an uncached reference
/// run (one compile per point, no cache).
///
/// # Errors
///
/// A missing report file, an unparsable source, or a failing
/// reference run.
pub fn expectations(
    workload: Workload,
    seed: u64,
    sources: &[Source],
) -> Result<Vec<Expected>, String> {
    sources
        .iter()
        .map(|source| {
            if workload == Workload::CorpusReplay {
                let text = read(&format!("scenarios/reports/{}.json", source.name))?;
                let report = text.strip_suffix('\n').unwrap_or(&text);
                return Ok(Expected::Bytes(report.to_string()));
            }
            if seed == DEFAULT_SEED {
                let (_, len, fnv) = PINS
                    .iter()
                    .find(|(name, _, _)| *name == source.name)
                    .ok_or_else(|| format!("no pin for {}", source.name))?;
                return Ok(Expected::Pin(*len, *fnv));
            }
            reference_report(source).map(Expected::Bytes)
        })
        .collect()
}

/// A source's report from an uncached single-thread sweep.
///
/// # Errors
///
/// An unparsable source or a failing run.
pub fn reference_report(source: &Source) -> Result<String, String> {
    let file = ScenarioFile::parse(&source.text).map_err(|e| format!("{}: {e}", source.name))?;
    run_sweep_uncached(&file.expand(None), 1)
        .map(|report| report.to_json())
        .map_err(|e| format!("{}: {e}", source.name))
}

/// A point the stage-by-stage pipeline can reproduce: no surgery, no
/// per-edge or per-qubit overrides, no fabric-aware placement, no load.
pub fn is_plain(scenario: &Scenario) -> bool {
    let p = &scenario.params;
    scenario.surgery.is_empty()
        && scenario.load.is_none()
        && p.link_overrides.is_empty()
        && p.noise_overrides.is_empty()
        && !p.fabric_aware
}

/// Every record ran to completion: a program run halted every
/// controller, and a job-engine run accounted for every submitted job.
fn records_complete(records: &[SweepRecord]) -> bool {
    records
        .iter()
        .all(|record| match record.metric("all_halted") {
            Some(metric) => *metric == Metric::Bool(true),
            None => {
                let count = |name| record.counter(name);
                matches!(
                    (count("jobs_submitted"), count("jobs_admitted"), count("jobs_rejected")),
                    (Some(s), Some(a), Some(r)) if s == a + r
                )
            }
        })
}

/// Emits a file's report and checks it; returns the failed op count.
fn emit_and_check(
    records: Vec<SweepRecord>,
    points: usize,
    expected: &Expected,
    emit: impl FnOnce(&SweepReport) -> String,
) -> u64 {
    let complete = records.len() == points && records_complete(&records);
    let report = SweepReport::from_records(records);
    let json = emit(&report);
    if complete && expected.matches(&json) {
        0
    } else {
        points as u64
    }
}

/// The workload's files, their expected reports, and the warm cache
/// (for workloads that share one).
pub struct Inputs {
    /// Input files.
    pub sources: Vec<Source>,
    /// Expected report per file.
    pub expected: Vec<Expected>,
    /// Shared compile cache, if the workload keeps one warm.
    pub warm: Option<CompileCache>,
}

/// One untraced pass: every point of every file, each op timed.
pub fn run_pass(inputs: &Inputs, latencies: &mut Vec<u64>) -> PassStats {
    let mut stats = PassStats::default();
    for (source, expected) in inputs.sources.iter().zip(&inputs.expected) {
        let Ok(file) = ScenarioFile::parse(&source.text) else {
            stats.points += 1;
            stats.failed += 1;
            continue;
        };
        let scenarios = file.expand(None);
        let fresh = CompileCache::new();
        let cache = inputs.warm.as_ref().unwrap_or(&fresh);
        let mut records = Vec::with_capacity(scenarios.len());
        for scenario in &scenarios {
            let start = Instant::now();
            let result = run_scenario_cached(scenario, cache);
            latencies.push(elapsed_ns(start));
            match result {
                Ok(record) => records.push(record),
                Err(e) => eprintln!("perfbench: {e}"),
            }
        }
        stats.points += scenarios.len() as u64;
        stats.failed += emit_and_check(records, scenarios.len(), expected, SweepReport::to_json);
    }
    stats
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("op shorter than 584 years")
}

/// Exact counts gathered by the traced pass, summed over passes.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// `compile_bisp`/`compile_lockstep` calls.
    pub compiler_calls: u64,
    /// Runner calls served from the cache.
    pub cache_hits: u64,
    /// Runner calls that compiled.
    pub cache_misses: u64,
    /// Plain points driven stage by stage.
    pub staged_points: u64,
    /// Controllers over staged points.
    pub controllers: u64,
    /// Engine events over staged points.
    pub events: u64,
    /// Link messages (attempts) over staged points.
    pub link_messages: u64,
    /// Link retransmissions over staged points.
    pub link_retransmits: u64,
    /// Instructions over staged points.
    pub instructions: u64,
    /// Region syncs over staged points.
    pub syncs: u64,
    /// Stall cycles over staged points.
    pub stall_cycles: u64,
    /// Controller-cycles (controllers × makespan) over staged points.
    pub controller_cycles: u64,
    /// Runner point time minus the staged build and run, over staged
    /// points whose runner call hit the cache.
    pub overhead_ns: i64,
    /// Jobs submitted to the job engine.
    pub jobs: u64,
    /// Jobs rejected by the job engine.
    pub jobs_rejected: u64,
}

/// One traced pass. Plain points run stage by stage through the
/// crates' public calls, then through the runner, and must agree on
/// `makespan_ns` and `messages`; other points are timed as whole
/// `compile_scenario` or `run_load` calls.
pub fn run_traced_pass(
    inputs: &Inputs,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    latencies: &mut Vec<u64>,
) -> PassStats {
    let mut stats = PassStats::default();
    let mut point = 0u32;
    for (source, expected) in inputs.sources.iter().zip(&inputs.expected) {
        let parsed = tracer.span("scenario.parse", NO_POINT, || {
            ScenarioFile::parse(&source.text)
        });
        let Ok(file) = parsed else {
            stats.points += 1;
            stats.failed += 1;
            continue;
        };
        let scenarios = tracer.span("scenario.expand", NO_POINT, || file.expand(None));
        let fresh = CompileCache::new();
        let cache = inputs.warm.as_ref().unwrap_or(&fresh);
        let mut records = Vec::with_capacity(scenarios.len());
        for scenario in &scenarios {
            let op = tracer.enter("op", point);
            let result = traced_point(scenario, cache, tracer, point, counts);
            tracer.exit(op);
            latencies.push(tracer.spans()[op].duration_ns());
            match result {
                Ok(record) => records.push(record),
                Err(e) => eprintln!("perfbench: {e}"),
            }
            point += 1;
        }
        stats.points += scenarios.len() as u64;
        stats.failed += emit_and_check(records, scenarios.len(), expected, |report| {
            tracer.span("json.emit", NO_POINT, || report.to_json())
        });
    }
    stats
}

/// One traced op; `Err` when it fails or the two pipelines disagree.
fn traced_point(
    scenario: &Scenario,
    cache: &CompileCache,
    tracer: &mut Tracer,
    point: u32,
    counts: &mut LayerCounts,
) -> Result<SweepRecord, String> {
    if scenario.load.is_some() {
        let outcome = tracer
            .span("load.run", point, || run_load(scenario, cache))
            .map_err(|e| e.to_string())?;
        counts.jobs += outcome.submitted();
        counts.jobs_rejected += outcome.rejected();
        return Ok(outcome.record(scenario.id()));
    }
    if !is_plain(scenario) {
        tracer
            .span("runner.compile", point, || compile_scenario(scenario))
            .map_err(|e| e.to_string())?;
        return runner_point(scenario, cache, tracer, point, counts).map(|(record, _, _)| record);
    }

    let compile = tracer.enter("runner.compile", point);
    let spec = staged_compile(scenario, tracer, point, counts);
    tracer.exit(compile);
    let mut spec = spec?;
    let (fabric, noise) = effective_maps(scenario);
    spec.backend(if noise.is_noiseless() {
        BackendSpec::Random {
            seed: scenario.seed,
            p_one: 0.5,
        }
    } else {
        BackendSpec::Leaky {
            seed: scenario.seed,
            p_one: 0.5,
            noise,
        }
    });
    spec.link_model(fabric.default_model());
    let controllers = spec.num_controllers() as u64;
    let build = tracer.enter("sim.build", point);
    let system = spec.build();
    tracer.exit(build);
    let mut system = system.map_err(|e| e.to_string())?;
    let run = tracer.enter("sim.run", point);
    let report = system.run();
    tracer.exit(run);
    let report = report.map_err(|e| e.to_string())?;
    let staged_ns = tracer.spans()[build].duration_ns() + tracer.spans()[run].duration_ns();

    let (record, point_ns, hit) = runner_point(scenario, cache, tracer, point, counts)?;
    if record.counter("makespan_ns") != Some(report.makespan_ns)
        || record.counter("messages") != Some(report.events_processed)
    {
        return Err(format!(
            "{}: staged run disagrees with the runner",
            record.id
        ));
    }
    if hit {
        counts.overhead_ns += point_ns as i64 - staged_ns as i64;
    }
    counts.staged_points += 1;
    counts.controllers += controllers;
    counts.events += report.events_processed;
    for link in &report.link_stats {
        counts.link_messages += link.messages;
        counts.link_retransmits += link.retransmits;
    }
    counts.instructions += report.total_instructions;
    counts.syncs += report.total_syncs;
    counts.stall_cycles += report.total_stall_cycles;
    counts.controller_cycles += controllers * report.makespan_cycles;
    Ok(record)
}

/// The runner's own call for a point, with whether the cache hit.
fn runner_point(
    scenario: &Scenario,
    cache: &CompileCache,
    tracer: &mut Tracer,
    point: u32,
    counts: &mut LayerCounts,
) -> Result<(SweepRecord, u64, bool), String> {
    let misses = cache.misses();
    let span = tracer.enter("runner.point", point);
    let result = run_scenario_cached(scenario, cache);
    tracer.exit(span);
    let hit = cache.misses() == misses;
    if hit {
        counts.cache_hits += 1;
    } else {
        counts.cache_misses += 1;
    }
    let record = result.map_err(|e| e.to_string())?;
    Ok((record, tracer.spans()[span].duration_ns(), hit))
}

/// The compile stage of a plain point, one public call per layer.
fn staged_compile(
    scenario: &Scenario,
    tracer: &mut Tracer,
    point: u32,
    counts: &mut LayerCounts,
) -> Result<SystemSpec, String> {
    let built = tracer
        .span("workloads.build", point, || scenario.workload.build())
        .ok_or_else(|| format!("unknown workload {}", scenario.workload.label()))?;
    let p = &scenario.params;
    let topology = tracer.span("net.topology", point, || {
        TopologyBuilder::grid(built.grid.0, built.grid.1)
            .neighbor_latency(p.neighbor_latency)
            .router_latency(p.router_latency)
            .router_arity(p.router_arity)
            .build()
    });
    counts.compiler_calls += 1;
    let compiled = tracer
        .span("compiler.codegen", point, || match scenario.scheme {
            Scheme::Bisp => compile_bisp(
                &built.circuit,
                &topology,
                &BispOptions {
                    shots: scenario.shots,
                    ..BispOptions::default()
                },
            ),
            Scheme::Lockstep => compile_lockstep(
                &built.circuit,
                &LockstepOptions {
                    star_up_latency: p.star_up_latency,
                    star_down_latency: p.star_down_latency,
                    shots: scenario.shots,
                    ..LockstepOptions::default()
                },
            ),
        })
        .map_err(|e| e.to_string())?;
    let topology = (scenario.scheme == Scheme::Bisp).then_some(&topology);
    tracer
        .span("runner.spec", point, || system_spec(&compiled, topology))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expanded(source: &Source) -> Vec<Scenario> {
        ScenarioFile::parse(&source.text).unwrap().expand(None)
    }

    fn pass_ids(workload: Workload, seed: u64) -> Vec<String> {
        sources(workload, seed)
            .unwrap()
            .iter()
            .flat_map(expanded)
            .map(|s| s.id())
            .collect()
    }

    #[test]
    fn generated_pass_sizes_do_not_depend_on_the_seed() {
        for seed in [DEFAULT_SEED, 0, 7, 1_000_003] {
            assert_eq!(pass_ids(Workload::SeedFanout, seed).len(), 384);
            assert_eq!(pass_ids(Workload::PaperScale, seed).len(), 21);
        }
    }

    #[test]
    fn a_pass_is_the_same_op_list_every_time() {
        let first = pass_ids(Workload::PaperScale, 5);
        assert_eq!(first, pass_ids(Workload::PaperScale, 5));
        let mut unique = first.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), first.len(), "grid points are distinct");
    }

    #[test]
    fn workload_seeds_drive_only_the_seed_axis() {
        let a = sources(Workload::SeedFanout, 3).unwrap();
        let b = sources(Workload::SeedFanout, 4).unwrap();
        let (a, b) = (expanded(&a[0]), expanded(&b[0]));
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed
            && Scenario {
                seed: 0,
                ..x.clone()
            } == Scenario {
                seed: 0,
                ..y.clone()
            }));
        let seeds_a: Vec<u64> = a.iter().map(|s| s.seed).collect();
        assert!(
            b.iter().all(|s| !seeds_a.contains(&s.seed)),
            "seed sets are disjoint"
        );
    }

    #[test]
    fn generated_grids_are_all_plain_points() {
        for workload in [Workload::SeedFanout, Workload::PaperScale] {
            for source in sources(workload, DEFAULT_SEED).unwrap() {
                assert!(expanded(&source).iter().all(is_plain), "{}", source.name);
            }
        }
    }

    #[test]
    fn seed_fanout_covers_the_noise_and_contention_axes() {
        let points = expanded(&sources(Workload::SeedFanout, 2).unwrap()[0]);
        let noisy = points
            .iter()
            .filter(|s| !s.params.noise.is_noiseless())
            .count();
        let contended = points
            .iter()
            .filter(|s| s.params.link_model != LinkModel::default())
            .count();
        assert_eq!((noisy, contended), (192, 192));
    }

    #[test]
    fn pins_cover_every_generated_file() {
        for workload in [Workload::SeedFanout, Workload::PaperScale] {
            let srcs = sources(workload, DEFAULT_SEED).unwrap();
            let expected = expectations(workload, DEFAULT_SEED, &srcs).unwrap();
            assert_eq!(expected.len(), srcs.len());
        }
    }

    #[test]
    fn pin_and_byte_expectations_compare_exactly() {
        let report = "{\"scenarios\":0}";
        let pin = Expected::Pin(report.len(), fnv1a64(report.as_bytes()));
        assert!(pin.matches(report));
        assert!(!pin.matches("{\"scenarios\":1}"));
        assert!(Expected::Bytes(report.into()).matches(report));
        assert!(!Expected::Bytes(report.into()).matches(&format!("{report}\n")));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }
}
