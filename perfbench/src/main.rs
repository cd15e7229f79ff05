//! `perfbench`: host-time benchmark of Distributed-HISQ scenario sweeps.
//!
//! ```text
//! perfbench --workload <corpus_replay|seed_fanout|paper_scale>
//!           [--seed N] [--seconds S] [--trace 0|1] [--print-pins]
//! ```
//!
//! Runs one workload in this process on one thread, as a closed loop
//! with a single client: cycles of a set-up and then whole passes over
//! the workload's fixed op list fill `--seconds`, and every report is
//! checked. The timings are read from each op's fastest samples. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a traced run. Diagnostics go to
//! standard error; the traced run's spans go to `perfbench/out/`.
//! See `perfbench/README.md`.

mod measure;
mod ops;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use distributed_hisq::runner::CompileCache;
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::stats::percentile_nearest_rank;
use distributed_hisq::testing::fnv1a64;

use measure::{median, peak_rss_mb, ranked_above_p90, PassStats, Window};
use ops::{Inputs, LayerCounts, Workload, DEFAULT_SEED};
use trace::{totals_by_name, Tracer};

/// Set-ups per untraced run; `setup_s` is their median. The run is cut
/// into this many cycles of one set-up and then timed passes, so that
/// the set-ups sample the host across the whole run.
const SETUP_REPEATS: u32 = 9;

/// Share of a traced run's time spent on its untraced baseline.
const TRACE_BASELINE_SHARE: f64 = 1.0 / 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_pins = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_pins,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// One timed set-up: read or generate the input files, then a first
/// verifying pass, which expands every grid and compiles every compile
/// key (into the warm cache, for workloads that keep one).
fn setup(args: &Args, expected: &[ops::Expected]) -> Result<(Inputs, Duration, PassStats), String> {
    let start = Instant::now();
    let inputs = Inputs {
        sources: ops::sources(args.workload, args.seed)?,
        expected: expected.to_vec(),
        warm: args.workload.shares_cache().then(CompileCache::new),
    };
    let stats = ops::run_pass(&inputs, &mut Vec::new());
    Ok((inputs, start.elapsed(), stats))
}

/// Grid-point ids of one pass, in op order.
fn pass_ids(sources: &[ops::Source]) -> Vec<String> {
    sources
        .iter()
        .filter_map(|s| ScenarioFile::parse(&s.text).ok())
        .flat_map(|f| f.expand(None))
        .map(|s| s.id())
        .collect()
}

/// Reports where a percentile lands among the op classes (one class per
/// grid point): which class, how far into its samples, and the gap to
/// the neighbouring classes' medians.
fn class_position(fast: &[Vec<u64>], ids: &[String], p: f64) -> String {
    let per_pass = ids.len();
    if per_pass == 0 || fast.len() != per_pass {
        return "n/a".into();
    }
    let mut classes: Vec<(f64, usize)> = fast
        .iter()
        .enumerate()
        .map(|(c, samples)| {
            let samples: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
            (median(&samples), c)
        })
        .collect();
    classes.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Every class holds the same number of fast samples; 1.00 into a
    // class is its slowest fast sample.
    let k = fast[0].len().max(1);
    let rank = ((p / 100.0 * (k * per_pass) as f64).ceil() as usize).clamp(1, k * per_pass);
    let index = (rank - 1) / k;
    let into = (rank - k * index) as f64 / k as f64;
    let (med, class) = classes[index];
    let gap = |other: Option<&(f64, usize)>| other.map_or(0.0, |o| 100.0 * (o.0 / med - 1.0));
    format!(
        "class {}/{per_pass} ({}), {:.2} into it; neighbours {:+.1}% / {:+.1}%",
        index + 1,
        ids[class],
        into,
        gap(index.checked_sub(1).and_then(|i| classes.get(i))),
        gap(classes.get(index + 1)),
    )
}

/// Nearest-rank p50 and p90 (ms) of the pooled fast samples.
fn latency_metrics(window: &Window, ids: &[String]) -> (f64, f64) {
    let fast = window.fast_classes();
    let sorted = window.fast_latencies();
    let p50 = percentile_nearest_rank(&sorted, 50.0).unwrap_or(0);
    let p90 = percentile_nearest_rank(&sorted, 90.0).unwrap_or(0);
    eprintln!(
        "[perfbench] {} passes ({} ops each), {} fast samples per op; {} op samples, {} ranked above p90 ({} greater)",
        window.passes,
        ids.len(),
        fast.first().map_or(0, Vec::len),
        sorted.len(),
        ranked_above_p90(sorted.len()),
        sorted.iter().filter(|&&v| v > p90).count()
    );
    let pass_ms: Vec<f64> = window.pass_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    eprintln!(
        "[perfbench] pass wall: median {:.2} ms, max {:.2} ms; over every pass {:.3} ops/s",
        median(&pass_ms),
        pass_ms.iter().copied().fold(0.0, f64::max),
        window.ops_per_s()
    );
    eprintln!("[perfbench] p50 → {}", class_position(&fast, ids, 50.0));
    eprintln!("[perfbench] p90 → {}", class_position(&fast, ids, 90.0));
    (p50 as f64 / 1e6, p90 as f64 / 1e6)
}

/// The end-to-end run: `SETUP_REPEATS` cycles of a set-up followed by
/// timed passes, each cycle ending at its share of `--seconds`. Each
/// cycle's inputs are dropped before the next set-up.
fn untraced(args: &Args, expected: &[ops::Expected]) -> Result<String, String> {
    let ids = pass_ids(&ops::sources(args.workload, args.seed)?);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut setup_stats = PassStats::default();
    let mut window = Window::default();
    for cycle in 1..=SETUP_REPEATS {
        let (inputs, elapsed, stats) = setup(args, expected)?;
        setups.push(elapsed.as_secs_f64());
        setup_stats.points += stats.points;
        setup_stats.failed += stats.failed;
        let deadline = start + budget * cycle / SETUP_REPEATS;
        window.run_until(deadline, |latencies| ops::run_pass(&inputs, latencies));
    }
    let (p50, p90) = latency_metrics(&window, &ids);
    eprintln!("[perfbench] set-ups (s): {setups:?}");
    let metrics = [
        metric("scenarios_per_s", window.fast_ops_per_s(), "1/s"),
        metric("op_ms_p50", p50, "ms"),
        metric("op_ms_p90", p90, "ms"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
        metric("setup_s", median(&setups), "s"),
    ];
    Ok(result_line(
        setup_stats.points + window.points,
        setup_stats.failed + window.failed,
        &metrics,
    ))
}

fn traced(args: &Args, expected: &[ops::Expected]) -> Result<String, String> {
    let (inputs, _, setup_stats) = setup(args, expected)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut baseline = Window::default();
    baseline.run_until(start + budget.mul_f64(TRACE_BASELINE_SHARE), |latencies| {
        ops::run_pass(&inputs, latencies)
    });
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut traced = Window::default();
    traced.run_until(start + budget, |latencies| {
        ops::run_traced_pass(&inputs, &mut tracer, &mut counts, latencies)
    });
    let totals = totals_by_name(tracer.spans());
    let passes = traced.passes as f64;
    let self_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / passes)
    };
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let per_pass = |count: u64| count as f64 / passes;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let c = &counts;
    let traced_sps = traced.ops_per_s();
    let load_s = total_ns("load.run") as f64 / 1e9;

    let mut layers: Vec<(&str, u64)> = totals.iter().map(|(n, t)| (*n, t.self_ns)).collect();
    layers.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let all: u64 = layers.iter().map(|&(_, ns)| ns).sum();
    eprintln!(
        "[perfbench] traced self time by layer ({} passes):",
        traced.passes
    );
    for (name, ns) in &layers {
        eprintln!(
            "  {name:<18} {:>10.3} ms/pass {:>6.1}%",
            *ns as f64 / 1e6 / passes,
            100.0 * *ns as f64 / all.max(1) as f64
        );
    }
    write_spans(args, &tracer);

    let metrics = [
        metric("scenario.parse_ms", self_ms("scenario.parse"), "ms"),
        metric("scenario.expand_ms", self_ms("scenario.expand"), "ms"),
        metric("json.emit_ms", self_ms("json.emit"), "ms"),
        metric("workloads.build_ms", self_ms("workloads.build"), "ms"),
        metric("net.topology_ms", self_ms("net.topology"), "ms"),
        metric("compiler.codegen_ms", self_ms("compiler.codegen"), "ms"),
        metric("compiler.calls", per_pass(c.compiler_calls), "count"),
        metric(
            "runner.compile_ms",
            total_ns("runner.compile") as f64 / 1e6 / passes,
            "ms",
        ),
        metric("runner.spec_ms", self_ms("runner.spec"), "ms"),
        metric("runner.cache_hits", per_pass(c.cache_hits), "count"),
        metric("runner.cache_misses", per_pass(c.cache_misses), "count"),
        metric(
            "runner.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        metric("runner.point_ms", self_ms("runner.point"), "ms"),
        metric(
            "runner.point_overhead_ms",
            c.overhead_ns as f64 / 1e6 / passes,
            "ms",
        ),
        metric("sim.build_ms", self_ms("sim.build"), "ms"),
        metric(
            "sim.controllers",
            ratio(c.controllers, c.staged_points),
            "count",
        ),
        metric("sim.run_ms", self_ms("sim.run"), "ms"),
        metric("sim.events", per_pass(c.events), "count"),
        metric(
            "sim.ns_per_event",
            total_ns("sim.run") as f64 / c.events.max(1) as f64,
            "ns",
        ),
        metric("net.link_messages", per_pass(c.link_messages), "count"),
        metric(
            "net.link_retransmits",
            per_pass(c.link_retransmits),
            "count",
        ),
        metric(
            "net.link_delivery_ratio",
            ratio(c.link_messages, c.link_messages + c.link_retransmits),
            "ratio",
        ),
        metric("core.instructions", per_pass(c.instructions), "count"),
        metric("core.syncs", per_pass(c.syncs), "count"),
        metric("core.stall_cycles", per_pass(c.stall_cycles), "count"),
        metric(
            "core.stall_share",
            ratio(c.stall_cycles, c.controller_cycles),
            "ratio",
        ),
        metric("load.jobs", per_pass(c.jobs), "count"),
        metric(
            "load.jobs_per_s",
            if load_s > 0.0 {
                c.jobs as f64 / load_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "load.rejected_ratio",
            if c.jobs == 0 {
                0.0
            } else {
                ratio(c.jobs_rejected, c.jobs)
            },
            "ratio",
        ),
        metric("trace.scenarios_per_s", traced_sps, "1/s"),
        metric(
            "trace.overhead_ratio",
            baseline.ops_per_s() / traced_sps,
            "ratio",
        ),
    ];
    Ok(result_line(
        setup_stats.points + baseline.points + traced.points,
        setup_stats.failed + baseline.failed + traced.failed,
        &metrics,
    ))
}

/// Writes the traced run's spans as JSON lines under `perfbench/out/`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(tracer.spans())));
    match written {
        Ok(()) => eprintln!(
            "[perfbench] {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Prints the `(file, length, FNV-1a 64)` pins of the uncached
/// reference reports at the given seed.
fn print_pins(args: &Args) -> Result<(), String> {
    for source in ops::sources(args.workload, args.seed)? {
        let report = ops::reference_report(&source)?;
        println!(
            "(\"{}\", {}, 0x{:016x}),",
            source.name,
            report.len(),
            fnv1a64(report.as_bytes())
        );
    }
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let sources = ops::sources(args.workload, args.seed)?;
    let expected = ops::expectations(args.workload, args.seed, &sources)?;
    if args.trace {
        traced(args, &expected)
    } else {
        untraced(args, &expected)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_pins {
        print_pins(&args).map(|()| None)
    } else {
        run(&args).map(Some)
    };
    match outcome {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
