//! `hisq` — run and validate scenario files.
//!
//! ```text
//! hisq run <scenario.json> [--repetitions N] [--threads T] [--json]
//! hisq validate <scenario.json>
//! ```
//!
//! `run` expands the scenario file into its sweep grid (see
//! `docs/SCENARIOS.md`), executes it on the deterministic worker pool,
//! and prints either a human summary or (`--json`) the raw sweep
//! report — byte-identical for any `--threads` value, which is what
//! the golden-corpus CI gate replays. `validate` parses and expands
//! the file without running anything, printing the scenario ids.
//!
//! Unknown flags and malformed inputs exit nonzero with a usage
//! message; nothing is silently ignored. Output stops quietly, with
//! exit 0, when the reader closes stdout (`hisq validate f.json | head`),
//! and a closed stderr loses the diagnostics but never the exit code.

use std::io::{self, StdoutLock, Write};
use std::process::ExitCode;

use distributed_hisq::runner::run_sweep;
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::sim::sweep::MAX_THREADS;

const USAGE: &str = "\
usage: hisq <command> [options]

commands:
  run <scenario.json>       expand and execute a scenario file
  validate <scenario.json>  parse and expand a scenario file, print its grid

options (run):
  --repetitions N   override the file's repetition count (default: the file's;
                    the expanded grid may not exceed 100000 scenarios)
  --threads T       worker threads (default 1, at most 256; output is identical
                    for any T)
  --json            print the raw sweep report as JSON

options (validate):
  (none)

The scenario-file grammar is documented in docs/SCENARIOS.md.";

/// Prints through a locked stdout. A closed pipe means the reader has
/// what it wanted: printing stops and the command still succeeds.
fn emit(print: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>) -> ExitCode {
    let mut out = io::stdout().lock();
    match print(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            note(format_args!("hisq: stdout: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// Writes one line to stderr. Write errors are ignored: with stderr
/// closed, the exit code is all that is left to report.
fn note(line: std::fmt::Arguments) {
    let _ = writeln!(io::stderr(), "{line}");
}

fn fail(message: &str) -> ExitCode {
    note(format_args!("hisq: {message}\n{USAGE}"));
    ExitCode::from(2)
}

struct RunArgs {
    file: String,
    repetitions: Option<u64>,
    threads: usize,
    json: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut file = None;
    let mut repetitions = None;
    let mut threads = 1usize;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--repetitions" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--repetitions needs a value".to_string())?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --repetitions value `{value}`"))?;
                if n == 0 {
                    return Err("--repetitions must be at least 1".to_string());
                }
                repetitions = Some(n);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--threads needs a value".to_string())?;
                threads = value
                    .parse()
                    .map_err(|_| format!("invalid --threads value `{value}`"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                if threads > MAX_THREADS {
                    return Err(format!(
                        "--threads {threads} is over MAX_THREADS ({MAX_THREADS})"
                    ));
                }
            }
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            positional => {
                if file.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected extra argument `{positional}`"));
                }
            }
        }
    }
    let file = file.ok_or_else(|| "missing scenario file".to_string())?;
    Ok(RunArgs {
        file,
        repetitions,
        threads,
        json,
    })
}

fn load(path: &str) -> Result<ScenarioFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ScenarioFile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(args) => args,
        Err(message) => return fail(&message),
    };
    let file = match load(&args.file) {
        Ok(file) => file,
        Err(message) => {
            note(format_args!("hisq: {message}"));
            return ExitCode::FAILURE;
        }
    };
    if let Some(repetitions) = args.repetitions {
        if let Err(message) = file.check_scenario_count(Some(repetitions)) {
            return fail(&format!(
                "--repetitions {repetitions}: {}: {message}",
                args.file
            ));
        }
    }
    let scenarios = file.expand(args.repetitions);
    note(format_args!(
        "[hisq] {}: {} scenario(s) on {} thread(s)...",
        file.name,
        scenarios.len(),
        args.threads
    ));
    let report = match run_sweep(&scenarios, args.threads) {
        Ok(report) => report,
        Err(e) => {
            note(format_args!("hisq: {e}"));
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        return emit(|out| writeln!(out, "{}", report.to_json()));
    }
    emit(|out| {
        writeln!(out, "{}: {} scenario(s)", file.name, report.records().len())?;
        if !file.description.is_empty() {
            writeln!(out, "  {}", file.description)?;
        }
        writeln!(out, "{:-<78}", "")?;
        for record in report.records() {
            let makespan = match record.metrics.get("makespan_ns") {
                Some(distributed_hisq::sim::Metric::U64(ns)) => format!("{ns:>12}"),
                _ => format!("{:>12}", "-"),
            };
            writeln!(out, "{makespan} ns  {}", record.id)?;
        }
        writeln!(out, "{:-<78}", "")
    })
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail(if args.is_empty() {
            "missing scenario file"
        } else {
            "validate takes exactly one scenario file"
        });
    };
    let file = match load(path) {
        Ok(file) => file,
        Err(message) => {
            note(format_args!("hisq: {message}"));
            return ExitCode::FAILURE;
        }
    };
    let scenarios = file.expand(None);
    emit(|out| {
        writeln!(
            out,
            "{}: ok ({} grid point(s) x {} repetition(s) = {} scenario(s))",
            file.name,
            file.grid_len(),
            file.repetitions,
            scenarios.len()
        )?;
        for scenario in &scenarios {
            writeln!(out, "  {}", scenario.id())?;
        }
        Ok(())
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => cmd_run(rest),
            "validate" => cmd_validate(rest),
            "--help" | "-h" | "help" => emit(|out| writeln!(out, "{USAGE}")),
            other => fail(&format!("unknown command `{other}`")),
        },
        None => fail("missing command"),
    }
}
