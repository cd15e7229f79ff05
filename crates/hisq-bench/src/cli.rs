//! The command line of the `figure` binary.
//!
//! `figure <name> [flags]` looks `name` up in a table of [`Figure`]s
//! ([`crate::render::FIGURES`]). Each figure accepts only the flags
//! that change its output. An unknown name, or a flag or argument the
//! named figure does not read, is a usage error that lists what is
//! accepted — never a silently ignored knob.

use std::io::{self, Write};

use distributed_hisq::runner::{run_sweep, Scenario};
use hisq_sim::sweep::MAX_THREADS;
use hisq_sim::SweepReport;

use crate::grids::FigureGrid;

/// A flag a figure may read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flag {
    /// `--threads N` (or `--threads=N`): sweep worker threads, at most
    /// [`MAX_THREADS`]; the output is identical for any `N`.
    Threads,
    /// `--json`: print the report as JSON instead of the table.
    Json,
    /// `--quick`: the reduced grid or point set.
    Quick,
}

impl Flag {
    const ALL: [Flag; 3] = [Flag::Threads, Flag::Json, Flag::Quick];

    fn name(self) -> &'static str {
        match self {
            Flag::Threads => "--threads",
            Flag::Json => "--json",
            Flag::Quick => "--quick",
        }
    }

    fn synopsis(self) -> String {
        match self {
            Flag::Threads => "[--threads N]".to_string(),
            flag => format!("[{}]", flag.name()),
        }
    }
}

/// Parsed flags plus any remaining positional arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigArgs {
    /// Worker threads for the sweep engine (`--threads N`, default 1).
    pub threads: usize,
    /// Print the report as JSON instead of the human table (`--json`).
    pub json: bool,
    /// Use the reduced grid / point set (`--quick`).
    pub quick: bool,
    /// Non-flag arguments, in order (e.g. `fig11`'s experiment name).
    pub positional: Vec<String>,
}

/// Parses `args` against the `accepted` flags; any other flag is an
/// error that ends with `usage`.
fn parse_flags(
    accepted: &[Flag],
    args: impl IntoIterator<Item = String>,
    usage: &str,
) -> Result<FigArgs, String> {
    let mut out = FigArgs {
        threads: 1,
        json: false,
        quick: false,
        positional: Vec::new(),
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let inline_threads = arg.strip_prefix("--threads=");
        let flag = Flag::ALL.into_iter().find(|flag| {
            arg == flag.name() || (*flag == Flag::Threads && inline_threads.is_some())
        });
        match flag {
            Some(flag) if !accepted.contains(&flag) => {
                let name = flag.name();
                return Err(format!("this figure does not take `{name}`\n{usage}"));
            }
            Some(Flag::Threads) => {
                let value = match inline_threads {
                    Some(value) => value.to_string(),
                    None => iter.next().ok_or("--threads needs a value")?,
                };
                out.threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| (1..=MAX_THREADS).contains(n))
                    .ok_or_else(|| {
                        format!("--threads wants 1 to MAX_THREADS ({MAX_THREADS}), got {value:?}")
                    })?;
            }
            Some(Flag::Json) => out.json = true,
            Some(Flag::Quick) => out.quick = true,
            None if arg.starts_with('-') => return Err(format!("unknown flag `{arg}`\n{usage}")),
            None => out.positional.push(arg),
        }
    }
    Ok(out)
}

/// Renders a sweep figure's table from its expanded grid and report.
pub(crate) type SweepTable = fn(&[Scenario], &SweepReport, &mut dyn Write) -> io::Result<()>;

/// Builds an experiment figure's report and prints it under its flags.
pub(crate) type Experiment = fn(&FigArgs, &mut dyn Write) -> io::Result<()>;

/// One entry of a figure table.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The figure's name: the `figure` binary's first argument.
    pub name: &'static str,
    /// The flags the figure reads; any other flag is a usage error.
    pub(crate) flags: &'static [Flag],
    /// The values the figure takes as its one optional positional
    /// argument (`fig11`'s experiment names); empty when it takes none.
    pub(crate) choices: &'static [&'static str],
    run: Run,
}

#[derive(Debug, Clone, Copy)]
enum Run {
    Sweep(FigureGrid, SweepTable),
    Experiment(Experiment),
}

impl Figure {
    /// A sweep figure: expands `grid`'s `--quick` or full file, runs it
    /// on `--threads` workers and renders `table`. It takes no `--json`:
    /// `hisq run` prints the report of the same file.
    pub(crate) const fn sweep(grid: FigureGrid, table: SweepTable) -> Figure {
        let flags = &[Flag::Threads, Flag::Quick];
        let run = Run::Sweep(grid, table);
        Figure {
            name: grid.name,
            flags,
            choices: &[],
            run,
        }
    }

    /// An experiment figure: `print` builds its report in order, on the
    /// calling thread.
    pub(crate) const fn experiment(
        name: &'static str,
        flags: &'static [Flag],
        choices: &'static [&'static str],
        print: Experiment,
    ) -> Figure {
        let run = Run::Experiment(print);
        Figure {
            name,
            flags,
            choices,
            run,
        }
    }

    fn synopsis(&self) -> String {
        let mut synopsis = self.name.to_string();
        if !self.choices.is_empty() {
            synopsis += &format!(" [{}]", self.choices.join("|"));
        }
        for flag in self.flags {
            synopsis += &format!(" {}", flag.synopsis());
        }
        synopsis
    }

    /// The figure's usage message: its argument choices and flags.
    fn usage(&self) -> String {
        let usage = format!("usage: figure {}", self.synopsis());
        match self.run {
            Run::Sweep(..) => format!(
                "{usage}\nits JSON report: hisq run scenarios/{0}.json --json \
                 (the --quick grid) or scenarios/full/{0}.json",
                self.name
            ),
            Run::Experiment(_) => usage,
        }
    }

    /// Prints the figure to `out`; a sweep figure reports its progress
    /// on stderr.
    ///
    /// # Errors
    ///
    /// Returns the first failed write to `out`, or a failed sweep
    /// scenario as an [`io::ErrorKind::Other`] error.
    pub fn print(&self, args: &FigArgs, out: &mut dyn Write) -> io::Result<()> {
        let (grid, table) = match self.run {
            Run::Experiment(print) => return print(args, out),
            Run::Sweep(grid, table) => (grid, table),
        };
        let scenarios = grid.scenarios(args.quick);
        // A closed stderr loses the progress line and nothing else.
        let _ = writeln!(
            io::stderr(),
            "[{}] running {} scenarios on {} thread(s)...",
            self.name,
            scenarios.len(),
            args.threads
        );
        let report =
            run_sweep(&scenarios, args.threads).map_err(|e| io::Error::other(e.to_string()))?;
        table(&scenarios, &report, out)
    }
}

/// Resolves `args` — a figure's name, then its flags and argument —
/// against `table`.
///
/// # Errors
///
/// Returns a usage message when the name is missing or not in `table`
/// (it lists every figure with its flags), when a flag or argument is
/// one the named figure does not read (it lists that figure's), or
/// when `--threads` is missing its value or is not an integer from 1
/// to [`MAX_THREADS`].
pub fn parse(
    table: &[Figure],
    args: impl IntoIterator<Item = String>,
) -> Result<(&Figure, FigArgs), String> {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    let Some(figure) = table.iter().find(|figure| figure.name == name) else {
        let problem = match name.as_str() {
            "" => String::new(),
            name => format!("unknown figure `{name}`\n"),
        };
        let synopses: Vec<String> = table.iter().map(Figure::synopsis).collect();
        return Err(format!(
            "{problem}usage: figure <name> [flags]\n\nfigures:\n  {}",
            synopses.join("\n  ")
        ));
    };
    let usage = figure.usage();
    let parsed = parse_flags(figure.flags, args, &usage)?;
    for (i, arg) in parsed.positional.iter().enumerate() {
        if i > 0 || !figure.choices.contains(&arg.as_str()) {
            return Err(format!("unexpected argument `{arg}`\n{usage}"));
        }
    }
    Ok((figure, parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::FIGURES;

    fn figure(args: &[&str]) -> Result<(&'static Figure, FigArgs), String> {
        super::parse(FIGURES, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_shared_flags_in_any_style() {
        let (_, args) = figure(&["fig15", "--threads", "4", "--quick"]).unwrap();
        assert_eq!((args.threads, args.json, args.quick), (4, false, true));
        let (_, args) = figure(&["fig16", "--quick", "--threads=2"]).unwrap();
        assert_eq!((args.threads, args.json, args.quick), (2, false, true));
        let (_, args) = figure(&["fig13", "--json", "--quick"]).unwrap();
        assert_eq!((args.threads, args.json, args.quick), (1, true, true));
    }

    #[test]
    fn keeps_positionals_in_order() {
        for args in [
            &["fig11", "rabi", "--json"][..],
            &["fig11", "--json", "rabi"][..],
        ] {
            let (_, args) = figure(args).unwrap();
            assert!(args.json);
            assert_eq!(args.positional, vec!["rabi".to_string()]);
        }
    }

    #[test]
    fn rejects_unknown_flags_with_usage() {
        for args in [
            &["fig05", "--verbose"][..],
            &["fig11", "rabi", "--seed=7"][..],
            &["fig15", "-q"][..],
            &["fig15", "--thread", "4"][..],
        ] {
            let err = figure(args).unwrap_err();
            assert!(err.contains("unknown flag"), "{args:?}: {err}");
            assert!(err.contains("usage:"), "{args:?}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_threads() {
        for args in [
            &["fig15", "--threads"][..],
            &["fig15", "--threads", "zero"][..],
            &["fig15", "--threads=0"][..],
            &["fig15", "--threads", "0"][..],
        ] {
            assert!(figure(args).is_err(), "{args:?}");
        }
        // No sweep runs here: parsing spawns no thread.
        let (_, args) = figure(&["fig15", "--threads", "256"]).unwrap();
        assert_eq!(args.threads, MAX_THREADS);
        for args in [
            &["fig15", "--threads", "257"][..],
            &["fig16", "--threads=100000"][..],
        ] {
            let err = figure(args).unwrap_err();
            assert!(err.contains("MAX_THREADS (256)"), "{args:?}: {err}");
        }
    }

    #[test]
    fn unknown_figure_lists_every_figure() {
        for args in [&["fig99"][..], &[][..], &["--quick", "fig15"][..]] {
            let err = figure(args).unwrap_err();
            assert!(err.contains("usage: figure <name>"), "{args:?}: {err}");
            for figure in FIGURES {
                assert!(err.contains(&figure.synopsis()), "{args:?}: {err}");
            }
        }
        let err = figure(&["fig99"]).unwrap_err();
        assert!(err.starts_with("unknown figure `fig99`\n"), "{err}");
    }

    #[test]
    fn a_flag_the_figure_does_not_read_lists_its_flags() {
        for (name, arg) in [
            ("fig05", "--quick"),
            ("fig06", "--threads"),
            ("fig07", "--threads=2"),
            ("table1", "--quick"),
            ("fig11", "--threads"),
            ("fig13", "--threads"),
            ("fig15", "--json"),
            ("fig_load", "--json"),
            ("fig05", "--verbose"),
        ] {
            let err = figure(&[name, arg, "2"]).unwrap_err();
            let (problem, _) = err.split_once('\n').expect("a usage line follows");
            let flag = arg.split('=').next().unwrap();
            assert!(problem.contains(&format!("`{flag}`")), "{err}");
            let named = FIGURES.iter().find(|figure| figure.name == name).unwrap();
            assert!(err.ends_with(&named.usage()), "{name} {arg}: {err}");
            for flag in named.flags {
                assert!(err.contains(&flag.synopsis()), "{name} {arg}: {err}");
            }
        }
    }

    #[test]
    fn each_figure_accepts_exactly_its_flags() {
        // 7 sweep figures × (--threads, --quick) + fig11 and fig13 ×
        // (--quick, --json) + fig05, fig06, fig07 and table1 × --json.
        let accepted: usize = FIGURES.iter().map(|figure| figure.flags.len()).sum();
        assert_eq!(accepted, 22);
        for figure in FIGURES {
            let mut args = vec![figure.name.to_string()];
            for flag in figure.flags {
                args.push(flag.name().to_string());
                if *flag == Flag::Threads {
                    args.push("2".to_string());
                }
            }
            let (found, parsed) = super::parse(FIGURES, args).unwrap();
            assert_eq!(found.name, figure.name);
            let read = |flag| figure.flags.contains(&flag);
            assert_eq!(
                (parsed.threads == 2, parsed.json, parsed.quick),
                (read(Flag::Threads), read(Flag::Json), read(Flag::Quick)),
                "{}",
                figure.name
            );
        }
    }

    #[test]
    fn only_fig11_takes_an_argument() {
        for experiment in ["circle", "freq", "rabi", "t1"] {
            let (_, args) = figure(&["fig11", experiment, "--json"]).unwrap();
            assert_eq!(args.positional, vec![experiment.to_string()]);
        }
        for args in [
            &["fig11", "all"][..],
            &["fig11", "rabi", "t1"][..],
            &["fig05", "rabi"][..],
            &["fig15", "fig16"][..],
        ] {
            let err = figure(args).unwrap_err();
            assert!(err.contains("unexpected argument"), "{args:?}: {err}");
            assert!(err.contains(&format!("usage: figure {}", args[0])), "{err}");
        }
    }
}
