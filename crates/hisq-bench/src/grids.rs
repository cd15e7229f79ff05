//! The committed scenario files behind the sweep-driven figures.
//!
//! Each figure's `--quick` grid is a golden-corpus entry
//! (`scenarios/<fig>.json`, its report pinned in
//! `scenarios/reports/<fig>.json`), and its full grid sits in
//! `scenarios/full/<fig>.json`. Both files are embedded at build time,
//! so a grid has exactly one definition — the file — and a figure
//! binary needs no checkout to run.

use distributed_hisq::runner::{run_sweep, Scenario};
use distributed_hisq::scenario::ScenarioFile;
use hisq_sim::SweepReport;

use crate::cli::FigArgs;

/// One figure's grid: its `--quick` and full scenario files.
#[derive(Debug, Clone, Copy)]
pub struct FigureGrid {
    /// The figure's name: its binary and both files' stem.
    pub name: &'static str,
    quick: &'static str,
    full: &'static str,
}

macro_rules! figure_grid {
    ($name:literal) => {
        FigureGrid {
            name: $name,
            quick: include_str!(concat!("../../../scenarios/", $name, ".json")),
            full: include_str!(concat!("../../../scenarios/full/", $name, ".json")),
        }
    };
}

/// Figure 15: every suite instance under both schemes.
pub const FIG15: FigureGrid = figure_grid!("fig15");
/// Figure 16: the long-range CNOT circuit across T1 under both schemes.
pub const FIG16: FigureGrid = figure_grid!("fig16");
/// Link contention: controller count × scheme × link serialization.
pub const FIG_CONTENTION: FigureGrid = figure_grid!("fig_contention");
/// Gate noise: Figure 16's circuit across gate error × scheme.
pub const FIG_NOISE: FigureGrid = figure_grid!("fig_noise");
/// Heterogeneous fabric: one base per heated grid × oblivious/aware.
pub const FIG_HETERO: FigureGrid = figure_grid!("fig_hetero");
/// Multi-tenant saturation: one load block per (partitions, ρ) point.
pub const FIG_LOAD: FigureGrid = figure_grid!("fig_load");
/// Scaling: simultaneous long-range CNOTs up to the address space's
/// top, under both schemes.
pub const FIG_SCALE: FigureGrid = figure_grid!("fig_scale");

impl FigureGrid {
    /// The expanded `--quick` or full grid.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file does not parse; the corpus tests
    /// parse every committed file, so this is a build-time invariant.
    pub fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        let text = if quick { self.quick } else { self.full };
        ScenarioFile::parse(text)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
            .expand(None)
    }

    /// Expands the grid `args` selects and runs it on `args.threads`
    /// workers, reporting progress on stderr. A failing scenario exits
    /// the process with its message.
    pub fn run(&self, args: &FigArgs) -> (Vec<Scenario>, SweepReport) {
        let scenarios = self.scenarios(args.quick);
        eprintln!(
            "[{}] running {} scenarios on {} thread(s)...",
            self.name,
            scenarios.len(),
            args.threads
        );
        let report = run_sweep(&scenarios, args.threads).unwrap_or_else(|e| {
            eprintln!("{}: {e}", self.name);
            std::process::exit(1);
        });
        (scenarios, report)
    }
}
