//! # hisq-bench — experiment regeneration for every table and figure
//!
//! Each evaluation artifact of the paper maps to a binary in `src/bin/`
//! and a data-producing function here (checked by this crate's unit
//! tests):
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table 1 (FPGA resources) | [`resources::board_resources`] | `table1` |
//! | Figure 5 (BISP timing) | [`figures::fig05_nearby`], [`figures::fig05_remote`] | `fig05` |
//! | Figure 6 (sync placement) | [`figures::fig06_listing`] | `fig06` |
//! | Figure 7 (non-zero overhead) | [`figures::fig07_overhead`] | `fig07` |
//! | Figure 11 (calibration) | `hisq_analog::experiments` | `fig11` |
//! | Figures 12/13 (electronics sync) | [`figures::fig13_waveforms`] | `fig13` |
//! | Figure 15 (runtime vs baseline) | [`grids::FIG15`], [`figures::fig15_rows`] | `fig15` |
//! | Figure 16 (infidelity vs T1) | [`grids::FIG16`], [`figures::fig16_points`] | `fig16` |
//! | Link contention (beyond the paper) | [`grids::FIG_CONTENTION`], [`figures::fig_contention_rows`] | `fig_contention` |
//! | Gate noise (beyond the paper) | [`grids::FIG_NOISE`], [`figures::fig_noise_points`] | `fig_noise` |
//! | Heterogeneous fabric (beyond the paper) | [`grids::FIG_HETERO`], [`figures::fig_hetero_points`] | `fig_hetero` |
//! | Multi-tenant saturation (beyond the paper) | [`grids::FIG_LOAD`], [`load::fig_load_points`] | `fig_load` |
//! | Scaling (beyond the paper) | [`grids::FIG_SCALE`], [`figures::fig15_rows`] | `fig_scale` |
//! | Sweep throughput (beyond the paper) | [`sweep_throughput::throughput_scenarios`] | `fig_sweep_throughput` |
//!
//! The seven scenario-driven figures read their grids from committed
//! scenario files (`scenarios/<fig>.json` for `--quick`,
//! `scenarios/full/<fig>.json` otherwise), embedded by [`grids`]; the
//! functions above turn a sweep report back into table rows.
//!
//! Every binary shares the [`cli::FigArgs`] flag surface
//! (`--threads N`, `--json`, `--quick`); the scenario-driven harnesses
//! fan their grids out over the `hisq_sim::sweep` worker pool.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod figures;
pub mod grids;
pub mod load;
pub mod resources;
pub mod sweep_throughput;
