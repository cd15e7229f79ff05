//! # hisq-bench — experiment regeneration for every table and figure
//!
//! Each evaluation artifact of the paper maps to a name of the `figure`
//! binary ([`render::FIGURES`], `figure <name>`) and a data-producing
//! function here (checked by this crate's unit tests):
//!
//! | Paper artifact | Function | `figure` name |
//! |---|---|---|
//! | Table 1 (FPGA resources) | [`resources::table1_report`] | `table1` |
//! | Figure 5 (BISP timing) | [`figures::fig05_report`] | `fig05` |
//! | Figure 6 (sync placement) | [`figures::fig06_report`] | `fig06` |
//! | Figure 7 (non-zero overhead) | [`figures::fig07_report`] | `fig07` |
//! | Figure 11 (calibration) | [`figures::fig11_calibrations`] | `fig11` |
//! | Figures 12/13 (electronics sync) | [`figures::fig13_waveforms`] | `fig13` |
//! | Figure 15 (runtime vs baseline) | [`grids::FIG15`], [`figures::fig15_rows`] | `fig15` |
//! | Figure 16 (infidelity vs T1) | [`grids::FIG16`], [`figures::fig16_points`] | `fig16` |
//! | Link contention (beyond the paper) | [`grids::FIG_CONTENTION`], [`figures::fig_contention_rows`] | `fig_contention` |
//! | Gate noise (beyond the paper) | [`grids::FIG_NOISE`], [`figures::fig_noise_points`] | `fig_noise` |
//! | Heterogeneous fabric (beyond the paper) | [`grids::FIG_HETERO`], [`figures::fig_hetero_points`] | `fig_hetero` |
//! | Multi-tenant saturation (beyond the paper) | [`grids::FIG_LOAD`], [`load::fig_load_points`] | `fig_load` |
//! | Scaling (beyond the paper) | [`grids::FIG_SCALE`], [`figures::fig15_rows`] | `fig_scale` |
//!
//! The seven sweep figures read their grids from committed scenario
//! files (`scenarios/<fig>.json` for `--quick`,
//! `scenarios/full/<fig>.json` otherwise), embedded by [`grids`], and
//! run them on `--threads` workers of the `hisq_sim::sweep` pool; the
//! functions above turn a sweep report back into table rows. Their JSON
//! report is what `hisq run` prints for the same file. The six
//! experiment figures build their reports in order and print them as
//! JSON under `--json`. [`cli`] holds each figure's flags and
//! [`render`] its table.
//!
//! The bench targets `event_engine` and `sweep_throughput` (over
//! [`sweep_throughput::throughput_scenarios`]) share [`gate`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod figures;
pub mod gate;
pub mod grids;
pub mod load;
pub mod render;
pub mod resources;
pub mod sweep_throughput;
