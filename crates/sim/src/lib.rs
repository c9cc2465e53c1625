//! # datawa-sim
//!
//! Workload generation, the end-to-end experiment pipeline and the `repro`
//! experiments that regenerate the paper's evaluation (§V).
//!
//! The paper evaluates on two proprietary ride-hailing traces (Yueche and
//! DiDi, Chengdu, 2016-11-01). Those traces are not redistributable, so this
//! crate generates synthetic traces that reproduce the published marginals
//! (worker/task counts, two-hour horizon, spatial hotspot clustering, temporal
//! demand waves) — see DESIGN.md for the substitution rationale. The
//! [`TraceSpec::yueche`] and [`TraceSpec::didi`] presets match Table II.
//!
//! On top of the generator, [`pipeline`] wires prediction and assignment
//! together: build the task multivariate time series, train a demand
//! predictor, convert its confident predictions into predicted tasks, train
//! the task value function on DFSearch samples and run any of the five
//! assignment policies over the streaming trace.
//!
//! The `repro` binary prints, per subcommand ([`Experiment`]), the same rows
//! or series the paper reports; [`prediction`], [`assignment`] and
//! [`forecast`] hold the sweeps behind them. Run, for example:
//!
//! ```text
//! cargo run --release -p datawa-sim --bin repro -- fig7
//! cargo run --release -p datawa-sim --bin repro -- fig8 --scale 0.1 --epochs 2
//! ```
//!
//! `--scale` scales the synthetic trace sizes (1 = the full Table II sizes);
//! the default keeps every subcommand laptop-friendly while preserving the
//! worker-to-task ratio and therefore the relative ordering of the methods.
//! `--epochs` sets the predictors' training epochs ([`ExperimentArgs`]).

pub mod assignment;
pub mod datasets;
pub mod forecast;
pub mod params;
pub mod pipeline;
pub mod prediction;
pub mod report;

pub use assignment::{assignment_sweep, AssignmentRow, SweepAxis};
pub use datasets::{SyntheticTrace, TraceSpec};
pub use forecast::{
    scenario_online_forecaster, scenario_online_vs_blind, scenario_prediction_report,
    ScenarioAssignmentRow, ScenarioPredictionRow,
};
pub use params::{Dataset, Experiment, ExperimentArgs};
pub use pipeline::{
    build_series, online_forecaster, prediction_grid, run_policy, run_prediction,
    train_tvf_on_prefix, PipelineConfig, PredictionRunSummary,
};
pub use prediction::{prediction_effect_of_delta_t, PredictionRow};
pub use report::{format_table, Table};
