//! # datawa-sim
//!
//! Workload generation and the end-to-end experiment pipeline.
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

pub mod datasets;
pub mod pipeline;

pub use datasets::{SyntheticTrace, TraceSpec};
pub use pipeline::{
    build_series, online_forecaster, prediction_grid, run_policy, run_policy_with_forecast,
    run_prediction, train_tvf_on_prefix, PipelineConfig, PolicyRunSummary, PredictionRunSummary,
};
