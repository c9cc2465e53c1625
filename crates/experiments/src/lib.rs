//! # datawa-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V). Each binary under `src/bin/` prints the same rows
//! or series the paper reports; this library holds the shared sweep logic.
//!
//! Run, for example:
//!
//! ```text
//! cargo run --release -p datawa-experiments --bin fig7_tasks
//! DATAWA_SCALE=0.1 cargo run --release -p datawa-experiments --bin fig8_workers
//! ```
//!
//! The `DATAWA_SCALE` environment variable scales the synthetic trace sizes
//! (1.0 = the full Table II sizes); the default keeps every binary laptop-
//! friendly while preserving the worker-to-task ratio and therefore the
//! relative ordering of the methods.

pub mod assignment;
pub mod forecast;
pub mod params;
pub mod prediction;
pub mod report;

pub use assignment::{assignment_sweep, AssignmentRow, SweepAxis};
pub use forecast::{
    scenario_online_forecaster, scenario_online_vs_blind, scenario_prediction_report,
    ForecastScenarioConfig, ScenarioAssignmentRow, ScenarioPredictionRow,
};
pub use params::{Dataset, ExperimentScale};
pub use prediction::{prediction_effect_of_delta_t, PredictionRow};
pub use report::{format_table, Table};
