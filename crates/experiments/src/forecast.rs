//! Scenario-conditioned prediction: evaluate the demand predictors against
//! the distribution shift created by the four built-in `datawa-stream`
//! scenario generators, and compare an online-forecast-driven session with
//! the prediction-blind baseline on the same workload.
//!
//! This is the evaluation the ROADMAP's "scenario-conditioned prediction"
//! item asks for: the generators create qualitatively different demand
//! regimes (uniform control, rush-hour bursts, hotspot drift, heavy-tailed
//! churn), and forecast quality under those regimes is exactly what
//! separates the prediction-aware policies from the blind ones.

use crate::prediction::build_models;
use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
use datawa_core::{BoundingBox, Location, TaskStore, Timestamp};
use datawa_geo::{GridSpec, UniformGrid};
use datawa_predict::{
    DdgnnPredictor, DemandPredictor, OnlineForecastConfig, OnlineForecaster, SeriesDataset,
    SeriesSpec, TrainingConfig,
};
use datawa_stream::{
    builtin_scenarios, run_workload_forecast, EngineConfig, ScenarioSpec, Workload,
};

/// Knobs of the scenario-conditioned forecast evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastScenarioConfig {
    /// Grid resolution (rows = cols) of the prediction component.
    pub grid_cells_per_side: u32,
    /// Interval length ΔT of the occurrence series, in seconds.
    pub delta_t: f64,
    /// Buckets per occurrence vector.
    pub k: usize,
    /// History vectors per example.
    pub history_len: usize,
    /// Training hyper-parameters shared by all predictors.
    pub training: TrainingConfig,
    /// Fraction of the horizon used as the training prefix (the remainder
    /// is forecast — chronological, like the paper's 80/20 split).
    pub train_fraction: f64,
    /// Decision threshold for the online forecaster's predicted tasks.
    pub threshold: f64,
    /// Simulated seconds between online re-forecasts.
    pub refresh_every: f64,
}

impl Default for ForecastScenarioConfig {
    fn default() -> ForecastScenarioConfig {
        ForecastScenarioConfig {
            grid_cells_per_side: 4,
            delta_t: 10.0,
            k: 3,
            history_len: 4,
            training: TrainingConfig {
                epochs: 3,
                learning_rate: 0.02,
            },
            train_fraction: 0.8,
            threshold: 0.6,
            refresh_every: 30.0,
        }
    }
}

/// One row of the per-scenario AP report: one predictor on one generator.
#[derive(Debug, Clone)]
pub struct ScenarioPredictionRow {
    /// Scenario generator name.
    pub scenario: String,
    /// Predictor name ("LSTM", "Graph-Wavenet", "DDGNN").
    pub model: String,
    /// Average Precision on the chronological test split of the scenario's
    /// own task series.
    pub average_precision: f64,
    /// Wall-clock training time, in seconds.
    pub train_seconds: f64,
    /// Wall-clock inference time over the test split, in seconds.
    pub test_seconds: f64,
}

/// One row of the online-vs-blind comparison: the DDGNN-backed online
/// forecaster driving DTA+TP against prediction-blind DTA on one generator.
#[derive(Debug, Clone)]
pub struct ScenarioAssignmentRow {
    /// Scenario generator name.
    pub scenario: String,
    /// Tasks assigned by prediction-blind DTA.
    pub blind_assigned: usize,
    /// Tasks assigned by DTA+TP over the online DDGNN forecaster.
    pub online_assigned: usize,
    /// Model re-forecasts the online provider performed during the run.
    pub refreshes: usize,
}

/// The prediction grid over a scenario's study area.
fn scenario_grid(spec: ScenarioSpec, config: &ForecastScenarioConfig) -> UniformGrid {
    let area = BoundingBox::new(
        Location::new(0.0, 0.0),
        Location::new(spec.area_km, spec.area_km),
    );
    let cells = config.grid_cells_per_side;
    UniformGrid::new(GridSpec::new(area, cells, cells))
}

/// The workload's tasks published before `cut`.
fn task_store(workload: &Workload, cut: Timestamp) -> TaskStore {
    let mut store = TaskStore::new();
    for t in workload.tasks.iter().filter(|t| t.publication.0 < cut.0) {
        store.insert(*t);
    }
    store
}

fn series_spec(config: &ForecastScenarioConfig) -> SeriesSpec {
    SeriesSpec::new(Timestamp(0.0), config.delta_t, config.k, config.history_len)
}

/// Per-scenario AP for all three predictors: each generator's task series is
/// split chronologically, every model trains on the prefix and is scored on
/// the suffix — so the drift scenarios test exactly the
/// generalisation-under-shift the DDGNN's dynamic dependency targets.
pub fn scenario_prediction_report(
    spec: ScenarioSpec,
    config: &ForecastScenarioConfig,
) -> Vec<ScenarioPredictionRow> {
    let grid = scenario_grid(spec, config);
    let mut rows = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        let series = SeriesDataset::build(
            &task_store(&workload, Timestamp(f64::INFINITY)),
            &grid,
            series_spec(config),
            Timestamp(spec.horizon),
        );
        let (train, test) = series.split(config.train_fraction);
        for mut model in build_models(grid.cell_count(), config.k, spec.seed) {
            let report = model.train(&train, &config.training);
            let evaluation = model.evaluate(&test);
            rows.push(ScenarioPredictionRow {
                scenario: scenario.name().to_string(),
                model: model.name().to_string(),
                average_precision: evaluation.average_precision,
                train_seconds: report.train_seconds,
                test_seconds: evaluation.test_seconds,
            });
        }
    }
    rows
}

/// Builds a DDGNN-backed [`OnlineForecaster`] for one scenario workload:
/// the model trains on the chronological prefix of the scenario's own task
/// series (publication times before `train_fraction · horizon`), then goes
/// live — the session feeds it every arrival and it re-forecasts on the
/// configured cadence.
pub fn scenario_online_forecaster(
    workload: &Workload,
    spec: ScenarioSpec,
    config: &ForecastScenarioConfig,
) -> OnlineForecaster {
    let grid = scenario_grid(spec, config);
    let cut = Timestamp(spec.horizon * config.train_fraction);
    let prefix = task_store(workload, cut);
    let mut model = DdgnnPredictor::with_defaults(grid.cell_count(), config.k, spec.seed);
    let series = SeriesDataset::build(&prefix, &grid, series_spec(config), cut);
    if !series.is_empty() {
        model.train(&series, &config.training);
    }
    OnlineForecaster::new(
        Box::new(model),
        grid,
        series_spec(config),
        OnlineForecastConfig {
            threshold: config.threshold,
            valid_time: spec.valid_time,
            refresh_every: config.refresh_every,
        },
    )
}

/// Online-vs-blind on every generator: DTA+TP over the scenario's trained
/// online DDGNN against prediction-blind DTA, same workload, same engine
/// configuration.
pub fn scenario_online_vs_blind(
    spec: ScenarioSpec,
    config: &ForecastScenarioConfig,
) -> Vec<ScenarioAssignmentRow> {
    let mut rows = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        let engine = EngineConfig::default();

        let blind_runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
        let mut blind_forecast = StaticForecast::default();
        let blind = run_workload_forecast(&blind_runner, &workload, &mut blind_forecast, engine);

        let online_runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp);
        let mut forecaster = scenario_online_forecaster(&workload, spec, config);
        let online = run_workload_forecast(&online_runner, &workload, &mut forecaster, engine);

        rows.push(ScenarioAssignmentRow {
            scenario: scenario.name().to_string(),
            blind_assigned: blind.run.assigned_tasks,
            online_assigned: online.run.assigned_tasks,
            refreshes: online.run.forecast.refreshes,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ForecastScenarioConfig {
        ForecastScenarioConfig {
            grid_cells_per_side: 3,
            k: 2,
            history_len: 3,
            training: TrainingConfig {
                epochs: 1,
                learning_rate: 0.02,
            },
            ..ForecastScenarioConfig::default()
        }
    }

    #[test]
    fn report_covers_every_scenario_and_model() {
        let spec = ScenarioSpec::small().with_tasks(150).with_workers(10);
        let rows = scenario_prediction_report(spec, &tiny_config());
        assert_eq!(rows.len(), 4 * 3, "4 scenarios × 3 predictors");
        for row in &rows {
            assert!(
                (0.0..=1.0).contains(&row.average_precision),
                "{}/{}: AP out of range",
                row.scenario,
                row.model
            );
            assert!(row.train_seconds >= 0.0);
        }
        let scenarios: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(scenarios.len(), 4);
        let models: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(models.len(), 3);
    }

    #[test]
    fn online_forecaster_refreshes_during_a_scenario_run() {
        let spec = ScenarioSpec::small().with_tasks(120).with_workers(8);
        let rows = scenario_online_vs_blind(spec, &tiny_config());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.refreshes > 0, "{}: no online refresh", row.scenario);
            assert!(row.online_assigned <= 120);
        }
    }
}
