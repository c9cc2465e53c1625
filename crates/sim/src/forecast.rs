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

use crate::pipeline::{train_and_evaluate, train_online_forecaster};
use crate::prediction::build_models;
use crate::{PipelineConfig, PredictionRunSummary};
use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, RunOutcome, StaticForecast};
use datawa_core::{BoundingBox, Location, TaskStore, Timestamp};
use datawa_predict::{DdgnnPredictor, OnlineForecaster, SeriesDataset};
use datawa_stream::{builtin_scenarios, run_workload, EngineConfig, ScenarioSpec, Workload};

/// One row of the per-scenario AP report: one predictor on one generator.
#[derive(Debug, Clone)]
pub struct ScenarioPredictionRow {
    /// Scenario generator name.
    pub scenario: String,
    /// The predictor trained on the chronological prefix of the scenario's
    /// own task series and scored on the rest.
    pub summary: PredictionRunSummary,
}

/// One row of the online-vs-blind comparison: the DDGNN-backed online
/// forecaster driving DTA+TP against prediction-blind DTA on one generator.
#[derive(Debug, Clone)]
pub struct ScenarioAssignmentRow {
    /// Scenario generator name.
    pub scenario: String,
    /// Prediction-blind DTA.
    pub blind: RunOutcome,
    /// DTA+TP over the online DDGNN forecaster; its `forecast.refreshes`
    /// counts the re-forecasts made during the run.
    pub online: RunOutcome,
}

/// A scenario's study area.
fn scenario_area(spec: ScenarioSpec) -> BoundingBox {
    BoundingBox::new(
        Location::new(0.0, 0.0),
        Location::new(spec.area_km, spec.area_km),
    )
}

/// The workload's tasks published before `cut`.
fn task_store(workload: &Workload, cut: Timestamp) -> TaskStore {
    let mut store = TaskStore::new();
    for t in workload.tasks.iter().filter(|t| t.publication.0 < cut.0) {
        store.insert(*t);
    }
    store
}

/// Per-scenario AP for all three predictors: each generator's task series is
/// split chronologically at `train_fraction`, every model trains on the
/// prefix and is scored on the suffix — so the drift scenarios test exactly
/// the generalisation-under-shift the DDGNN's dynamic dependency targets.
pub fn scenario_prediction_report(
    spec: ScenarioSpec,
    config: &PipelineConfig,
    train_fraction: f64,
) -> Vec<ScenarioPredictionRow> {
    let grid = config.grid(scenario_area(spec));
    let mut rows = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        let series = SeriesDataset::build(
            &task_store(&workload, Timestamp(f64::INFINITY)),
            &grid,
            config.series_spec(Timestamp(0.0)),
            Timestamp(spec.horizon),
        );
        let (train, test) = series.split(train_fraction);
        for mut model in build_models(grid.cell_count(), config.k, spec.seed) {
            rows.push(ScenarioPredictionRow {
                scenario: scenario.name().to_string(),
                summary: train_and_evaluate(model.as_mut(), &train, &test, &config.training),
            });
        }
    }
    rows
}

/// Builds a DDGNN-backed [`OnlineForecaster`] for one scenario workload:
/// the model trains on the chronological prefix of the scenario's own task
/// series (publication times before `train_fraction · horizon`), then goes
/// live — the session feeds it every arrival and it re-forecasts every
/// `refresh_every` simulated seconds.
pub fn scenario_online_forecaster(
    workload: &Workload,
    spec: ScenarioSpec,
    config: &PipelineConfig,
    train_fraction: f64,
    refresh_every: f64,
) -> OnlineForecaster {
    let cut = Timestamp(spec.horizon * train_fraction);
    let cells = config.grid_cells_per_side * config.grid_cells_per_side;
    let model = DdgnnPredictor::with_defaults(cells as usize, config.k, spec.seed);
    train_online_forecaster(
        Box::new(model),
        scenario_area(spec),
        &task_store(workload, cut),
        Timestamp(0.0)..cut,
        config,
        spec.valid_time,
        refresh_every,
    )
}

/// Online-vs-blind on every generator: DTA+TP over the scenario's trained
/// online DDGNN against prediction-blind DTA, same workload, same engine
/// configuration.
pub fn scenario_online_vs_blind(
    spec: ScenarioSpec,
    config: &PipelineConfig,
    train_fraction: f64,
    refresh_every: f64,
) -> Vec<ScenarioAssignmentRow> {
    let mut rows = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let workload = scenario.generate();
        let engine = EngineConfig::default();

        let blind_runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
        let mut blind_forecast = StaticForecast::default();
        let blind = run_workload(&blind_runner, &workload, &mut blind_forecast, engine);

        let online_runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp);
        let mut forecaster =
            scenario_online_forecaster(&workload, spec, config, train_fraction, refresh_every);
        let online = run_workload(&online_runner, &workload, &mut forecaster, engine);

        rows.push(ScenarioAssignmentRow {
            scenario: scenario.name().to_string(),
            blind: blind.run,
            online: online.run,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    use datawa_predict::TrainingConfig;

    /// The scenario split and refresh cadence `repro forecast-scenarios`
    /// uses.
    const TRAIN_FRACTION: f64 = 0.8;
    const REFRESH_S: f64 = 30.0;

    fn tiny_config() -> PipelineConfig {
        PipelineConfig {
            grid_cells_per_side: 3,
            delta_t: 10.0,
            k: 2,
            history_len: 3,
            prediction_threshold: 0.6,
            training: TrainingConfig {
                epochs: 1,
                learning_rate: 0.02,
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn report_covers_every_scenario_and_model() {
        let spec = ScenarioSpec::small().with_tasks(150).with_workers(10);
        let rows = scenario_prediction_report(spec, &tiny_config(), TRAIN_FRACTION);
        // `(scenario, model, AP bits)`, the same in debug and release.
        const PINNED: [(&str, &str, u64); 12] = [
            ("uniform-baseline", "LSTM", 0x3fbd0bd706181aad),
            ("uniform-baseline", "Graph-Wavenet", 0x3fc099695ee184b7),
            ("uniform-baseline", "DDGNN", 0x3fb6e28438e3f187),
            ("rush-hour-burst", "LSTM", 0x3fcd45ee65c2c856),
            ("rush-hour-burst", "Graph-Wavenet", 0x3fd2670a78a4216f),
            ("rush-hour-burst", "DDGNN", 0x3fb31d99f42134df),
            ("hotspot-drift", "LSTM", 0x3fdd5305452bf843),
            ("hotspot-drift", "Graph-Wavenet", 0x3fdd44cc59cd95af),
            ("hotspot-drift", "DDGNN", 0x3fac33dc44942ca6),
            ("heavy-tailed-churn", "LSTM", 0x3fc1a7937bcf4a9e),
            ("heavy-tailed-churn", "Graph-Wavenet", 0x3fc631f9998b8a9d),
            ("heavy-tailed-churn", "DDGNN", 0x3fc04e03e961d925),
        ];
        let got: Vec<(&str, &str, u64)> = rows
            .iter()
            .map(|r| {
                let ap = r.summary.evaluation.average_precision.to_bits();
                (r.scenario.as_str(), r.summary.model.as_str(), ap)
            })
            .collect();
        assert_eq!(got, PINNED);
        for row in &rows {
            assert!(row.summary.training.train_seconds >= 0.0);
        }
    }

    #[test]
    fn online_forecaster_refreshes_during_a_scenario_run() {
        let spec = ScenarioSpec::small().with_tasks(120).with_workers(8);
        let rows = scenario_online_vs_blind(spec, &tiny_config(), TRAIN_FRACTION, REFRESH_S);
        // `(scenario, blind assigned, online assigned, refreshes)`.
        const PINNED: [(&str, usize, usize, usize); 4] = [
            ("uniform-baseline", 3, 3, 38),
            ("rush-hour-burst", 11, 11, 29),
            ("hotspot-drift", 4, 4, 41),
            ("heavy-tailed-churn", 5, 5, 42),
        ];
        let got: Vec<(&str, usize, usize, usize)> = rows
            .iter()
            .map(|r| {
                let (blind, online) = (&r.blind, &r.online);
                let scenario = r.scenario.as_str();
                (
                    scenario,
                    blind.assigned_tasks,
                    online.assigned_tasks,
                    online.forecast.refreshes,
                )
            })
            .collect();
        assert_eq!(got, PINNED);
    }
}
