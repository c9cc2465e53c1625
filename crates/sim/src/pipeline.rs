//! End-to-end pipeline: prediction → predicted tasks → TVF training →
//! streaming assignment.
//!
//! This module provides the glue the experiment harness (and the examples)
//! build on: given a [`SyntheticTrace`], it can train any demand predictor on
//! the historical hour, convert confident predictions into predicted tasks,
//! train the Task Value Function on DFSearch samples from a prefix of the
//! trace, and run any of the five assignment policies over the full arrival
//! stream.

use crate::datasets::SyntheticTrace;
use datawa_assign::{
    AdaptiveRunner, AssignConfig, ForecastProvider, Planner, PolicyKind, PredictedTaskInput,
    RunOutcome, SearchMode, TaskValueFunction,
};
use datawa_core::{BoundingBox, Duration, TaskId, TaskStore, Timestamp, WorkerId};
use datawa_geo::{GridSpec, UniformGrid};
use datawa_predict::trainer::TrainingReport;
use datawa_predict::{
    predicted_tasks_from, DemandPredictor, EvaluationReport, OnlineForecastConfig,
    OnlineForecaster, SeriesDataset, SeriesSpec, TrainingConfig,
};
use datawa_stream::{run_workload, EngineConfig};
use serde::Serialize;
use std::ops::Range;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Grid resolution (rows = cols) of the prediction component.
    pub grid_cells_per_side: u32,
    /// Interval length ΔT of the task multivariate time series, in seconds.
    pub delta_t: f64,
    /// Number of ΔT buckets per occurrence vector.
    pub k: usize,
    /// Number of history vectors per prediction example.
    pub history_len: usize,
    /// Decision threshold above which a prediction becomes a predicted task
    /// (0.85 in the paper).
    pub prediction_threshold: f64,
    /// Training hyper-parameters shared by all predictors.
    pub training: TrainingConfig,
    /// Assignment configuration.
    pub assign: AssignConfig,
    /// Re-plan every N arrival events (1 = the paper's setting).
    pub replan_every: usize,
    /// Additionally re-plan every Δt simulated seconds through the session's
    /// replan ticks (`None` = arrival-driven only, the paper's setting).
    pub replan_interval: Option<f64>,
    /// Number of planning instants sampled for TVF training data collection.
    pub tvf_training_instants: usize,
    /// TVF training epochs.
    pub tvf_epochs: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            grid_cells_per_side: 6,
            delta_t: 5.0,
            k: 3,
            history_len: 6,
            prediction_threshold: 0.85,
            training: TrainingConfig {
                epochs: 8,
                learning_rate: 0.02,
            },
            assign: AssignConfig::default(),
            replan_every: 1,
            replan_interval: None,
            tvf_training_instants: 6,
            tvf_epochs: 60,
        }
    }
}

/// Summary of one prediction run (one model on one trace).
#[derive(Debug, Clone, Serialize)]
pub struct PredictionRunSummary {
    /// Model name ("LSTM", "Graph-Wavenet", "DDGNN").
    pub model: String,
    /// Training on the chronological train split: final loss and time.
    pub training: TrainingReport,
    /// Scoring on the test split: Average Precision and inference time.
    pub evaluation: EvaluationReport,
}

impl PipelineConfig {
    /// The prediction grid over `area`.
    pub(crate) fn grid(&self, area: BoundingBox) -> UniformGrid {
        let cells = self.grid_cells_per_side;
        UniformGrid::new(GridSpec::new(area, cells, cells))
    }

    /// The occurrence series layout starting at `start`.
    pub(crate) fn series_spec(&self, start: Timestamp) -> SeriesSpec {
        SeriesSpec::new(start, self.delta_t, self.k, self.history_len)
    }
}

/// Builds the prediction grid for a trace.
pub fn prediction_grid(trace: &SyntheticTrace, config: &PipelineConfig) -> UniformGrid {
    config.grid(trace.area)
}

/// Builds the task multivariate time series dataset covering the historical
/// hour plus the evaluation horizon.
pub fn build_series(trace: &SyntheticTrace, config: &PipelineConfig) -> SeriesDataset {
    let grid = prediction_grid(trace, config);
    let spec = config.series_spec(Timestamp(-trace.spec.history));
    SeriesDataset::build(
        &trace.all_tasks(),
        &grid,
        spec,
        Timestamp(trace.spec.horizon),
    )
}

/// Trains `model` on the chronological 80 % of the series, evaluates AP on the
/// remaining 20 %, and converts every confident test-window prediction into a
/// predicted task for the assignment layer.
pub fn run_prediction(
    model: &mut dyn DemandPredictor,
    trace: &SyntheticTrace,
    config: &PipelineConfig,
) -> (PredictionRunSummary, Vec<PredictedTaskInput>) {
    let grid = prediction_grid(trace, config);
    let series = build_series(trace, config);
    let (train, test) = series.split(0.8);
    let summary = train_and_evaluate(model, &train, &test, &config.training);
    let mut predicted = Vec::new();
    for example in &test.examples {
        let probabilities = model.predict(example);
        let (window_start, _) = test.target_interval(example);
        let tasks = predicted_tasks_from(
            &probabilities,
            &grid,
            &test.spec,
            window_start,
            Duration(trace.spec.valid_time),
            config.prediction_threshold,
        );
        predicted.extend(tasks.into_iter().map(PredictedTaskInput::from));
    }
    (summary, predicted)
}

/// Trains `model` on `train` and scores it on `test`.
pub(crate) fn train_and_evaluate(
    model: &mut dyn DemandPredictor,
    train: &SeriesDataset,
    test: &SeriesDataset,
    training: &TrainingConfig,
) -> PredictionRunSummary {
    PredictionRunSummary {
        model: model.name().to_string(),
        training: model.train(train, training),
        evaluation: model.evaluate(test),
    }
}

/// Collects DFSearch training samples at a handful of planning instants spread
/// over the trace and trains the Task Value Function on them (§IV-B).
pub fn train_tvf_on_prefix(trace: &SyntheticTrace, config: &PipelineConfig) -> TaskValueFunction {
    let mut planner = Planner::new(config.assign, SearchMode::Exact);
    let mut samples = Vec::new();
    let instants = config.tvf_training_instants.max(1);
    for i in 0..instants {
        let now = Timestamp(trace.spec.horizon * (i as f64 + 0.5) / instants as f64);
        let worker_ids: Vec<WorkerId> = trace.workers.available_at(now);
        let task_ids: Vec<TaskId> = trace.tasks.open_at(now);
        if worker_ids.is_empty() || task_ids.is_empty() {
            continue;
        }
        samples.extend(planner.collect_training_samples(
            &worker_ids,
            &task_ids,
            &trace.workers,
            &trace.tasks,
            now,
        ));
    }
    let mut tvf = TaskValueFunction::new(16, trace.spec.seed);
    let tuples: Vec<_> = samples.iter().map(|s| (s.state, s.action, s.opt)).collect();
    tvf.train(&tuples, config.tvf_epochs, 32, 0.01, trace.spec.seed);
    tvf
}

/// Runs one assignment policy over the trace's arrival stream through one
/// `datawa-stream` session ([`run_workload`]), re-planning every
/// [`PipelineConfig::replan_every`] arrivals (and every
/// [`PipelineConfig::replan_interval`] seconds, if set).
///
/// The session routes every replayed arrival into `forecast`, and the
/// prediction-aware policies re-query it at every planning instant: pass a
/// [`StaticForecast`](datawa_assign::StaticForecast) over a precomputed
/// prediction slice, or an [`online_forecaster`] that re-forecasts as the
/// trace streams. `tvf` is required by DATA-WA (trained on the fly via
/// [`train_tvf_on_prefix`] when `None`).
pub fn run_policy(
    trace: &SyntheticTrace,
    policy: PolicyKind,
    forecast: &mut dyn ForecastProvider,
    tvf: Option<TaskValueFunction>,
    config: &PipelineConfig,
) -> RunOutcome {
    let mut runner = AdaptiveRunner::new(config.assign, policy);
    if policy == PolicyKind::DataWa {
        let tvf = tvf.unwrap_or_else(|| train_tvf_on_prefix(trace, config));
        runner = runner.with_tvf(tvf);
    }
    // An FTA worker's fixed plan stays reserved after it leaves: the
    // reported figure numbers have always been measured that way.
    let engine_config = EngineConfig {
        replan_interval: config.replan_interval,
        release_on_offline: false,
        ..EngineConfig::batched(config.replan_every)
    };
    run_workload(&runner, &trace.workload(), forecast, engine_config).run
}

/// Builds an [`OnlineForecaster`] for `trace`: trains `model` on the task
/// series of the historical hour (`[-history, 0)`), then wraps it over the
/// trace's prediction grid, warm-started on the same historical tasks, with
/// the pipeline's threshold, the trace's task valid time and the given
/// refresh cadence (simulated seconds between re-forecasts).
pub fn online_forecaster(
    trace: &SyntheticTrace,
    model: Box<dyn DemandPredictor>,
    config: &PipelineConfig,
    refresh_every: f64,
) -> OnlineForecaster {
    // Train on the historical hour only — the evaluation horizon stays
    // unseen and is forecast online as it streams.
    let history = Timestamp(-trace.spec.history)..Timestamp(0.0);
    let mut forecaster = train_online_forecaster(
        model,
        trace.area,
        &trace.history_tasks,
        history,
        config,
        trace.spec.valid_time,
        refresh_every,
    );
    forecaster.warm_up(&trace.history_tasks);
    forecaster
}

/// The body of every online-forecaster builder: trains `model` on the task
/// series of `prefix` over `window` when that series is non-empty, then wraps
/// it over `config`'s grid on `area`, with the pipeline's threshold, the
/// tasks' `valid_time` and the `refresh_every` cadence (simulated seconds).
pub(crate) fn train_online_forecaster(
    mut model: Box<dyn DemandPredictor>,
    area: BoundingBox,
    prefix: &TaskStore,
    window: Range<Timestamp>,
    config: &PipelineConfig,
    valid_time: f64,
    refresh_every: f64,
) -> OnlineForecaster {
    let grid = config.grid(area);
    let spec = config.series_spec(window.start);
    let series = SeriesDataset::build(prefix, &grid, spec, window.end);
    if !series.is_empty() {
        model.train(&series, &config.training);
    }
    OnlineForecaster::new(
        model,
        grid,
        spec,
        OnlineForecastConfig {
            threshold: config.prediction_threshold,
            valid_time,
            refresh_every,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::TraceSpec;
    use datawa_assign::StaticForecast;
    use datawa_predict::{DdgnnPredictor, LstmPredictor};

    fn tiny_config() -> PipelineConfig {
        PipelineConfig {
            grid_cells_per_side: 3,
            delta_t: 30.0,
            k: 2,
            history_len: 3,
            training: TrainingConfig {
                epochs: 2,
                learning_rate: 0.02,
            },
            replan_every: 4,
            tvf_training_instants: 2,
            tvf_epochs: 10,
            ..PipelineConfig::default()
        }
    }

    fn tiny_trace() -> SyntheticTrace {
        SyntheticTrace::generate(TraceSpec::yueche().scaled(0.01))
    }

    #[test]
    fn series_builder_covers_history_and_horizon() {
        let trace = tiny_trace();
        let config = tiny_config();
        let series = build_series(&trace, &config);
        assert!(!series.is_empty());
        assert_eq!(series.cells, 9);
        assert!(series.positive_rate() > 0.0);
    }

    #[test]
    fn prediction_pipeline_produces_a_summary_and_predicted_tasks() {
        let trace = tiny_trace();
        let config = tiny_config();
        let mut model = DdgnnPredictor::with_defaults(9, config.k, 0);
        let (summary, predicted) = run_prediction(&mut model, &trace, &config);
        assert_eq!(summary.model, "DDGNN");
        let ap = summary.evaluation.average_precision;
        assert!((0.0..=1.0).contains(&ap));
        assert!(summary.training.train_seconds > 0.0);
        for p in &predicted {
            assert!(p.expiration.0 > p.publication.0);
            assert!(trace.area.contains(&p.location));
        }
    }

    #[test]
    fn policy_runs_produce_consistent_summaries() {
        let trace = tiny_trace();
        let config = tiny_config();
        let blind = StaticForecast::default;
        let greedy = run_policy(&trace, PolicyKind::Greedy, &mut blind(), None, &config);
        let dta = run_policy(&trace, PolicyKind::Dta, &mut blind(), None, &config);
        assert_eq!(greedy.events, trace.tasks.len() + trace.workers.len());
        assert!(greedy.assigned_tasks <= trace.tasks.len());
        assert!(dta.assigned_tasks <= trace.tasks.len());
        assert!(
            dta.assigned_tasks >= 1,
            "DTA should serve something on this trace"
        );
    }

    #[test]
    fn engine_replay_matches_the_legacy_driver_exactly() {
        // `(replan_every, policy, assigned_tasks, events)` of the retired
        // synchronous driver, written while it and `run_policy` still ran
        // side by side and agreed: per-arrival re-planning and a coarser
        // batching alike.
        const LEGACY: [(usize, &str, usize, usize); 6] = [
            (1, "Greedy", 4, 117),
            (1, "FTA", 3, 117),
            (1, "DTA", 4, 117),
            (4, "Greedy", 1, 117),
            (4, "FTA", 3, 117),
            (4, "DTA", 1, 117),
        ];
        let trace = tiny_trace();
        let mut rows = Vec::new();
        for replan_every in [1usize, 4] {
            let config = PipelineConfig {
                replan_every,
                ..tiny_config()
            };
            for policy in [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta] {
                let summary = run_policy(
                    &trace,
                    policy,
                    &mut StaticForecast::default(),
                    None,
                    &config,
                );
                rows.push((
                    replan_every,
                    policy.name(),
                    summary.assigned_tasks,
                    summary.events,
                ));
            }
        }
        assert_eq!(rows, LEGACY);
    }

    #[test]
    fn online_forecaster_drives_a_policy_run_and_refreshes_mid_stream() {
        let trace = tiny_trace();
        let config = tiny_config();
        let mut forecaster = online_forecaster(
            &trace,
            Box::new(LstmPredictor::new(config.k, 6, 0)),
            &config,
            120.0,
        );
        let summary = run_policy(&trace, PolicyKind::DtaTp, &mut forecaster, None, &config);
        assert!(summary.assigned_tasks <= trace.tasks.len());
        assert!(
            summary.forecast.refreshes > 1,
            "the online provider must re-forecast as the trace streams \
             (got {} refreshes)",
            summary.forecast.refreshes
        );
        assert_eq!(
            summary.forecast.observed,
            trace.history_tasks.len() + trace.tasks.len(),
            "warm-up plus every replayed arrival reaches the provider"
        );
        // A static run of the same policy observes arrivals but never
        // refreshes.
        let mut blind = StaticForecast::default();
        let static_run = run_policy(&trace, PolicyKind::DtaTp, &mut blind, None, &config);
        assert_eq!(static_run.forecast.refreshes, 0);
    }

    #[test]
    fn data_wa_runs_end_to_end_with_an_internally_trained_tvf() {
        let trace = tiny_trace();
        let config = tiny_config();
        let mut model = LstmPredictor::new(config.k, 6, 0);
        let (_, predicted) = run_prediction(&mut model, &trace, &config);
        let mut forecast = StaticForecast::from_slice(&predicted);
        let summary = run_policy(&trace, PolicyKind::DataWa, &mut forecast, None, &config);
        assert!(summary.assigned_tasks <= trace.tasks.len());
        assert!(summary.mean_planning_seconds >= 0.0);
    }
}
