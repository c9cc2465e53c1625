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
    SearchMode, StaticForecast, TaskValueFunction,
};
use datawa_core::{Duration, TaskId, Timestamp, WorkerId};
use datawa_geo::{GridSpec, UniformGrid};
use datawa_predict::{
    predicted_tasks_from, DemandPredictor, OnlineForecastConfig, OnlineForecaster, SeriesDataset,
    SeriesSpec, TrainingConfig,
};
use datawa_stream::{EngineConfig, NullSink, Session};
use serde::Serialize;

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
    /// Average Precision on the chronological 20 % test split.
    pub average_precision: f64,
    /// Wall-clock training time, in seconds.
    pub train_seconds: f64,
    /// Wall-clock inference time over the test split, in seconds.
    pub test_seconds: f64,
    /// Final training loss (BCE).
    pub final_loss: f64,
    /// Number of predicted tasks emitted above the threshold.
    pub predicted_tasks: usize,
}

/// Summary of one assignment run (one policy on one trace).
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRunSummary {
    /// Policy name ("Greedy", "FTA", "DTA", "DTA+TP", "DATA-WA").
    pub policy: String,
    /// Total number of assigned (served) tasks.
    pub assigned_tasks: usize,
    /// Mean planning CPU time per time instance, in seconds.
    pub mean_cpu_seconds: f64,
    /// Total planning CPU time, in seconds.
    pub total_cpu_seconds: f64,
    /// Number of arrival events processed.
    pub events: usize,
    /// Model re-forecasts performed by the run's forecast provider (0 for
    /// the static oracle and the prediction-blind policies).
    pub forecast_refreshes: usize,
    /// Arrivals observed by the forecast provider.
    pub forecast_observed: usize,
}

/// Builds the prediction grid for a trace.
pub fn prediction_grid(trace: &SyntheticTrace, config: &PipelineConfig) -> UniformGrid {
    UniformGrid::new(GridSpec::new(
        trace.area,
        config.grid_cells_per_side,
        config.grid_cells_per_side,
    ))
}

/// Builds the task multivariate time series dataset covering the historical
/// hour plus the evaluation horizon.
pub fn build_series(trace: &SyntheticTrace, config: &PipelineConfig) -> SeriesDataset {
    let grid = prediction_grid(trace, config);
    let spec = SeriesSpec::new(
        Timestamp(-trace.spec.history),
        config.delta_t,
        config.k,
        config.history_len,
    );
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
    let report = model.train(&train, &config.training);
    let evaluation = model.evaluate(&test);
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
    (
        PredictionRunSummary {
            model: model.name().to_string(),
            average_precision: evaluation.average_precision,
            train_seconds: report.train_seconds,
            test_seconds: evaluation.test_seconds,
            final_loss: report.final_loss,
            predicted_tasks: predicted.len(),
        },
        predicted,
    )
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

fn build_runner(
    trace: &SyntheticTrace,
    policy: PolicyKind,
    tvf: Option<TaskValueFunction>,
    config: &PipelineConfig,
) -> AdaptiveRunner {
    let mut runner = AdaptiveRunner::new(config.assign, policy);
    if policy == PolicyKind::DataWa {
        let tvf = tvf.unwrap_or_else(|| train_tvf_on_prefix(trace, config));
        runner = runner.with_tvf(tvf);
    }
    runner
}

fn summarize(policy: PolicyKind, outcome: &datawa_assign::RunOutcome) -> PolicyRunSummary {
    PolicyRunSummary {
        policy: policy.name().to_string(),
        assigned_tasks: outcome.assigned_tasks,
        mean_cpu_seconds: outcome.mean_planning_seconds,
        total_cpu_seconds: outcome.total_planning_seconds,
        events: outcome.events,
        forecast_refreshes: outcome.forecast.refreshes,
        forecast_observed: outcome.forecast.observed,
    }
}

/// Runs one assignment policy over the trace's arrival stream through the
/// `datawa-stream` session API — re-planning every
/// [`PipelineConfig::replan_every`] arrivals (and every
/// [`PipelineConfig::replan_interval`] seconds, if set): open a session,
/// ingest the whole replay workload, drain.
///
/// `predicted` is only consulted by the prediction-aware policies; `tvf` is
/// required by DATA-WA (trained on the fly via [`train_tvf_on_prefix`] when
/// `None`).
pub fn run_policy(
    trace: &SyntheticTrace,
    policy: PolicyKind,
    predicted: &[PredictedTaskInput],
    tvf: Option<TaskValueFunction>,
    config: &PipelineConfig,
) -> PolicyRunSummary {
    let mut forecast = StaticForecast::from_slice(predicted);
    run_policy_with_forecast(trace, policy, &mut forecast, tvf, config)
}

/// [`run_policy`] over a live [`ForecastProvider`] instead of a fixed
/// prediction slice: the session routes every replayed arrival into
/// `forecast` and the prediction-aware policies re-query it at every
/// planning instant. Pair with [`online_forecaster`] to drive DTA+TP /
/// DATA-WA from a model that re-forecasts as the trace streams.
pub fn run_policy_with_forecast(
    trace: &SyntheticTrace,
    policy: PolicyKind,
    forecast: &mut dyn ForecastProvider,
    tvf: Option<TaskValueFunction>,
    config: &PipelineConfig,
) -> PolicyRunSummary {
    let runner = build_runner(trace, policy, tvf, config);
    // An FTA worker's fixed plan stays reserved after it leaves: the
    // reported figure numbers have always been measured that way.
    let engine_config = EngineConfig {
        replan_interval: config.replan_interval,
        release_on_offline: false,
        ..EngineConfig::batched(config.replan_every)
    };
    let mut session = Session::open(&runner, forecast, engine_config);
    session
        .ingest_workload(&trace.workload())
        .expect("replay workloads carry finite times");
    let outcome = session.close(&mut NullSink);
    summarize(policy, &outcome.run)
}

/// Builds an [`OnlineForecaster`] for `trace`: trains `model` on the task
/// series of the historical hour (`[-history, 0)`), then wraps it over the
/// trace's prediction grid, warm-started on the same historical tasks, with
/// the pipeline's threshold, the trace's task valid time and the given
/// refresh cadence (simulated seconds between re-forecasts).
pub fn online_forecaster(
    trace: &SyntheticTrace,
    mut model: Box<dyn DemandPredictor>,
    config: &PipelineConfig,
    refresh_every: f64,
) -> OnlineForecaster {
    let grid = prediction_grid(trace, config);
    let spec = SeriesSpec::new(
        Timestamp(-trace.spec.history),
        config.delta_t,
        config.k,
        config.history_len,
    );
    // Train on the historical hour only — the evaluation horizon stays
    // unseen and is forecast online as it streams.
    let history_series = SeriesDataset::build(&trace.history_tasks, &grid, spec, Timestamp(0.0));
    if !history_series.is_empty() {
        model.train(&history_series, &config.training);
    }
    let mut forecaster = OnlineForecaster::new(
        model,
        grid,
        spec,
        OnlineForecastConfig {
            threshold: config.prediction_threshold,
            valid_time: trace.spec.valid_time,
            refresh_every,
        },
    );
    forecaster.warm_up(&trace.history_tasks);
    forecaster
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::TraceSpec;
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
        assert!(summary.average_precision >= 0.0 && summary.average_precision <= 1.0);
        assert!(summary.train_seconds > 0.0);
        assert_eq!(summary.predicted_tasks, predicted.len());
        for p in &predicted {
            assert!(p.expiration.0 > p.publication.0);
            assert!(trace.area.contains(&p.location));
        }
    }

    #[test]
    fn policy_runs_produce_consistent_summaries() {
        let trace = tiny_trace();
        let config = tiny_config();
        let greedy = run_policy(&trace, PolicyKind::Greedy, &[], None, &config);
        let dta = run_policy(&trace, PolicyKind::Dta, &[], None, &config);
        assert_eq!(greedy.events, trace.tasks.len() + trace.workers.len());
        assert!(greedy.assigned_tasks <= trace.tasks.len());
        assert!(dta.assigned_tasks <= trace.tasks.len());
        assert!(
            dta.assigned_tasks >= 1,
            "DTA should serve something on this trace"
        );
        assert_eq!(dta.policy, "DTA");
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
                let summary = run_policy(&trace, policy, &[], None, &config);
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
        let summary =
            run_policy_with_forecast(&trace, PolicyKind::DtaTp, &mut forecaster, None, &config);
        assert_eq!(summary.policy, "DTA+TP");
        assert!(summary.assigned_tasks <= trace.tasks.len());
        assert!(
            summary.forecast_refreshes > 1,
            "the online provider must re-forecast as the trace streams \
             (got {} refreshes)",
            summary.forecast_refreshes
        );
        assert_eq!(
            summary.forecast_observed,
            trace.history_tasks.len() + trace.tasks.len(),
            "warm-up plus every replayed arrival reaches the provider"
        );
        // A static run of the same policy observes arrivals but never
        // refreshes.
        let static_run = run_policy(&trace, PolicyKind::DtaTp, &[], None, &config);
        assert_eq!(static_run.forecast_refreshes, 0);
    }

    #[test]
    fn data_wa_runs_end_to_end_with_an_internally_trained_tvf() {
        let trace = tiny_trace();
        let config = tiny_config();
        let mut model = LstmPredictor::new(config.k, 6, 0);
        let (_, predicted) = run_prediction(&mut model, &trace, &config);
        let summary = run_policy(&trace, PolicyKind::DataWa, &predicted, None, &config);
        assert_eq!(summary.policy, "DATA-WA");
        assert!(summary.assigned_tasks <= trace.tasks.len());
        assert!(summary.mean_cpu_seconds >= 0.0);
    }
}
