//! The assignment experiments of Fig. 7–11: the number of assigned tasks and
//! the CPU time per time instance for the five methods (Greedy, FTA, DTA,
//! DTA+TP, DATA-WA) while sweeping |S|, |W|, the reachable distance `d`, the
//! availability window `off − on` and the task valid time `e − p`.
//!
//! Every run is one `datawa-stream` session over the trace (through
//! `datawa_sim::run_policy`), re-planning at every arrival as the paper does
//! (`PipelineConfig::replan_every` and `replan_interval` select event- or
//! time-batched re-planning for a caller that builds its own config).

use crate::params::{Dataset, ExperimentScale};
use datawa_assign::PolicyKind;
use datawa_predict::DdgnnPredictor;
use datawa_sim::{
    run_policy, run_prediction, train_tvf_on_prefix, PipelineConfig, SyntheticTrace, TraceSpec,
};

/// The sweep axis of one assignment experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Fig. 7: number of tasks |S| (raw Table III values; the experiment scale
    /// is applied on top).
    Tasks(Vec<usize>),
    /// Fig. 8: number of workers |W|.
    Workers(Vec<usize>),
    /// Fig. 9: reachable distance of workers, in kilometres.
    ReachableDistance(Vec<f64>),
    /// Fig. 10: availability window length, in hours.
    AvailableTime(Vec<f64>),
    /// Fig. 11: task valid time, in seconds.
    ValidTime(Vec<f64>),
}

impl SweepAxis {
    /// Axis label used in the output tables.
    pub fn label(&self) -> &'static str {
        match self {
            SweepAxis::Tasks(_) => "|S|",
            SweepAxis::Workers(_) => "|W|",
            SweepAxis::ReachableDistance(_) => "d (km)",
            SweepAxis::AvailableTime(_) => "off-on (h)",
            SweepAxis::ValidTime(_) => "e-p (s)",
        }
    }

    /// The values swept (as display strings) paired with the trace spec they
    /// induce.
    fn instantiate(&self, base: TraceSpec, scale: ExperimentScale) -> Vec<(String, TraceSpec)> {
        match self {
            SweepAxis::Tasks(values) => values
                .iter()
                .map(|&v| (v.to_string(), base.with_tasks(scale.apply(v))))
                .collect(),
            SweepAxis::Workers(values) => values
                .iter()
                .map(|&v| (v.to_string(), base.with_workers(scale.apply(v))))
                .collect(),
            SweepAxis::ReachableDistance(values) => values
                .iter()
                .map(|&v| (format!("{v}"), base.with_reachable_distance(v)))
                .collect(),
            SweepAxis::AvailableTime(values) => values
                .iter()
                .map(|&v| (format!("{v}"), base.with_available_hours(v)))
                .collect(),
            SweepAxis::ValidTime(values) => values
                .iter()
                .map(|&v| (format!("{v}"), base.with_valid_time(v)))
                .collect(),
        }
    }
}

/// One row of a Fig. 7–11 series: one policy at one sweep value.
#[derive(Debug, Clone)]
pub struct AssignmentRow {
    /// Dataset name.
    pub dataset: String,
    /// Sweep axis label.
    pub axis: String,
    /// Sweep value (display form, e.g. "9000" or "0.5").
    pub value: String,
    /// Policy name.
    pub policy: String,
    /// Number of assigned tasks.
    pub assigned_tasks: usize,
    /// Mean planning CPU time per time instance, in seconds.
    pub cpu_seconds: f64,
    /// Arrival events processed by the engine for this run.
    pub events: usize,
}

/// Runs one assignment sweep (one of Fig. 7–11) on one dataset for all five
/// policies, applying the experiment scale to keep runtimes tractable.
pub fn assignment_sweep(
    dataset: Dataset,
    axis: SweepAxis,
    scale: ExperimentScale,
    config: &PipelineConfig,
) -> Vec<AssignmentRow> {
    let base = dataset.spec().scaled(scale.factor);
    let mut rows = Vec::new();
    for (value, spec) in axis.instantiate(base, scale) {
        let trace = SyntheticTrace::generate(spec);
        // Shared prediction for the prediction-aware policies: the proposed
        // DDGNN, as in the paper's end-to-end configuration.
        let cells = (config.grid_cells_per_side * config.grid_cells_per_side) as usize;
        let mut predictor = DdgnnPredictor::with_defaults(cells, config.k, spec.seed);
        let (_, predicted) = run_prediction(&mut predictor, &trace, config);
        for policy in PolicyKind::all() {
            let predictions: &[_] = if policy.uses_prediction() {
                &predicted
            } else {
                &[]
            };
            // DATA-WA trains its TVF on DFSearch samples from this trace.
            let tvf_for_run = if policy == PolicyKind::DataWa {
                Some(train_tvf_on_prefix(&trace, config))
            } else {
                None
            };
            let summary = run_policy(&trace, policy, predictions, tvf_for_run, config);
            rows.push(AssignmentRow {
                dataset: dataset.name().to_string(),
                axis: axis.label().to_string(),
                value: value.clone(),
                policy: summary.policy,
                assigned_tasks: summary.assigned_tasks,
                cpu_seconds: summary.mean_cpu_seconds,
                events: summary.events,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_predict::TrainingConfig;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            grid_cells_per_side: 3,
            k: 2,
            history_len: 3,
            training: TrainingConfig {
                epochs: 1,
                learning_rate: 0.02,
            },
            replan_every: 4,
            tvf_training_instants: 2,
            tvf_epochs: 5,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn sweep_produces_all_policy_rows_and_expected_ordering_signals() {
        let rows = assignment_sweep(
            Dataset::Yueche,
            SweepAxis::Workers(vec![200, 600]),
            ExperimentScale::fixed(0.01),
            &fast_config(),
        );
        // 2 sweep values × 5 policies.
        assert_eq!(rows.len(), 10);
        let policies: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(policies.len(), 5);
        // More workers must not assign fewer tasks for the adaptive methods.
        let assigned = |value: &str, policy: &str| {
            rows.iter()
                .find(|r| r.value == value && r.policy == policy)
                .map(|r| r.assigned_tasks)
                .unwrap()
        };
        assert!(assigned("600", "DTA") >= assigned("200", "DTA"));
        for r in &rows {
            assert!(r.cpu_seconds >= 0.0);
            assert_eq!(r.axis, "|W|");
        }
    }
}
