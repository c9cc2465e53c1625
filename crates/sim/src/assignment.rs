//! The assignment experiments of Fig. 7–11: the number of assigned tasks and
//! the CPU time per time instance for the five methods (Greedy, FTA, DTA,
//! DTA+TP, DATA-WA) while sweeping |S|, |W|, the reachable distance `d`, the
//! availability window `off − on` and the task valid time `e − p`.
//!
//! Every run is one `datawa-stream` session over the trace (through
//! [`run_policy`]), re-planning at every arrival as the paper does
//! (`PipelineConfig::replan_every` and `replan_interval` select event- or
//! time-batched re-planning for a caller that builds its own config).

use crate::params::Dataset;
use crate::{
    run_policy, run_prediction, train_tvf_on_prefix, PipelineConfig, SyntheticTrace, TraceSpec,
};
use datawa_assign::{PolicyKind, RunOutcome, StaticForecast};
use datawa_predict::DdgnnPredictor;

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
    /// The values swept (as display strings) paired with the trace spec they
    /// induce.
    fn instantiate(&self, base: TraceSpec) -> Vec<(String, TraceSpec)> {
        match self {
            SweepAxis::Tasks(values) => values
                .iter()
                .map(|&v| (v.to_string(), base.with_tasks(v)))
                .collect(),
            SweepAxis::Workers(values) => values
                .iter()
                .map(|&v| (v.to_string(), base.with_workers(v)))
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
    /// Sweep value (display form, e.g. "9000" or "0.5").
    pub value: String,
    /// The policy run.
    pub policy: PolicyKind,
    /// Its outcome: assigned tasks, mean planning CPU time per time
    /// instance and the arrival events the engine processed.
    pub run: RunOutcome,
}

/// Runs one assignment sweep (one of Fig. 7–11) on one dataset for all five
/// policies, applying the experiment scale to keep runtimes tractable.
pub fn assignment_sweep(
    dataset: Dataset,
    axis: SweepAxis,
    scale: f64,
    config: &PipelineConfig,
) -> Vec<AssignmentRow> {
    let mut rows = Vec::new();
    for (value, spec) in axis.instantiate(dataset.spec()) {
        let spec = spec.scaled(scale);
        let trace = SyntheticTrace::generate(spec);
        // Shared prediction for the prediction-aware policies: the proposed
        // DDGNN, as in the paper's end-to-end configuration.
        let cells = (config.grid_cells_per_side * config.grid_cells_per_side) as usize;
        let mut predictor = DdgnnPredictor::with_defaults(cells, config.k, spec.seed);
        let (_, predicted) = run_prediction(&mut predictor, &trace, config);
        for policy in PolicyKind::all() {
            let mut forecast = if policy.uses_prediction() {
                StaticForecast::from_slice(&predicted)
            } else {
                StaticForecast::default()
            };
            // DATA-WA trains its TVF on DFSearch samples from this trace.
            let tvf_for_run = if policy == PolicyKind::DataWa {
                Some(train_tvf_on_prefix(&trace, config))
            } else {
                None
            };
            rows.push(AssignmentRow {
                value: value.clone(),
                policy,
                run: run_policy(&trace, policy, &mut forecast, tvf_for_run, config),
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
            0.01,
            &fast_config(),
        );
        // `(|W|, policy, assigned, events)`: 2 sweep values × 5 policies.
        const PINNED: [(&str, &str, usize, usize); 10] = [
            ("200", "Greedy", 1, 113),
            ("200", "FTA", 2, 113),
            ("200", "DTA", 1, 113),
            ("200", "DTA+TP", 1, 113),
            ("200", "DATA-WA", 1, 113),
            ("600", "Greedy", 1, 117),
            ("600", "FTA", 3, 117),
            ("600", "DTA", 1, 117),
            ("600", "DTA+TP", 1, 117),
            ("600", "DATA-WA", 1, 117),
        ];
        let got: Vec<(&str, &str, usize, usize)> = rows
            .iter()
            .map(|r| {
                let (value, policy) = (r.value.as_str(), r.policy.name());
                (value, policy, r.run.assigned_tasks, r.run.events)
            })
            .collect();
        assert_eq!(got, PINNED);
        for r in &rows {
            assert!(r.run.mean_planning_seconds >= 0.0);
        }
    }
}
