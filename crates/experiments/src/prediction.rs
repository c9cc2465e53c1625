//! The prediction experiments of Fig. 5 (Yueche) and Fig. 6 (DiDi): effect of
//! the time interval ΔT on Average Precision, the number of assigned tasks
//! (when the predictions feed DTA+TP), training time and testing time, for
//! the LSTM, Graph-WaveNet and DDGNN predictors.

use crate::params::{Dataset, ExperimentScale, DELTA_T_SWEEP};
use datawa_assign::PolicyKind;
use datawa_predict::{DdgnnPredictor, DemandPredictor, GraphWaveNetPredictor, LstmPredictor};
use datawa_sim::{run_policy, run_prediction, PipelineConfig, SyntheticTrace};

/// One row of the Fig. 5/6 series.
#[derive(Debug, Clone)]
pub struct PredictionRow {
    /// Dataset name.
    pub dataset: String,
    /// Time interval ΔT, in seconds.
    pub delta_t: f64,
    /// Model name.
    pub model: String,
    /// Average Precision on the test split (Fig. 5a/6a).
    pub average_precision: f64,
    /// Tasks assigned by DTA+TP when fed this model's predictions
    /// (Fig. 5b/6b).
    pub assigned_tasks: usize,
    /// Training time, in seconds (Fig. 5c/6c).
    pub train_seconds: f64,
    /// Testing time, in seconds (Fig. 5d/6d).
    pub test_seconds: f64,
}

/// The three evaluated predictors, freshly constructed per configuration
/// (a (ΔT, dataset) pair, or a scenario) so their parameter counts match the
/// series width.
pub(crate) fn build_models(cells: usize, k: usize, seed: u64) -> Vec<Box<dyn DemandPredictor>> {
    vec![
        Box::new(LstmPredictor::new(k, 12, seed)),
        Box::new(GraphWaveNetPredictor::new(cells, k, 12, 8, seed)),
        Box::new(DdgnnPredictor::with_defaults(cells, k, seed)),
    ]
}

/// Runs the ΔT sweep of Fig. 5/6 on one dataset. `assign_after_prediction`
/// controls whether the (expensive) DTA+TP run that produces the
/// "number of assigned tasks" panel is executed; when `false` that column is
/// reported as zero.
pub fn prediction_effect_of_delta_t(
    dataset: Dataset,
    scale: ExperimentScale,
    config: &PipelineConfig,
    assign_after_prediction: bool,
) -> Vec<PredictionRow> {
    let mut rows = Vec::new();
    for &delta_t in &DELTA_T_SWEEP {
        let spec = dataset.spec().scaled(scale.factor);
        let trace = SyntheticTrace::generate(spec);
        let mut cfg = *config;
        cfg.delta_t = delta_t;
        let cells = (cfg.grid_cells_per_side * cfg.grid_cells_per_side) as usize;
        for mut model in build_models(cells, cfg.k, spec.seed) {
            let (summary, predicted) = run_prediction(model.as_mut(), &trace, &cfg);
            let assigned = if assign_after_prediction {
                run_policy(&trace, PolicyKind::DtaTp, &predicted, None, &cfg).assigned_tasks
            } else {
                0
            };
            rows.push(PredictionRow {
                dataset: dataset.name().to_string(),
                delta_t,
                model: summary.model,
                average_precision: summary.average_precision,
                assigned_tasks: assigned,
                train_seconds: summary.train_seconds,
                test_seconds: summary.test_seconds,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_predict::TrainingConfig;

    #[test]
    fn sweep_produces_one_row_per_model_per_delta_t() {
        let config = PipelineConfig {
            grid_cells_per_side: 3,
            k: 2,
            history_len: 3,
            training: TrainingConfig {
                epochs: 1,
                learning_rate: 0.02,
            },
            ..PipelineConfig::default()
        };
        // Tiny scale, skip the assignment pass: this is a structure test.
        let rows = prediction_effect_of_delta_t(
            Dataset::Yueche,
            ExperimentScale::fixed(0.005),
            &config,
            false,
        );
        assert_eq!(rows.len(), DELTA_T_SWEEP.len() * 3);
        for row in &rows {
            assert!(row.average_precision >= 0.0 && row.average_precision <= 1.0);
            assert!(row.train_seconds >= 0.0);
            assert_eq!(row.dataset, "Yueche");
        }
        let models: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(models.len(), 3);
    }
}
