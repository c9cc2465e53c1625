//! The prediction experiments of Fig. 5 (Yueche) and Fig. 6 (DiDi): effect of
//! the time interval ΔT on Average Precision, the number of assigned tasks
//! (when the predictions feed DTA+TP), training time and testing time, for
//! the LSTM, Graph-WaveNet and DDGNN predictors.

use crate::params::{Dataset, DELTA_T_SWEEP};
use crate::{run_policy, run_prediction, PipelineConfig, PredictionRunSummary, SyntheticTrace};
use datawa_assign::{PolicyKind, StaticForecast};
use datawa_predict::{DdgnnPredictor, DemandPredictor, GraphWaveNetPredictor, LstmPredictor};

/// One row of the Fig. 5/6 series: one model at one ΔT.
#[derive(Debug, Clone)]
pub struct PredictionRow {
    /// Time interval ΔT, in seconds.
    pub delta_t: f64,
    /// The model's prediction run: Average Precision on the test split
    /// (Fig. 5a/6a), training time (Fig. 5c/6c) and testing time
    /// (Fig. 5d/6d).
    pub summary: PredictionRunSummary,
    /// Tasks assigned by DTA+TP when fed this model's predictions
    /// (Fig. 5b/6b).
    pub assigned_tasks: usize,
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
    scale: f64,
    config: &PipelineConfig,
    assign_after_prediction: bool,
) -> Vec<PredictionRow> {
    let mut rows = Vec::new();
    for &delta_t in &DELTA_T_SWEEP {
        let spec = dataset.spec().scaled(scale);
        let trace = SyntheticTrace::generate(spec);
        let mut cfg = *config;
        cfg.delta_t = delta_t;
        let cells = (cfg.grid_cells_per_side * cfg.grid_cells_per_side) as usize;
        for mut model in build_models(cells, cfg.k, spec.seed) {
            let (summary, predicted) = run_prediction(model.as_mut(), &trace, &cfg);
            let assigned_tasks = if assign_after_prediction {
                let mut forecast = StaticForecast::from_slice(&predicted);
                run_policy(&trace, PolicyKind::DtaTp, &mut forecast, None, &cfg).assigned_tasks
            } else {
                0
            };
            rows.push(PredictionRow {
                delta_t,
                summary,
                assigned_tasks,
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
        let rows = prediction_effect_of_delta_t(Dataset::Yueche, 0.005, &config, false);
        // `(ΔT, model, AP bits, assigned)`, the same in debug and release.
        const PINNED: [(f64, &str, u64, usize); 15] = [
            (5.0, "LSTM", 0x3f730d190130d190, 0),
            (5.0, "Graph-Wavenet", 0x3f74560d2d907398, 0),
            (5.0, "DDGNN", 0x3f730d190130d190, 0),
            (6.0, "LSTM", 0x3f76e1f76b4337c7, 0),
            (6.0, "Graph-Wavenet", 0x3f76e1f76b4337c7, 0),
            (6.0, "DDGNN", 0x3f76e1f76b4337c7, 0),
            (7.0, "LSTM", 0x3f7a98ef606a63be, 0),
            (7.0, "Graph-Wavenet", 0x3f783f8417eb1532, 0),
            (7.0, "DDGNN", 0x3f7a98ef606a63be, 0),
            (8.0, "LSTM", 0x3f7e9131abf0b767, 0),
            (8.0, "Graph-Wavenet", 0x3f80c5f116bd3a38, 0),
            (8.0, "DDGNN", 0x3f7e9131abf0b767, 0),
            (9.0, "LSTM", 0x3f8135c81135c811, 0),
            (9.0, "Graph-Wavenet", 0x3f8135c81135c811, 0),
            (9.0, "DDGNN", 0x3f8135c81135c811, 0),
        ];
        let got: Vec<(f64, &str, u64, usize)> = rows
            .iter()
            .map(|r| {
                let ap = r.summary.evaluation.average_precision.to_bits();
                (r.delta_t, r.summary.model.as_str(), ap, r.assigned_tasks)
            })
            .collect();
        assert_eq!(got, PINNED);
        for row in &rows {
            assert!(row.summary.training.train_seconds >= 0.0);
        }
    }
}
