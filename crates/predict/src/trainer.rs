//! Shared training and evaluation harness for the demand predictors.

use crate::metrics::average_precision;
use crate::series::{SeriesDataset, SeriesExample};
use datawa_tensor::optim::Adam;
use datawa_tensor::{Matrix, Var};
use std::time::Instant;

/// Hyper-parameters of the shared training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 20,
            learning_rate: 0.01,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingReport {
    /// Mean binary-cross-entropy of the last epoch.
    pub final_loss: f64,
    /// Wall-clock training time, in seconds.
    pub train_seconds: f64,
    /// Epochs actually run.
    pub epochs: usize,
}

/// Outcome of an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationReport {
    /// Average Precision over every (cell, bucket) decision in the test set.
    pub average_precision: f64,
    /// Wall-clock inference time for the whole test set, in seconds.
    pub test_seconds: f64,
    /// Number of test examples evaluated.
    pub examples: usize,
}

/// A task-demand predictor: given the recent history of every grid cell, it
/// outputs the probability that at least one task will be published in each
/// cell during each ΔT bucket of the next window.
pub trait DemandPredictor {
    /// Human-readable name used in experiment output ("LSTM", "Graph-Wavenet",
    /// "DDGNN").
    fn name(&self) -> &'static str;

    /// All trainable parameters.
    fn parameters(&self) -> Vec<Var>;

    /// Forward pass producing an `(M, k)` probability node.
    fn forward(&self, example: &SeriesExample) -> Var;

    /// Forward pass returning raw probabilities. Models may override this
    /// with an inference-only path that skips the autograd graph; it must
    /// return exactly `forward(example).value()`.
    fn predict(&self, example: &SeriesExample) -> Matrix {
        self.forward(example).value()
    }

    /// One step of a live rollout: `recent` holds the last `P` occurrence
    /// (or fed-back probability) windows, oldest first, each `(M, k)`; the
    /// probabilities of the next window are written into `out`, also
    /// `(M, k)`. Must equal [`DemandPredictor::predict`] on the example
    /// those windows unfold into ([`SeriesExample::from_windows`]) — which
    /// is what the default does; a model that can read the windows directly
    /// overrides it.
    fn predict_next(&self, recent: &[Matrix], out: &mut Matrix) {
        *out = self.predict(&SeriesExample::from_windows(recent));
    }

    /// Trains the model on `dataset` with binary cross-entropy and Adam.
    fn train(&mut self, dataset: &SeriesDataset, config: &TrainingConfig) -> TrainingReport {
        // Offline training: timing feeds TrainingReport::train_seconds, never
        // model state.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut optimizer = Adam::new(config.learning_rate, self.parameters());
        let mut final_loss = 0.0;
        for _ in 0..config.epochs {
            let mut epoch_loss = 0.0;
            for example in &dataset.examples {
                optimizer.zero_grad();
                let pred = self.forward(example);
                let loss = pred.bce_loss(&example.target);
                epoch_loss += loss.value().get(0, 0);
                loss.backward();
                optimizer.step();
            }
            final_loss = if dataset.examples.is_empty() {
                0.0
            } else {
                epoch_loss / dataset.examples.len() as f64
            };
        }
        TrainingReport {
            final_loss,
            train_seconds: start.elapsed().as_secs_f64(),
            epochs: config.epochs,
        }
    }

    /// Evaluates Average Precision over a held-out dataset, also timing the
    /// inference passes (the paper's "testing time").
    fn evaluate(&self, dataset: &SeriesDataset) -> EvaluationReport {
        // Offline evaluation: reproduces the paper's "testing time" metric
        // only.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for example in &dataset.examples {
            let pred = self.predict(example);
            scores.extend_from_slice(pred.data());
            labels.extend_from_slice(example.target.data());
        }
        let test_seconds = start.elapsed().as_secs_f64();
        EvaluationReport {
            average_precision: average_precision(&scores, &labels),
            test_seconds,
            examples: dataset.examples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesSpec;
    use datawa_core::Timestamp;

    /// A trivial predictor that always outputs 0.5 — used to exercise the
    /// default `train`/`evaluate` plumbing without a real model.
    struct ConstantPredictor {
        bias: Var,
        cells: usize,
        k: usize,
    }

    impl DemandPredictor for ConstantPredictor {
        fn name(&self) -> &'static str {
            "Constant"
        }
        fn parameters(&self) -> Vec<Var> {
            vec![self.bias.clone()]
        }
        fn forward(&self, _example: &SeriesExample) -> Var {
            // broadcast the scalar bias into an (M, k) matrix through autograd
            let ones = Var::constant(Matrix::filled(self.cells, self.k, 1.0));
            ones.matmul(&self.bias).sigmoid()
        }
    }

    fn tiny_dataset() -> SeriesDataset {
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, 2, 2);
        let mut examples = Vec::new();
        for i in 0..6 {
            let target = if i % 2 == 0 {
                Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]])
            } else {
                Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 0.0]])
            };
            examples.push(SeriesExample {
                history: vec![Matrix::zeros(2, 2); 2],
                snapshot: Matrix::zeros(2, 2),
                target,
                target_window: i + 2,
            });
        }
        SeriesDataset {
            spec,
            cells: 2,
            examples,
        }
    }

    #[test]
    fn default_training_loop_reduces_loss() {
        let ds = tiny_dataset();
        // All-ones targets only: a biased constant model can fit them.
        let ds_pos = SeriesDataset {
            spec: ds.spec,
            cells: ds.cells,
            examples: ds
                .examples
                .iter()
                .filter(|e| e.target.sum() > 0.0)
                .cloned()
                .collect(),
        };
        let mut model = ConstantPredictor {
            bias: Var::parameter(Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 0.0]])),
            cells: 2,
            k: 2,
        };
        let before = model
            .forward(&ds_pos.examples[0])
            .bce_loss(&ds_pos.examples[0].target)
            .value()
            .get(0, 0);
        let report = model.train(
            &ds_pos,
            &TrainingConfig {
                epochs: 50,
                learning_rate: 0.1,
            },
        );
        assert!(
            report.final_loss < before,
            "training did not reduce the loss"
        );
        assert!(report.train_seconds >= 0.0);
        assert_eq!(report.epochs, 50);
    }

    #[test]
    fn evaluation_reports_ap_and_counts() {
        let ds = tiny_dataset();
        let model = ConstantPredictor {
            bias: Var::parameter(Matrix::zeros(2, 2)),
            cells: 2,
            k: 2,
        };
        let eval = model.evaluate(&ds);
        assert_eq!(eval.examples, 6);
        assert!(eval.average_precision > 0.0 && eval.average_precision <= 1.0);
        assert_eq!(model.name(), "Constant");
    }
}
