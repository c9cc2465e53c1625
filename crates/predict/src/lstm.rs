//! LSTM baseline predictor (§V-B.1 method i).
//!
//! One LSTM cell, shared by every grid cell, consumes the cell's history of
//! occurrence vectors; a fully connected head with a sigmoid produces the
//! probability of task occurrence in each ΔT bucket of the next window. The
//! model sees each region in isolation — it has no way to exploit demand
//! dependencies between regions, which is exactly the gap DDGNN closes.

use crate::series::SeriesExample;
use crate::trainer::DemandPredictor;
use datawa_tensor::layers::{Dense, LstmCell};
use datawa_tensor::Var;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The LSTM baseline model.
pub struct LstmPredictor {
    cell: LstmCell,
    head: Dense,
}

impl LstmPredictor {
    /// Creates the model. `k` is the occurrence-vector width, `hidden` the
    /// LSTM state width.
    pub fn new(k: usize, hidden: usize, seed: u64) -> LstmPredictor {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmPredictor {
            cell: LstmCell::new(k, hidden, &mut rng),
            head: Dense::new(hidden, k, &mut rng),
        }
    }
}

impl DemandPredictor for LstmPredictor {
    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn parameters(&self) -> Vec<Var> {
        let mut p = self.cell.parameters();
        p.extend(self.head.parameters());
        p
    }

    fn forward(&self, example: &SeriesExample) -> Var {
        let mut rows = Vec::with_capacity(example.history.len());
        for history in &example.history {
            let x = Var::constant(history.clone());
            let h = self.cell.run_sequence(&x);
            rows.push(self.head.forward(&h).sigmoid());
        }
        stack_rows(&rows)
    }
}

/// Stacks a list of `1 × f` row nodes into an `n × f` node, preserving
/// gradients, with the existing transpose/concat ops.
fn stack_rows(rows: &[Var]) -> Var {
    assert!(!rows.is_empty(), "cannot stack zero rows");
    let mut acc = rows[0].transpose();
    for row in &rows[1..] {
        acc = acc.concat_cols(&row.transpose());
    }
    acc.transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesDataset, SeriesSpec};
    use crate::trainer::TrainingConfig;
    use datawa_core::Timestamp;
    use datawa_tensor::Matrix;

    fn periodic_dataset(cells: usize, k: usize, examples: usize) -> SeriesDataset {
        // A deterministic alternating pattern the LSTM can learn: the target
        // repeats the last history vector.
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, k, 3);
        let mut out = Vec::new();
        for e in 0..examples {
            let bit = |t: usize| if t.is_multiple_of(2) { 1.0 } else { 0.0 };
            let mut history = Vec::new();
            for _ in 0..cells {
                let mut h = Matrix::zeros(3, k);
                for row in 0..3 {
                    for j in 0..k {
                        h.set(row, j, bit(e + row + j));
                    }
                }
                history.push(h);
            }
            let mut target = Matrix::zeros(cells, k);
            let mut snapshot = Matrix::zeros(cells, k);
            for c in 0..cells {
                for j in 0..k {
                    target.set(c, j, bit(e + 3 + j));
                    snapshot.set(c, j, bit(e + 2 + j));
                }
            }
            out.push(crate::series::SeriesExample {
                history,
                snapshot,
                target,
                target_window: e + 3,
            });
        }
        SeriesDataset {
            spec,
            cells,
            examples: out,
        }
    }

    #[test]
    fn forward_produces_probabilities_of_the_right_shape() {
        let ds = periodic_dataset(4, 3, 2);
        let model = LstmPredictor::new(3, 8, 0);
        let out = model.predict(&ds.examples[0]);
        assert_eq!(out.shape(), (4, 3));
        assert!(out.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn training_improves_average_precision_on_a_learnable_pattern() {
        let ds = periodic_dataset(2, 2, 8);
        let (train, test) = ds.split(0.75);
        let mut model = LstmPredictor::new(2, 8, 1);
        let before = model.evaluate(&test).average_precision;
        model.train(
            &train,
            &TrainingConfig {
                epochs: 40,
                learning_rate: 0.02,
            },
        );
        let after = model.evaluate(&test).average_precision;
        assert!(
            after >= before,
            "training should not hurt AP on a deterministic pattern: before={before}, after={after}"
        );
        assert!(
            after > 0.6,
            "LSTM failed to learn the alternating pattern: AP={after}"
        );
    }

    #[test]
    fn stack_rows_builds_the_expected_matrix_and_is_differentiable() {
        let a = Var::parameter(Matrix::row_vector(&[1.0, 2.0]));
        let b = Var::parameter(Matrix::row_vector(&[3.0, 4.0]));
        let stacked = stack_rows(&[a.clone(), b.clone()]);
        assert_eq!(
            stacked.value(),
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
        );
        stacked.sum().backward();
        assert_eq!(a.grad(), Matrix::row_vector(&[1.0, 1.0]));
        assert_eq!(b.grad(), Matrix::row_vector(&[1.0, 1.0]));
    }
}
