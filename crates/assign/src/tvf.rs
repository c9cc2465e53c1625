//! Task Value Function (§IV-B, Eq. 11–12).
//!
//! The TVF estimates the expected cumulative reward (number of tasks that will
//! end up assigned) of performing an action — giving worker `w` the sequence
//! `q` — in a given search state. It is trained by Q-learning-style regression
//! on `(state, action, opt)` samples collected during exact DFSearch runs
//! (Algorithm 1), and is then used by the TVF-guided search (Algorithm 2) to
//! pick each worker's sequence without backtracking.

use datawa_core::{TaskSequence, TaskStore, Timestamp, Worker};
use datawa_tensor::layers::Dense;
use datawa_tensor::optim::Adam;
use datawa_tensor::{Matrix, Var};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Features of a search state (the remaining workers and tasks).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateFeatures {
    /// Number of workers still unassigned in the current sub-problem (the
    /// node's remaining workers plus all workers below it, `W_N + W_C`).
    pub remaining_workers: usize,
    /// Number of tasks still unassigned.
    pub remaining_tasks: usize,
    /// Mean number of reachable tasks per remaining worker.
    pub mean_reachable: f64,
}

/// Features of an action: assigning one candidate sequence to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActionFeatures {
    /// Sequence length (the immediate reward of the action).
    pub sequence_len: usize,
    /// Total travel time of the sequence, in seconds.
    pub travel_time: f64,
    /// Total travel distance of the sequence.
    pub travel_distance: f64,
    /// Worker's remaining availability window, in seconds.
    pub remaining_window: f64,
}

impl ActionFeatures {
    /// Computes action features for assigning `sequence` to `worker` at `now`.
    pub fn compute(
        worker: &Worker,
        sequence: &TaskSequence,
        tasks: &TaskStore,
        travel: &datawa_core::TravelModel,
        now: Timestamp,
    ) -> ActionFeatures {
        let arrivals = sequence.arrival_times(worker, tasks, travel, now);
        ActionFeatures {
            sequence_len: sequence.len(),
            travel_time: (arrivals.completion - now).seconds().max(0.0),
            travel_distance: arrivals.total_distance,
            remaining_window: worker.remaining_window(now).seconds(),
        }
    }
}

/// Normalisation constants keeping the MLP inputs in a friendly range.
const WORKER_SCALE: f64 = 0.02; // ≈ 1/50 workers
const TASK_SCALE: f64 = 0.01; // ≈ 1/100 tasks
const TIME_SCALE: f64 = 1.0 / 600.0; // ≈ 1/10 minutes
const DIST_SCALE: f64 = 0.2; // ≈ 1/5 km

/// Width of the feature vector fed to the network.
pub const FEATURE_DIM: usize = 7;

fn feature_vector(state: &StateFeatures, action: &ActionFeatures) -> [f64; FEATURE_DIM] {
    [
        state.remaining_workers as f64 * WORKER_SCALE,
        state.remaining_tasks as f64 * TASK_SCALE,
        state.mean_reachable * 0.1,
        action.sequence_len as f64 * 0.25,
        action.travel_time * TIME_SCALE,
        action.travel_distance * DIST_SCALE,
        action.remaining_window * TIME_SCALE,
    ]
}

/// The learned task value function: a two-layer MLP regressor.
pub struct TaskValueFunction {
    hidden: Dense,
    output: Dense,
}

impl TaskValueFunction {
    /// Creates an untrained TVF with the given hidden width.
    pub fn new(hidden_width: usize, seed: u64) -> TaskValueFunction {
        let mut rng = StdRng::seed_from_u64(seed);
        TaskValueFunction {
            hidden: Dense::new(FEATURE_DIM, hidden_width, &mut rng),
            output: Dense::new(hidden_width, 1, &mut rng),
        }
    }

    fn forward(&self, features: &[f64; FEATURE_DIM]) -> Var {
        let x = Var::constant(Matrix::row_vector(features));
        let h = self.hidden.forward(&x).relu();
        self.output.forward(&h)
    }

    /// Predicted value `TVF(s_t, a_t)` of one state-action pair.
    pub fn value(&self, state: &StateFeatures, action: &ActionFeatures) -> f64 {
        self.forward(&feature_vector(state, action))
            .value()
            .get(0, 0)
    }

    /// Takes an autograd-free snapshot of the trained weights for use by the
    /// guided search (see [`TvfInference`]).
    pub fn inference(&self) -> TvfInference {
        TvfInference {
            hidden_w: self.hidden.w.value(),
            hidden_b: self.hidden.b.value(),
            output_w: self.output.w.value(),
            output_b: self.output.b.value(),
        }
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.hidden.parameters();
        p.extend(self.output.parameters());
        p
    }

    /// Trains the TVF on `(state, action, opt)` samples with the squared loss
    /// of Eq. 12, drawing mini-batches uniformly at random from the sample
    /// store (experience replay). Returns the mean loss of the final epoch.
    pub fn train(
        &mut self,
        samples: &[(StateFeatures, ActionFeatures, f64)],
        epochs: usize,
        batch_size: usize,
        learning_rate: f64,
        seed: u64,
    ) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut optimizer = Adam::new(learning_rate, self.parameters());
        let batch = batch_size.max(1).min(samples.len());
        let mut final_loss = 0.0;
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            let steps = (samples.len() / batch).max(1);
            for _ in 0..steps {
                // Assemble a random mini-batch.
                let mut x = Matrix::zeros(batch, FEATURE_DIM);
                let mut y = Matrix::zeros(batch, 1);
                for row in 0..batch {
                    let (s, a, opt) = samples[rng.gen_range(0..samples.len())];
                    x.row_mut(row).copy_from_slice(&feature_vector(&s, &a));
                    y.set(row, 0, opt);
                }
                optimizer.zero_grad();
                let input = Var::constant(x);
                let pred = self.output.forward(&self.hidden.forward(&input).relu());
                let loss = pred.mse_loss(&y);
                epoch_loss += loss.value().get(0, 0);
                loss.backward();
                optimizer.step();
            }
            final_loss = epoch_loss / steps as f64;
        }
        final_loss
    }
}

/// An immutable, autograd-free snapshot of a trained [`TaskValueFunction`].
///
/// The autograd [`Var`] handles inside the TVF are `Rc`-based and therefore
/// neither `Send` nor `Sync`, and a runner holding them could not move to a
/// per-tenant pump thread, so inference runs on this plain-`Matrix` copy of
/// the weights instead. The guided search scores every candidate sequence of
/// every planned worker through [`TvfInference::value`], so it allocates
/// nothing: the features sit in a stack array and each hidden unit is folded
/// into the output as soon as it is computed. Every scalar goes through
/// exactly the floating-point operations, in exactly the order, that the
/// `Matrix` ops behind [`TaskValueFunction::value`] apply to it (including
/// `Matrix::matmul` skipping a zero left operand), so the two produce
/// bit-identical values (pinned by a test below) and swapping one for the
/// other can never change a planning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TvfInference {
    hidden_w: Matrix,
    hidden_b: Matrix,
    output_w: Matrix,
    output_b: Matrix,
}

impl TvfInference {
    /// Predicted value `TVF(s_t, a_t)` of one state-action pair.
    pub fn value(&self, state: &StateFeatures, action: &ActionFeatures) -> f64 {
        let x = feature_vector(state, action);
        let mut out = 0.0;
        for j in 0..self.hidden_w.cols() {
            // h_j = relu(Σ_k x_k · W1[k][j] + b1[j]), accumulated in k order.
            let mut h = 0.0;
            for (k, &a) in x.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                h += a * self.hidden_w.get(k, j);
            }
            h += self.hidden_b.get(0, j);
            let h = h.max(0.0);
            if h == 0.0 {
                continue;
            }
            out += h * self.output_w.get(j, 0);
        }
        out + self.output_b.get(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{Location, Task, TaskId, TravelModel, WorkerId};

    fn sample_state(w: usize, t: usize) -> StateFeatures {
        StateFeatures {
            remaining_workers: w,
            remaining_tasks: t,
            mean_reachable: 2.0,
        }
    }

    fn sample_action(len: usize) -> ActionFeatures {
        ActionFeatures {
            sequence_len: len,
            travel_time: 30.0 * len as f64,
            travel_distance: 0.3 * len as f64,
            remaining_window: 1800.0,
        }
    }

    #[test]
    fn action_features_are_computed_from_the_sequence() {
        let travel = TravelModel::euclidean(1.0);
        let mut tasks = TaskStore::new();
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(2.0, 0.0),
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        tasks.insert(Task::new(
            TaskId(0),
            Location::new(4.0, 0.0),
            Timestamp(0.0),
            Timestamp(100.0),
        ));
        let worker = Worker::new(
            WorkerId(0),
            Location::new(0.0, 0.0),
            10.0,
            Timestamp(0.0),
            Timestamp(50.0),
        );
        let seq = TaskSequence::from_ids([TaskId(0), TaskId(1)]);
        let f = ActionFeatures::compute(&worker, &seq, &tasks, &travel, Timestamp(0.0));
        assert_eq!(f.sequence_len, 2);
        assert!((f.travel_time - 4.0).abs() < 1e-9);
        assert!((f.travel_distance - 4.0).abs() < 1e-9);
        assert!((f.remaining_window - 50.0).abs() < 1e-9);
    }

    #[test]
    fn untrained_tvf_produces_finite_values() {
        let tvf = TaskValueFunction::new(8, 0);
        let v = tvf.value(&sample_state(5, 20), &sample_action(2));
        assert!(v.is_finite());
    }

    #[test]
    fn inference_snapshot_matches_the_autograd_forward_pass_exactly() {
        let mut tvf = TaskValueFunction::new(12, 3);
        // Train a little so the weights are not at their initial values.
        let samples: Vec<_> = (1..5usize)
            .map(|len| (sample_state(len, 3 * len), sample_action(len), len as f64))
            .collect();
        tvf.train(&samples, 20, 4, 0.01, 3);
        let frozen = tvf.inference();
        for w in 0..6usize {
            for len in 0..4usize {
                let s = sample_state(w, 2 * w + 1);
                let a = sample_action(len);
                // Bit-identical, not just close: the guided search must make
                // the same decisions whichever representation it consults.
                assert_eq!(tvf.value(&s, &a), frozen.value(&s, &a));
            }
        }
        // Exact zeros take `Matrix::matmul`'s skip branch: all-zero
        // features, zeros (of either sign) in some positions, and weights
        // that zero every hidden unit after the ReLU.
        let zero_state = StateFeatures::default();
        let zero_action = ActionFeatures::default();
        assert_eq!(
            tvf.value(&zero_state, &zero_action),
            frozen.value(&zero_state, &zero_action)
        );
        let s = sample_state(3, 0);
        let a = ActionFeatures {
            travel_time: 0.0,
            remaining_window: -0.0,
            ..sample_action(2)
        };
        assert_eq!(tvf.value(&s, &a), frozen.value(&s, &a));
        tvf.hidden.b.set_value(Matrix::filled(1, 12, -1.0e6)); // every hidden unit dead
        let dead = tvf.inference();
        assert_eq!(tvf.value(&s, &a), dead.value(&s, &a));
    }

    #[test]
    fn training_regresses_towards_the_targets() {
        // Synthetic rule: opt = 2 * sequence_len. The TVF must learn to rank
        // longer sequences higher.
        let mut samples = Vec::new();
        for len in 0..4usize {
            for w in 1..6usize {
                samples.push((
                    sample_state(w, 10 * w),
                    sample_action(len),
                    2.0 * len as f64,
                ));
            }
        }
        let mut tvf = TaskValueFunction::new(16, 1);
        let loss = tvf.train(&samples, 200, 8, 0.01, 7);
        assert!(loss < 0.5, "TVF regression did not converge: loss={loss}");
        let short = tvf.value(&sample_state(3, 30), &sample_action(1));
        let long = tvf.value(&sample_state(3, 30), &sample_action(3));
        assert!(
            long > short,
            "trained TVF must rank longer sequences higher: short={short}, long={long}"
        );
    }

    #[test]
    fn training_on_empty_samples_is_a_noop() {
        let mut tvf = TaskValueFunction::new(4, 0);
        assert_eq!(tvf.train(&[], 10, 4, 0.01, 0), 0.0);
    }

    #[test]
    fn time_scale_normalises_ten_minutes_to_one() {
        // Guard against accidental unit changes in the feature scales.
        let d = datawa_core::Duration::from_mins(10.0);
        assert!((d.seconds() * TIME_SCALE - 1.0).abs() < 1e-12);
    }
}
