//! Dynamic Dependency-based Graph Neural Network (DDGNN, §III-C).
//!
//! The proposed predictor combines three pieces:
//!
//! 1. **Gated dilated causal temporal convolution** (Eq. 7) extracting each
//!    cell's temporal trend from its occurrence history;
//! 2. the **Demand Dependency Learning Module** (Eq. 4–6, [`DependencyLearner`])
//!    producing a *dynamic* adjacency matrix `A^t` from the current snapshot
//!    `C^t`;
//! 3. **APPNP propagation** (Eq. 8–9) mixing each node's features with its
//!    neighbours' through the normalised adjacency
//!    `Â^t = D̂^{-1/2}(A^t + I)D̂^{-1/2}`, followed by a ReLU and a dense
//!    sigmoid head predicting the next occurrence vector of every cell.
//!
//! Because `A^t` is row-stochastic (softmax-normalised), the degree matrix is
//! exactly `D̂ = 2·I`, so the normalised adjacency reduces to `(A^t + I)/2`;
//! this keeps the propagation fully differentiable with the available ops
//! while matching Eq. 8 exactly.
//!
//! ## Inference
//!
//! Training runs [`DemandPredictor::forward`] through the autograd graph.
//! Inference ([`DemandPredictor::predict`] / [`DemandPredictor::predict_next`])
//! does not: only the *last* timestep of the temporal convolution feeds the
//! rest of the model, so its causal unfold is gathered for all cells into one
//! `(M, k·kernel)` matrix — straight from the rolling windows of a live
//! forecaster, or from a [`SeriesExample`] — and pushed through the gated
//! conv, the dependency learner, the propagation and the head on plain
//! `Matrix` buffers the model owns. Every scalar meets the same
//! floating-point operations in the same order as in `forward` (matrix
//! products are row-independent), so the probabilities are bit-identical.

use crate::dependency::{AdjacencyScratch, DependencyLearner};
use crate::series::SeriesExample;
use crate::stack_rows;
use crate::trainer::DemandPredictor;
use datawa_tensor::layers::{Dense, GatedTemporalConv};
use datawa_tensor::matrix::sigmoid;
use datawa_tensor::{Matrix, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// Hyper-parameters of the DDGNN model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdgnnConfig {
    /// Hidden width of the temporal convolution.
    pub hidden: usize,
    /// Node-embedding width of the dependency learner.
    pub embedding: usize,
    /// Restart probability α of APPNP (Eq. 8).
    pub alpha: f64,
    /// Number of APPNP power-iteration steps `H`.
    pub propagation_steps: usize,
    /// Dilation factor of the causal convolution.
    pub dilation: usize,
    /// Kernel size of the causal convolution (the paper fixes K = 3).
    pub kernel: usize,
}

impl Default for DdgnnConfig {
    fn default() -> Self {
        DdgnnConfig {
            hidden: 12,
            embedding: 8,
            alpha: 0.1,
            propagation_steps: 2,
            dilation: 1,
            kernel: 3,
        }
    }
}

/// The DDGNN demand predictor.
pub struct DdgnnPredictor {
    temporal: GatedTemporalConv,
    dependency: DependencyLearner,
    head: Dense,
    config: DdgnnConfig,
    cells: usize,
    /// When `false`, the dynamic adjacency is replaced by the identity matrix
    /// (no inter-region propagation) — used by the ablation benchmark.
    use_dynamic_adjacency: bool,
    /// Working buffers of the inference-only forward pass.
    buffers: RefCell<InferenceBuffers>,
}

/// Plain-`Matrix` working buffers of the inference-only forward pass, sized
/// for the model once and reused by every call.
struct InferenceBuffers {
    /// Last-timestep causal unfold of every cell, `(M, k·kernel)`.
    unfolded: Matrix,
    /// Temporal features `z0`, `(M, hidden)`.
    z0: Matrix,
    /// Propagated features `z`, `(M, hidden)`.
    z: Matrix,
    /// Gate activations, then the propagation product `Â·z`, `(M, hidden)`.
    scratch: Matrix,
    /// Adjacency `A^t`, then the normalised `Â^t`, `(M, M)`.
    a_hat: Matrix,
    adjacency: AdjacencyScratch,
}

impl DdgnnPredictor {
    /// Creates the model for `cells` grid cells and occurrence vectors of
    /// width `k`.
    pub fn new(cells: usize, k: usize, config: DdgnnConfig, seed: u64) -> DdgnnPredictor {
        let mut rng = StdRng::seed_from_u64(seed);
        DdgnnPredictor {
            temporal: GatedTemporalConv::new(
                k,
                config.hidden,
                config.kernel,
                config.dilation,
                &mut rng,
            ),
            dependency: DependencyLearner::new(k, config.embedding, &mut rng),
            head: Dense::new(config.hidden, k, &mut rng),
            config,
            cells,
            use_dynamic_adjacency: true,
            buffers: RefCell::new(InferenceBuffers {
                unfolded: Matrix::zeros(cells, k * config.kernel),
                z0: Matrix::zeros(cells, config.hidden),
                z: Matrix::zeros(cells, config.hidden),
                scratch: Matrix::zeros(cells, config.hidden),
                a_hat: Matrix::zeros(cells, cells),
                adjacency: AdjacencyScratch::new(cells, config.embedding),
            }),
        }
    }

    /// Convenience constructor with default hyper-parameters.
    pub fn with_defaults(cells: usize, k: usize, seed: u64) -> DdgnnPredictor {
        DdgnnPredictor::new(cells, k, DdgnnConfig::default(), seed)
    }

    /// Disables the learned dynamic adjacency (ablation: propagation becomes a
    /// no-op mix with the identity).
    pub fn without_dynamic_adjacency(mut self) -> DdgnnPredictor {
        self.use_dynamic_adjacency = false;
        self
    }

    /// The model configuration.
    pub fn config(&self) -> &DdgnnConfig {
        &self.config
    }

    /// The dynamic adjacency computed from a snapshot (exposed for analysis
    /// and tests).
    pub fn dynamic_adjacency(&self, snapshot: &Matrix) -> Matrix {
        self.dependency.adjacency_from_matrix(snapshot).value()
    }

    /// Per-cell temporal encoding (latest timestep of the gated causal conv).
    fn temporal_features(&self, example: &SeriesExample) -> Var {
        let mut rows = Vec::with_capacity(example.history.len());
        for history in &example.history {
            let timesteps = history.rows();
            let x = Var::constant(history.clone());
            let conv = self.temporal.forward(&x);
            rows.push(conv.rows_slice(timesteps - 1, 1));
        }
        stack_rows(&rows)
    }

    /// APPNP propagation (Eq. 8–9) of node features `z0` through the
    /// normalised adjacency derived from `adjacency`.
    fn propagate(&self, z0: &Var, adjacency: &Var) -> Var {
        let m = self.cells;
        // Â = (A + I) / 2 (see module docs — exact because A is row-stochastic).
        let identity = Matrix::identity(m);
        let a_hat = adjacency.add_const(&identity).scale(0.5);
        let alpha = self.config.alpha;
        let mut z = z0.clone();
        for _ in 0..self.config.propagation_steps.max(1) {
            z = z0.scale(alpha).add(&a_hat.matmul(&z).scale(1.0 - alpha));
        }
        z.relu()
    }

    /// The inference-only forward pass (see the module docs). `latest(cell,
    /// age)` is the occurrence vector of `cell` `age` timesteps before its
    /// newest one, or `None` before the start of its history (the causal
    /// zero padding); `snapshot` is `C^t`; the `(M, k)` probabilities are
    /// written into `out`.
    fn infer<'a>(
        &self,
        latest: impl Fn(usize, usize) -> Option<&'a [f64]>,
        snapshot: &Matrix,
        out: &mut Matrix,
    ) {
        let buffers = &mut *self.buffers.borrow_mut();
        let InferenceBuffers {
            unfolded,
            z0,
            z,
            scratch,
            a_hat,
            adjacency,
        } = buffers;
        let kernel = self.config.kernel;
        let k = unfolded.cols() / kernel;
        for cell in 0..self.cells {
            let row = unfolded.row_mut(cell);
            for tap in 0..kernel {
                let dst = &mut row[tap * k..(tap + 1) * k];
                match latest(cell, tap * self.config.dilation) {
                    Some(src) => dst.copy_from_slice(src),
                    None => dst.fill(0.0),
                }
            }
        }
        self.temporal.apply_unfolded_into(unfolded, z0, scratch);
        if self.use_dynamic_adjacency {
            self.dependency.adjacency_into(snapshot, adjacency, a_hat);
        } else {
            a_hat.data_mut().fill(0.0);
            for i in 0..self.cells {
                a_hat.set(i, i, 1.0);
            }
        }
        // Â = (A + I) / 2, as in `propagate`.
        for r in 0..self.cells {
            for c in 0..self.cells {
                let identity = if r == c { 1.0 } else { 0.0 };
                a_hat.set(r, c, (a_hat.get(r, c) + identity) * 0.5);
            }
        }
        let alpha = self.config.alpha;
        let keep = 1.0 - alpha;
        z.data_mut().copy_from_slice(z0.data());
        for _ in 0..self.config.propagation_steps.max(1) {
            a_hat.matmul_into(z, scratch);
            for ((v, &restart), &mixed) in
                z.data_mut().iter_mut().zip(z0.data()).zip(scratch.data())
            {
                *v = restart * alpha + mixed * keep;
            }
        }
        z.map_in_place(|v| v.max(0.0));
        self.head.apply_into(z, out);
        out.map_in_place(sigmoid);
    }
}

impl DemandPredictor for DdgnnPredictor {
    fn name(&self) -> &'static str {
        "DDGNN"
    }

    fn parameters(&self) -> Vec<Var> {
        let mut p = self.temporal.parameters();
        p.extend(self.dependency.parameters());
        p.extend(self.head.parameters());
        p
    }

    fn forward(&self, example: &SeriesExample) -> Var {
        assert_eq!(
            example.history.len(),
            self.cells,
            "example cell count does not match the model"
        );
        let z0 = self.temporal_features(example); // (M, hidden)
        let adjacency = if self.use_dynamic_adjacency {
            self.dependency
                .adjacency(&Var::constant(example.snapshot.clone()))
        } else {
            Var::constant(Matrix::identity(self.cells))
        };
        let z = self.propagate(&z0, &adjacency);
        self.head.forward(&z).sigmoid()
    }

    fn predict(&self, example: &SeriesExample) -> Matrix {
        assert_eq!(
            example.history.len(),
            self.cells,
            "example cell count does not match the model"
        );
        let mut out = Matrix::zeros(self.cells, example.snapshot.cols());
        self.infer(
            |cell, age| {
                let history = &example.history[cell];
                (age < history.rows()).then(|| history.row(history.rows() - 1 - age))
            },
            &example.snapshot,
            &mut out,
        );
        out
    }

    fn predict_next(&self, recent: &[Matrix], out: &mut Matrix) {
        let snapshot = recent.last().expect("at least one history window");
        self.infer(
            |cell, age| (age < recent.len()).then(|| recent[recent.len() - 1 - age].row(cell)),
            snapshot,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesDataset, SeriesSpec};
    use crate::trainer::TrainingConfig;
    use datawa_core::Timestamp;

    /// Dataset with a cross-region dependency: activity in the "university"
    /// cell at window t causes activity in the "restaurant" cell at t+1 (the
    /// paper's §III-B motivating example).
    fn dependency_dataset(cells: usize, k: usize, n: usize) -> SeriesDataset {
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, k, 2);
        let mut examples = Vec::new();
        for e in 0..n {
            let lead_active = (e / 2) % 2 == 0;
            let mut history = Vec::new();
            for c in 0..cells {
                let mut h = Matrix::zeros(2, k);
                if c == 0 && lead_active {
                    for j in 0..k {
                        h.set(1, j, 1.0);
                    }
                }
                history.push(h);
            }
            let mut snapshot = Matrix::zeros(cells, k);
            if lead_active {
                for j in 0..k {
                    snapshot.set(0, j, 1.0);
                }
            }
            let mut target = Matrix::zeros(cells, k);
            if lead_active {
                // Demand in the lead region propagates to every other region
                // in the next window (all follower cells share the pattern so
                // the label is identifiable from the features alone).
                for c in 1..cells {
                    for j in 0..k {
                        target.set(c, j, 1.0);
                    }
                }
            }
            examples.push(crate::series::SeriesExample {
                history,
                snapshot,
                target,
                target_window: e + 2,
            });
        }
        SeriesDataset {
            spec,
            cells,
            examples,
        }
    }

    #[test]
    fn forward_shape_and_probability_range() {
        let ds = dependency_dataset(4, 3, 2);
        let model = DdgnnPredictor::with_defaults(4, 3, 0);
        let out = model.predict(&ds.examples[0]);
        assert_eq!(out.shape(), (4, 3));
        assert!(out.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(model.name(), "DDGNN");
    }

    #[test]
    fn dynamic_adjacency_is_row_stochastic_and_snapshot_dependent() {
        let model = DdgnnPredictor::with_defaults(3, 2, 1);
        let a =
            model.dynamic_adjacency(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 1.0]]));
        let b =
            model.dynamic_adjacency(&Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[0.0, 0.0]]));
        for r in 0..3 {
            assert!((a.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_ne!(a, b, "adjacency must depend on the demand snapshot");
    }

    #[test]
    fn learns_the_cross_region_dependency() {
        let ds = dependency_dataset(3, 2, 16);
        let (train, test) = ds.split(0.75);
        let mut model = DdgnnPredictor::with_defaults(3, 2, 3);
        model.train(
            &train,
            &TrainingConfig {
                epochs: 120,
                learning_rate: 0.03,
            },
        );
        let ap = model.evaluate(&test).average_precision;
        assert!(
            ap > 0.7,
            "DDGNN failed to learn the cross-region dependency: AP={ap}"
        );
    }

    #[test]
    fn ablated_model_has_no_dynamic_adjacency_parameters_in_use() {
        let ds = dependency_dataset(3, 2, 4);
        let full = DdgnnPredictor::with_defaults(3, 2, 4);
        let ablated = DdgnnPredictor::with_defaults(3, 2, 4).without_dynamic_adjacency();
        // Outputs differ because the ablated model skips propagation through A^t.
        let a = full.predict(&ds.examples[0]);
        let b = ablated.predict(&ds.examples[0]);
        assert_ne!(a, b);
    }

    #[test]
    fn config_accessor_reports_hyperparameters() {
        let model = DdgnnPredictor::new(
            2,
            2,
            DdgnnConfig {
                hidden: 6,
                embedding: 4,
                alpha: 0.2,
                propagation_steps: 3,
                dilation: 2,
                kernel: 3,
            },
            0,
        );
        assert_eq!(model.config().hidden, 6);
        assert_eq!(model.config().propagation_steps, 3);
    }
}
