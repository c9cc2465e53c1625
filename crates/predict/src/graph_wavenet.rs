//! Graph-WaveNet baseline predictor (§V-B.1 method ii).
//!
//! A faithful, reduced re-implementation of the Graph-WaveNet idea evaluated
//! by the paper: a *static* self-adaptive adjacency matrix learned from free
//! per-node embeddings (`softmax(relu(E1·E2ᵀ))`) combined with a gated dilated
//! causal temporal convolution, followed by one diffusion (graph convolution)
//! step and a dense output head. Unlike DDGNN the adjacency does not depend on
//! the current demand snapshot — that is the key difference the evaluation of
//! Fig. 5/6 isolates.

use crate::series::SeriesExample;
use crate::trainer::DemandPredictor;
use crate::unfold_example;
use datawa_tensor::init;
use datawa_tensor::layers::{Dense, GatedTemporalConv};
use datawa_tensor::Var;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Taps of the causal convolution (DDGNN's default too), at dilation 1.
const KERNEL: usize = 3;

/// The Graph-WaveNet baseline model.
pub struct GraphWaveNetPredictor {
    temporal: GatedTemporalConv,
    node_embed_src: Var,
    node_embed_dst: Var,
    diffusion: Dense,
    head: Dense,
    cells: usize,
}

impl GraphWaveNetPredictor {
    /// Creates the model for `cells` grid cells and occurrence vectors of
    /// width `k`.
    pub fn new(
        cells: usize,
        k: usize,
        hidden: usize,
        embedding: usize,
        seed: u64,
    ) -> GraphWaveNetPredictor {
        let mut rng = StdRng::seed_from_u64(seed);
        GraphWaveNetPredictor {
            temporal: GatedTemporalConv::new(k, hidden, KERNEL, &mut rng),
            node_embed_src: Var::parameter(init::xavier_uniform(cells, embedding, &mut rng)),
            node_embed_dst: Var::parameter(init::xavier_uniform(cells, embedding, &mut rng)),
            diffusion: Dense::new(hidden, hidden, &mut rng),
            head: Dense::new(hidden, k, &mut rng),
            cells,
        }
    }

    /// The static self-adaptive adjacency `softmax(relu(E1·E2ᵀ))` (row
    /// stochastic).
    pub fn adaptive_adjacency(&self) -> Var {
        self.node_embed_src
            .matmul(&self.node_embed_dst.transpose())
            .relu()
            .softmax_rows()
    }

    /// Per-cell temporal encoding: the gated causal convolution at each
    /// cell's latest timestep, the only one the model reads, for every cell
    /// in one node ([`GatedTemporalConv::forward_unfolded`]).
    fn temporal_features(&self, example: &SeriesExample) -> Var {
        let unfolded = unfold_example(example, KERNEL, 1);
        self.temporal.forward_unfolded(&Var::constant(unfolded))
    }
}

impl DemandPredictor for GraphWaveNetPredictor {
    fn name(&self) -> &'static str {
        "Graph-Wavenet"
    }

    fn parameters(&self) -> Vec<Var> {
        let mut p = self.temporal.parameters();
        p.push(self.node_embed_src.clone());
        p.push(self.node_embed_dst.clone());
        p.extend(self.diffusion.parameters());
        p.extend(self.head.parameters());
        p
    }

    fn forward(&self, example: &SeriesExample) -> Var {
        assert_eq!(
            example.history.len(),
            self.cells,
            "example cell count does not match the model"
        );
        let z = self.temporal_features(example); // (M, hidden)
        let adj = self.adaptive_adjacency(); // (M, M)
                                             // One diffusion step with a residual connection: Z' = ReLU(Z + Â·Z·W).
        let propagated = self.diffusion.forward(&adj.matmul(&z));
        let mixed = z.add(&propagated).relu();
        self.head.forward(&mixed).sigmoid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{SeriesDataset, SeriesSpec};
    use crate::trainer::TrainingConfig;
    use datawa_core::Timestamp;
    use datawa_tensor::Matrix;

    fn correlated_dataset(cells: usize, k: usize, n: usize) -> SeriesDataset {
        // Cell 0 "leads": whenever cell 0 was active in the last history
        // window, every other cell is active in the target window.
        let spec = SeriesSpec::new(Timestamp(0.0), 1.0, k, 2);
        let mut examples = Vec::new();
        for e in 0..n {
            let lead_active = e % 2 == 0;
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
                for c in 0..cells {
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
        let ds = correlated_dataset(3, 2, 2);
        let model = GraphWaveNetPredictor::new(3, 2, 8, 4, 0);
        let out = model.predict(&ds.examples[0]);
        assert_eq!(out.shape(), (3, 2));
        assert!(out.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn adjacency_is_row_stochastic() {
        let model = GraphWaveNetPredictor::new(4, 2, 8, 3, 1);
        let a = model.adaptive_adjacency().value();
        assert_eq!(a.shape(), (4, 4));
        for r in 0..4 {
            assert!((a.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn learns_cross_cell_correlation() {
        let ds = correlated_dataset(3, 2, 10);
        let (train, test) = ds.split(0.6);
        let mut model = GraphWaveNetPredictor::new(3, 2, 8, 4, 2);
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
            "Graph-WaveNet failed to learn the lead-cell pattern: AP={ap}"
        );
    }
}
