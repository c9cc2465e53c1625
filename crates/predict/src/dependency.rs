//! Demand Dependency Learning Module (§III-B, Eq. 4–6).
//!
//! Two neural networks embed the current snapshot `C^t` (one occurrence
//! vector per cell) into source and target node embeddings `M1`, `M2`; their
//! symmetric product, squashed by `tanh` and normalised row-wise by `softmax`,
//! is the dynamic adjacency matrix `A^t` describing how demand in one region
//! influences demand in another at time `t`.

use datawa_tensor::layers::Dense;
use datawa_tensor::{Matrix, Var};
use rand::rngs::StdRng;

/// Learns the dynamic, time-dependent adjacency matrix of the grid graph.
#[derive(Clone)]
pub struct DependencyLearner {
    f1: Dense,
    f2: Dense,
    embedding_dim: usize,
}

/// Working buffers of [`DependencyLearner::adjacency_into`] for `cells`
/// grid cells.
pub(crate) struct AdjacencyScratch {
    m1: Matrix,
    m2: Matrix,
    m1_t: Matrix,
    m2_t: Matrix,
    cross_t: Matrix,
}

impl AdjacencyScratch {
    pub(crate) fn new(cells: usize, embedding_dim: usize) -> AdjacencyScratch {
        AdjacencyScratch {
            m1: Matrix::zeros(cells, embedding_dim),
            m2: Matrix::zeros(cells, embedding_dim),
            m1_t: Matrix::zeros(embedding_dim, cells),
            m2_t: Matrix::zeros(embedding_dim, cells),
            cross_t: Matrix::zeros(cells, cells),
        }
    }
}

impl DependencyLearner {
    /// Creates the module. `feature_dim` is `k` (the width of one occurrence
    /// vector); `embedding_dim` is the node-embedding width.
    pub fn new(feature_dim: usize, embedding_dim: usize, rng: &mut StdRng) -> DependencyLearner {
        DependencyLearner {
            f1: Dense::new(feature_dim, embedding_dim, rng),
            f2: Dense::new(feature_dim, embedding_dim, rng),
            embedding_dim,
        }
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Computes the adjacency matrix `A^t` from a snapshot node (shape
    /// `(M, k)`), per Eq. 4–6:
    ///
    /// ```text
    /// M1 = F_θ1(C^t)      M2 = F_θ2(C^t)
    /// A^t = softmax(tanh(M1·M2ᵀ + M2·M1ᵀ))
    /// ```
    ///
    /// The result is row-stochastic (each row sums to 1).
    pub fn adjacency(&self, snapshot: &Var) -> Var {
        let m1 = self.f1.forward(snapshot);
        let m2 = self.f2.forward(snapshot);
        let cross = m1.matmul(&m2.transpose()).add(&m2.matmul(&m1.transpose()));
        cross.tanh().softmax_rows()
    }

    /// [`DependencyLearner::adjacency`] without the autograd graph: the same
    /// `Matrix` operations in the same order on caller-owned buffers, so the
    /// adjacency written into `out` (shape `(M, M)`) is bit-identical.
    pub(crate) fn adjacency_into(
        &self,
        snapshot: &Matrix,
        scratch: &mut AdjacencyScratch,
        out: &mut Matrix,
    ) {
        self.f1.apply_into(snapshot, &mut scratch.m1);
        self.f2.apply_into(snapshot, &mut scratch.m2);
        scratch.m1.transpose_into(&mut scratch.m1_t);
        scratch.m2.transpose_into(&mut scratch.m2_t);
        scratch.m1.matmul_into(&scratch.m2_t, out);
        scratch.m2.matmul_into(&scratch.m1_t, &mut scratch.cross_t);
        out.zip_in_place(&scratch.cross_t, |a, b| a + b);
        out.map_in_place(f64::tanh);
        out.softmax_rows_in_place();
    }

    /// Convenience wrapper that takes a raw snapshot matrix.
    pub fn adjacency_from_matrix(&self, snapshot: &Matrix) -> Var {
        self.adjacency(&Var::constant(snapshot.clone()))
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.f1.parameters();
        p.extend(self.f2.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn adjacency_is_square_and_row_stochastic() {
        let mut rng = StdRng::seed_from_u64(0);
        let dep = DependencyLearner::new(3, 4, &mut rng);
        let snapshot = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
            &[1.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
        ]);
        let a = dep.adjacency_from_matrix(&snapshot).value();
        assert_eq!(a.shape(), (5, 5));
        for r in 0..5 {
            let sum: f64 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sums to {sum}");
            assert!(a.row(r).iter().all(|&v| v >= 0.0));
        }
        assert_eq!(dep.embedding_dim(), 4);
        assert_eq!(dep.parameters().len(), 4);
    }

    #[test]
    fn adjacency_depends_on_the_snapshot() {
        let mut rng = StdRng::seed_from_u64(1);
        let dep = DependencyLearner::new(2, 3, &mut rng);
        let a = dep
            .adjacency_from_matrix(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]))
            .value();
        let b = dep
            .adjacency_from_matrix(&Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]))
            .value();
        // The dynamic adjacency must react to the demand snapshot.
        assert_ne!(a, b);
    }

    #[test]
    fn adjacency_gradients_reach_the_embedding_networks() {
        let mut rng = StdRng::seed_from_u64(2);
        let dep = DependencyLearner::new(2, 3, &mut rng);
        let snapshot = Var::constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let loss = dep.adjacency(&snapshot).sum();
        loss.backward();
        // softmax rows always sum to 1 so the sum's gradient w.r.t. weights is
        // ~0; use a weighted sum instead to check gradient flow.
        let weights = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        for p in dep.parameters() {
            p.zero_grad();
        }
        let loss = dep
            .adjacency(&Var::constant(Matrix::from_rows(&[
                &[1.0, 0.0],
                &[0.0, 1.0],
            ])))
            .hadamard(&Var::constant(weights))
            .sum();
        loss.backward();
        let total_grad: f64 = dep.parameters().iter().map(|p| p.grad().max_abs()).sum();
        assert!(
            total_grad > 0.0,
            "no gradient reached the dependency learner"
        );
    }
}
