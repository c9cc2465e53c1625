//! Neural-network layers built on the autograd substrate.
//!
//! Only the layers needed by the paper's three predictors are provided:
//! dense (fully connected) layers, the gated dilated causal temporal
//! convolution of Eq. 7, and an LSTM cell for the baseline of §V-B.1.

use crate::autograd::Var;
use crate::init;
use crate::matrix::{sigmoid, Matrix};
use rand::rngs::StdRng;

/// A fully connected layer `y = x·W + b`.
#[derive(Clone)]
pub struct Dense {
    /// Weight matrix of shape `(in_features, out_features)`.
    pub w: Var,
    /// Bias row vector of shape `(1, out_features)`.
    pub b: Var,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialised weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Dense {
        Dense {
            w: Var::parameter(init::xavier_uniform(in_features, out_features, rng)),
            b: Var::parameter(init::zeros(1, out_features)),
        }
    }

    /// Applies the layer to a batch `x` of shape `(n, in_features)`.
    pub fn forward(&self, x: &Var) -> Var {
        x.matmul(&self.w).add_bias(&self.b)
    }

    /// [`Dense::forward`] without the autograd graph: `out = x·W + b` on
    /// plain matrices, `out` already shaped `(n, out_features)`. Applies the
    /// same `Matrix` operations in the same order as `forward`, so the
    /// values are bit-identical; nothing is allocated.
    pub fn apply_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w.value_ref(), out);
        out.add_row_broadcast_in_place(&self.b.value_ref());
    }

    /// The trainable parameters of the layer.
    pub fn parameters(&self) -> Vec<Var> {
        vec![self.w.clone(), self.b.clone()]
    }

    /// Number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        let (r, c) = self.w.shape();
        r * c + self.b.shape().1
    }
}

/// The gated dilated causal temporal convolution of Eq. 7:
///
/// `Z = tanh(Θ₁ ⋆ C + b₁) ⊙ σ(Θ₂ ⋆ C + b₂)`
///
/// where `⋆` is a dilated causal convolution along the time axis (rows of the
/// input). The convolution is realised by unfolding the `kernel` dilated taps
/// of every timestep into one row and applying a dense layer, which is exactly
/// equivalent to a 1-D convolution with kernel size `kernel` and dilation `d`.
#[derive(Clone)]
pub struct GatedTemporalConv {
    filter: Dense,
    gate: Dense,
    kernel: usize,
    dilation: usize,
}

impl GatedTemporalConv {
    /// Creates a gated temporal convolution mapping `in_features` per timestep
    /// to `out_features` per timestep.
    pub fn new(
        in_features: usize,
        out_features: usize,
        kernel: usize,
        dilation: usize,
        rng: &mut StdRng,
    ) -> GatedTemporalConv {
        GatedTemporalConv {
            filter: Dense::new(in_features * kernel, out_features, rng),
            gate: Dense::new(in_features * kernel, out_features, rng),
            kernel,
            dilation,
        }
    }

    /// Applies the layer to a sequence `x` of shape `(timesteps, in_features)`.
    pub fn forward(&self, x: &Var) -> Var {
        let unfolded = x.unfold_causal(self.kernel, self.dilation);
        let f = self.filter.forward(&unfolded).tanh();
        let g = self.gate.forward(&unfolded).sigmoid();
        f.hadamard(&g)
    }

    /// The gated activation of already unfolded rows, without the autograd
    /// graph: `out = tanh(U·Θ₁ + b₁) ⊙ σ(U·Θ₂ + b₂)` for `unfolded = U` of
    /// shape `(n, in_features · kernel)`, with `out` and the scratch `gate`
    /// both shaped `(n, out_features)`. Rows are independent, so feeding only
    /// the rows a caller needs (the last timestep of many sequences, say)
    /// gives exactly the values [`GatedTemporalConv::forward`] computes for
    /// those rows.
    pub fn apply_unfolded_into(&self, unfolded: &Matrix, out: &mut Matrix, gate: &mut Matrix) {
        self.filter.apply_into(unfolded, out);
        out.map_in_place(f64::tanh);
        self.gate.apply_into(unfolded, gate);
        gate.map_in_place(sigmoid);
        out.zip_in_place(gate, |f, g| f * g);
    }

    /// The trainable parameters of the layer.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.filter.parameters();
        p.extend(self.gate.parameters());
        p
    }

    /// Kernel size (number of dilated taps).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Dilation factor.
    pub fn dilation(&self) -> usize {
        self.dilation
    }
}

/// A single LSTM cell (used by the LSTM baseline predictor).
///
/// The cell follows the standard formulation with separate input, forget,
/// cell and output gates; `forward` consumes one timestep for a batch of
/// sequences and returns the updated `(hidden, cell)` state.
#[derive(Clone)]
pub struct LstmCell {
    w_i: Dense,
    w_f: Dense,
    w_g: Dense,
    w_o: Dense,
    hidden_size: usize,
}

impl LstmCell {
    /// Creates an LSTM cell with the given input and hidden sizes.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut StdRng) -> LstmCell {
        let concat = input_size + hidden_size;
        LstmCell {
            w_i: Dense::new(concat, hidden_size, rng),
            w_f: Dense::new(concat, hidden_size, rng),
            w_g: Dense::new(concat, hidden_size, rng),
            w_o: Dense::new(concat, hidden_size, rng),
            hidden_size,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Zero initial `(hidden, cell)` state for a batch of `batch` sequences.
    pub fn zero_state(&self, batch: usize) -> (Var, Var) {
        (
            Var::constant(Matrix::zeros(batch, self.hidden_size)),
            Var::constant(Matrix::zeros(batch, self.hidden_size)),
        )
    }

    /// One step: `x` has shape `(batch, input_size)`; returns the new
    /// `(hidden, cell)` pair, each `(batch, hidden_size)`.
    pub fn forward(&self, x: &Var, hidden: &Var, cell: &Var) -> (Var, Var) {
        let xh = x.concat_cols(hidden);
        let i = self.w_i.forward(&xh).sigmoid();
        let f = self.w_f.forward(&xh).sigmoid();
        let g = self.w_g.forward(&xh).tanh();
        let o = self.w_o.forward(&xh).sigmoid();
        let new_cell = f.hadamard(cell).add(&i.hadamard(&g));
        let new_hidden = o.hadamard(&new_cell.tanh());
        (new_hidden, new_cell)
    }

    /// Runs the cell over a whole sequence (rows of `x` are timesteps of a
    /// single series) and returns the final hidden state of shape
    /// `(1, hidden_size)`.
    pub fn run_sequence(&self, x: &Var) -> Var {
        let (timesteps, _) = x.shape();
        let (mut h, mut c) = self.zero_state(1);
        for t in 0..timesteps {
            let xt = x.rows_slice(t, 1);
            let (nh, nc) = self.forward(&xt, &h, &c);
            h = nh;
            c = nc;
        }
        h
    }

    /// The trainable parameters of the cell.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.w_i.parameters();
        p.extend(self.w_f.parameters());
        p.extend(self.w_g.parameters());
        p.extend(self.w_o.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes_and_parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(3, 5, &mut rng);
        let x = Var::constant(Matrix::zeros(7, 3));
        assert_eq!(layer.forward(&x).shape(), (7, 5));
        assert_eq!(layer.parameter_count(), 3 * 5 + 5);
        assert_eq!(layer.parameters().len(), 2);
    }

    #[test]
    fn dense_learns_a_linear_map() {
        use crate::optim::Adam;
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(2, 1, &mut rng);
        let mut opt = Adam::new(0.05, layer.parameters());
        // Target function y = 2*x0 - 3*x1 + 1.
        let xs = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.5, 0.25],
        ]);
        let ys = Matrix::from_rows(&[&[1.0], &[3.0], &[-2.0], &[0.0], &[1.25]]);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            opt.zero_grad();
            let pred = layer.forward(&Var::constant(xs.clone()));
            let loss = pred.mse_loss(&ys);
            last = loss.value().get(0, 0);
            loss.backward();
            opt.step();
        }
        assert!(
            last < 1e-3,
            "dense layer failed to fit a linear map: loss={last}"
        );
    }

    #[test]
    fn gated_temporal_conv_preserves_timesteps() {
        let mut rng = StdRng::seed_from_u64(2);
        let conv = GatedTemporalConv::new(4, 8, 3, 2, &mut rng);
        let x = Var::constant(Matrix::zeros(10, 4));
        assert_eq!(conv.forward(&x).shape(), (10, 8));
        assert_eq!(conv.parameters().len(), 4);
        assert_eq!(conv.kernel(), 3);
        assert_eq!(conv.dilation(), 2);
    }

    #[test]
    fn gated_conv_output_is_bounded_by_gate() {
        // tanh ⊙ sigmoid is always within (-1, 1).
        let mut rng = StdRng::seed_from_u64(3);
        let conv = GatedTemporalConv::new(2, 3, 3, 1, &mut rng);
        let x = Var::constant(Matrix::filled(6, 2, 100.0));
        let y = conv.forward(&x).value();
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_state_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let cell = LstmCell::new(3, 6, &mut rng);
        let (h, c) = cell.zero_state(2);
        let x = Var::constant(Matrix::zeros(2, 3));
        let (h2, c2) = cell.forward(&x, &h, &c);
        assert_eq!(h2.shape(), (2, 6));
        assert_eq!(c2.shape(), (2, 6));
        assert_eq!(cell.parameters().len(), 8);
        assert_eq!(cell.hidden_size(), 6);
    }

    #[test]
    fn lstm_learns_to_remember_the_first_input() {
        use crate::optim::Adam;
        // Toy memory task: output should match the first element of the
        // sequence regardless of what follows.
        let mut rng = StdRng::seed_from_u64(5);
        let cell = LstmCell::new(1, 8, &mut rng);
        let head = Dense::new(8, 1, &mut rng);
        let mut params = cell.parameters();
        params.extend(head.parameters());
        let mut opt = Adam::new(0.02, params);
        let sequences = [
            (vec![1.0, 0.3, -0.2, 0.8], 1.0),
            (vec![0.0, 0.9, 0.1, -0.5], 0.0),
            (vec![1.0, -0.7, 0.2, 0.4], 1.0),
            (vec![0.0, 0.5, -0.9, 0.6], 0.0),
        ];
        let mut last = f64::INFINITY;
        for _ in 0..150 {
            opt.zero_grad();
            let mut total: Option<Var> = None;
            for (seq, target) in &sequences {
                let rows: Vec<&[f64]> = seq.chunks(1).collect();
                let x = Var::constant(Matrix::from_rows(&rows));
                let h = cell.run_sequence(&x);
                let pred = head.forward(&h).sigmoid();
                let loss = pred.bce_loss(&Matrix::filled(1, 1, *target));
                total = Some(match total {
                    Some(acc) => acc.add(&loss),
                    None => loss,
                });
            }
            let loss = total
                .expect("non-empty batch")
                .scale(1.0 / sequences.len() as f64);
            last = loss.value().get(0, 0);
            loss.backward();
            opt.step();
        }
        assert!(
            last < 0.2,
            "LSTM failed to learn the memory task: loss={last}"
        );
    }
}
