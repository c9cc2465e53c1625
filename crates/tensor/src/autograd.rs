//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The graph is built dynamically: every operation on a [`Var`] produces a new
//! node that remembers its parents and how to push a gradient back to them.
//! Calling [`Var::backward`] on a scalar node performs a topological sort and
//! accumulates gradients into every parameter node reachable from it.
//!
//! The op set is intentionally small — exactly what the LSTM, Graph-WaveNet
//! and DDGNN predictors need: matmul, element-wise arithmetic, activations,
//! row-softmax, bias broadcast, transpose, concatenation, row slicing and
//! scalar reductions. The dilated causal convolutions take their taps
//! already unfolded into a constant matrix (see
//! [`GatedTemporalConv`](crate::layers::GatedTemporalConv)), so unfolding is
//! no op of the graph.

use crate::matrix::{sigmoid, Matrix};
use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

type BackwardFn = Box<dyn Fn(&Matrix, &[Var])>;

struct Node {
    value: RefCell<Matrix>,
    grad: RefCell<Matrix>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    requires_grad: bool,
}

/// A node in the autograd graph holding a matrix value.
///
/// `Var` is a cheap handle (`Rc`) — cloning shares the underlying node.
#[derive(Clone)]
pub struct Var(Rc<Node>);

impl Var {
    fn new_node(
        value: Matrix,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
        requires_grad: bool,
    ) -> Var {
        let (r, c) = value.shape();
        Var(Rc::new(Node {
            value: RefCell::new(value),
            grad: RefCell::new(Matrix::zeros(r, c)),
            parents,
            backward,
            requires_grad,
        }))
    }

    /// A leaf that does not require gradients (inputs, targets, constants).
    pub fn constant(value: Matrix) -> Var {
        Var::new_node(value, Vec::new(), None, false)
    }

    /// A trainable leaf; gradients accumulate into it on [`Var::backward`].
    pub fn parameter(value: Matrix) -> Var {
        Var::new_node(value, Vec::new(), None, true)
    }

    /// Current value (cloned).
    pub fn value(&self) -> Matrix {
        self.0.value.borrow().clone()
    }

    /// Current value, borrowed: inference reads weights through this instead
    /// of cloning them per call. The borrow must end before the node's value
    /// is overwritten ([`Var::set_value`]).
    pub fn value_ref(&self) -> Ref<'_, Matrix> {
        self.0.value.borrow()
    }

    /// Shape of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.0.value.borrow().shape()
    }

    /// Accumulated gradient (cloned). Zero for constants and before
    /// `backward`.
    pub fn grad(&self) -> Matrix {
        self.0.grad.borrow().clone()
    }

    /// Whether this node participates in gradient accumulation.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// Overwrites the value of a leaf node (used by optimisers).
    pub fn set_value(&self, value: Matrix) {
        assert_eq!(
            value.shape(),
            self.0.value.borrow().shape(),
            "set_value must preserve shape"
        );
        *self.0.value.borrow_mut() = value;
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        let (r, c) = self.shape();
        *self.0.grad.borrow_mut() = Matrix::zeros(r, c);
    }

    fn accumulate_grad(&self, g: &Matrix) {
        let mut cur = self.0.grad.borrow_mut();
        *cur = &*cur + g;
    }

    fn ptr_id(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// Runs reverse-mode differentiation from this node, which must be a 1×1
    /// scalar (a loss). Gradients are *accumulated*: call
    /// [`Var::zero_grad`] (or an optimiser's `zero_grad`) on parameters
    /// between steps.
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward() must start from a scalar");
        // Topological order via iterative post-order DFS.
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                order.push(node);
                continue;
            }
            if !visited.insert(node.ptr_id()) {
                continue;
            }
            stack.push((node.clone(), true));
            for p in &node.0.parents {
                if !visited.contains(&p.ptr_id()) {
                    stack.push((p.clone(), false));
                }
            }
        }
        // Seed the output gradient with 1.
        self.accumulate_grad(&Matrix::filled(1, 1, 1.0));
        // Propagate in reverse topological order.
        for node in order.iter().rev() {
            if let Some(backward) = &node.0.backward {
                let grad_out = node.0.grad.borrow().clone();
                backward(&grad_out, &node.0.parents);
            }
        }
    }

    // ----------------------------------------------------------------------
    // Operations
    // ----------------------------------------------------------------------

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = self.value().matmul(&rhs.value());
        let a = self.clone();
        let b = rhs.clone();
        Var::new_node(
            value,
            vec![a, b],
            Some(Box::new(move |grad_out, parents| {
                let a = &parents[0];
                let b = &parents[1];
                if a.requires_grad_reachable() {
                    a.accumulate_grad(&grad_out.matmul(&b.value().transpose()));
                }
                if b.requires_grad_reachable() {
                    b.accumulate_grad(&a.value().transpose().matmul(grad_out));
                }
            })),
            true,
        )
    }

    /// Element-wise sum.
    pub fn add(&self, rhs: &Var) -> Var {
        let value = &self.value() + &rhs.value();
        Var::new_node(
            value,
            vec![self.clone(), rhs.clone()],
            Some(Box::new(move |grad_out, parents| {
                parents[0].accumulate_grad(grad_out);
                parents[1].accumulate_grad(grad_out);
            })),
            true,
        )
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Var) -> Var {
        let value = self.value().hadamard(&rhs.value());
        Var::new_node(
            value,
            vec![self.clone(), rhs.clone()],
            Some(Box::new(move |grad_out, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                parents[0].accumulate_grad(&grad_out.hadamard(&b));
                parents[1].accumulate_grad(&grad_out.hadamard(&a));
            })),
            true,
        )
    }

    /// Scales by a constant.
    pub fn scale(&self, s: f64) -> Var {
        let value = self.value().scale(s);
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                parents[0].accumulate_grad(&grad_out.scale(s));
            })),
            true,
        )
    }

    /// Adds a constant matrix (not differentiated through).
    pub fn add_const(&self, c: &Matrix) -> Var {
        let value = &self.value() + c;
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                parents[0].accumulate_grad(grad_out);
            })),
            true,
        )
    }

    /// Broadcast-adds a 1×cols bias row to every row.
    pub fn add_bias(&self, bias: &Var) -> Var {
        let value = self.value().add_row_broadcast(&bias.value());
        Var::new_node(
            value,
            vec![self.clone(), bias.clone()],
            Some(Box::new(move |grad_out, parents| {
                parents[0].accumulate_grad(grad_out);
                parents[1].accumulate_grad(&grad_out.sum_rows());
            })),
            true,
        )
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.value().map(f64::tanh);
        let cached = value.clone();
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let d = cached.map(|y| 1.0 - y * y);
                parents[0].accumulate_grad(&grad_out.hadamard(&d));
            })),
            true,
        )
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.value().map(sigmoid);
        let cached = value.clone();
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let d = cached.map(|y| y * (1.0 - y));
                parents[0].accumulate_grad(&grad_out.hadamard(&d));
            })),
            true,
        )
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&self) -> Var {
        let input = self.value();
        let value = input.map(|v| v.max(0.0));
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let mask = input.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                parents[0].accumulate_grad(&grad_out.hadamard(&mask));
            })),
            true,
        )
    }

    /// Row-wise softmax (each row normalised independently).
    pub fn softmax_rows(&self) -> Var {
        let value = self.value().softmax_rows();
        let cached = value.clone();
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                // d softmax / d x applied row by row:
                // grad_in_j = s_j * (grad_out_j - Σ_k grad_out_k s_k)
                let (rows, cols) = cached.shape();
                let mut grad_in = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    let s = cached.row(r);
                    let g = grad_out.row(r);
                    let dot: f64 = s.iter().zip(g.iter()).map(|(a, b)| a * b).sum();
                    for c in 0..cols {
                        grad_in.set(r, c, s[c] * (g[c] - dot));
                    }
                }
                parents[0].accumulate_grad(&grad_in);
            })),
            true,
        )
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        let value = self.value().transpose();
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                parents[0].accumulate_grad(&grad_out.transpose());
            })),
            true,
        )
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Var) -> Var {
        let left_cols = self.shape().1;
        let value = self.value().concat_cols(&rhs.value());
        Var::new_node(
            value,
            vec![self.clone(), rhs.clone()],
            Some(Box::new(move |grad_out, parents| {
                let (rows, total) = grad_out.shape();
                let right_cols = total - left_cols;
                let mut ga = Matrix::zeros(rows, left_cols);
                let mut gb = Matrix::zeros(rows, right_cols);
                for r in 0..rows {
                    ga.row_mut(r).copy_from_slice(&grad_out.row(r)[..left_cols]);
                    gb.row_mut(r).copy_from_slice(&grad_out.row(r)[left_cols..]);
                }
                parents[0].accumulate_grad(&ga);
                parents[1].accumulate_grad(&gb);
            })),
            true,
        )
    }

    /// Extracts a contiguous block of rows as a new node.
    pub fn rows_slice(&self, start: usize, len: usize) -> Var {
        let input_shape = self.shape();
        let value = self.value().rows_slice(start, len);
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let mut grad_in = Matrix::zeros(input_shape.0, input_shape.1);
                for r in 0..grad_out.rows() {
                    grad_in.row_mut(start + r).copy_from_slice(grad_out.row(r));
                }
                parents[0].accumulate_grad(&grad_in);
            })),
            true,
        )
    }

    /// Mean squared error against a constant target, as a 1×1 node.
    pub fn mse_loss(&self, target: &Matrix) -> Var {
        assert_eq!(self.shape(), target.shape(), "mse target shape mismatch");
        let pred = self.value();
        let n = (pred.rows() * pred.cols()) as f64;
        let diff = &pred - target;
        let value = Matrix::filled(1, 1, diff.data().iter().map(|v| v * v).sum::<f64>() / n);
        let target = target.clone();
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let g = grad_out.get(0, 0);
                let pred = parents[0].value();
                let grad_in = (&pred - &target).scale(2.0 * g / n);
                parents[0].accumulate_grad(&grad_in);
            })),
            true,
        )
    }

    /// Binary cross-entropy against a constant 0/1 target, as a 1×1 node.
    ///
    /// `self` must hold probabilities in `(0, 1)` (e.g. the output of
    /// [`Var::sigmoid`]); values are clamped to `[1e-7, 1 - 1e-7]` for
    /// numerical stability, exactly like common DL framework implementations.
    pub fn bce_loss(&self, target: &Matrix) -> Var {
        assert_eq!(self.shape(), target.shape(), "bce target shape mismatch");
        const EPS: f64 = 1e-7;
        let pred = self.value().map(|p| p.clamp(EPS, 1.0 - EPS));
        let n = (pred.rows() * pred.cols()) as f64;
        let total: f64 = pred
            .data()
            .iter()
            .zip(target.data().iter())
            .map(|(&p, &t)| -(t * p.ln() + (1.0 - t) * (1.0 - p).ln()))
            .sum();
        let value = Matrix::filled(1, 1, total / n);
        let target = target.clone();
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let g = grad_out.get(0, 0);
                let pred = parents[0].value().map(|p| p.clamp(EPS, 1.0 - EPS));
                let grad_in = pred.zip(&target, |p, t| g * (p - t) / (p * (1.0 - p)) / n);
                parents[0].accumulate_grad(&grad_in);
            })),
            true,
        )
    }

    /// Sum of all elements as a 1×1 node.
    pub fn sum(&self) -> Var {
        let (rows, cols) = self.shape();
        let value = Matrix::filled(1, 1, self.value().sum());
        Var::new_node(
            value,
            vec![self.clone()],
            Some(Box::new(move |grad_out, parents| {
                let g = grad_out.get(0, 0);
                parents[0].accumulate_grad(&Matrix::filled(rows, cols, g));
            })),
            true,
        )
    }

    fn requires_grad_reachable(&self) -> bool {
        // A node participates in differentiation if it is itself a parameter
        // or an interior node (interior nodes always require grad so the chain
        // reaches parameters below them).
        self.0.requires_grad || !self.0.parents.is_empty()
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (r, c) = self.shape();
        write!(
            f,
            "Var({}x{}, requires_grad={})",
            r, c, self.0.requires_grad
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Finite-difference gradient check of `param` inside the scalar `loss`,
    /// which may read other parameters too.
    pub(crate) fn check_parameter(param: &Var, loss: impl Fn() -> Var, tolerance: f64) {
        param.zero_grad();
        loss().backward();
        let (value, analytic) = (param.value(), param.grad());
        let eps = 1e-5;
        for i in 0..value.len() {
            let at = |delta: f64| {
                let mut moved = value.clone();
                moved.data_mut()[i] += delta;
                param.set_value(moved);
                loss().value().get(0, 0)
            };
            let numeric = (at(eps) - at(-eps)) / (2.0 * eps);
            param.set_value(value.clone());
            let analytic = analytic.data()[i];
            assert!(
                (numeric - analytic).abs() < tolerance,
                "grad mismatch at {i}: numeric={numeric} analytic={analytic}"
            );
        }
    }

    /// [`check_parameter`] for a scalar function of one parameter matrix.
    fn check_gradient(param: Matrix, f: impl Fn(&Var) -> Var, tolerance: f64) {
        let p = Var::parameter(param);
        check_parameter(&p, || f(&p), tolerance);
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let x = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        check_gradient(
            Matrix::from_rows(&[&[0.3, 0.7], &[-0.2, 0.1]]),
            |w| Var::constant(x.clone()).matmul(w).tanh().sum(),
            1e-6,
        );
    }

    #[test]
    fn sigmoid_relu_chain_gradients() {
        check_gradient(
            Matrix::from_rows(&[&[0.2, -0.4, 0.6]]),
            |w| w.sigmoid().relu().hadamard(&w.sigmoid().relu()).sum(),
            1e-6,
        );
    }

    #[test]
    fn softmax_gradients_match_finite_differences() {
        check_gradient(
            Matrix::from_rows(&[&[0.1, 0.5, -0.3], &[1.0, -1.0, 0.2]]),
            |w| {
                let target = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
                w.softmax_rows()
                    .hadamard(&Var::constant(target))
                    .sum()
                    .scale(-1.0)
            },
            1e-6,
        );
    }

    #[test]
    fn bias_broadcast_gradients() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        check_gradient(
            Matrix::row_vector(&[0.1, -0.2]),
            |b| Var::constant(x.clone()).add_bias(b).tanh().sum(),
            1e-6,
        );
    }

    #[test]
    fn shared_subexpression_accumulates_gradient_once_per_use() {
        // loss = sum(w + w) => dloss/dw = 2 for each element.
        let w = Var::parameter(Matrix::from_rows(&[&[1.0, 2.0]]));
        let loss = w.add(&w).sum();
        loss.backward();
        assert_eq!(w.grad(), Matrix::from_rows(&[&[2.0, 2.0]]));
    }

    #[test]
    fn transpose_and_concat_gradients() {
        check_gradient(
            Matrix::from_rows(&[&[0.5, -0.5], &[0.25, 0.75]]),
            |w| w.transpose().concat_cols(w).tanh().sum(),
            1e-6,
        );
    }

    #[test]
    fn rows_slice_gradients() {
        check_gradient(
            Matrix::from_rows(&[&[0.5, -0.5], &[0.25, 0.75], &[1.0, -1.0]]),
            |w| w.rows_slice(1, 2).sigmoid().sum(),
            1e-6,
        );
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let w = Var::parameter(Matrix::zeros(2, 2));
        w.backward();
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = Var::constant(Matrix::from_rows(&[&[1.0, 3.0]]));
        let t = Matrix::from_rows(&[&[0.0, 1.0]]);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((p.mse_loss(&t).value().get(0, 0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bce_is_low_for_confident_correct_predictions() {
        let t = Matrix::from_rows(&[&[1.0, 0.0]]);
        let good = Var::constant(Matrix::from_rows(&[&[0.99, 0.01]]));
        let bad = Var::constant(Matrix::from_rows(&[&[0.01, 0.99]]));
        let lg = good.bce_loss(&t).value().get(0, 0);
        let lb = bad.bce_loss(&t).value().get(0, 0);
        assert!(lg < 0.05);
        assert!(lb > 3.0);
        assert!(lg < lb);
    }

    #[test]
    fn bce_gradient_pushes_towards_target() {
        let p = Var::parameter(Matrix::from_rows(&[&[0.3]]));
        let sig = p.sigmoid();
        let loss = sig.bce_loss(&Matrix::from_rows(&[&[1.0]]));
        loss.backward();
        // d loss / d p must be negative: increasing p increases sigmoid(p)
        // towards the target 1 and decreases the loss.
        assert!(p.grad().get(0, 0) < 0.0);
    }
}
