//! # datawa-tensor
//!
//! A minimal, dependency-free dense linear-algebra and neural-network
//! substrate. The DATA-WA paper trains three neural predictors (an LSTM
//! baseline, a Graph-WaveNet baseline and the proposed DDGNN); mature Rust ML
//! frameworks are outside the dependency budget of this reproduction, so this
//! crate provides exactly the pieces those models need:
//!
//! * [`Matrix`] — row-major `f64` matrices with the usual BLAS-1/2/3-style
//!   operations;
//! * [`Var`] — reverse-mode automatic differentiation over matrices (a small
//!   dynamic tape), with the mean-squared-error and binary-cross-entropy
//!   losses as nodes ([`Var::mse_loss`], [`Var::bce_loss`]);
//! * [`layers`] — dense layers, gated dilated causal temporal convolutions and
//!   recurrent cells built on top of the autograd;
//! * [`optim`] — the Adam optimiser.
//!
//! ```
//! use datawa_tensor::{Matrix, Var};
//!
//! // d/dx sum((x*w)^2) evaluated by the tape.
//! let x = Var::constant(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = Var::parameter(Matrix::from_rows(&[&[3.0], &[4.0]]));
//! let y = x.matmul(&w); // 1x1 = [11]
//! let loss = y.hadamard(&y).sum();
//! loss.backward();
//! // d loss / d w = 2 * (x·w) * x^T = 2*11*[1,2]^T = [22, 44]
//! let g = w.grad();
//! assert!((g.get(0, 0) - 22.0).abs() < 1e-9 && (g.get(1, 0) - 44.0).abs() < 1e-9);
//! ```

pub mod autograd;
pub mod init;
pub mod layers;
pub mod matrix;
pub mod optim;

pub use autograd::Var;
pub use matrix::Matrix;
