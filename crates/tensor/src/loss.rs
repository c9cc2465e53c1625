//! Loss functions (thin wrappers over the autograd loss nodes).

use crate::autograd::Var;
use crate::matrix::Matrix;

/// Mean squared error between predictions and a constant target.
pub fn mse(pred: &Var, target: &Matrix) -> Var {
    pred.mse_loss(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let t = Matrix::from_rows(&[&[1.0, 2.0]]);
        let p = Var::constant(t.clone());
        assert!(mse(&p, &t).value().get(0, 0).abs() < 1e-12);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = Var::constant(Matrix::from_rows(&[&[1.0, 3.0]]));
        let t = Matrix::from_rows(&[&[0.0, 1.0]]);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((mse(&p, &t).value().get(0, 0) - 2.5).abs() < 1e-12);
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
