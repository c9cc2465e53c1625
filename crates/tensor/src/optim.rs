//! The gradient-descent optimiser.

use crate::autograd::Var;
use crate::matrix::Matrix;

/// Adam optimiser (Kingma & Ba) with bias correction.
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical stabiliser.
    pub eps: f64,
    params: Vec<Var>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimiser with the standard betas (0.9, 0.999).
    pub fn new(lr: f64, params: Vec<Var>) -> Adam {
        assert!(lr > 0.0, "learning rate must be positive");
        let m = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        let v = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            params,
            m,
            v,
            t: 0,
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Applies one Adam step using the currently accumulated gradients.
    pub fn step(&mut self) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, p) in self.params.iter().enumerate() {
            let g = p.grad();
            self.m[idx] = &self.m[idx].scale(self.beta1) + &g.scale(1.0 - self.beta1);
            self.v[idx] = &self.v[idx].scale(self.beta2) + &g.hadamard(&g).scale(1.0 - self.beta2);
            let m_hat = self.m[idx].scale(1.0 / b1t);
            let v_hat = self.v[idx].scale(1.0 / b2t);
            let update = m_hat.zip(&v_hat, |m, v| m / (v.sqrt() + self.eps));
            let new = &p.value() - &update.scale(self.lr);
            p.set_value(new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise (x - 3)^2 and check convergence.
    fn quadratic_loss(x: &Var) -> Var {
        let d = x.add_const(&Matrix::filled(1, 1, -3.0));
        d.hadamard(&d).sum()
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        let x = Var::parameter(Matrix::filled(1, 1, -5.0));
        let mut opt = Adam::new(0.3, vec![x.clone()]);
        for _ in 0..300 {
            opt.zero_grad();
            quadratic_loss(&x).backward();
            opt.step();
        }
        assert!((x.value().get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_learning_rate_is_rejected() {
        let _ = Adam::new(0.0, vec![]);
    }
}
