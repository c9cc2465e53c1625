//! Deterministic weight initialisation helpers.

use crate::matrix::Matrix;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Xavier/Glorot uniform initialisation: samples from
/// `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f64).sqrt();
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-limit..limit))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_the_glorot_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = xavier_uniform(10, 20, &mut rng);
        let limit = (6.0 / 30.0_f64).sqrt();
        assert!(m.data().iter().all(|&v| v.abs() <= limit));
        assert_eq!(m.shape(), (10, 20));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }
}
