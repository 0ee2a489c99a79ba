//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used by the synthetic dataset generators to impose a target covariance on
//! Gaussian class clusters (`x = μ + L·z` with `Σ = L·Lᵀ`).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Applies `L` to a vector: `L·z`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for a wrong-length input.
    pub fn apply(&self, z: &[f64]) -> Result<Vec<f64>> {
        self.l.matvec(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::randn_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_spd_matrix() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [1, 3, 6] {
            let g = randn_matrix(n, n + 2, &mut rng);
            let a = &g * &g.transpose(); // SPD with probability 1
            let chol = Cholesky::new(&a).unwrap();
            let back = chol.l() * &chol.l().transpose();
            assert!(back.approx_eq(&a, 1e-8), "Cholesky failed n={n}");
        }
    }

    #[test]
    fn l_is_lower_triangular() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let chol = Cholesky::new(&a).unwrap();
        assert_eq!(chol.l()[(0, 1)], 0.0);
        assert!((chol.l()[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn apply_matches_matvec() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let chol = Cholesky::new(&a).unwrap();
        let z = vec![1.0, -1.0];
        assert_eq!(chol.apply(&z).unwrap(), chol.l().matvec(&z).unwrap());
        assert!(chol.apply(&[1.0]).is_err());
    }

    #[test]
    fn identity_factor_is_identity() {
        let chol = Cholesky::new(&Matrix::identity(4)).unwrap();
        assert!(chol.l().approx_eq(&Matrix::identity(4), 1e-12));
    }
}
