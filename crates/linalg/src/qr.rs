//! Householder QR decomposition.
//!
//! Used to orthonormalize Gaussian matrices when sampling Haar-distributed
//! random rotations (see [`crate::orthogonal`]) and as a least-squares
//! building block.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// The result of a Householder QR decomposition `A = Q · R` with `Q`
/// orthogonal (`m × m`) and `R` upper trapezoidal (`m × n`).
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    q: Matrix,
    r: Matrix,
}

impl QrDecomposition {
    /// Computes the QR decomposition of `a` using Householder reflections.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] for an empty matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidDimension {
                reason: "QR requires a non-empty matrix",
            });
        }
        let mut r = a.clone();
        let mut q = Matrix::identity(m);

        for k in 0..n.min(m.saturating_sub(1)) {
            // Householder vector for column k below the diagonal.
            let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
            let alpha = {
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm == 0.0 {
                    continue;
                }
                // Sign chosen to avoid cancellation.
                if v[0] >= 0.0 {
                    -norm
                } else {
                    norm
                }
            };
            v[0] -= alpha;
            let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
            if vnorm_sq == 0.0 {
                continue;
            }

            // Apply H = I - 2 v vᵀ / (vᵀv) to R (rows k..m).
            for j in k..n {
                let dot: f64 = (k..m).map(|i| v[i - k] * r[(i, j)]).sum();
                let coef = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    r[(i, j)] -= coef * v[i - k];
                }
            }
            // Accumulate Q = Q · H (apply H to Q's columns k..m from the right).
            for i in 0..m {
                let dot: f64 = (k..m).map(|j| q[(i, j)] * v[j - k]).sum();
                let coef = 2.0 * dot / vnorm_sq;
                for j in k..m {
                    q[(i, j)] -= coef * v[j - k];
                }
            }
        }

        // Zero out the numerically-tiny subdiagonal residue so that R is
        // exactly upper triangular for downstream consumers.
        for i in 1..m {
            for j in 0..i.min(n) {
                r[(i, j)] = 0.0;
            }
        }

        Ok(QrDecomposition { q, r })
    }

    /// The orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-trapezoidal factor `R` (`m × n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Consumes the decomposition and returns `(Q, R)`.
    pub fn into_parts(self) -> (Matrix, Matrix) {
        (self.q, self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::randn_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_input() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n) in &[(4, 4), (6, 3), (5, 5), (8, 2)] {
            let a = randn_matrix(m, n, &mut rng);
            let qr = QrDecomposition::new(&a).unwrap();
            let back = qr.q() * qr.r();
            assert!(
                back.approx_eq(&a, 1e-9),
                "QR reconstruction failed for {m}x{n}"
            );
        }
    }

    #[test]
    fn q_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = randn_matrix(6, 6, &mut rng);
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(qr.q().is_orthogonal(1e-9));
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = randn_matrix(5, 4, &mut rng);
        let qr = QrDecomposition::new(&a).unwrap();
        for i in 0..5 {
            for j in 0..i.min(4) {
                assert_eq!(qr.r()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(QrDecomposition::new(&Matrix::zeros(0, 0)).is_err());
    }
}
