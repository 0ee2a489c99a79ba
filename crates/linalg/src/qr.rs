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
    reflections: usize,
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
        let mut reflections = 0;

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
            reflections += 1;

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

        Ok(QrDecomposition { q, r, reflections })
    }

    /// The orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-trapezoidal factor `R` (`m × n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Householder reflections applied to build `Q` (a column with nothing
    /// to reflect is skipped): each has determinant −1, so
    /// `det(Q) = (−1)^reflections`.
    pub fn reflections(&self) -> usize {
        self.reflections
    }

    /// Consumes the decomposition and returns `(Q, R)`.
    pub fn into_parts(self) -> (Matrix, Matrix) {
        (self.q, self.r)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::randn_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `det(a)` by Laplace expansion along the first row: exact in sign,
    /// `d!` terms, an oracle for small matrices only.
    pub(crate) fn cofactor_det(a: &Matrix) -> f64 {
        let d = a.rows();
        if d == 1 {
            return a[(0, 0)];
        }
        (0..d)
            .map(|c| {
                let minor = Matrix::from_rows(
                    &(1..d)
                        .map(|i| (0..d).filter(|&j| j != c).map(|j| a[(i, j)]).collect())
                        .collect::<Vec<Vec<f64>>>(),
                );
                let sign = if c.is_multiple_of(2) { 1.0 } else { -1.0 };
                sign * a[(0, c)] * cofactor_det(&minor)
            })
            .sum()
    }

    /// `det(a) = det(Q) · det(R)`, with `det(Q)` from the reflection
    /// count and `det(R)` the product of its diagonal.
    fn qr_det(a: &Matrix) -> f64 {
        let qr = QrDecomposition::new(a).unwrap();
        let sign = (-1f64).powi(qr.reflections() as i32);
        sign * (0..a.rows()).map(|i| qr.r()[(i, i)]).product::<f64>()
    }

    /// The reflection count's parity is the sign of `det(Q)`, for dense
    /// matrices and for ones with a column the loop skips.
    #[test]
    fn reflection_parity_is_the_sign_of_det_q() {
        let mut rng = StdRng::seed_from_u64(21);
        for d in 1..=5 {
            for draw in 0..40u32 {
                let mut a = randn_matrix(d, d, &mut rng);
                if draw.is_multiple_of(4) {
                    // A zero first column: nothing to reflect there.
                    for i in 0..d {
                        a[(i, 0)] = 0.0;
                    }
                }
                let qr = QrDecomposition::new(&a).unwrap();
                let det_q = cofactor_det(qr.q());
                assert!((det_q.abs() - 1.0).abs() < 1e-9, "d={d}: det(Q) = {det_q}");
                let odd = qr.reflections() % 2 == 1;
                assert_eq!(det_q < 0.0, odd, "d={d} draw {draw}");
            }
        }
    }

    #[test]
    fn det_of_triangular_is_diagonal_product() {
        let a = Matrix::from_rows(&[
            vec![2.0, 5.0, 1.0],
            vec![0.0, 3.0, 7.0],
            vec![0.0, 0.0, -4.0],
        ]);
        assert!((qr_det(&a) - (-24.0)).abs() < 1e-10);
    }

    #[test]
    fn det_sign_tracks_row_swap() {
        // Permutation matrix swapping two rows has det -1.
        let p = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((qr_det(&p) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn det_of_random_product_multiplies() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = randn_matrix(4, 4, &mut rng);
        let b = randn_matrix(4, 4, &mut rng);
        let da = qr_det(&a);
        let db = qr_det(&b);
        let dab = qr_det(&(&a * &b));
        assert!((dab - da * db).abs() < 1e-8 * dab.abs().max(1.0));
    }

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
