//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA-based reconstruction attacks and ICA whitening both need the
//! eigenstructure of covariance matrices, which are symmetric positive
//! semidefinite — exactly the regime where Jacobi rotation sweeps are simple
//! and numerically excellent.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix, with
/// eigenvalues sorted in **descending** order and `V` orthogonal (columns are
/// the corresponding eigenvectors).
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NonFinite`] when any entry is NaN or infinite
    ///   (the sweep tolerance scales with the largest entry, so an
    ///   infinite one would end the sweeps before they start).
    /// * [`LinalgError::NotSymmetric`] when `|aᵢⱼ − aⱼᵢ|` exceeds a small
    ///   tolerance relative to the matrix scale.
    /// * [`LinalgError::NoConvergence`] if the off-diagonal mass does not
    ///   vanish within the sweep budget (practically unreachable for
    ///   covariance matrices).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::InvalidDimension {
                reason: "eigendecomposition requires a non-empty matrix",
            });
        }
        if !a.as_slice().iter().all(|x| x.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        let scale = a.max_abs().max(1.0);
        for i in 0..n {
            for j in i + 1..n {
                if (a[(i, j)] - a[(j, i)]).abs() > 1e-8 * scale {
                    return Err(LinalgError::NotSymmetric);
                }
            }
        }

        let mut m = a.as_slice().to_vec();
        // Symmetrize exactly to kill representation noise.
        for i in 0..n {
            for j in i + 1..n {
                let avg = 0.5 * (m[i * n + j] + m[j * n + i]);
                m[i * n + j] = avg;
                m[j * n + i] = avg;
            }
        }
        let mut v = Matrix::identity(n).into_vec();

        // Sum of squares of the strict upper triangle, row by row.
        let off = |m: &[f64]| -> f64 {
            let mut s = 0.0;
            for (i, row) in m.chunks_exact(n).enumerate() {
                for &x in &row[i + 1..] {
                    s += x * x;
                }
            }
            s
        };

        let tol = 1e-22 * scale * scale * (n as f64);
        let mut sweeps = 0;
        while off(&m) > tol {
            sweeps += 1;
            if sweeps > MAX_SWEEPS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "jacobi eigendecomposition",
                    iterations: MAX_SWEEPS,
                });
            }
            for p in 0..n {
                for q in p + 1..n {
                    let apq = m[p * n + q];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[p * n + p];
                    let aqq = m[q * n + q];
                    // Stable computation of the Jacobi rotation angle.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;

                    // Apply the rotation to columns p and q of m, then to
                    // rows p and q (which read the updated columns).
                    rotate_columns(&mut m, n, p, q, c, s);
                    let (upper, lower) = m.split_at_mut(q * n);
                    let row_p = &mut upper[p * n..(p + 1) * n];
                    let row_q = &mut lower[..n];
                    for (mpk, mqk) in row_p.iter_mut().zip(row_q.iter_mut()) {
                        let (a, b) = (*mpk, *mqk);
                        *mpk = c * a - s * b;
                        *mqk = s * a + c * b;
                    }
                    // Accumulate eigenvectors.
                    rotate_columns(&mut v, n, p, q, c, s);
                }
            }
        }

        // Sort eigenpairs by descending eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| m[j * n + j].total_cmp(&m[i * n + i]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| m[i * n + i]).collect();
        let eigenvectors = Matrix::from_fn(n, n, |r, c| v[r * n + order[c]]);

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthogonal matrix whose columns are the eigenvectors, ordered to match
    /// [`Self::eigenvalues`].
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Reconstructs `V · diag(λ) · Vᵀ` (for testing / residual checks).
    pub fn reconstruct(&self) -> Matrix {
        let d = Matrix::from_diag(&self.eigenvalues);
        &(&self.eigenvectors * &d) * &self.eigenvectors.transpose()
    }
}

/// Applies the Jacobi rotation `(c, s)` to columns `p` and `q` of the
/// row-major `n × n` matrix `m`, one row at a time.
fn rotate_columns(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in m.chunks_exact_mut(n) {
        let (a, b) = (row[p], row[q]);
        row[p] = c * a - s * b;
        row[q] = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::randn_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues(), &[5.0, 3.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.eigenvalues()[0] - 3.0).abs() < 1e-10);
        assert!((e.eigenvalues()[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_random_symmetric() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [2, 4, 8] {
            let g = randn_matrix(n, n, &mut rng);
            let a = &g + &g.transpose(); // symmetric
            let e = SymmetricEigen::new(&a).unwrap();
            assert!(
                e.reconstruct().approx_eq(&a, 1e-8),
                "reconstruction failed n={n}"
            );
            assert!(e.eigenvectors().is_orthogonal(1e-8));
        }
    }

    #[test]
    fn eigenvalues_of_covariance_nonnegative() {
        let mut rng = StdRng::seed_from_u64(23);
        let x = randn_matrix(5, 50, &mut rng);
        let cov = x.column_covariance();
        let e = SymmetricEigen::new(&cov).unwrap();
        for &l in e.eigenvalues() {
            assert!(l > -1e-10, "covariance eigenvalue {l} negative");
        }
        // Sorted descending.
        for w in e.eigenvalues().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eigenvector_satisfies_definition() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let e = SymmetricEigen::new(&a).unwrap();
        for k in 0..3 {
            let v = e.eigenvectors().column(k);
            let av = a.matvec(&v).unwrap();
            let lv: Vec<f64> = v.iter().map(|x| x * e.eigenvalues()[k]).collect();
            for (x, y) in av.iter().zip(&lv) {
                assert!((x - y).abs() < 1e-9, "A v != λ v at pair {k}");
            }
        }
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::NotSymmetric)
        ));
    }

    #[test]
    fn rejects_non_finite_entries() {
        let nan_diag = Matrix::from_diag(&[f64::NAN, 1.0, 1.0]);
        assert_eq!(
            SymmetricEigen::new(&nan_diag).unwrap_err(),
            LinalgError::NonFinite
        );
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::identity(3);
            a[(0, 1)] = inf;
            a[(1, 0)] = inf;
            assert_eq!(SymmetricEigen::new(&a).unwrap_err(), LinalgError::NonFinite);
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = randn_matrix(6, 6, &mut rng);
        let a = &g + &g.transpose();
        let e = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = e.eigenvalues().iter().sum();
        assert!((sum - a.trace()).abs() < 1e-8);
    }
}
