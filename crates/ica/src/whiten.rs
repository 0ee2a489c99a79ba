//! Whitening: the zero-mean, unit-covariance transform that precedes ICA.

use crate::center_columns;
use sap_linalg::eigen::SymmetricEigen;
use sap_linalg::{LinalgError, Matrix, Result};

/// A fitted whitening transform `z = W·(x − μ)` with `Cov(z) = I`.
///
/// `W = Λ^{-1/2}·Eᵀ` from the eigendecomposition `Cov(x) = E·Λ·Eᵀ`;
/// components with eigenvalues below `eps` are dropped (rank-deficient
/// data whitens into its effective subspace).
#[derive(Debug, Clone)]
pub struct Whitener {
    mean: Vec<f64>,
    /// `k × d` whitening matrix.
    w: Matrix,
}

impl Whitener {
    /// Fits a whitener on `d × N` data, keeping eigendirections with
    /// eigenvalue above `eps`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimension`] with fewer than two records or if
    ///   every eigenvalue falls below `eps` (constant data).
    /// * Propagates eigendecomposition failures.
    pub fn fit(x: &Matrix, eps: f64) -> Result<Self> {
        if x.cols() < 2 {
            return Err(LinalgError::InvalidDimension {
                reason: "whitening needs at least two records",
            });
        }
        let (_, mean) = center_columns(x);
        let cov = x.column_covariance();
        let eig = SymmetricEigen::new(&cov)?;
        let kept: Vec<usize> = (0..eig.eigenvalues().len())
            .filter(|&i| eig.eigenvalues()[i] > eps)
            .collect();
        if kept.is_empty() {
            return Err(LinalgError::InvalidDimension {
                reason: "all variance below eps; cannot whiten constant data",
            });
        }
        let d = x.rows();
        let k = kept.len();
        let mut w = Matrix::zeros(k, d);
        for (row, &i) in kept.iter().enumerate() {
            let lam = eig.eigenvalues()[i];
            let e = eig.eigenvectors().column(i);
            let s = lam.sqrt();
            for c in 0..d {
                w[(row, c)] = e[c] / s;
            }
        }
        Ok(Whitener { mean, w })
    }

    /// Assembles a whitener from precomputed parts: the mean record and
    /// the `k × d` whitening matrix.
    ///
    /// This is the constructor behind [`crate::workspace::WhiteningWorkspace`]:
    /// when the eigendecomposition a whitener is built from is already
    /// known (e.g. shared across many rotations of the same base data),
    /// the caller supplies the matrices directly instead of paying
    /// [`Whitener::fit`]'s eigen solve again.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when the two parts disagree on `d`.
    pub fn from_parts(mean: Vec<f64>, w: Matrix) -> Result<Self> {
        if w.cols() != mean.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "whitener from parts",
                lhs: w.shape(),
                rhs: (mean.len(), 1),
            });
        }
        Ok(Whitener { mean, w })
    }

    /// The mean record subtracted before whitening.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Number of retained components `k`.
    pub fn rank(&self) -> usize {
        self.w.rows()
    }

    /// The `k × d` whitening matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.w
    }

    /// Whitens `d × N` data into `k × N` scores.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the dimensionality disagrees.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.rows() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "whiten transform",
                lhs: (self.mean.len(), 0),
                rhs: x.shape(),
            });
        }
        let centered = Matrix::from_fn(x.rows(), x.cols(), |r, c| x[(r, c)] - self.mean[r]);
        self.w.matmul(&centered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::randn_matrix;

    #[test]
    fn whitened_data_has_identity_covariance() {
        let mut rng = StdRng::seed_from_u64(3);
        // Correlated data: x2 = x1 + noise.
        let base = randn_matrix(1, 2000, &mut rng);
        let noise = randn_matrix(1, 2000, &mut rng);
        let x = Matrix::from_fn(2, 2000, |r, c| {
            if r == 0 {
                base[(0, c)]
            } else {
                base[(0, c)] + 0.3 * noise[(0, c)]
            }
        });
        let w = Whitener::fit(&x, 1e-12).unwrap();
        let z = w.transform(&x).unwrap();
        let cov = z.column_covariance();
        assert!(cov.approx_eq(&Matrix::identity(2), 0.05), "{cov:?}");
    }

    #[test]
    fn rank_deficient_drops_components() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = randn_matrix(2, 500, &mut rng);
        // Third coordinate is an exact linear combination.
        let x = Matrix::from_fn(3, 500, |r, c| match r {
            0 | 1 => base[(r, c)],
            _ => base[(0, c)] + base[(1, c)],
        });
        let w = Whitener::fit(&x, 1e-8).unwrap();
        assert_eq!(w.rank(), 2);
    }

    #[test]
    fn constant_data_rejected() {
        let x = Matrix::filled(2, 10, 1.0);
        assert!(Whitener::fit(&x, 1e-8).is_err());
    }

    #[test]
    fn shape_errors() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = randn_matrix(3, 50, &mut rng);
        let w = Whitener::fit(&x, 1e-12).unwrap();
        assert!(w.transform(&Matrix::zeros(2, 5)).is_err());
        assert!(Whitener::from_parts(vec![0.0; 2], Matrix::zeros(1, 3)).is_err());
    }
}
