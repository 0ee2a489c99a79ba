//! Shared whitening workspace: one eigendecomposition, many whiteners.
//!
//! The randomized perturbation optimizer in `sap-privacy` scores dozens of
//! candidate rotations of the **same** base sample `X` per run. An ICA
//! attack on candidate `i` whitens `Yᵢ = Rᵢ·X + Ψᵢ + Δᵢ`, and fitting a
//! [`Whitener`] from scratch costs a covariance pass plus a symmetric
//! eigen solve *per candidate* — even though every candidate shares the
//! one structure that makes the solve expensive:
//!
//! ```text
//! Cov(Yᵢ) = Rᵢ·(Cov(X) + σ²I)·Rᵢᵀ
//! ```
//!
//! Rotations conjugate the covariance, so if `Cov(X) = E·Λ·Eᵀ`, then
//! `Cov(Yᵢ)` has eigenvalues `Λ + σ²` (shared by all candidates) and
//! eigenvectors `Rᵢ·E` (a matrix product away). [`WhiteningWorkspace`]
//! decomposes `Cov(X)` **once** and then mints a candidate's whitener
//! from its rotation with [`WhiteningWorkspace::whitener_for_rotation`] —
//! no per-candidate eigen solve.
//!
//! Granting the evaluation-side attacker this exact whitening is
//! conservative: a real adversary would estimate `Cov(Yᵢ)` from the
//! released data with sampling error, so privacy guarantees measured
//! through the workspace are never optimistic.

use crate::whiten::Whitener;
use sap_linalg::eigen::SymmetricEigen;
use sap_linalg::{LinalgError, Matrix, Result};

/// A cached eigendecomposition of a base covariance, reusable across
/// every rotation of the underlying data. See the module docs.
#[derive(Debug, Clone)]
pub struct WhiteningWorkspace {
    /// `d × k` retained eigenvectors of the base covariance.
    eigvecs: Matrix,
    /// The matching eigenvalues (all above the construction cutoff).
    eigvals: Vec<f64>,
    /// Eigenvalue cutoff used at construction (applied again when noise
    /// variance is added, so near-null directions stay dropped).
    eps: f64,
}

impl WhiteningWorkspace {
    /// Decomposes a `d × d` base covariance, keeping eigendirections with
    /// eigenvalue above `eps`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimension`] when every eigenvalue falls
    ///   below `eps` (constant data cannot be whitened).
    /// * Propagates eigendecomposition failures.
    pub fn from_covariance(cov: &Matrix, eps: f64) -> Result<Self> {
        let eig = SymmetricEigen::new(cov)?;
        let kept: Vec<usize> = (0..eig.eigenvalues().len())
            .filter(|&i| eig.eigenvalues()[i] > eps)
            .collect();
        if kept.is_empty() {
            return Err(LinalgError::InvalidDimension {
                reason: "all variance below eps; cannot whiten constant data",
            });
        }
        let d = cov.rows();
        let eigvecs = Matrix::from_fn(d, kept.len(), |r, c| eig.eigenvectors()[(r, kept[c])]);
        let eigvals = kept.iter().map(|&i| eig.eigenvalues()[i]).collect();
        Ok(WhiteningWorkspace {
            eigvecs,
            eigvals,
            eps,
        })
    }

    /// Number of retained components `k`.
    pub fn rank(&self) -> usize {
        self.eigvals.len()
    }

    /// Builds the whitener of `Y = R·X + ψ + Δ` from the rotation `R`
    /// (`d × d`), the mean record of the realized `Y`, and the noise
    /// variance `σ²` of `Δ`: eigenvectors `R·E`, eigenvalues `Λ + σ²`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `rotation` or `mean_y` disagree with
    /// the workspace dimensionality.
    pub fn whitener_for_rotation(
        &self,
        rotation: &Matrix,
        mean_y: Vec<f64>,
        noise_var: f64,
    ) -> Result<Whitener> {
        let d = self.eigvecs.rows();
        if rotation.rows() != d || rotation.cols() != d || mean_y.len() != d {
            return Err(LinalgError::ShapeMismatch {
                op: "workspace whitener",
                lhs: (d, d),
                rhs: rotation.shape(),
            });
        }
        // Rotated eigenbasis, d × k.
        let re = rotation.matmul(&self.eigvecs)?;
        let k = self.rank();
        let mut w = Matrix::zeros(k, d);
        for j in 0..k {
            let lam = (self.eigvals[j] + noise_var).max(self.eps);
            let s = lam.sqrt();
            for c in 0..d {
                w[(j, c)] = re[(c, j)] / s;
            }
        }
        Whitener::from_parts(mean_y, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::orthogonal::random_orthogonal;
    use sap_linalg::randn_matrix;

    /// Anisotropic correlated data: the workspace whitener of a rotated
    /// copy must produce (near-)identity covariance, like a from-scratch
    /// fit would.
    #[test]
    fn rotated_whitener_whitens() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = randn_matrix(1, 4000, &mut rng);
        let noise = randn_matrix(2, 4000, &mut rng);
        let x = Matrix::from_fn(3, 4000, |r, c| match r {
            0 => 2.0 * base[(0, c)],
            1 => base[(0, c)] + 0.5 * noise[(0, c)],
            _ => 0.3 * noise[(1, c)],
        });
        let r = random_orthogonal(3, &mut rng);
        let y = &r * &x;

        let ws = WhiteningWorkspace::from_covariance(&x.column_covariance(), 1e-10).unwrap();
        assert_eq!(ws.rank(), 3);
        let whitener = ws.whitener_for_rotation(&r, y.row_means(), 0.0).unwrap();
        let z = whitener.transform(&y).unwrap();
        let cov = z.column_covariance();
        assert!(
            cov.approx_eq(&Matrix::identity(3), 0.05),
            "whitened covariance {cov:?}"
        );
    }

    #[test]
    fn noise_variance_inflates_spectrum() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = randn_matrix(2, 2000, &mut rng);
        let ws = WhiteningWorkspace::from_covariance(&x.column_covariance(), 1e-10).unwrap();
        let id = Matrix::identity(2);
        let a = ws.whitener_for_rotation(&id, x.row_means(), 0.0).unwrap();
        let b = ws.whitener_for_rotation(&id, x.row_means(), 0.5).unwrap();
        // Larger assumed variance shrinks the whitening scale.
        for j in 0..2 {
            for c in 0..2 {
                assert!(b.matrix()[(j, c)].abs() <= a.matrix()[(j, c)].abs() + 1e-12);
            }
        }
    }

    #[test]
    fn constant_covariance_rejected() {
        let cov = Matrix::zeros(3, 3);
        assert!(WhiteningWorkspace::from_covariance(&cov, 1e-10).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = randn_matrix(3, 200, &mut rng);
        let ws = WhiteningWorkspace::from_covariance(&x.column_covariance(), 1e-10).unwrap();
        let bad = Matrix::identity(2);
        assert!(ws.whitener_for_rotation(&bad, vec![0.0; 3], 0.0).is_err());
        assert!(ws
            .whitener_for_rotation(&Matrix::identity(3), vec![0.0; 2], 0.0)
            .is_err());
    }

    #[test]
    fn rank_deficient_base_drops_components() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = randn_matrix(2, 800, &mut rng);
        let x = Matrix::from_fn(3, 800, |r, c| match r {
            0 | 1 => base[(r, c)],
            _ => base[(0, c)] - base[(1, c)],
        });
        let ws = WhiteningWorkspace::from_covariance(&x.column_covariance(), 1e-8).unwrap();
        assert_eq!(ws.rank(), 2);
    }
}
