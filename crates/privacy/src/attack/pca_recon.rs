//! PCA-based rotation reconstruction.
//!
//! A rotation preserves the covariance spectrum: if `Y = R·X + Ψ + Δ`, then
//! `Cov(Y) ≈ R·Cov(X)·Rᵀ` (noise inflates the diagonal slightly). An
//! adversary who knows the original covariance can eigendecompose both
//! matrices and align principal axes to estimate `R̂ = E_Y·D·E_Xᵀ`, where
//! `D = diag(±1)` encodes the per-axis sign ambiguity. Signs are resolved
//! greedily by matching the known per-attribute skewness (symmetric data
//! leaves signs ambiguous — a real weakness of the attack that the privacy
//! evaluation inherits faithfully).

use super::{skewness, Attack, AttackerKnowledge};
use sap_ica::center_columns;
use sap_linalg::eigen::SymmetricEigen;
use sap_linalg::Matrix;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcaReconstruction;

impl Attack for PcaReconstruction {
    fn name(&self) -> &'static str {
        "pca-reconstruction"
    }

    fn estimate(&self, perturbed: &Matrix, knowledge: &AttackerKnowledge) -> Option<Matrix> {
        let cov_x = knowledge.covariance.as_ref()?;
        if cov_x.rows() != perturbed.rows() || perturbed.cols() < 2 {
            return None;
        }
        let d = perturbed.rows();

        let (yc, _) = center_columns(perturbed);
        let cov_y = perturbed.column_covariance();
        let eig_y = SymmetricEigen::new(&cov_y).ok()?;
        let eig_x = SymmetricEigen::new(cov_x).ok()?;

        // Project perturbed data onto Y's principal axes; each projected
        // series estimates an original principal score series up to sign.
        let scores = eig_y.eigenvectors().transpose().matmul(&yc).ok()?;

        // Candidate reconstruction for a given sign assignment:
        // X̂c = E_X · D · scores, then add the known means back.
        let means: Vec<f64> = if knowledge.attr_stats.len() == d {
            knowledge.attr_stats.iter().map(|s| s.mean).collect()
        } else {
            vec![0.0; d]
        };
        let target_skew: Vec<f64> = if knowledge.attr_stats.len() == d {
            knowledge.attr_stats.iter().map(|s| s.skewness).collect()
        } else {
            vec![0.0; d]
        };

        // Greedy sign resolution, axis by axis: flip the axis if flipping
        // reduces the distance between reconstructed and known skewness.
        let mut signs = vec![1.0; d];
        let ex = eig_x.eigenvectors().as_slice();
        let n = perturbed.cols();
        // Row r of X̂ starts at the mean and adds one scaled score row per
        // axis `a` ascending — per element the same sum, in the same
        // order, as `means[r] + Σₐ ex[r][a]·signs[a]·scores[a][c]`.
        let reconstruct = |signs: &[f64], xhat: &mut Matrix| {
            for (r, row) in xhat.as_mut_slice().chunks_exact_mut(n).enumerate() {
                row.fill(means[r]);
                for (a, score_row) in scores.as_slice().chunks_exact(n).enumerate() {
                    let coef = ex[r * d + a] * signs[a];
                    for (x, &sc) in row.iter_mut().zip(score_row) {
                        *x += coef * sc;
                    }
                }
            }
        };
        let skew_err = |xhat: &Matrix| -> f64 {
            (0..d)
                .map(|r| {
                    let s = skewness(xhat.row(r));
                    (s - target_skew[r]).powi(2)
                })
                .sum()
        };
        let mut best = Matrix::zeros(d, n);
        reconstruct(&signs, &mut best);
        let mut best_err = skew_err(&best);
        let mut cand = Matrix::zeros(d, n);
        for axis in 0..d {
            signs[axis] = -1.0;
            reconstruct(&signs, &mut cand);
            let err = skew_err(&cand);
            if err + 1e-15 < best_err {
                best_err = err;
                std::mem::swap(&mut best, &mut cand);
            } else {
                signs[axis] = 1.0;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::minimum_privacy_guarantee;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sap_perturb::GeometricPerturbation;

    /// Skewed data with an anisotropic spectrum: the PCA attack should
    /// substantially reconstruct rotation-only perturbation.
    #[test]
    fn breaks_rotation_of_skewed_anisotropic_data() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 3000;
        // Attribute 0: exponential-ish (skewed), large variance.
        // Attribute 1: squared-uniform (skewed), small variance.
        let x = Matrix::from_fn(2, n, |r, _| {
            let u: f64 = rng.random_range(0.0001..1.0);
            match r {
                0 => -u.ln() * 3.0,
                _ => u * u,
            }
        });
        let g = GeometricPerturbation::random(2, 0.0, &mut rng);
        let (y, _) = g.perturb(&x, &mut rng);

        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        let est = PcaReconstruction.estimate(&y, &knowledge).unwrap();
        let rho = minimum_privacy_guarantee(&x, &est);
        assert!(rho < 0.2, "PCA attack should break this, rho {rho}");
    }

    #[test]
    fn requires_covariance_knowledge() {
        let mut rng = StdRng::seed_from_u64(11);
        let y = sap_linalg::randn_matrix(2, 50, &mut rng);
        assert!(PcaReconstruction
            .estimate(&y, &AttackerKnowledge::default())
            .is_none());
    }

    #[test]
    fn isotropic_data_resists() {
        // With an isotropic spectrum the eigenbasis is arbitrary, so the
        // attack cannot align axes: privacy stays high.
        let mut rng = StdRng::seed_from_u64(12);
        let x = sap_linalg::randn_matrix(4, 2000, &mut rng);
        let g = GeometricPerturbation::random(4, 0.0, &mut rng);
        let (y, _) = g.perturb(&x, &mut rng);
        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        let est = PcaReconstruction.estimate(&y, &knowledge).unwrap();
        let rho = minimum_privacy_guarantee(&x, &est);
        assert!(rho > 0.4, "isotropic Gaussian should resist PCA, rho {rho}");
    }

    #[test]
    fn dimension_mismatch_returns_none() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = sap_linalg::randn_matrix(3, 100, &mut rng);
        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        let y = sap_linalg::randn_matrix(2, 100, &mut rng);
        assert!(PcaReconstruction.estimate(&y, &knowledge).is_none());
    }
}
