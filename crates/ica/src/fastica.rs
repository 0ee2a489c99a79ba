//! FastICA with symmetric decorrelation.
//!
//! Hyvärinen's fixed-point iteration with the `tanh` (log-cosh) contrast:
//! given whitened data `Z` (`k × N`), find an orthogonal unmixing matrix `W`
//! such that the rows of `W·Z` are maximally non-Gaussian. Components are
//! recovered up to permutation and sign — which is exactly the ambiguity the
//! ICA attack on geometric perturbation has to live with, and why the attack
//! matches recovered components to known column statistics afterwards.

use crate::whiten::Whitener;
use sap_linalg::eigen::SymmetricEigen;
use sap_linalg::orthogonal::random_orthogonal;
use sap_linalg::{LinalgError, Matrix, Result};

/// Configuration for [`FastIca`].
#[derive(Debug, Clone)]
pub struct FastIcaConfig {
    /// Maximum fixed-point iterations.
    pub max_iter: usize,
    /// Convergence tolerance on `|1 − |diag(W·W_oldᵀ)||`.
    pub tol: f64,
    /// Eigenvalue cutoff handed to the internal [`Whitener`].
    pub whiten_eps: f64,
}

impl Default for FastIcaConfig {
    fn default() -> Self {
        FastIcaConfig {
            max_iter: 200,
            tol: 1e-6,
            whiten_eps: 1e-10,
        }
    }
}

/// A fitted FastICA model.
#[derive(Debug, Clone)]
pub struct FastIca {
    whitener: Whitener,
    /// Orthogonal unmixing matrix in whitened space (`k × k`).
    w: Matrix,
    iterations: usize,
}

impl FastIca {
    /// Runs FastICA on `d × N` data (records are columns).
    ///
    /// `rng` seeds the initial unmixing matrix; the fixed point is otherwise
    /// deterministic.
    ///
    /// # Errors
    ///
    /// * Propagates whitening failures (constant or too-small data).
    /// * [`LinalgError::NoConvergence`] if the fixed-point iteration does not
    ///   converge within `config.max_iter` sweeps.
    pub fn fit<R: rand::Rng + ?Sized>(
        x: &Matrix,
        config: &FastIcaConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let whitener = Whitener::fit(x, config.whiten_eps)?;
        Self::fit_with_whitener(whitener, x, config, rng)
    }

    /// Runs FastICA with a caller-supplied whitener instead of fitting one
    /// from `x` — the reuse hook for evaluating many rotations of the same
    /// base data, where the whitener comes from a shared
    /// [`crate::workspace::WhiteningWorkspace`] instead of a per-call
    /// eigen solve.
    ///
    /// # Errors
    ///
    /// * Shape errors when `whitener` and `x` disagree on dimensionality.
    /// * [`LinalgError::NoConvergence`] if the fixed-point iteration does
    ///   not converge within `config.max_iter` sweeps.
    pub fn fit_with_whitener<R: rand::Rng + ?Sized>(
        whitener: Whitener,
        x: &Matrix,
        config: &FastIcaConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let z = whitener.transform(x)?;
        let k = whitener.rank();
        let n = z.cols() as f64;

        let mut w = random_orthogonal(k, rng);
        // Per-iteration buffers: `g` holds W·Z and then tanh of it in
        // place, `ezg` holds E[g·zᵀ].
        let mut g = Matrix::zeros(k, z.cols());
        let mut ezg = Matrix::zeros(k, k);
        let mut g_prime_mean = vec![0.0; k];
        let mut iterations = 0;
        loop {
            iterations += 1;
            if iterations > config.max_iter {
                return Err(LinalgError::NoConvergence {
                    algorithm: "fastica",
                    iterations: config.max_iter,
                });
            }

            // One fixed-point step for all components:
            //   W⁺ = E[g(W·z)·zᵀ] − diag(E[g'(W·z)])·W,  g = tanh.
            w.matmul_into(&z, &mut g)?;
            for (row, gp) in g
                .as_mut_slice()
                .chunks_exact_mut(z.cols())
                .zip(&mut g_prime_mean)
            {
                for v in row.iter_mut() {
                    *v = v.tanh();
                }
                *gp = row.iter().map(|v| 1.0 - v * v).sum::<f64>() / n;
            }
            g.mul_transpose_into(&z, &mut ezg)?;
            ezg *= 1.0 / n;
            for (r, gp) in g_prime_mean.iter().enumerate() {
                for (e, wv) in ezg.row_mut(r).iter_mut().zip(w.row(r)) {
                    *e -= gp * wv;
                }
            }

            let w_next = symmetric_decorrelate(&ezg)?;
            // Convergence: every updated row stays (anti-)parallel to the
            // previous one. Only the diagonal of W⁺·Wᵀ is needed; each
            // entry accumulates like `mul_transpose` (ascending, from 0.0,
            // zero left factors skipped).
            let worst = (0..k)
                .map(|i| {
                    let mut dot = 0.0_f64;
                    for (&a, &b) in w_next.row(i).iter().zip(w.row(i)) {
                        if a != 0.0 {
                            dot += a * b;
                        }
                    }
                    (dot.abs() - 1.0).abs()
                })
                .fold(0.0_f64, f64::max);
            w = w_next;
            if worst < config.tol {
                break;
            }
        }

        Ok(FastIca {
            whitener,
            w,
            iterations,
        })
    }

    /// Number of fixed-point iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of recovered components.
    pub fn num_components(&self) -> usize {
        self.w.rows()
    }

    /// The orthogonal unmixing matrix in whitened space.
    pub fn unmixing(&self) -> &Matrix {
        &self.w
    }

    /// Recovers the source matrix (`k × N`) from `d × N` data.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the dimensionality disagrees with the fit.
    pub fn sources(&self, x: &Matrix) -> Result<Matrix> {
        let z = self.whitener.transform(x)?;
        self.w.matmul(&z)
    }
}

/// Symmetric decorrelation: `W ← (W·Wᵀ)^{-1/2}·W`, which re-orthogonalizes
/// all rows simultaneously (no deflation order bias).
fn symmetric_decorrelate(w: &Matrix) -> Result<Matrix> {
    let wwt = w.mul_transpose(w)?;
    let eig = SymmetricEigen::new(&wwt)?;
    let k = w.rows();
    let e = eig.eigenvectors().as_slice();
    let mut inv_sqrt = Matrix::zeros(k, k);
    for (i, &lam) in eig.eigenvalues().iter().enumerate() {
        if lam <= 1e-12 {
            return Err(LinalgError::Singular);
        }
        let s = 1.0 / lam.sqrt();
        // Eigenvector i is column i of the row-major k × k matrix.
        for (a, out_row) in inv_sqrt.as_mut_slice().chunks_exact_mut(k).enumerate() {
            let sa = s * e[a * k + i];
            for (b, out) in out_row.iter_mut().enumerate() {
                *out += sa * e[b * k + i];
            }
        }
    }
    inv_sqrt.matmul(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sap_linalg::vecops;

    /// Builds d×N data from independent non-Gaussian sources mixed by a
    /// random rotation, then checks FastICA recovers the sources up to
    /// permutation/sign (correlation |r| > 0.95 with some true source).
    #[test]
    fn separates_uniform_sources() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 3000;
        let d = 3;
        let sources = Matrix::from_fn(d, n, |_, _| rng.random_range(-1.732..1.732));
        let mixing = random_orthogonal(d, &mut rng);
        let x = &mixing * &sources;

        let ica = FastIca::fit(&x, &FastIcaConfig::default(), &mut rng).unwrap();
        let rec = ica.sources(&x).unwrap();
        assert_eq!(rec.rows(), d);

        for true_idx in 0..d {
            let t = sources.row(true_idx);
            let best = (0..d)
                .map(|r| correlation(t, rec.row(r)).abs())
                .fold(0.0_f64, f64::max);
            assert!(best > 0.95, "source {true_idx} recovered with |r|={best}");
        }
    }

    #[test]
    fn unmixing_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(12);
        let sources = Matrix::from_fn(2, 1500, |_, _| rng.random_range(-1.0..1.0));
        let mixing = random_orthogonal(2, &mut rng);
        let x = &mixing * &sources;
        let ica = FastIca::fit(&x, &FastIcaConfig::default(), &mut rng).unwrap();
        assert!(ica.unmixing().is_orthogonal(1e-6));
        assert!(ica.iterations() >= 1);
    }

    #[test]
    fn sources_are_unit_variance() {
        let mut rng = StdRng::seed_from_u64(13);
        let sources = Matrix::from_fn(2, 2000, |_, _| rng.random_range(-2.0..2.0));
        let mixing = random_orthogonal(2, &mut rng);
        let x = &mixing * &sources;
        let ica = FastIca::fit(&x, &FastIcaConfig::default(), &mut rng).unwrap();
        let rec = ica.sources(&x).unwrap();
        for r in 0..2 {
            let v = vecops::variance(rec.row(r));
            assert!((v - 1.0).abs() < 0.1, "component {r} variance {v}");
        }
    }

    #[test]
    fn gaussian_sources_often_fail_or_arbitrary() {
        // ICA cannot separate Gaussian sources; it should either not converge
        // or produce *some* orthogonal W — but must never panic.
        let mut rng = StdRng::seed_from_u64(14);
        let x = sap_linalg::randn_matrix(2, 800, &mut rng);
        let cfg = FastIcaConfig {
            max_iter: 30,
            ..FastIcaConfig::default()
        };
        let _ = FastIca::fit(&x, &cfg, &mut rng);
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let ma = vecops::mean(a);
        let mb = vecops::mean(b);
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let da: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>().sqrt();
        let db: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>().sqrt();
        if da == 0.0 || db == 0.0 {
            0.0
        } else {
            num / (da * db)
        }
    }
}
