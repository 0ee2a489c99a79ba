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
                    *v = tanh(*v);
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

/// The contrast's `tanh`, pinned in source so fit results do not depend on
/// the host's libm; within 3 ulp of `f64::tanh` (see the tests).
///
/// Branch-free so the fixed-point loop vectorizes: both halves are
/// computed, then one is selected, with a single division. Below
/// |x| = 0.625 it is Cephes' rational `x + x·z·P(z)/Q(z)` (z = x²);
/// above, `(1 − e)/(1 + e)` with `e = exp(−2|x|)`, where the exponential
/// is a Cody–Waite reduction by ln 2 (rounded through a magic number, as
/// `f64::round` is a libm call on baseline x86-64), a degree-12 Taylor
/// polynomial and a `2ⁿ` scale built in the exponent bits. |x| is clamped
/// at 20, where the result is exactly ±1; NaN passes the clamp and
/// propagates.
fn tanh(x: f64) -> f64 {
    const P: [f64; 3] = [-0.9643991794250523, -99.28772310019185, -1614.6876844170845];
    const Q: [f64; 3] = [112.81167849163293, 2235.4883906010045, 4844.063053251255];
    // 1.5·2⁵²: adding it rounds to an integer held in the low mantissa bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    const LN2_HI: f64 = 0.6931471803691238;
    const LN2_LO: f64 = 1.9082149292705877e-10;
    const INV_FACTORIAL: [f64; 13] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
        1.0 / 479_001_600.0,
    ];

    let a = x.abs();
    let a = if a > 20.0 { 20.0 } else { a };
    let z = a * a;
    let p = (P[0] * z + P[1]) * z + P[2];
    let q = ((z + Q[0]) * z + Q[1]) * z + Q[2];

    let y = -2.0 * a;
    let t = y * std::f64::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (y - n * LN2_HI) - n * LN2_LO;
    let mut e = INV_FACTORIAL[12];
    for &c in INV_FACTORIAL[..12].iter().rev() {
        e = e * r + c;
    }
    let two_n = t.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(1023) << 52;
    let e = e * f64::from_bits(two_n);

    // Select through a bit mask: on SSE2 a float `if` is costed too high
    // for the loop vectorizer, the integer blend is not.
    let small = 0u64.wrapping_sub(u64::from(a < 0.625));
    let pick = |s: f64, l: f64| f64::from_bits((s.to_bits() & small) | (l.to_bits() & !small));
    let ratio = pick(p, 1.0 - e) / pick(q, 1.0 + e);
    pick(a + a * z * ratio, ratio).copysign(x)
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

    /// Distance between two finite doubles in units in the last place.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    #[test]
    fn tanh_within_4_ulp_of_libm() {
        // A dense grid over [−30, 30], then about 187 000 doubles spread
        // evenly in bit pattern (so per binade) from the smallest subnormal
        // up to 30, on both signs. Measured maximum: 3.
        let grid = (0..=600_000).map(|i| -30.0 + f64::from(i) * 1e-4);
        let sweep = (1..=30.0_f64.to_bits())
            .step_by(0x1684_5678_9abd)
            .flat_map(|b| [f64::from_bits(b), -f64::from_bits(b)]);
        let (worst, at) = grid
            .chain(sweep)
            .map(|x| (ulps(tanh(x), x.tanh()), x))
            .fold((0, 0.0), |w, c| if c.0 > w.0 { c } else { w });
        assert!(worst <= 4, "{worst} ulp from f64::tanh at {at:e}");
    }

    #[test]
    fn tanh_is_odd_and_keeps_signed_zero() {
        assert_eq!(tanh(0.0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0_f64).to_bits());
        for i in 1..=300_000 {
            let x = f64::from(i) * 1e-4;
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn tanh_saturates_to_exactly_one() {
        for x in [20.0, 20.5, 37.0, 1e3, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(tanh(x), 1.0, "x = {x}");
            assert_eq!(tanh(-x), -1.0, "x = {x}");
        }
    }

    #[test]
    fn tanh_of_nan_is_nan() {
        assert!(tanh(f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
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
