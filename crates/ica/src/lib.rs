//! Whitening and FastICA.
//!
//! The attack model of Chen & Liu's SDM'07 companion paper (reference \[2\] of
//! the PODC'07 brief) assumes the adversary runs *independent component
//! analysis* on the perturbed dataset to undo an unknown rotation: a rotation
//! mixes the original attributes linearly, and if those attributes are
//! non-Gaussian and independent-ish, ICA can recover them up to permutation
//! and sign. The randomized perturbation optimizer in `sap-privacy` scores
//! candidate rotations by how well this attack (and the PCA variant) does.
//!
//! Contents:
//!
//! * [`whiten::Whitener`] — zero-mean, unit-covariance transform, the
//!   standard ICA preprocessing step.
//! * [`workspace::WhiteningWorkspace`] — a cached eigendecomposition that
//!   mints whiteners for many rotations of the same base data (the
//!   optimizer's candidate fan-out shares one decomposition).
//! * [`fastica::FastIca`] — the fixed-point FastICA algorithm with symmetric
//!   decorrelation and the `tanh` contrast.
//!
//! All algorithms take data in the paper's `d × N` orientation (one record
//! per column).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod fastica;
pub mod whiten;
pub mod workspace;

pub use fastica::FastIca;
pub use whiten::Whitener;
pub use workspace::WhiteningWorkspace;

use sap_linalg::Matrix;

/// Excess kurtosis of a sample (`E[(x-μ)⁴]/σ⁴ − 3`); zero for Gaussians.
/// ICA needs non-Gaussian sources, and the attacks use kurtosis to rank the
/// recovered components.
pub fn excess_kurtosis(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if m2 <= 1e-300 {
        return 0.0;
    }
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    m4 / (m2 * m2) - 3.0
}

/// Centers the columns of a `d × N` matrix (subtracts the mean record) and
/// returns the centered matrix together with the mean.
pub fn center_columns(x: &Matrix) -> (Matrix, Vec<f64>) {
    let mu = x.row_means();
    let centered = Matrix::from_fn(x.rows(), x.cols(), |r, c| x[(r, c)] - mu[r]);
    (centered, mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn kurtosis_of_gaussian_near_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs = sap_linalg::randn_vec(100_000, &mut rng);
        assert!(excess_kurtosis(&xs).abs() < 0.1);
    }

    #[test]
    fn kurtosis_of_uniform_negative() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.random_range(0.0..1.0)).collect();
        let k = excess_kurtosis(&xs);
        assert!((k + 1.2).abs() < 0.1, "uniform excess kurtosis {k} != -1.2");
    }

    #[test]
    fn kurtosis_degenerate_inputs() {
        assert_eq!(excess_kurtosis(&[1.0, 2.0]), 0.0);
        assert_eq!(excess_kurtosis(&[3.0; 10]), 0.0);
    }

    #[test]
    fn center_columns_zeroes_means() {
        let x = Matrix::from_columns(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let (c, mu) = center_columns(&x);
        assert_eq!(mu, vec![2.0, 4.0]);
        for r in 0..2 {
            let mean: f64 = (0..2).map(|j| c[(r, j)]).sum::<f64>() / 2.0;
            assert!(mean.abs() < 1e-12);
        }
    }
}
