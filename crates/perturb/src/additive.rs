//! Additive-noise perturbation — the classical baseline.
//!
//! Agrawal & Srikant's randomization approach (SIGMOD 2000) perturbs each
//! value independently: `Y = X + Δ`. The PODC'07 brief's introduction argues
//! geometric perturbation dominates this baseline: additive noise must be
//! *large* to protect values (because column distributions can be
//! reconstructed and the noise filtered), and large noise destroys model
//! accuracy, whereas a rotation protects all columns at once while
//! preserving distances exactly. This module implements the baseline so the
//! ablation benches can measure that trade-off.

use crate::noise::NoiseSpec;
use rand::Rng;
use sap_linalg::Matrix;

/// Pure additive-noise perturbation `Y = X + Δ`, `Δᵢⱼ ~ N(0, σ²)` i.i.d.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdditivePerturbation {
    noise: NoiseSpec,
}

impl AdditivePerturbation {
    /// Creates the baseline with noise level `sigma`.
    ///
    /// # Panics
    ///
    /// Panics when `sigma` is negative or non-finite.
    pub fn new(sigma: f64) -> Self {
        AdditivePerturbation {
            noise: NoiseSpec::new(sigma),
        }
    }

    /// The noise specification.
    pub fn noise(&self) -> NoiseSpec {
        self.noise
    }

    /// Perturbs a `d × N` dataset, returning `(Y, Δ)`.
    pub fn perturb<R: Rng + ?Sized>(&self, x: &Matrix, rng: &mut R) -> (Matrix, Matrix) {
        let delta = self.noise.sample(x.rows(), x.cols(), rng);
        (x + &delta, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::{norms, randn_matrix};

    #[test]
    fn perturbs_by_sigma() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = randn_matrix(3, 2000, &mut rng);
        let (y, delta) = AdditivePerturbation::new(0.3).perturb(&x, &mut rng);
        assert!((norms::rms_difference(&y, &x) - 0.3).abs() < 0.02);
        assert!((&y - &delta).approx_eq(&x, 1e-12));
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = randn_matrix(2, 10, &mut rng);
        let (y, _) = AdditivePerturbation::new(0.0).perturb(&x, &mut rng);
        assert_eq!(y, x);
    }

    /// The baseline's weakness: the naive attack with marginal knowledge
    /// recovers additive-noise data up to the noise level, while geometric
    /// perturbation hides values behind the rotation even at the same σ.
    #[test]
    fn weaker_than_geometric_under_naive_attack() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = randn_matrix(3, 800, &mut rng);
        let sigma = 0.1;
        let (y_add, _) = AdditivePerturbation::new(sigma).perturb(&x, &mut rng);
        // Naive estimate of additive-noise data is the data itself: privacy
        // equals the noise level.
        let rho_add = {
            let e: Vec<f64> = x
                .as_slice()
                .iter()
                .zip(y_add.as_slice())
                .map(|(&a, &b)| a - b)
                .collect();
            sap_linalg::vecops::std_dev(&e)
        };
        assert!(rho_add < 0.15, "additive privacy ~ sigma: {rho_add}");
    }
}
