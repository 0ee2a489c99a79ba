//! The additive noise component `Δ`.
//!
//! The paper specifies "a noise matrix with i.i.d. elements, which is used
//! to perturb distances"; following the companion SDM'07 paper we use
//! zero-mean Gaussians with a configurable standard deviation. The noise
//! level is the knob that trades residual privacy (against distance-
//! inference attacks) for model accuracy — swept in the ablation benches.

use rand::Rng;
use sap_linalg::{randn, Matrix};

/// Specification of the i.i.d. noise component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Standard deviation of each element of `Δ`. Zero disables noise.
    pub sigma: f64,
}

impl NoiseSpec {
    /// Creates a noise spec.
    ///
    /// # Panics
    ///
    /// Panics when `sigma` is negative or non-finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        NoiseSpec { sigma }
    }

    /// The no-noise spec.
    pub fn none() -> Self {
        NoiseSpec { sigma: 0.0 }
    }

    /// `true` when this spec adds no noise.
    pub fn is_none(&self) -> bool {
        self.sigma == 0.0
    }

    /// Draws a `d × n` noise matrix `Δ`.
    pub fn sample<R: Rng + ?Sized>(&self, d: usize, n: usize, rng: &mut R) -> Matrix {
        if self.is_none() {
            Matrix::zeros(d, n)
        } else {
            Matrix::from_fn(d, n, |_, _| self.sigma * randn(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::vecops;

    #[test]
    fn zero_sigma_is_zero_matrix() {
        let mut rng = StdRng::seed_from_u64(1);
        let delta = NoiseSpec::none().sample(3, 7, &mut rng);
        assert_eq!(delta, Matrix::zeros(3, 7));
        assert!(NoiseSpec::none().is_none());
    }

    #[test]
    fn sampled_noise_has_requested_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = NoiseSpec::new(0.25);
        let delta = spec.sample(10, 2000, &mut rng);
        let sd = vecops::std_dev(delta.as_slice());
        assert!((sd - 0.25).abs() < 0.01, "std {sd}");
        let mean = vecops::mean(delta.as_slice());
        assert!(mean.abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "sigma must be >= 0")]
    fn negative_sigma_panics() {
        let _ = NoiseSpec::new(-0.1);
    }
}
