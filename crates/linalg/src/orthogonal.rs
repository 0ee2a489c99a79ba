//! Haar-distributed random orthogonal and rotation matrices.
//!
//! The geometric perturbation `G(X) = R·X + Ψ + Δ` draws `R` uniformly from
//! the orthogonal group `O(d)`. The standard construction is the QR
//! decomposition of a matrix of i.i.d. standard normals, with the sign of
//! each column of `Q` fixed by the sign of the corresponding diagonal entry
//! of `R` — without that correction the distribution is not Haar
//! (Mezzadri, *How to generate random matrices from the classical compact
//! groups*, 2007).

use crate::error::{LinalgError, Result};
use crate::lu;
use crate::matrix::Matrix;
use crate::qr::QrDecomposition;
use crate::rng::randn_matrix;
use rand::Rng;

/// Samples a Haar-distributed random orthogonal matrix from `O(d)`.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn random_orthogonal<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Matrix {
    try_random_orthogonal(d, rng).expect("d must be positive")
}

/// Fallible form of [`random_orthogonal`].
///
/// # Errors
///
/// Returns [`LinalgError::InvalidDimension`] when `d == 0`.
pub fn try_random_orthogonal<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Result<Matrix> {
    if d == 0 {
        return Err(LinalgError::InvalidDimension {
            reason: "orthogonal matrix dimension must be positive",
        });
    }
    let g = randn_matrix(d, d, rng);
    let (mut q, r) = QrDecomposition::new(&g)?.into_parts();
    // Sign correction: make the factorization unique (R with positive
    // diagonal) so Q is Haar distributed.
    for c in 0..d {
        if r[(c, c)] < 0.0 {
            for row in 0..d {
                q[(row, c)] = -q[(row, c)];
            }
        }
    }
    Ok(q)
}

/// Samples a Haar-distributed random **rotation** (determinant `+1`,
/// i.e. from `SO(d)`).
///
/// A determinant-`−1` draw from `O(d)` is fixed up by negating one column,
/// which maps Haar measure on the reflection coset onto `SO(d)`.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn random_rotation<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Matrix {
    let mut q = random_orthogonal(d, rng);
    let det = lu::det(&q).expect("square by construction");
    if det < 0.0 {
        for row in 0..d {
            q[(row, 0)] = -q[(row, 0)];
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_orthogonal_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(100);
        for d in [1, 2, 3, 5, 10, 20] {
            let q = random_orthogonal(d, &mut rng);
            assert!(q.is_orthogonal(1e-9), "not orthogonal at d={d}");
        }
    }

    #[test]
    fn random_rotation_has_unit_determinant() {
        let mut rng = StdRng::seed_from_u64(101);
        for d in [2, 3, 4, 7] {
            for _ in 0..5 {
                let r = random_rotation(d, &mut rng);
                let det = lu::det(&r).unwrap();
                assert!((det - 1.0).abs() < 1e-8, "det {det} != 1 at d={d}");
                assert!(r.is_orthogonal(1e-9));
            }
        }
    }

    #[test]
    fn rotations_preserve_norms() {
        let mut rng = StdRng::seed_from_u64(102);
        let r = random_rotation(6, &mut rng);
        let x = crate::rng::randn_vec(6, &mut rng);
        let rx = r.matvec(&x).unwrap();
        let nx = crate::vecops::norm2(&x);
        let nrx = crate::vecops::norm2(&rx);
        assert!((nx - nrx).abs() < 1e-10);
    }

    #[test]
    fn haar_first_entry_distribution() {
        // For Haar-distributed Q in O(d), E[q00] = 0 and E[q00^2] = 1/d.
        let mut rng = StdRng::seed_from_u64(103);
        let d = 4;
        let n = 4000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let q = random_orthogonal(d, &mut rng);
            sum += q[(0, 0)];
            sum_sq += q[(0, 0)] * q[(0, 0)];
        }
        let mean = sum / n as f64;
        let mean_sq = sum_sq / n as f64;
        assert!(mean.abs() < 0.03, "E[q00] = {mean}, expected ~0");
        assert!(
            (mean_sq - 1.0 / d as f64).abs() < 0.02,
            "E[q00^2] = {mean_sq}, expected {}",
            1.0 / d as f64
        );
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut rng = StdRng::seed_from_u64(104);
        assert!(try_random_orthogonal(0, &mut rng).is_err());
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(random_orthogonal(5, &mut a), random_orthogonal(5, &mut b));
    }
}
