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
    haar(d, rng).0
}

/// Fallible form of [`random_orthogonal`].
///
/// # Errors
///
/// Returns [`LinalgError::InvalidDimension`] when `d == 0`.
pub fn try_random_orthogonal<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Result<Matrix> {
    try_haar(d, rng).map(|(q, _)| q)
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
    let (mut q, reflection) = haar(d, rng);
    if reflection {
        for row in 0..d {
            q[(row, 0)] = -q[(row, 0)];
        }
    }
    q
}

/// [`try_haar`] for a dimension known to be positive.
fn haar<R: Rng + ?Sized>(d: usize, rng: &mut R) -> (Matrix, bool) {
    try_haar(d, rng).expect("d must be positive")
}

/// A Haar draw from `O(d)` and whether it is a reflection (`det = −1`):
/// the parity of the QR's Householder reflections and of the columns the
/// sign correction negates.
fn try_haar<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Result<(Matrix, bool)> {
    if d == 0 {
        return Err(LinalgError::InvalidDimension {
            reason: "orthogonal matrix dimension must be positive",
        });
    }
    let g = randn_matrix(d, d, rng);
    let qr = QrDecomposition::new(&g)?;
    let mut flips = qr.reflections();
    let (mut q, r) = qr.into_parts();
    // Sign correction: make the factorization unique (R with positive
    // diagonal) so Q is Haar distributed.
    for c in 0..d {
        if r[(c, c)] < 0.0 {
            flips += 1;
            for row in 0..d {
                q[(row, c)] = -q[(row, c)];
            }
        }
    }
    Ok((q, flips % 2 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::tests::cofactor_det;
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
                let det = cofactor_det(&r);
                assert!((det - 1.0).abs() < 1e-8, "det {det} != 1 at d={d}");
                assert!(r.is_orthogonal(1e-9));
            }
        }
    }

    /// FNV-1a over the bits of every entry, row-major.
    fn digest(m: &Matrix) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                for b in m[(i, j)].to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// `random_rotation` draws the same bits as when the sign of `det(Q)`
    /// came from an LU factorization (digests recorded then).
    #[test]
    fn random_rotation_bits_are_pinned() {
        const RECORDED: [(usize, u64, u64); 18] = [
            (1, 1, 0xaab1_6932_29ba_1db8),
            (1, 2, 0xaab1_6932_29ba_1db8),
            (1, 3, 0xaab1_6932_29ba_1db8),
            (2, 1, 0x7501_90f0_aaac_3f1f),
            (2, 2, 0xa0c8_4b1b_be4a_1aac),
            (2, 3, 0x33b3_f52f_ab8b_735d),
            (3, 1, 0xcfdd_0508_5438_d4ad),
            (3, 2, 0x54d8_8c2f_6386_4def),
            (3, 3, 0x3a4c_8735_52cb_3b5e),
            (4, 1, 0x1a08_f6f3_5184_fa30),
            (4, 2, 0xbc51_e938_9fb7_f5b9),
            (4, 3, 0x0685_4eab_128e_fa1c),
            (10, 1, 0xaebb_df02_4315_3182),
            (10, 2, 0x9c4b_83b8_da73_17ef),
            (10, 3, 0x125b_0b4e_0cd4_e521),
            (16, 1, 0xe71c_f620_21c3_9fc7),
            (16, 2, 0xfa6a_0490_e2aa_62b6),
            (16, 3, 0x9f1b_dd9f_8b09_707b),
        ];
        for (d, seed, want) in RECORDED {
            let r = random_rotation(d, &mut StdRng::seed_from_u64(seed));
            assert_eq!(digest(&r), want, "d={d} seed {seed}");
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
