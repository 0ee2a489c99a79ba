//! The noise-free perturbation parameters `G : (R, t)`.

use rand::{Rng, RngExt};
use sap_linalg::orthogonal::random_orthogonal;
use sap_linalg::{LinalgError, Matrix, Result};

/// A rotation + translation pair `(R, t)` defining the affine part of a
/// geometric perturbation: `x ↦ R·x + t`.
///
/// Applied to a `d × N` dataset this is `Y = R·X + Ψ` with `Ψ = t·1ᵀ`.
/// The paper writes the pair as `Gᵢ : (Rᵢ, tᵢ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    rotation: Matrix,
    translation: Vec<f64>,
}

impl Perturbation {
    /// Creates a perturbation from explicit parameters.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] when `rotation` is not square.
    /// * [`LinalgError::ShapeMismatch`] when `translation.len()` differs from
    ///   the rotation dimension.
    /// * [`LinalgError::InvalidDimension`] when `rotation` is not orthogonal
    ///   within `1e-8` (the protocol's correctness depends on `R⁻¹ = Rᵀ`
    ///   being meaningful).
    pub fn new(rotation: Matrix, translation: Vec<f64>) -> Result<Self> {
        if !rotation.is_square() {
            return Err(LinalgError::NotSquare {
                shape: rotation.shape(),
            });
        }
        if translation.len() != rotation.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "perturbation translation",
                lhs: rotation.shape(),
                rhs: (translation.len(), 1),
            });
        }
        if !rotation.is_orthogonal(1e-8) {
            return Err(LinalgError::InvalidDimension {
                reason: "perturbation rotation must be orthogonal",
            });
        }
        Ok(Perturbation {
            rotation,
            translation,
        })
    }

    /// Samples a random perturbation: Haar-orthogonal `R`, `t ~ U[−1, 1]^d`
    /// (the paper's distribution for the translation).
    ///
    /// # Panics
    ///
    /// Panics when `d == 0`.
    pub fn random<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Self {
        let rotation = random_orthogonal(d, rng);
        let translation = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
        Perturbation {
            rotation,
            translation,
        }
    }

    /// Rotation-only perturbation (`t = 0`) — the random-rotation baseline
    /// of Chen & Liu's ICDM'05 paper (reference \[1\] of the brief), used by
    /// the ablation benches.
    ///
    /// # Panics
    ///
    /// Panics when `d == 0`.
    pub fn rotation_only<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Self {
        Perturbation {
            rotation: random_orthogonal(d, rng),
            translation: vec![0.0; d],
        }
    }

    /// Identity perturbation (`R = I`, `t = 0`); useful as a baseline.
    pub fn identity(d: usize) -> Self {
        Perturbation {
            rotation: Matrix::identity(d),
            translation: vec![0.0; d],
        }
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.rotation.rows()
    }

    /// The rotation matrix `R`.
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// The translation vector `t`.
    pub fn translation(&self) -> &[f64] {
        &self.translation
    }

    /// Applies the affine map to a `d × N` dataset: `R·X + Ψ` (no noise).
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() != self.dim()`.
    pub fn apply_clean(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.dim(), "dataset dimensionality mismatch");
        let rx = self.rotation.matmul(x).expect("shapes checked");
        Matrix::from_fn(rx.rows(), rx.cols(), |r, c| {
            rx[(r, c)] + self.translation[r]
        })
    }

    /// Inverts the affine map: `R⁻¹·(Y − Ψ)`. For noisy data this returns
    /// the original plus rotated noise.
    ///
    /// # Panics
    ///
    /// Panics when `y.rows() != self.dim()`.
    pub fn invert_clean(&self, y: &Matrix) -> Matrix {
        assert_eq!(y.rows(), self.dim(), "dataset dimensionality mismatch");
        let shifted = Matrix::from_fn(y.rows(), y.cols(), |r, c| y[(r, c)] - self.translation[r]);
        // R is orthogonal: R⁻¹ = Rᵀ.
        self.rotation
            .transpose()
            .matmul(&shifted)
            .expect("shapes checked")
    }
}

/// The column-sweep rotation kernel behind both per-record maps of the
/// data plane (`G(x)` on the send side, `A_it(y)` on the receive side):
/// `out = R·x` for one record, where `columns` is a **`k`-major** copy of
/// `R` (`columns[k·d + i] = R[i][k]`, i.e. `Rᵀ`'s row-major buffer) and
/// `x` yields the record's `d` features in order.
///
/// `out` is zeroed, then for `k` ascending column `k` times `x_k` is added
/// to all `d` outputs at once — a branch-free inner loop over `i` that
/// vectorizes. Every output element still sees the ascending-`k` sum of
/// [`Matrix::matmul`] (no fused multiply-add: Rust never contracts
/// `a * b + c`), including its skip of zero rotation entries: a zero
/// entry contributes exactly `+0.0` (a select, not a multiply, so a
/// `±inf` or NaN feature cannot leak `0·inf = NaN`). The accumulator
/// starts at `+0.0` and a sum is `−0.0` only when both addends are, so it
/// is never `−0.0` and `acc + 0.0 == acc` bit for bit — the skip, exactly.
#[inline]
pub(crate) fn rotate_record_into(columns: &[f64], x: impl Iterator<Item = f64>, out: &mut [f64]) {
    out.fill(0.0);
    for (column, xk) in columns.chunks_exact(out.len()).zip(x) {
        for (o, &a) in out.iter_mut().zip(column) {
            *o += if a == 0.0 { 0.0 } else { a * xk };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::randn_matrix;

    #[test]
    fn random_is_valid_and_deterministic() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let pa = Perturbation::random(4, &mut a);
        let pb = Perturbation::random(4, &mut b);
        assert_eq!(pa, pb);
        assert!(pa.rotation().is_orthogonal(1e-9));
        assert!(pa.translation().iter().all(|&t| (-1.0..=1.0).contains(&t)));
    }

    #[test]
    fn apply_invert_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = Perturbation::random(5, &mut rng);
        let x = randn_matrix(5, 40, &mut rng);
        let y = p.apply_clean(&x);
        let back = p.invert_clean(&y);
        assert!(back.approx_eq(&x, 1e-9));
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = randn_matrix(3, 10, &mut rng);
        let p = Perturbation::identity(3);
        assert!(p.apply_clean(&x).approx_eq(&x, 1e-12));
    }

    #[test]
    fn new_rejects_bad_params() {
        assert!(Perturbation::new(Matrix::zeros(2, 3), vec![0.0; 2]).is_err());
        assert!(Perturbation::new(Matrix::identity(2), vec![0.0; 3]).is_err());
        // Non-orthogonal rotation rejected.
        let shear = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        assert!(Perturbation::new(shear, vec![0.0; 2]).is_err());
    }

    #[test]
    fn rotation_inverse_matches_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = Perturbation::random(6, &mut rng);
        // `invert_clean` applies Rᵀ as R⁻¹, which holds when R·Rᵀ = I.
        let r = p.rotation();
        assert!((r * &r.transpose()).approx_eq(&Matrix::identity(6), 1e-8));
    }

    #[test]
    fn apply_clean_rotates_and_shifts() {
        // 90° rotation + shift: (1,0) -> (0,1) + (1,1) = (1,2).
        let r = Matrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]);
        let p = Perturbation::new(r, vec![1.0, 1.0]).unwrap();
        let x = Matrix::from_columns(&[vec![1.0, 0.0]]);
        let y = p.apply_clean(&x);
        assert!((y[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((y[(1, 0)] - 2.0).abs() < 1e-12);
    }
}
