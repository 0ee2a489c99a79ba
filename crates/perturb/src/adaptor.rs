//! Space adaptors: re-basing perturbed data from one perturbation space into
//! another without touching the raw data.
//!
//! Section 3 of the brief: since `Yᵢ = RᵢXᵢ + Ψᵢ + Δᵢ`, transforming `Yᵢ`
//! into the target space `G_t : (R_t, t_t)` gives
//!
//! ```text
//! Y_{i→t} = R_it·Yᵢ + Ψ_it − Δ_it
//!   R_it = R_t·Rᵢ⁻¹                (rotation adaptor)
//!   Ψ_it = Ψ_t − R_t·Rᵢ⁻¹·Ψᵢ       (translation adaptor)
//!   Δ_it = R_t·Rᵢ⁻¹·Δᵢ             (complementary noise)
//! ```
//!
//! The adaptor `⟨R_it, Ψ_it⟩` is what a provider sends to the coordinator;
//! applying it *without* subtracting `Δ_it` is "equivalent to inheriting the
//! noise component `Δᵢ` from the original space" — the data arrives in the
//! target space still carrying its original (rotated) noise.

use crate::params::{rotate_record_into, Perturbation};
use sap_linalg::{LinalgError, Matrix, Result};

/// The space adaptor `A_it = ⟨R_it, Ψ_it⟩` from a source perturbation space
/// into a target space.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceAdaptor {
    rotation: Matrix,
    translation: Vec<f64>,
}

impl SpaceAdaptor {
    /// Computes the adaptor between a source space `Gᵢ : (Rᵢ, tᵢ)` and a
    /// target space `G_t : (R_t, t_t)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the two spaces have
    /// different dimensionality.
    pub fn between(source: &Perturbation, target: &Perturbation) -> Result<Self> {
        if source.dim() != target.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "space adaptor",
                lhs: (source.dim(), source.dim()),
                rhs: (target.dim(), target.dim()),
            });
        }
        // R_it = R_t · Rᵢ⁻¹ (orthogonal: inverse = transpose).
        let r_it = target
            .rotation()
            .matmul(&source.rotation().transpose())
            .expect("dims checked");
        // ψ_it = t_t − R_it · tᵢ.
        let rit_ti = r_it.matvec(source.translation()).expect("dims checked");
        let translation: Vec<f64> = target
            .translation()
            .iter()
            .zip(&rit_ti)
            .map(|(&tt, &r)| tt - r)
            .collect();
        Ok(SpaceAdaptor {
            rotation: r_it,
            translation,
        })
    }

    /// Assembles an adaptor from its rotation `R_it` and translation
    /// `ψ_it` — the receiving end of an adaptor that traveled.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] when `rotation` is not square.
    /// * [`LinalgError::ShapeMismatch`] when `translation.len()` differs from
    ///   the rotation dimension.
    pub fn from_parts(rotation: Matrix, translation: Vec<f64>) -> Result<Self> {
        if !rotation.is_square() {
            return Err(LinalgError::NotSquare {
                shape: rotation.shape(),
            });
        }
        if translation.len() != rotation.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "adaptor translation",
                lhs: rotation.shape(),
                rhs: (translation.len(), 1),
            });
        }
        Ok(SpaceAdaptor {
            rotation,
            translation,
        })
    }

    /// Dimensionality of the adapted space.
    pub fn dim(&self) -> usize {
        self.rotation.rows()
    }

    /// The rotation adaptor `R_it`.
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// The translation adaptor `ψ_it` (the paper's `Ψ_it` is `ψ_it·1ᵀ`).
    pub fn translation(&self) -> &[f64] {
        &self.translation
    }

    /// Applies the adaptor to a perturbed `d × N` dataset:
    /// `Y_{i→t} = R_it·Yᵢ + Ψ_it` — target-space data carrying the
    /// complementary noise `Δ_it`.
    ///
    /// # Panics
    ///
    /// Panics when `y.rows() != self.dim()`.
    pub fn apply(&self, y: &Matrix) -> Matrix {
        assert_eq!(y.rows(), self.dim(), "adaptor dimensionality mismatch");
        let ry = self.rotation.matmul(y).expect("dims checked");
        Matrix::from_fn(ry.rows(), ry.cols(), |r, c| {
            ry[(r, c)] + self.translation[r]
        })
    }

    /// Applies the adaptor to a **record-major** block of perturbed
    /// records (`n × d`, one record per row — the streaming data plane's
    /// layout), writing the adapted records into `out`.
    ///
    /// Each record runs through the column-sweep rotation kernel, then
    /// `+ ψ[i]`: per element the ascending-`k` sum of
    /// [`SpaceAdaptor::apply`] (zero rotation entries skipped, translation
    /// added last), so adapting a dataset block by block is bit-identical
    /// to one monolithic [`SpaceAdaptor::apply`] call. The call runs on
    /// the caller's thread: a session's `k + 1` roles already occupy the
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics when `records.len()` is not a multiple of the adaptor
    /// dimension, `out.len() != records.len()`, or the dimension is 0.
    pub fn adapt_records(&self, records: &[f64], out: &mut [f64]) {
        let d = self.dim();
        assert_eq!(records.len() % d.max(1), 0, "ragged record block");
        assert_eq!(out.len(), records.len(), "output length mismatch");
        let columns = self.rotation.transpose();
        for (record, adapted) in records.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            rotate_record_into(columns.as_slice(), record.iter().copied(), adapted);
            for (v, &t) in adapted.iter_mut().zip(&self.translation) {
                *v += t;
            }
        }
    }

    /// Composes adaptors: `other ∘ self`, i.e. first adapt by `self`
    /// (`i → t₁`), then by `other` (`t₁ → t₂`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on dimension mismatch.
    pub fn then(&self, other: &SpaceAdaptor) -> Result<SpaceAdaptor> {
        if self.dim() != other.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "adaptor composition",
                lhs: (self.dim(), self.dim()),
                rhs: (other.dim(), other.dim()),
            });
        }
        let rotation = other.rotation.matmul(&self.rotation)?;
        let shifted = other.rotation.matvec(&self.translation)?;
        let translation = other
            .translation
            .iter()
            .zip(&shifted)
            .map(|(&a, &b)| a + b)
            .collect();
        Ok(SpaceAdaptor {
            rotation,
            translation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::GeometricPerturbation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::{norms, randn_matrix};

    /// The paper's central identity: applying the adaptor to noiseless
    /// perturbed data lands exactly on the target-space perturbation.
    #[test]
    fn adaptor_identity_noiseless() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = randn_matrix(5, 40, &mut rng);
        let gi = Perturbation::random(5, &mut rng);
        let gt = Perturbation::random(5, &mut rng);
        let yi = gi.apply_clean(&x);
        let adaptor = SpaceAdaptor::between(&gi, &gt).unwrap();
        let yt = adaptor.apply(&yi);
        assert!(yt.approx_eq(&gt.apply_clean(&x), 1e-8));
    }

    /// With noise: `A_it(Yᵢ) = G_t(Xᵢ) + Δ_it` where `Δ_it = R_it·Δᵢ`.
    #[test]
    fn adaptor_identity_with_complementary_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = randn_matrix(4, 30, &mut rng);
        let gi = GeometricPerturbation::random(4, 0.2, &mut rng);
        let gt = Perturbation::random(4, &mut rng);
        let (yi, delta) = gi.perturb(&x, &mut rng);

        let adaptor = SpaceAdaptor::between(gi.base(), &gt).unwrap();
        let yt = adaptor.apply(&yi);
        let expected = &gt.apply_clean(&x) + &adaptor.rotation().matmul(&delta).unwrap();
        assert!(yt.approx_eq(&expected, 1e-8));
    }

    /// Complementary noise has the same magnitude as the original noise
    /// (rotations are isometries) — "equivalent to inheriting Δᵢ".
    #[test]
    fn complementary_noise_preserves_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let gi = Perturbation::random(6, &mut rng);
        let gt = Perturbation::random(6, &mut rng);
        let adaptor = SpaceAdaptor::between(&gi, &gt).unwrap();
        let delta = randn_matrix(6, 100, &mut rng);
        let comp = adaptor.rotation().matmul(&delta).unwrap();
        assert!((comp.frobenius_norm() - delta.frobenius_norm()).abs() < 1e-8);
    }

    #[test]
    fn rotation_adaptor_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(4);
        let gi = Perturbation::random(5, &mut rng);
        let gt = Perturbation::random(5, &mut rng);
        let adaptor = SpaceAdaptor::between(&gi, &gt).unwrap();
        assert!(adaptor.rotation().is_orthogonal(1e-8));
    }

    #[test]
    fn adaptor_to_self_is_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Perturbation::random(3, &mut rng);
        let adaptor = SpaceAdaptor::between(&g, &g).unwrap();
        let x = randn_matrix(3, 10, &mut rng);
        assert!(adaptor.apply(&x).approx_eq(&x, 1e-8));
    }

    #[test]
    fn composition_matches_direct() {
        let mut rng = StdRng::seed_from_u64(6);
        let g1 = Perturbation::random(4, &mut rng);
        let g2 = Perturbation::random(4, &mut rng);
        let g3 = Perturbation::random(4, &mut rng);
        let a12 = SpaceAdaptor::between(&g1, &g2).unwrap();
        let a23 = SpaceAdaptor::between(&g2, &g3).unwrap();
        let a13 = SpaceAdaptor::between(&g1, &g3).unwrap();
        let composed = a12.then(&a23).unwrap();
        let x = randn_matrix(4, 20, &mut rng);
        let err = norms::rms_difference(&composed.apply(&x), &a13.apply(&x));
        assert!(err < 1e-8, "composition mismatch {err}");
    }

    /// Block-wise record-major adaptation must match the monolithic
    /// column-matrix apply bit-for-bit at any block size.
    #[test]
    fn adapt_records_bit_identical_to_apply() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = 5;
        let n = 173;
        let gi = Perturbation::random(d, &mut rng);
        let gt = Perturbation::random(d, &mut rng);
        let adaptor = SpaceAdaptor::between(&gi, &gt).unwrap();
        let y = randn_matrix(d, n, &mut rng);
        let reference = adaptor.apply(&y);

        // Record-major copy of y, adapted in uneven blocks.
        let records: Vec<f64> = (0..n).flat_map(|j| y.column(j)).collect();
        let mut adapted = vec![0.0; records.len()];
        for block in [1usize, 7, 64, n + 10] {
            adapted.iter_mut().for_each(|v| *v = f64::NAN);
            let mut r0 = 0;
            while r0 < n {
                let r1 = (r0 + block).min(n);
                adaptor.adapt_records(&records[r0 * d..r1 * d], &mut adapted[r0 * d..r1 * d]);
                r0 = r1;
            }
            for j in 0..n {
                for i in 0..d {
                    assert_eq!(
                        adapted[j * d + i].to_bits(),
                        reference[(i, j)].to_bits(),
                        "block={block} record={j} feature={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_parts_checks_shapes() {
        let mut rng = StdRng::seed_from_u64(10);
        let gi = Perturbation::random(3, &mut rng);
        let gt = Perturbation::random(3, &mut rng);
        let a = SpaceAdaptor::between(&gi, &gt).unwrap();
        let back = SpaceAdaptor::from_parts(a.rotation().clone(), a.translation().to_vec());
        assert_eq!(back.unwrap(), a);
        assert!(SpaceAdaptor::from_parts(Matrix::zeros(2, 3), vec![0.0; 2]).is_err());
        assert!(SpaceAdaptor::from_parts(Matrix::identity(2), vec![0.0; 3]).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let g3 = Perturbation::random(3, &mut rng);
        let g4 = Perturbation::random(4, &mut rng);
        assert!(SpaceAdaptor::between(&g3, &g4).is_err());
    }

    /// The adaptor alone cannot recover the raw data when noise is present:
    /// this is the privacy property the protocol relies on.
    #[test]
    fn adaptor_does_not_denoise() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = randn_matrix(4, 200, &mut rng);
        let gi = GeometricPerturbation::random(4, 0.3, &mut rng);
        let gt = Perturbation::random(4, &mut rng);
        let (yi, _) = gi.perturb(&x, &mut rng);
        let adaptor = SpaceAdaptor::between(gi.base(), &gt).unwrap();
        let yt = adaptor.apply(&yi);
        // Even inverting the *target* space exactly leaves the noise floor.
        let best_effort = gt.invert_clean(&yt);
        let residual = norms::rms_difference(&best_effort, &x);
        assert!(residual > 0.2, "noise floor should persist, got {residual}");
    }
}
