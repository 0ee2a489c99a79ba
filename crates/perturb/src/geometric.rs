//! The full geometric perturbation `G(X) = R·X + Ψ + Δ`.

use crate::noise::NoiseSpec;
use crate::params::Perturbation;
use rand::Rng;
use sap_linalg::Matrix;

/// A geometric perturbation: affine part `(R, t)` plus an i.i.d. noise
/// component specification.
///
/// The affine part is deterministic once sampled; the noise matrix `Δ` is
/// drawn per perturbation call (and returned, because the privacy metrics
/// need the *realized* noise to evaluate exact reconstructions).
#[derive(Debug, Clone, PartialEq)]
pub struct GeometricPerturbation {
    base: Perturbation,
    noise: NoiseSpec,
}

impl GeometricPerturbation {
    /// Combines an affine perturbation with a noise spec.
    pub fn new(base: Perturbation, noise: NoiseSpec) -> Self {
        GeometricPerturbation { base, noise }
    }

    /// Samples a fully random perturbation of dimension `d` with noise level
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics when `d == 0` or `sigma < 0`.
    pub fn random<R: Rng + ?Sized>(d: usize, sigma: f64, rng: &mut R) -> Self {
        GeometricPerturbation {
            base: Perturbation::random(d, rng),
            noise: NoiseSpec::new(sigma),
        }
    }

    /// The affine `(R, t)` part.
    pub fn base(&self) -> &Perturbation {
        &self.base
    }

    /// The noise specification.
    pub fn noise(&self) -> NoiseSpec {
        self.noise
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Perturbs a `d × N` dataset: returns `(Y, Δ)` with
    /// `Y = R·X + Ψ + Δ`. The realized noise is returned so tests and
    /// privacy metrics can reason about exact recovery.
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() != self.dim()`.
    pub fn perturb<R: Rng + ?Sized>(&self, x: &Matrix, rng: &mut R) -> (Matrix, Matrix) {
        let delta = self.noise.sample(x.rows(), x.cols(), rng);
        (self.perturb_with(x, &delta), delta)
    }

    /// Perturbs with a caller-supplied noise matrix (the protocol uses a
    /// *common noise component* across providers; see the brief's Section 3).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn perturb_with(&self, x: &Matrix, delta: &Matrix) -> Matrix {
        assert_eq!(delta.shape(), x.shape(), "noise shape mismatch");
        let affine = self.base.apply_clean(x);
        &affine + delta
    }

    /// Perturbs records `cols` of the `d × N` dataset `x` with the
    /// realized noise `delta`, filling the reusable scratch `out` with
    /// `G(x)` **record-major** (`cols.len() × d`; previous contents are
    /// discarded).
    ///
    /// This is the streaming data plane's send-side kernel: a provider
    /// perturbs one row-block at a time, overlapping the math with the
    /// transport. Element order matches [`GeometricPerturbation::perturb_with`]
    /// exactly (`(R·x + Ψ) + Δ`), so the streamed bytes are bit-identical
    /// to perturbing the whole matrix up front.
    ///
    /// Rotate, shift and noise are **fused into one pass** per record:
    /// each output element is produced by one ascending-`k` rotation
    /// accumulation (zero factors skipped) followed immediately by
    /// `+ t[i] + Δ[i][j]` — one read of the inputs, one write of the
    /// output, no intermediate buffer and none of the staged path's
    /// per-element `pos/d`, `pos%d` noise-index arithmetic. `f64`
    /// addition is left-associative, so `acc + t + δ` is the exact
    /// `(acc + t) + δ` the staged reference
    /// ([`GeometricPerturbation::perturb_records_staged_into`]) computes;
    /// `tests/kernel_equivalence.rs` property-tests the two bit-equal.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch or an out-of-bounds column range.
    pub fn perturb_records_into(
        &self,
        x: &Matrix,
        delta: &Matrix,
        cols: std::ops::Range<usize>,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(delta.shape(), x.shape(), "noise shape mismatch");
        let d = self.dim();
        assert_eq!(x.rows(), d, "dataset dimensionality mismatch");
        assert!(cols.end <= x.cols(), "column range out of bounds");
        let n = x.cols();
        let data = x.as_slice();
        let noise = delta.as_slice();
        let rotation = self.base.rotation();
        let t = self.base.translation();
        out.clear();
        out.reserve(cols.len() * d);
        for j in cols {
            for i in 0..d {
                let mut acc = 0.0;
                for (k, &a) in rotation.row(i).iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * data[k * n + j];
                }
                out.push(acc + t[i] + noise[i * n + j]);
            }
        }
    }

    /// The staged reference for [`GeometricPerturbation::perturb_records_into`]:
    /// affine pass into `out`
    /// ([`Perturbation::apply_clean_records_into`](crate::params::Perturbation::apply_clean_records_into)),
    /// then a second pass adding the noise. Kept as the pinned spec the
    /// fused kernel is property-tested and benchmarked against.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch or an out-of-bounds column range.
    pub fn perturb_records_staged_into(
        &self,
        x: &Matrix,
        delta: &Matrix,
        cols: std::ops::Range<usize>,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(delta.shape(), x.shape(), "noise shape mismatch");
        let d = self.dim();
        let n = x.cols();
        let start = cols.start;
        self.base.apply_clean_records_into(x, cols, out);
        let noise = delta.as_slice();
        for (pos, v) in out.iter_mut().enumerate() {
            let (rec, feat) = (pos / d, pos % d);
            *v += noise[feat * n + (start + rec)];
        }
    }

    /// Best-effort inversion without the noise realization:
    /// `X̂ = R⁻¹(Y − Ψ)`. The residual is the rotated noise `R⁻¹Δ`.
    ///
    /// # Panics
    ///
    /// Panics when `y.rows() != self.dim()`.
    pub fn invert_affine(&self, y: &Matrix) -> Matrix {
        self.base.invert_clean(y)
    }

    /// Exact inversion given the realized noise: `X = R⁻¹(Y − Ψ − Δ)`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn invert_exact(&self, y: &Matrix, delta: &Matrix) -> Matrix {
        let denoised = y - delta;
        self.base.invert_clean(&denoised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::{norms, randn_matrix};

    #[test]
    fn noiseless_perturbation_roundtrips_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = GeometricPerturbation::random(4, 0.0, &mut rng);
        let x = randn_matrix(4, 30, &mut rng);
        let (y, delta) = g.perturb(&x, &mut rng);
        assert_eq!(delta, Matrix::zeros(4, 30));
        assert!(g.invert_affine(&y).approx_eq(&x, 1e-9));
    }

    #[test]
    fn noisy_perturbation_exact_inverse_needs_delta() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = GeometricPerturbation::random(4, 0.1, &mut rng);
        let x = randn_matrix(4, 50, &mut rng);
        let (y, delta) = g.perturb(&x, &mut rng);

        let exact = g.invert_exact(&y, &delta);
        assert!(exact.approx_eq(&x, 1e-9), "exact inversion fails");

        let affine_only = g.invert_affine(&y);
        let residual = norms::rms_difference(&affine_only, &x);
        assert!(
            (residual - 0.1).abs() < 0.03,
            "affine-only residual {residual} should be ~sigma (rotation preserves noise scale)"
        );
    }

    #[test]
    fn distances_preserved_up_to_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = GeometricPerturbation::random(3, 0.0, &mut rng);
        let x = randn_matrix(3, 20, &mut rng);
        let (y, _) = g.perturb(&x, &mut rng);
        for i in 0..5 {
            for j in 0..5 {
                let dx = sap_linalg::vecops::dist2(&x.column(i), &x.column(j));
                let dy = sap_linalg::vecops::dist2(&y.column(i), &y.column(j));
                assert!((dx - dy).abs() < 1e-9, "distance not preserved");
            }
        }
    }

    #[test]
    fn common_noise_component_shared_across_parties() {
        // Two providers using the same Δ produce consistent joint data.
        let mut rng = StdRng::seed_from_u64(4);
        let x = randn_matrix(3, 10, &mut rng);
        let delta = NoiseSpec::new(0.05).sample(3, 10, &mut rng);
        let g1 = GeometricPerturbation::random(3, 0.05, &mut rng);
        let g2 = GeometricPerturbation::random(3, 0.05, &mut rng);
        let y1 = g1.perturb_with(&x, &delta);
        let y2 = g2.perturb_with(&x, &delta);
        // Same data, same noise, different spaces: inverting each affine part
        // and subtracting the known noise recovers the same X.
        let x1 = g1.invert_exact(&y1, &delta);
        let x2 = g2.invert_exact(&y2, &delta);
        assert!(x1.approx_eq(&x2, 1e-9));
    }

    /// Streaming a perturbation block by block must produce the exact
    /// bytes the monolithic path produces — the send-side half of the
    /// data-plane equivalence guarantee.
    #[test]
    fn perturb_records_bit_identical_to_perturb_with() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = 4;
        let n = 97;
        let g = GeometricPerturbation::random(d, 0.1, &mut rng);
        let x = randn_matrix(d, n, &mut rng);
        let delta = NoiseSpec::new(0.1).sample(d, n, &mut rng);
        let whole = g.perturb_with(&x, &delta);
        let mut scratch = Vec::new();
        for block in [1usize, 13, n, n + 5] {
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + block).min(n);
                g.perturb_records_into(&x, &delta, j0..j1, &mut scratch);
                for (r, rec) in scratch.chunks_exact(d).enumerate() {
                    for (i, v) in rec.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            whole[(i, j0 + r)].to_bits(),
                            "block={block} col={} feature={i}",
                            j0 + r
                        );
                    }
                }
                j0 = j1;
            }
        }
    }

    /// The fused rotate+shift+noise kernel must produce the exact bytes
    /// of the two-pass staged reference it replaced.
    #[test]
    fn fused_records_bit_identical_to_staged() {
        let mut rng = StdRng::seed_from_u64(12);
        let d = 5;
        let n = 61;
        let g = GeometricPerturbation::random(d, 0.2, &mut rng);
        let x = randn_matrix(d, n, &mut rng);
        let delta = NoiseSpec::new(0.2).sample(d, n, &mut rng);
        let (mut fused, mut staged) = (Vec::new(), Vec::new());
        for block in [1usize, 7, n] {
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + block).min(n);
                g.perturb_records_into(&x, &delta, j0..j1, &mut fused);
                g.perturb_records_staged_into(&x, &delta, j0..j1, &mut staged);
                let fused_bits: Vec<u64> = fused.iter().map(|v| v.to_bits()).collect();
                let staged_bits: Vec<u64> = staged.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fused_bits, staged_bits, "block={block} j0={j0}");
                j0 = j1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "noise shape mismatch")]
    fn shape_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = GeometricPerturbation::random(3, 0.1, &mut rng);
        let x = randn_matrix(3, 10, &mut rng);
        let bad = Matrix::zeros(3, 9);
        let _ = g.perturb_with(&x, &bad);
    }
}
