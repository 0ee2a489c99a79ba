//! Gaussian sampling.
//!
//! The `rand` crate provides uniform sampling only; the perturbation family
//! `G(X) = RX + Ψ + Δ` needs standard normals both for the noise component
//! `Δ` and for sampling Haar-distributed orthogonal matrices (QR of a
//! Gaussian matrix). We implement the polar variant of Box–Muller, which
//! avoids trigonometric calls and the `u = 0` edge case.

use crate::matrix::Matrix;
use rand::{Rng, RngExt};

/// Draws one standard normal `N(0, 1)` sample using the Marsaglia polar
/// method.
pub fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random_range(-1.0..1.0);
        let v: f64 = rng.random_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Fills `out` with i.i.d. standard normals: bit for bit the values of
/// calling [`randn`] per entry, leaving `rng` in the same state. Fills of
/// 64 or more run in batches of 256: phase 1 draws the `(u, v)` pairs and
/// keeps accepted ones by advancing the index without a branch, phase 2
/// computes `u·√(−2 ln s / s)` in independent iterations, so the `ln`s
/// overlap instead of waiting behind the rejection loop.
pub fn randn_fill<R: Rng + ?Sized>(out: &mut [f64], rng: &mut R) {
    if out.len() < 64 {
        return out.iter_mut().for_each(|x| *x = randn(rng));
    }
    let (mut us, mut ss) = ([0.0f64; 256], [0.0f64; 256]);
    for chunk in out.chunks_mut(256) {
        let mut k = 0;
        while k < chunk.len() {
            let (u, v): (f64, f64) = (rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
            let s = u * u + v * v;
            (us[k], ss[k]) = (u, s);
            k += (s > 0.0 && s < 1.0) as usize;
        }
        for ((x, &u), &s) in chunk.iter_mut().zip(&us).zip(&ss) {
            *x = u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws `n` i.i.d. standard normal samples.
pub fn randn_vec<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let mut out = vec![0.0; n];
    randn_fill(&mut out, rng);
    out
}

/// Draws a `rows × cols` matrix of i.i.d. standard normal entries.
pub fn randn_matrix<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    randn_fill(m.as_mut_slice(), rng);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs = randn_vec(200_000, &mut rng);
        let m = vecops::mean(&xs);
        let v = vecops::variance(&xs);
        assert!(m.abs() < 0.01, "mean {m} too far from 0");
        assert!((v - 1.0).abs() < 0.02, "variance {v} too far from 1");
    }

    #[test]
    fn kurtosis_matches_gaussian() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs = randn_vec(200_000, &mut rng);
        let m = vecops::mean(&xs);
        let s2 = vecops::variance(&xs);
        let k: f64 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / (xs.len() as f64 * s2 * s2);
        // Gaussian excess kurtosis is 0 (k = 3).
        assert!((k - 3.0).abs() < 0.1, "kurtosis {k} too far from 3");
    }

    #[test]
    fn matrix_shape_and_determinism() {
        let mut a_rng = StdRng::seed_from_u64(1);
        let mut b_rng = StdRng::seed_from_u64(1);
        let a = randn_matrix(3, 5, &mut a_rng);
        let b = randn_matrix(3, 5, &mut b_rng);
        assert_eq!(a.shape(), (3, 5));
        assert_eq!(a, b, "same seed must give same matrix");
    }

    /// The batched fill is the scalar loop, bit for bit: every value and
    /// the generator's state afterwards, across the scalar cut-off and the
    /// batch boundaries, over more than 10⁶ draws and four seeds.
    #[test]
    fn fill_is_bit_identical_to_the_scalar_loop() {
        use rand::Rng;
        let lens = [0usize, 1, 63, 64, 255, 256, 257, 10_007];
        let mut draws = 0;
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let (mut batched, mut scalar) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for round in 0..32 {
                for &len in &lens {
                    let mut got = vec![f64::NAN; len];
                    randn_fill(&mut got, &mut batched);
                    let want: Vec<f64> = (0..len).map(|_| randn(&mut scalar)).collect();
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "seed {seed}, round {round}, len {len}"
                    );
                    draws += len;
                }
            }
            assert_eq!(
                batched.next_u64(),
                scalar.next_u64(),
                "seed {seed}: generator state"
            );
        }
        assert!(draws >= 1_000_000, "{draws} draws");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a_rng = StdRng::seed_from_u64(1);
        let mut b_rng = StdRng::seed_from_u64(2);
        assert_ne!(randn_vec(8, &mut a_rng), randn_vec(8, &mut b_rng));
    }
}
