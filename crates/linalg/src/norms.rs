//! Matrix norms and distance helpers used by the privacy metrics.

use crate::matrix::Matrix;

/// Root-mean-square entry-wise difference; the "average per-cell error"
/// the privacy metric normalizes.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn rms_difference(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "rms_difference: shape mismatch");
    let n = (a.rows() * a.cols()) as f64;
    (a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        / n)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_difference_scale() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::filled(2, 2, 2.0);
        assert!((rms_difference(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = rms_difference(&Matrix::zeros(1, 2), &Matrix::zeros(2, 1));
    }
}
