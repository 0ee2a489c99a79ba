//! Classification evaluation metrics.

/// Fraction of positions where `predictions[i] == truth[i]`.
///
/// # Panics
///
/// Panics when lengths differ or inputs are empty.
pub fn accuracy(predictions: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predictions.len(), truth.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty evaluation set");
    let correct = predictions
        .iter()
        .zip(truth)
        .filter(|(p, t)| p == t)
        .count();
    correct as f64 / truth.len() as f64
}

/// Accuracy deviation in *percentage points*, the unit of the paper's
/// Figures 5–6: `100 · (perturbed_accuracy − baseline_accuracy)`. Negative
/// values mean the perturbed model is worse.
pub fn accuracy_deviation(perturbed: f64, baseline: f64) -> f64 {
    100.0 * (perturbed - baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 1], &[0, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
    }

    #[test]
    fn deviation_in_percentage_points() {
        assert!((accuracy_deviation(0.93, 0.95) + 2.0).abs() < 1e-12);
        assert_eq!(accuracy_deviation(0.5, 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = accuracy(&[0], &[0, 1]);
    }
}
