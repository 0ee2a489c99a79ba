//! Stratified train/test splitting.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A train/test split of a dataset.
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion.
    pub test: Dataset,
}

/// Stratified train/test split: each class is split independently with the
/// same ratio, so both sides keep the class mix.
///
/// # Panics
///
/// Panics unless `0 < train_fraction < 1`, or if some class has fewer than
/// two records (each side must receive at least one record per class).
pub fn stratified_split(data: &Dataset, train_fraction: f64, seed: u64) -> TrainTest {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train_fraction must be in (0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();
    for class in 0..data.num_classes() {
        let mut members: Vec<usize> = (0..data.len())
            .filter(|&i| data.label(i) == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        assert!(
            members.len() >= 2,
            "class {class} has fewer than 2 records; cannot stratify"
        );
        members.shuffle(&mut rng);
        let n_train =
            ((members.len() as f64 * train_fraction).round() as usize).clamp(1, members.len() - 1);
        train_idx.extend_from_slice(&members[..n_train]);
        test_idx.extend_from_slice(&members[n_train..]);
    }
    train_idx.shuffle(&mut rng);
    test_idx.shuffle(&mut rng);
    TrainTest {
        train: data.subset(&train_idx),
        test: data.subset(&test_idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::UciDataset;

    #[test]
    fn stratified_preserves_class_mix() {
        let data = UciDataset::Iris.generate(1);
        let tt = stratified_split(&data, 0.7, 3);
        assert_eq!(tt.train.len() + tt.test.len(), data.len());
        // Iris is balanced; both sides should be balanced within 10%.
        let tc = tt.train.class_counts();
        for &c in &tc {
            assert!((c as f64 - tt.train.len() as f64 / 3.0).abs() <= 2.0);
        }
        // Every class appears in the test set.
        assert!(tt.test.class_counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn stratified_is_deterministic() {
        let data = UciDataset::Heart.generate(2);
        let a = stratified_split(&data, 0.8, 7);
        let b = stratified_split(&data, 0.8, 7);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn skewed_classes_survive_split() {
        // Shuttle has classes clamped to 4 records; both sides get >= 1.
        let data = UciDataset::Shuttle.generate(3);
        let tt = stratified_split(&data, 0.75, 1);
        assert!(tt.train.class_counts().iter().all(|&c| c > 0));
        assert!(tt.test.class_counts().iter().all(|&c| c > 0));
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn bad_fraction_panics() {
        let data = UciDataset::Iris.generate(5);
        let _ = stratified_split(&data, 1.5, 0);
    }
}
