//! k-nearest-neighbour classification.

use crate::Model;
use sap_datasets::Dataset;
use sap_linalg::vecops;

/// A brute-force k-nearest-neighbour classifier.
///
/// Distance-based and therefore exactly invariant under rotation and
/// translation of the feature space — the property the paper's utility
/// argument rests on. Ties in the vote resolve toward the class of the
/// nearest member among the tied classes.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    train: Dataset,
    k: usize,
}

impl KnnClassifier {
    /// "Trains" (stores) a KNN model.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `k > data.len()`.
    pub fn fit(data: &Dataset, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(k <= data.len(), "k exceeds training size");
        KnnClassifier {
            train: data.clone(),
            k,
        }
    }

    /// The neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Indices of the `k` nearest training records to `record`, nearest
    /// first (distance ties resolve to the smaller index).
    ///
    /// One streaming pass over the training set through the bounded
    /// max-heap kernel [`crate::topk::select_k_smallest`]: O(n·log k)
    /// comparisons and O(k) memory instead of the full O(n·log n) sort,
    /// with identical output order.
    pub fn neighbors(&self, record: &[f64]) -> Vec<usize> {
        crate::topk::select_k_smallest(
            self.train
                .records()
                .iter()
                .map(|r| vecops::dist2_sq(record, r)),
            self.k,
        )
        .into_iter()
        .map(|(_, i)| i)
        .collect()
    }
}

impl Model for KnnClassifier {
    fn predict(&self, record: &[f64]) -> usize {
        let neigh = self.neighbors(record);
        let mut votes = vec![0usize; self.train.num_classes()];
        for &i in &neigh {
            votes[self.train.label(i)] += 1;
        }
        let best = votes.iter().max().copied().unwrap_or(0);
        // Tie-break toward the class of the nearest tied neighbour.
        for &i in &neigh {
            if votes[self.train.label(i)] == best {
                return self.train.label(i);
            }
        }
        unreachable!("some neighbour has the winning class");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_datasets::registry::UciDataset;
    use sap_datasets::split::stratified_split;

    fn xor_corners() -> Dataset {
        Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
            ],
            vec![0, 0, 1, 1],
        )
    }

    #[test]
    fn one_nn_memorizes_training_data() {
        let data = xor_corners();
        let knn = KnnClassifier::fit(&data, 1);
        assert!((knn.accuracy(&data) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_point_wins() {
        let data = xor_corners();
        let knn = KnnClassifier::fit(&data, 1);
        assert_eq!(knn.predict(&[0.1, 0.1]), 0);
        assert_eq!(knn.predict(&[0.1, 0.9]), 1);
    }

    #[test]
    fn k3_majority_vote() {
        // Two class-0 points near origin, one class-1 outlier: k=3 vote at
        // origin must be class 0.
        let data = Dataset::new(
            vec![vec![0.0, 0.0], vec![0.2, 0.0], vec![5.0, 5.0]],
            vec![0, 0, 1],
        );
        let knn = KnnClassifier::fit(&data, 3);
        assert_eq!(knn.predict(&[0.0, 0.1]), 0);
    }

    #[test]
    fn tie_breaks_to_nearest() {
        // k=2 with one vote each; the nearer neighbour's class wins.
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0, 1]);
        let knn = KnnClassifier::fit(&data, 2);
        assert_eq!(knn.predict(&[0.1]), 0);
        assert_eq!(knn.predict(&[0.9]), 1);
    }

    #[test]
    fn neighbors_sorted_by_distance() {
        let data = Dataset::new(vec![vec![0.0], vec![2.0], vec![1.0]], vec![0, 0, 0]);
        let knn = KnnClassifier::fit(&data, 3);
        assert_eq!(knn.neighbors(&[0.0]), vec![0, 2, 1]);
    }

    #[test]
    fn decent_accuracy_on_separable_synthetic() {
        let data = UciDataset::Iris.generate(1);
        let tt = stratified_split(&data, 0.7, 2);
        let knn = KnnClassifier::fit(&tt.train, 5);
        let acc = knn.accuracy(&tt.test);
        assert!(acc > 0.85, "iris-like accuracy {acc} too low");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KnnClassifier::fit(&xor_corners(), 0);
    }

    #[test]
    #[should_panic(expected = "k exceeds")]
    fn oversized_k_panics() {
        let _ = KnnClassifier::fit(&xor_corners(), 10);
    }
}
