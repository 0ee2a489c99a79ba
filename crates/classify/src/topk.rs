//! Bounded top-k selection: the O(n·log k) kernel behind KNN's
//! neighbour scan.
//!
//! [`KnnClassifier::neighbors`](crate::knn::KnnClassifier::neighbors)
//! used to collect all `n` distances and `sort_by` them — O(n·log n)
//! comparisons and O(n) memory *per predicted record*, with a
//! `partial_cmp(..).expect("finite distances")` panic site in the
//! comparator. [`select_k_smallest`] replaces that with a bounded
//! max-heap: stream the distances once, keep the `k` smallest seen so
//! far, O(n·log k) time and O(k) memory, no panic on NaN (ordering is
//! [`f64::total_cmp`], which sorts NaN after every finite value).
//!
//! # Tie rule
//!
//! Candidates are ordered by `(total_cmp(dist), index)` — equal distances
//! resolve to the **smaller index**, which is exactly what a stable sort
//! over `(dist, index)` pairs produces when indices arrive in ascending
//! order. That stable sort is the pinned spec: this module's tests and
//! `tests/kernel_equivalence.rs` check the two equal over duplicate-heavy
//! inputs and every `k` (including `k ≥ n`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, index)` candidate with total order `(total_cmp(dist),
/// idx)` — the heap's max is the current worst kept neighbour.
#[derive(Debug, Clone, Copy)]
struct Entry {
    dist: f64,
    idx: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

// `total_cmp` is a total order over the full f64 domain (NaN included),
// so equality via `cmp` satisfies `Eq`.
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Selects the `k` smallest `(value, index)` pairs from `values`,
/// returned ascending (ties by index). When `k ≥ n` every pair is
/// returned, fully sorted.
///
/// One pass, O(n·log k) comparisons, O(k) memory. NaN values order after
/// all finite values ([`f64::total_cmp`]) instead of panicking. The
/// result is element-identical to a stable sort of all pairs by value,
/// truncated to `k`.
///
/// # Panics
///
/// Panics when `k == 0` (a zero-size neighbourhood is a caller bug —
/// [`KnnClassifier::fit`](crate::knn::KnnClassifier::fit) rejects it at
/// construction).
pub fn select_k_smallest(values: impl IntoIterator<Item = f64>, k: usize) -> Vec<(f64, usize)> {
    assert!(k >= 1, "top-k selection needs k >= 1");
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
    for (idx, dist) in values.into_iter().enumerate() {
        let entry = Entry { dist, idx };
        if heap.len() < k {
            heap.push(entry);
        } else if let Some(worst) = heap.peek() {
            // Strict `<`: an equal distance with a larger index ranks
            // after the kept entry, exactly as the stable sort would.
            if entry < *worst {
                heap.pop();
                heap.push(entry);
            }
        }
    }
    let mut kept = heap.into_vec();
    kept.sort_unstable(); // total order: ascending (dist, idx)
    kept.into_iter().map(|e| (e.dist, e.idx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned reference spec for [`select_k_smallest`]: enumerate all
    /// pairs, stable-sort by [`f64::total_cmp`] on the value, truncate to
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    fn select_k_smallest_reference(
        values: impl IntoIterator<Item = f64>,
        k: usize,
    ) -> Vec<(f64, usize)> {
        assert!(k >= 1, "top-k selection needs k >= 1");
        let mut pairs: Vec<(f64, usize)> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        pairs.truncate(k);
        pairs
    }

    #[test]
    fn selects_smallest_with_index_ties() {
        let vals = [3.0, 1.0, 2.0, 1.0, 0.5];
        assert_eq!(
            select_k_smallest(vals, 3),
            vec![(0.5, 4), (1.0, 1), (1.0, 3)]
        );
    }

    #[test]
    fn k_at_least_n_returns_full_sort() {
        let vals = [2.0, 2.0, 1.0];
        let got = select_k_smallest(vals, 10);
        assert_eq!(got, vec![(1.0, 2), (2.0, 0), (2.0, 1)]);
        assert_eq!(got, select_k_smallest_reference(vals, 10));
    }

    #[test]
    fn nan_orders_last_without_panicking() {
        let vals = [f64::NAN, 1.0, 2.0];
        assert_eq!(select_k_smallest(vals, 2), vec![(1.0, 1), (2.0, 2)]);
        let all = select_k_smallest(vals, 3);
        assert_eq!(all[2].1, 0);
        assert!(all[2].0.is_nan());
    }

    #[test]
    fn matches_reference_on_duplicate_heavy_input() {
        let vals: Vec<f64> = (0..200).map(|i| ((i * 7) % 5) as f64).collect();
        for k in [1, 2, 5, 50, 199, 200, 300] {
            assert_eq!(
                select_k_smallest(vals.iter().copied(), k),
                select_k_smallest_reference(vals.iter().copied(), k),
                "k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = select_k_smallest([1.0], 0);
    }

    #[test]
    fn empty_input_yields_empty() {
        assert_eq!(select_k_smallest(std::iter::empty(), 3), vec![]);
    }
}
