//! Splitting a pooled dataset across `k` data providers.
//!
//! The paper evaluates two *partition distributions*:
//!
//! * **Uniform** — each local dataset is (approximately) a uniform random
//!   sample of the pooled data, so every provider sees the global class mix.
//! * **Class-skewed** — providers receive class-correlated slices, so local
//!   class distributions deviate from the pooled one. (The figures label
//!   this "Class".)
//!
//! Both schemes produce *randomly sized* sub-datasets, as in the paper's
//! setup ("split into several randomly sized sub-datasets"). Sizes are drawn
//! from a symmetric Dirichlet-like allocation with a floor so no provider is
//! starved.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// How records are distributed across providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Each provider is a near-uniform random sample of the pooled dataset.
    Uniform,
    /// Providers receive class-correlated slices (skewed local label
    /// distributions) — the paper's "Class" partition distribution.
    ClassSkewed,
}

impl PartitionScheme {
    /// Label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PartitionScheme::Uniform => "Uniform",
            PartitionScheme::ClassSkewed => "Class",
        }
    }
}

/// Minimum number of records per provider.
pub const MIN_PART_SIZE: usize = 8;

/// Draws `k` random part sizes summing to `n`, each at least
/// [`MIN_PART_SIZE`] (or `n / (2k)` when `n` is small).
fn random_sizes(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k >= 1);
    let floor = MIN_PART_SIZE.min((n / (2 * k)).max(1));
    assert!(
        n >= floor * k,
        "cannot split {n} records across {k} providers"
    );
    // Random positive weights, then largest-remainder allocation over the
    // budget that remains after the floor.
    let weights: Vec<f64> = (0..k).map(|_| rng.random_range(0.5..1.5)).collect();
    let total: f64 = weights.iter().sum();
    let budget = n - floor * k;
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| floor + (w / total * budget as f64).floor() as usize)
        .collect();
    let mut assigned: usize = sizes.iter().sum();
    let mut i = 0;
    while assigned < n {
        sizes[i % k] += 1;
        assigned += 1;
        i += 1;
    }
    sizes
}

/// Splits `data` into `k` randomly sized sub-datasets under `scheme`,
/// deterministically in `seed`. The union of the parts is exactly the input
/// (no overlap, no loss).
///
/// # Panics
///
/// Panics when `k == 0` or the dataset is too small to give every provider
/// at least one record.
pub fn partition(data: &Dataset, k: usize, scheme: PartitionScheme, seed: u64) -> Vec<Dataset> {
    assert!(k >= 1, "need at least one provider");
    let n = data.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = random_sizes(n, k, &mut rng);

    let mut order: Vec<usize> = (0..n).collect();
    match scheme {
        PartitionScheme::Uniform => {
            order.shuffle(&mut rng);
        }
        PartitionScheme::ClassSkewed => {
            // Sort by class with random tie-breaking, then carve contiguous
            // chunks: each provider sees a class-correlated slice.
            order.shuffle(&mut rng);
            order.sort_by_key(|&i| data.label(i));
        }
    }

    let mut parts = Vec::with_capacity(k);
    let mut offset = 0;
    for &size in &sizes {
        let idx = &order[offset..offset + size];
        parts.push(data.subset(idx));
        offset += size;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::UciDataset;

    /// How far a partition's local class distributions deviate from the
    /// pooled distribution: the mean total-variation distance across parts.
    /// `0` means perfectly uniform sampling; larger is more skewed.
    fn partition_skew(pooled: &Dataset, parts: &[Dataset]) -> f64 {
        let n = pooled.len() as f64;
        let global: Vec<f64> = pooled
            .class_counts()
            .iter()
            .map(|&c| c as f64 / n)
            .collect();
        let mut total = 0.0;
        for p in parts {
            let pn = p.len() as f64;
            let local: Vec<f64> = p.class_counts().iter().map(|&c| c as f64 / pn).collect();
            let tv: f64 = global
                .iter()
                .zip(local.iter().chain(std::iter::repeat(&0.0)))
                .map(|(g, l)| (g - l).abs())
                .sum::<f64>()
                / 2.0;
            total += tv;
        }
        total / parts.len() as f64
    }

    #[test]
    fn partition_is_exact_cover() {
        let data = UciDataset::Iris.generate(1);
        for scheme in [PartitionScheme::Uniform, PartitionScheme::ClassSkewed] {
            let parts = partition(&data, 5, scheme, 3);
            assert_eq!(parts.len(), 5);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, data.len());
            for p in &parts {
                assert_eq!(p.dim(), data.dim());
                assert_eq!(p.num_classes(), data.num_classes());
            }
        }
    }

    #[test]
    fn sizes_are_random_but_bounded() {
        let data = UciDataset::Diabetes.generate(2);
        let parts = partition(&data, 6, PartitionScheme::Uniform, 11);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert!(sizes.iter().all(|&s| s >= MIN_PART_SIZE));
        // Random sizing: parts should not all be equal.
        assert!(sizes.iter().any(|&s| s != sizes[0]), "sizes {sizes:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let data = UciDataset::Wine.generate(3);
        let a = partition(&data, 4, PartitionScheme::Uniform, 9);
        let b = partition(&data, 4, PartitionScheme::Uniform, 9);
        assert_eq!(a, b);
        let c = partition(&data, 4, PartitionScheme::Uniform, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn class_skewed_is_more_skewed_than_uniform() {
        let data = UciDataset::Votes.generate(4);
        let uni = partition(&data, 5, PartitionScheme::Uniform, 5);
        let skew = partition(&data, 5, PartitionScheme::ClassSkewed, 5);
        let s_uni = partition_skew(&data, &uni);
        let s_skew = partition_skew(&data, &skew);
        assert!(
            s_skew > s_uni + 0.1,
            "skewed {s_skew:.3} should exceed uniform {s_uni:.3}"
        );
    }

    #[test]
    fn single_provider_gets_everything() {
        let data = UciDataset::Iris.generate(5);
        let parts = partition(&data, 1, PartitionScheme::Uniform, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), data.len());
    }

    #[test]
    fn labels_travel_with_records() {
        let data = UciDataset::Iris.generate(6);
        let parts = partition(&data, 3, PartitionScheme::Uniform, 2);
        // Re-pool and compare class counts.
        let pooled = Dataset::concat(&parts);
        assert_eq!(pooled.class_counts(), data.class_counts());
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(PartitionScheme::Uniform.label(), "Uniform");
        assert_eq!(PartitionScheme::ClassSkewed.label(), "Class");
    }

    #[test]
    #[should_panic(expected = "at least one provider")]
    fn zero_providers_panics() {
        let data = UciDataset::Iris.generate(7);
        let _ = partition(&data, 0, PartitionScheme::Uniform, 0);
    }
}
