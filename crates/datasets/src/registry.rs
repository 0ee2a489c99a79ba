//! The twelve named datasets of the paper's evaluation.
//!
//! Figures 5 and 6 of the brief run over `Breast_w, Credit_a, Credit_g,
//! Diabetes, Ecoli, Hepatitis, Heart, Ionosphere, Iris, Shuttle, Votes,
//! Wine`. Each entry here records the published shape of the UCI original
//! (records, features, classes, class balance) and a separability setting
//! calibrated so the synthetic stand-in's clean accuracy is in the
//! neighborhood reported for that dataset in the classifier literature.
//!
//! Shuttle's 58 000 records are subsampled to 2 000 (documented substitution:
//! the experiments are ratio-of-accuracy measurements, and 2 000 records keep
//! the whole twelve-dataset sweep laptop-scale).

use crate::dataset::Dataset;
use crate::generator::{generate, MixtureSpec};

/// The twelve UCI datasets used in the paper's Figures 3–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UciDataset {
    /// Wisconsin breast cancer: 699 × 9, 2 classes, highly separable.
    BreastW,
    /// Australian credit approval: 690 × 14, 2 classes.
    CreditA,
    /// German credit: 1000 × 24, 2 classes, hard.
    CreditG,
    /// Pima Indians diabetes: 768 × 8, 2 classes, hard.
    Diabetes,
    /// Ecoli protein localization: 336 × 7, 8 classes, skewed.
    Ecoli,
    /// Hepatitis: 155 × 19, 2 classes, skewed.
    Hepatitis,
    /// Statlog heart: 270 × 13, 2 classes.
    Heart,
    /// Ionosphere radar: 351 × 34, 2 classes, separable.
    Ionosphere,
    /// Iris: 150 × 4, 3 classes, very separable.
    Iris,
    /// Statlog shuttle (subsampled to 2000): 9 features, 7 skewed classes.
    Shuttle,
    /// Congressional votes: 435 × 16 binary features, 2 classes.
    Votes,
    /// Wine cultivars: 178 × 13, 3 classes, very separable.
    Wine,
}

impl UciDataset {
    /// All twelve datasets in the order the paper's figures list them.
    pub const ALL: [UciDataset; 12] = [
        UciDataset::BreastW,
        UciDataset::CreditA,
        UciDataset::CreditG,
        UciDataset::Diabetes,
        UciDataset::Ecoli,
        UciDataset::Hepatitis,
        UciDataset::Heart,
        UciDataset::Ionosphere,
        UciDataset::Iris,
        UciDataset::Shuttle,
        UciDataset::Votes,
        UciDataset::Wine,
    ];

    /// The three datasets the paper singles out for Figures 3–4.
    pub const FIGURE3: [UciDataset; 3] =
        [UciDataset::Diabetes, UciDataset::Shuttle, UciDataset::Votes];

    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            UciDataset::BreastW => "Breast_w",
            UciDataset::CreditA => "Credit_a",
            UciDataset::CreditG => "Credit_g",
            UciDataset::Diabetes => "Diabetes",
            UciDataset::Ecoli => "Ecoli",
            UciDataset::Hepatitis => "Hepatitis",
            UciDataset::Heart => "Heart",
            UciDataset::Ionosphere => "Ionosphere",
            UciDataset::Iris => "Iris",
            UciDataset::Shuttle => "Shuttle",
            UciDataset::Votes => "Votes",
            UciDataset::Wine => "Wine",
        }
    }

    /// The mixture spec that generates this dataset's synthetic stand-in.
    pub fn spec(self) -> MixtureSpec {
        // (records, dim, weights, separation, binary)
        let (num_records, dim, class_weights, separation, binary_features) = match self {
            // 458 benign / 241 malignant; KNN accuracy ~96-97%.
            UciDataset::BreastW => (699, 9, vec![0.655, 0.345], 3.2, 0),
            // 307 + / 383 -; accuracy ~85%.
            UciDataset::CreditA => (690, 14, vec![0.445, 0.555], 2.1, 0),
            // 700 good / 300 bad; accuracy ~74%.
            UciDataset::CreditG => (1000, 24, vec![0.7, 0.3], 1.3, 0),
            // 500 neg / 268 pos; accuracy ~75%.
            UciDataset::Diabetes => (768, 8, vec![0.651, 0.349], 1.35, 0),
            // 8 localization sites, heavy skew; accuracy ~85%.
            UciDataset::Ecoli => (
                336,
                7,
                vec![0.426, 0.229, 0.155, 0.104, 0.059, 0.015, 0.006, 0.006],
                2.4,
                0,
            ),
            // 32 die / 123 live; accuracy ~83%.
            UciDataset::Hepatitis => (155, 19, vec![0.206, 0.794], 1.9, 0),
            // 150 absent / 120 present; accuracy ~82%.
            UciDataset::Heart => (270, 13, vec![0.556, 0.444], 1.85, 0),
            // 225 good / 126 bad; accuracy ~90%.
            UciDataset::Ionosphere => (351, 34, vec![0.641, 0.359], 2.5, 0),
            // 3 balanced cultivars; accuracy ~96%.
            UciDataset::Iris => (150, 4, vec![1.0, 1.0, 1.0], 3.1, 0),
            // 7 classes, class 1 dominates; accuracy ~99%. Subsampled.
            UciDataset::Shuttle => (
                2000,
                9,
                vec![0.786, 0.0008, 0.003, 0.155, 0.054, 0.0007, 0.0002],
                4.0,
                0,
            ),
            // 267 dem / 168 rep, 16 yes/no votes; accuracy ~95%.
            UciDataset::Votes => (435, 16, vec![0.614, 0.386], 2.9, 16),
            // 59/71/48 cultivars; accuracy ~97%.
            UciDataset::Wine => (178, 13, vec![0.331, 0.399, 0.270], 3.3, 0),
        };
        MixtureSpec {
            dim,
            num_records,
            class_weights,
            separation,
            spread: 0.12,
            binary_features,
        }
    }

    /// Generates the synthetic stand-in, deterministically in `seed`.
    ///
    /// The dataset identity is folded into the seed so that, e.g., Iris and
    /// Wine generated with the same user seed still differ.
    pub fn generate(self, seed: u64) -> Dataset {
        let tag = Self::ALL
            .iter()
            .position(|&d| d == self)
            .expect("dataset in ALL") as u64;
        generate(
            &self.spec(),
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tag << 32) ^ tag,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generate_with_published_shapes() {
        for ds in UciDataset::ALL {
            let spec = ds.spec();
            let data = ds.generate(1);
            assert_eq!(data.len(), spec.num_records, "{}", ds.name());
            assert_eq!(data.dim(), spec.dim, "{}", ds.name());
            assert_eq!(data.num_classes(), spec.num_classes(), "{}", ds.name());
        }
    }

    #[test]
    fn shapes_match_uci_catalog() {
        assert_eq!(UciDataset::Iris.spec().dim, 4);
        assert_eq!(UciDataset::Iris.spec().num_records, 150);
        assert_eq!(UciDataset::Ionosphere.spec().dim, 34);
        assert_eq!(UciDataset::Ecoli.spec().num_classes(), 8);
        assert_eq!(UciDataset::Shuttle.spec().num_classes(), 7);
        assert_eq!(UciDataset::Votes.spec().binary_features, 16);
    }

    #[test]
    fn datasets_differ_under_same_seed() {
        let a = UciDataset::Iris.generate(7);
        let b = UciDataset::Wine.generate(7);
        assert_ne!(a.dim(), 0);
        assert!(a.dim() != b.dim() || a.records()[0] != b.records()[0]);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(UciDataset::Heart.generate(3), UciDataset::Heart.generate(3));
        assert_ne!(UciDataset::Heart.generate(3), UciDataset::Heart.generate(4));
    }

    #[test]
    fn votes_is_all_binary() {
        let v = UciDataset::Votes.generate(2);
        for (rec, _) in v.iter() {
            assert!(rec.iter().all(|&x| x == 0.0 || x == 1.0));
        }
    }

    #[test]
    fn figure3_subset_is_subset_of_all() {
        for d in UciDataset::FIGURE3 {
            assert!(UciDataset::ALL.contains(&d));
        }
    }
}
