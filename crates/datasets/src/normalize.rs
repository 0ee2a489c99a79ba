//! Min–max normalization.
//!
//! The paper defines the perturbation on "the *normalized* original dataset";
//! both the translation component (`t ~ U[-1,1]`) and the privacy metric's
//! column normalization assume features live in a common `[0, 1]` range.
//! The parameters are captured in a [`Normalizer`] so the same affine map can
//! be applied to held-out test records.

use crate::dataset::Dataset;

/// A fitted per-column min–max normalizer mapping each feature to `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl Normalizer {
    /// Fits column minima/maxima on a dataset.
    pub fn fit(data: &Dataset) -> Self {
        let d = data.dim();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for (rec, _) in data.iter() {
            for (j, &v) in rec.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        Normalizer { mins, maxs }
    }

    /// Feature dimensionality this normalizer was fitted on.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Normalizes one record (constant columns map to `0.5`).
    ///
    /// # Panics
    ///
    /// Panics if `record.len() != self.dim()`.
    pub fn transform_record(&self, record: &[f64]) -> Vec<f64> {
        assert_eq!(record.len(), self.dim(), "record dim mismatch");
        record
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let range = self.maxs[j] - self.mins[j];
                if range > 0.0 {
                    (v - self.mins[j]) / range
                } else {
                    0.5
                }
            })
            .collect()
    }

    /// Normalizes a whole dataset.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let records: Vec<Vec<f64>> = data
            .records()
            .iter()
            .map(|r| self.transform_record(r))
            .collect();
        Dataset::with_num_classes(records, data.labels().to_vec(), data.num_classes())
    }

    /// Inverts the normalization of one record.
    ///
    /// # Panics
    ///
    /// Panics if `record.len() != self.dim()`.
    pub fn inverse_record(&self, record: &[f64]) -> Vec<f64> {
        assert_eq!(record.len(), self.dim(), "record dim mismatch");
        record
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let range = self.maxs[j] - self.mins[j];
                if range > 0.0 {
                    v * range + self.mins[j]
                } else {
                    self.mins[j]
                }
            })
            .collect()
    }
}

/// Fits on `data` and transforms it in one call.
pub fn min_max_normalize(data: &Dataset) -> (Dataset, Normalizer) {
    let norm = Normalizer::fit(data);
    (norm.transform(data), norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]],
            vec![0, 1, 0],
        )
    }

    #[test]
    fn normalizes_to_unit_range() {
        let (norm, _) = min_max_normalize(&toy());
        for (rec, _) in norm.iter() {
            for &v in rec {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        assert_eq!(norm.record(0), &[0.0, 0.0]);
        assert_eq!(norm.record(2), &[1.0, 1.0]);
        assert_eq!(norm.record(1), &[0.5, 0.5]);
    }

    #[test]
    fn constant_column_maps_to_half() {
        let data = Dataset::new(vec![vec![3.0, 1.0], vec![3.0, 2.0]], vec![0, 1]);
        let (norm, _) = min_max_normalize(&data);
        assert_eq!(norm.record(0)[0], 0.5);
        assert_eq!(norm.record(1)[0], 0.5);
    }

    #[test]
    fn transform_applies_train_params_to_test() {
        let n = Normalizer::fit(&toy());
        // A point outside the fitted range extrapolates linearly.
        let t = n.transform_record(&[20.0, 40.0]);
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrips() {
        let n = Normalizer::fit(&toy());
        let rec = vec![7.0, 13.0];
        let back = n.inverse_record(&n.transform_record(&rec));
        for (a, b) in rec.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn labels_preserved() {
        let (norm, _) = min_max_normalize(&toy());
        assert_eq!(norm.labels(), toy().labels());
        assert_eq!(norm.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_dim_panics() {
        let n = Normalizer::fit(&toy());
        let _ = n.transform_record(&[1.0]);
    }
}
