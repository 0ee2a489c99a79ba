//! The labeled-dataset container shared by every crate in the workspace.

use sap_linalg::Matrix;

/// A labeled numeric dataset: `N` records of `d` features plus a class label
/// per record.
///
/// Records are stored row-major (one record per row). The perturbation code
/// follows the paper's `d × N` convention (one record per *column*); use
/// [`Dataset::to_column_matrix`] / [`Dataset::from_column_matrix`] to cross
/// between the two views.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    records: Vec<Vec<f64>>,
    labels: Vec<usize>,
    dim: usize,
    num_classes: usize,
}

/// Why records and labels do not form a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetError {
    /// `records` and `labels` differ in length.
    LengthMismatch,
    /// There are no records.
    Empty,
    /// Records differ in length.
    Ragged,
    /// A label is `>= num_classes`.
    LabelOutOfRange,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DatasetError::LengthMismatch => "records/labels length mismatch",
            DatasetError::Empty => "dataset must be non-empty",
            DatasetError::Ragged => "ragged records in dataset",
            DatasetError::LabelOutOfRange => "label exceeds num_classes",
        })
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Creates a dataset from records and labels.
    ///
    /// `num_classes` is inferred as `max(label) + 1`.
    ///
    /// # Panics
    ///
    /// Panics when `records` and `labels` lengths differ, when records are
    /// ragged, or when `records` is empty.
    pub fn new(records: Vec<Vec<f64>>, labels: Vec<usize>) -> Self {
        let num_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        Self::with_num_classes(records, labels, num_classes)
    }

    /// Creates a dataset with an explicit class count (useful when a subset
    /// does not contain every class).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Dataset::new`], plus any label `>= num_classes`.
    pub fn with_num_classes(
        records: Vec<Vec<f64>>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        Self::try_with_num_classes(records, labels, num_classes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The non-panicking form of [`Dataset::with_num_classes`], for
    /// records and labels that arrive from outside the program.
    ///
    /// # Errors
    ///
    /// [`DatasetError`] naming the first broken condition.
    pub fn try_with_num_classes(
        records: Vec<Vec<f64>>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DatasetError> {
        if records.len() != labels.len() {
            return Err(DatasetError::LengthMismatch);
        }
        let dim = records.first().ok_or(DatasetError::Empty)?.len();
        if records.iter().any(|r| r.len() != dim) {
            return Err(DatasetError::Ragged);
        }
        if labels.iter().any(|&l| l >= num_classes) {
            return Err(DatasetError::LabelOutOfRange);
        }
        Ok(Dataset {
            records,
            labels,
            dim,
            num_classes,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the dataset holds no records. Kept for API completeness;
    /// constructors reject empty datasets.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Feature dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Borrow record `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn record(&self, i: usize) -> &[f64] {
        &self.records[i]
    }

    /// Label of record `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All records.
    pub fn records(&self) -> &[Vec<f64>] {
        &self.records
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Iterates over `(record, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> {
        self.records
            .iter()
            .map(|r| r.as_slice())
            .zip(self.labels.iter().copied())
    }

    /// Per-class record counts (length [`Dataset::num_classes`]).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// The `d × N` matrix whose columns are the records — the orientation the
    /// paper's `G(X) = R·X + Ψ + Δ` acts on.
    pub fn to_column_matrix(&self) -> Matrix {
        Matrix::from_fn(self.dim, self.len(), |r, c| self.records[c][r])
    }

    /// Rebuilds a dataset from a `d × N` column matrix and labels (the
    /// inverse of [`Dataset::to_column_matrix`]).
    ///
    /// # Panics
    ///
    /// Panics when `x.cols() != labels.len()`.
    pub fn from_column_matrix(x: &Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(x.cols(), labels.len(), "column count != label count");
        let records: Vec<Vec<f64>> = (0..x.cols()).map(|c| x.column(c)).collect();
        Self::with_num_classes(records, labels, num_classes)
    }

    /// Returns the sub-dataset selected by `indices` (class count is
    /// preserved from `self`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or `indices` is empty.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let records: Vec<Vec<f64>> = indices.iter().map(|&i| self.records[i].clone()).collect();
        let labels: Vec<usize> = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset::with_num_classes(records, labels, self.num_classes)
    }

    /// Concatenates several datasets (all must agree on `dim`; the class
    /// count is the maximum of the parts').
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or dimensions disagree.
    pub fn concat(parts: &[Dataset]) -> Dataset {
        assert!(!parts.is_empty(), "concat of zero datasets");
        let dim = parts[0].dim;
        assert!(parts.iter().all(|p| p.dim == dim), "dim mismatch in concat");
        let num_classes = parts.iter().map(|p| p.num_classes).max().unwrap_or(1);
        let mut records = Vec::new();
        let mut labels = Vec::new();
        for p in parts {
            records.extend(p.records.iter().cloned());
            labels.extend(p.labels.iter().copied());
        }
        Dataset::with_num_classes(records, labels, num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]],
            vec![0, 1, 0],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.record(1), &[1.0, 0.0]);
        assert_eq!(d.label(1), 1);
        assert_eq!(d.class_counts(), vec![2, 1]);
    }

    #[test]
    fn column_matrix_roundtrip() {
        let d = toy();
        let x = d.to_column_matrix();
        assert_eq!(x.shape(), (2, 3));
        assert_eq!(x.column(0), vec![0.0, 1.0]);
        let back = Dataset::from_column_matrix(&x, d.labels().to_vec(), d.num_classes());
        assert_eq!(back, d);
    }

    #[test]
    fn subset_selects() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.record(0), &[0.5, 0.5]);
        assert_eq!(s.labels(), &[0, 0]);
        assert_eq!(s.num_classes(), 2, "class count preserved");
    }

    #[test]
    fn concat_rebuilds() {
        let d = toy();
        let a = d.subset(&[0]);
        let b = d.subset(&[1, 2]);
        let c = Dataset::concat(&[a, b]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_classes(), 2);
    }

    #[test]
    fn try_constructor_reports_each_violation() {
        let ok = Dataset::try_with_num_classes(vec![vec![1.0, 2.0]], vec![1], 2);
        assert_eq!(ok.unwrap().dim(), 2);
        for (records, labels, classes, want) in [
            (vec![vec![1.0]], vec![0, 0], 1, DatasetError::LengthMismatch),
            (vec![], vec![], 1, DatasetError::Empty),
            (vec![vec![1.0], vec![]], vec![0, 0], 1, DatasetError::Ragged),
            (vec![vec![1.0]], vec![2], 2, DatasetError::LabelOutOfRange),
        ] {
            assert_eq!(
                Dataset::try_with_num_classes(records, labels, classes),
                Err(want)
            );
        }
    }

    #[test]
    fn with_num_classes_override() {
        let d = Dataset::with_num_classes(vec![vec![1.0]], vec![0], 5);
        assert_eq!(d.num_classes(), 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_panic() {
        let _ = Dataset::new(vec![vec![1.0]], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_records_panic() {
        let _ = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "label exceeds")]
    fn label_out_of_range_panics() {
        let _ = Dataset::with_num_classes(vec![vec![1.0]], vec![3], 2);
    }

    #[test]
    fn iter_pairs() {
        let d = toy();
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[2], (&[0.5, 0.5][..], 0));
    }
}
