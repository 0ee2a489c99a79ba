//! From-scratch classifiers and evaluation for the SAP experiments.
//!
//! The PODC'07 brief measures the *accuracy deviation* of models trained on
//! SAP-unified perturbed data versus models trained on the original data,
//! for "two representative classifiers: KNN classifier and SVM classifier
//! with RBF kernel" (Figures 5–6). Both are implemented here from scratch:
//!
//! * [`knn::KnnClassifier`] — brute-force k-nearest-neighbour voting.
//! * [`svm::SvmClassifier`] — soft-margin SVM trained with the SMO
//!   algorithm, RBF or linear kernel, one-vs-one multiclass reduction.
//! * [`perceptron::Perceptron`] — the linear baseline the paper's
//!   "linear classifiers are rotation-invariant" claim refers to.
//!
//! All three implement the common [`Model`] trait so the protocol and
//! benchmark code can treat them interchangeably. The evaluation helpers
//! (accuracy and the paper's accuracy deviation) live in [`metrics`]; the
//! O(n·log k) bounded-heap selection kernel behind KNN's neighbour scan
//! lives in [`topk`].
//!
//! # Why these classifiers?
//!
//! Geometric perturbation's utility argument is that kernel methods whose
//! kernels depend only on distances or inner products (RBF) and neighbour
//! methods (KNN) are invariant under rotation + translation of the feature
//! space. The integration tests in this crate verify that invariance
//! directly.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod knn;
pub mod metrics;
pub mod perceptron;
pub mod svm;
pub mod topk;

pub use knn::KnnClassifier;
pub use perceptron::Perceptron;
pub use svm::{Kernel, SvmClassifier, SvmConfig};

use sap_datasets::Dataset;

/// A trained classification model.
pub trait Model {
    /// Predicts the class label of one record.
    fn predict(&self, record: &[f64]) -> usize;

    /// Predicts labels for every record of a dataset.
    fn predict_dataset(&self, data: &Dataset) -> Vec<usize> {
        data.records().iter().map(|r| self.predict(r)).collect()
    }

    /// Fraction of records of `data` classified correctly.
    fn accuracy(&self, data: &Dataset) -> f64 {
        let preds = self.predict_dataset(data);
        metrics::accuracy(&preds, data.labels())
    }
}
