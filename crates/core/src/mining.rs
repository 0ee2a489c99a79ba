//! The mining-service layer: closing the loop of the paper's Figure 1.
//!
//! In the service-oriented framework, the service provider does not just
//! *receive* unified data — it trains the "commonly interested models" and
//! serves them back to the providers, who then classify new records by
//! perturbing them into the unified space first. This module packages that
//! flow:
//!
//! * [`MiningService`] — the miner's side: train a model on the unified
//!   dataset, answer classification requests posed in the unified space.
//! * [`ClassificationClient`] — a provider's side: holds the target
//!   perturbation `G_t` and maps raw records into the unified space before
//!   querying the service (the service never sees raw records).

use sap_classify::perceptron::{Perceptron, PerceptronConfig};
use sap_classify::{KnnClassifier, Model, SvmClassifier, SvmConfig};
use sap_datasets::Dataset;
use sap_linalg::Matrix;
use sap_perturb::Perturbation;

/// Which model family the service trains.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// k-nearest neighbours with the given `k`.
    Knn(usize),
    /// SVM with RBF kernel (`γ = 1/d`).
    SvmRbf,
    /// Averaged perceptron (the linear-classifier representative).
    Perceptron,
}

/// The miner's trained model over the unified dataset.
pub struct MiningService {
    model: Box<dyn Model + Send + Sync>,
    dim: usize,
}

impl MiningService {
    /// Trains a model of `kind` on a unified dataset (typically
    /// [`crate::SapOutcome::unified`]).
    ///
    /// # Panics
    ///
    /// Panics when `kind` is `Knn(0)` or `k` exceeds the dataset size.
    pub fn train(unified: &Dataset, kind: &ModelKind) -> Self {
        let model: Box<dyn Model + Send + Sync> = match kind {
            ModelKind::Knn(k) => Box::new(KnnClassifier::fit(unified, *k)),
            ModelKind::SvmRbf => Box::new(SvmClassifier::fit(
                unified,
                &SvmConfig::rbf_for_dim(unified.dim()),
            )),
            ModelKind::Perceptron => {
                Box::new(Perceptron::fit(unified, &PerceptronConfig::default()))
            }
        };
        MiningService {
            model,
            dim: unified.dim(),
        }
    }

    /// Feature dimensionality the service expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Classifies a record already expressed in the unified space.
    ///
    /// # Panics
    ///
    /// Panics when the record dimensionality disagrees.
    pub fn classify_unified(&self, record: &[f64]) -> usize {
        assert_eq!(record.len(), self.dim, "record dimensionality mismatch");
        self.model.predict(record)
    }

    /// Accuracy over a dataset already in the unified space.
    pub fn accuracy_unified(&self, data: &Dataset) -> f64 {
        self.model.accuracy(data)
    }
}

/// A provider-side client: perturbs raw records into the unified space and
/// queries the service. Keeps `G_t` private to the provider side.
#[derive(Debug, Clone)]
pub struct ClassificationClient {
    target: Perturbation,
}

impl ClassificationClient {
    /// Creates a client around the session's target perturbation.
    pub fn new(target: Perturbation) -> Self {
        ClassificationClient { target }
    }

    /// Maps a raw (normalized) record into the unified space.
    ///
    /// # Panics
    ///
    /// Panics when the record dimensionality disagrees with the target
    /// space.
    pub fn perturb_query(&self, record: &[f64]) -> Vec<f64> {
        assert_eq!(record.len(), self.target.dim(), "record dim mismatch");
        let x = Matrix::column_vector(record);
        self.target.apply_clean(&x).column(0)
    }

    /// Classifies a *raw* record through the service: perturb, then query.
    pub fn classify(&self, service: &MiningService, record: &[f64]) -> usize {
        service.classify_unified(&self.perturb_query(record))
    }

    /// Accuracy of the service on a *raw* test set submitted through this
    /// client.
    pub fn accuracy(&self, service: &MiningService, test: &Dataset) -> f64 {
        let correct = test
            .iter()
            .filter(|(rec, lab)| self.classify(service, rec) == *lab)
            .count();
        correct as f64 / test.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_session, SapConfig, SapOutcome};
    use sap_datasets::normalize::min_max_normalize;
    use sap_datasets::partition::{partition, PartitionScheme};
    use sap_datasets::registry::UciDataset;
    use sap_datasets::split::stratified_split;

    fn outcome_and_test() -> (SapOutcome, Dataset, f64) {
        let (data, _) = min_max_normalize(&UciDataset::Iris.generate(10));
        let tt = stratified_split(&data, 0.7, 11);
        let baseline = KnnClassifier::fit(&tt.train, 5).accuracy(&tt.test);
        let locals = partition(&tt.train, 4, PartitionScheme::Uniform, 12);
        let outcome = run_session(locals, &SapConfig::quick_test()).unwrap();
        (outcome, tt.test, baseline)
    }

    #[test]
    fn end_to_end_query_flow_preserves_accuracy() {
        let (outcome, test, baseline) = outcome_and_test();
        let service = MiningService::train(&outcome.unified, &ModelKind::Knn(5));
        let client = ClassificationClient::new(outcome.target.clone());
        let acc = client.accuracy(&service, &test);
        assert!(
            (acc - baseline).abs() < 0.12,
            "service accuracy {acc:.3} vs baseline {baseline:.3}"
        );
    }

    #[test]
    fn all_model_kinds_train_and_answer() {
        let (outcome, test, _) = outcome_and_test();
        let client = ClassificationClient::new(outcome.target.clone());
        for kind in [ModelKind::Knn(3), ModelKind::SvmRbf, ModelKind::Perceptron] {
            let service = MiningService::train(&outcome.unified, &kind);
            assert_eq!(service.dim(), test.dim());
            let pred = client.classify(&service, test.record(0));
            assert!(pred < test.num_classes());
            let acc = client.accuracy(&service, &test);
            assert!(acc > 0.5, "{kind:?} accuracy {acc}");
        }
    }

    #[test]
    fn query_perturbation_matches_target_space() {
        let (outcome, test, _) = outcome_and_test();
        let client = ClassificationClient::new(outcome.target.clone());
        let q = client.perturb_query(test.record(0));
        let direct = outcome
            .target
            .apply_clean(&Matrix::column_vector(test.record(0)))
            .column(0);
        assert_eq!(q, direct);
        // The perturbed query is not the raw record.
        assert_ne!(q, test.record(0).to_vec());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dim_query_panics() {
        let (outcome, _, _) = outcome_and_test();
        let service = MiningService::train(&outcome.unified, &ModelKind::Knn(3));
        let _ = service.classify_unified(&[0.0; 17]);
    }
}
