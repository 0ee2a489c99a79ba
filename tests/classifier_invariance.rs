//! The paper's foundational utility claim: KNN, RBF-SVM and linear
//! classifiers are invariant to the rotation + translation part of
//! geometric perturbation, and degrade only with the noise component.
//! Gaussian naive Bayes, defined here, is the negative control that pins
//! the boundary of that claim.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::classify::perceptron::{Perceptron, PerceptronConfig};
use sap_repro::classify::{KnnClassifier, Model, SvmClassifier, SvmConfig};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::registry::UciDataset;
use sap_repro::datasets::split::stratified_split;
use sap_repro::datasets::Dataset;
use sap_repro::perturb::Perturbation;

/// Gaussian naive Bayes: per class, each attribute is modeled as an
/// independent normal; prediction maximizes the log posterior with
/// Laplace-smoothed class priors.
///
/// It is **not** in the family the paper's utility argument covers
/// (classifiers that depend only on distances or inner products): it
/// models each attribute independently, and a rotation mixes attributes.
/// (This is why reference \[3\] of the brief — Zhang et al.'s SIGKDD'05
/// scheme — needed a different construction for Bayes-style
/// classifiers.)
#[derive(Debug, Clone)]
struct GaussianNaiveBayes {
    /// `log P(class)`, length `num_classes` (empty classes get `-inf`).
    log_priors: Vec<f64>,
    /// Per class, per attribute `(mean, variance)`.
    stats: Vec<Vec<(f64, f64)>>,
}

/// Variance floor to keep degenerate (constant) attributes finite.
const VAR_FLOOR: f64 = 1e-9;

impl GaussianNaiveBayes {
    /// Fits class priors and per-attribute Gaussians.
    fn fit(data: &Dataset) -> Self {
        let k = data.num_classes();
        let d = data.dim();
        let n = data.len() as f64;
        let counts = data.class_counts();

        let log_priors = counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    f64::NEG_INFINITY
                } else {
                    ((c as f64 + 1.0) / (n + k as f64)).ln()
                }
            })
            .collect();

        let mut sums = vec![vec![0.0; d]; k];
        let mut sq_sums = vec![vec![0.0; d]; k];
        for (rec, lab) in data.iter() {
            for (j, &v) in rec.iter().enumerate() {
                sums[lab][j] += v;
                sq_sums[lab][j] += v * v;
            }
        }
        let stats = (0..k)
            .map(|c| {
                let cn = counts[c] as f64;
                (0..d)
                    .map(|j| {
                        if counts[c] == 0 {
                            (0.0, 1.0)
                        } else {
                            let mean = sums[c][j] / cn;
                            let var = (sq_sums[c][j] / cn - mean * mean).max(VAR_FLOOR);
                            (mean, var)
                        }
                    })
                    .collect()
            })
            .collect();

        GaussianNaiveBayes { log_priors, stats }
    }

    /// Per-class log posterior (up to the shared evidence constant).
    fn log_posteriors(&self, record: &[f64]) -> Vec<f64> {
        self.log_priors
            .iter()
            .zip(&self.stats)
            .map(|(&lp, attrs)| {
                if lp == f64::NEG_INFINITY {
                    return f64::NEG_INFINITY;
                }
                let mut ll = lp;
                for (&v, &(mean, var)) in record.iter().zip(attrs) {
                    let diff = v - mean;
                    ll += -0.5 * ((std::f64::consts::TAU * var).ln() + diff * diff / var);
                }
                ll
            })
            .collect()
    }
}

impl Model for GaussianNaiveBayes {
    fn predict(&self, record: &[f64]) -> usize {
        sap_repro::linalg::vecops::argmax(&self.log_posteriors(record)).unwrap_or(0)
    }
}

/// The control classifier's own sanity checks: it must work on data
/// that suits it, or its failure under rotation would prove nothing.
mod gaussian_naive_bayes {
    use super::*;

    #[test]
    fn separable_gaussians_classified() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut records = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..150 {
            records.push(vec![sap_repro::linalg::randn(&mut rng) * 0.3, 0.0]);
            labels.push(0);
            records.push(vec![3.0 + sap_repro::linalg::randn(&mut rng) * 0.3, 0.0]);
            labels.push(1);
        }
        let data = Dataset::new(records, labels);
        let nb = GaussianNaiveBayes::fit(&data);
        assert!(nb.accuracy(&data) > 0.97);
    }

    #[test]
    fn decent_on_synthetic_iris() {
        let data = UciDataset::Iris.generate(1);
        let tt = stratified_split(&data, 0.7, 2);
        let nb = GaussianNaiveBayes::fit(&tt.train);
        let acc = nb.accuracy(&tt.test);
        assert!(acc > 0.8, "NB iris accuracy {acc}");
    }

    #[test]
    fn log_posteriors_prefer_true_class() {
        let data = UciDataset::Wine.generate(2);
        let nb = GaussianNaiveBayes::fit(&data);
        let lp = nb.log_posteriors(data.record(0));
        assert_eq!(lp.len(), 3);
        assert!(lp.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn missing_class_never_predicted() {
        let data = Dataset::with_num_classes(
            vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]],
            vec![0, 0, 2, 2],
            3,
        );
        let nb = GaussianNaiveBayes::fit(&data);
        for (rec, _) in data.iter() {
            assert_ne!(nb.predict(rec), 1, "empty class must never win");
        }
    }

    #[test]
    fn constant_attribute_handled() {
        let data = Dataset::new(
            vec![
                vec![5.0, 0.0],
                vec![5.0, 0.1],
                vec![5.0, 1.0],
                vec![5.0, 1.1],
            ],
            vec![0, 0, 1, 1],
        );
        let nb = GaussianNaiveBayes::fit(&data);
        assert!(nb.accuracy(&data) > 0.9);
    }
}

/// Applies the same noise-free perturbation to train and test.
fn perturb_pair(train: &Dataset, test: &Dataset, g: &Perturbation) -> (Dataset, Dataset) {
    let pt = |d: &Dataset| {
        let m = g.apply_clean(&d.to_column_matrix());
        Dataset::from_column_matrix(&m, d.labels().to_vec(), d.num_classes())
    };
    (pt(train), pt(test))
}

#[test]
fn knn_is_exactly_rotation_invariant() {
    let (data, _) = min_max_normalize(&UciDataset::Wine.generate(1));
    let tt = stratified_split(&data, 0.7, 2);
    let clean = KnnClassifier::fit(&tt.train, 5);
    let clean_preds = clean.predict_dataset(&tt.test);

    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3 {
        let g = Perturbation::random(data.dim(), &mut rng);
        let (ptrain, ptest) = perturb_pair(&tt.train, &tt.test, &g);
        let knn = KnnClassifier::fit(&ptrain, 5);
        let preds = knn.predict_dataset(&ptest);
        assert_eq!(
            preds, clean_preds,
            "KNN predictions must be identical under isometry"
        );
    }
}

#[test]
fn rbf_svm_accuracy_is_rotation_invariant() {
    let (data, _) = min_max_normalize(&UciDataset::Iris.generate(2));
    let tt = stratified_split(&data, 0.7, 3);
    let cfg = SvmConfig::rbf_for_dim(data.dim());
    let clean_acc = SvmClassifier::fit(&tt.train, &cfg).accuracy(&tt.test);

    let mut rng = StdRng::seed_from_u64(4);
    let g = Perturbation::random(data.dim(), &mut rng);
    let (ptrain, ptest) = perturb_pair(&tt.train, &tt.test, &g);
    let pert_acc = SvmClassifier::fit(&ptrain, &cfg).accuracy(&ptest);
    // RBF kernels depend only on distances: accuracy is preserved (SMO's
    // random partner choices can flip a boundary point or two).
    assert!(
        (clean_acc - pert_acc).abs() < 0.06,
        "RBF-SVM accuracy moved: clean {clean_acc:.3} vs perturbed {pert_acc:.3}"
    );
}

#[test]
fn perceptron_accuracy_survives_rotation() {
    let (data, _) = min_max_normalize(&UciDataset::BreastW.generate(3));
    let tt = stratified_split(&data, 0.7, 4);
    let cfg = PerceptronConfig::default();
    let clean_acc = Perceptron::fit(&tt.train, &cfg).accuracy(&tt.test);

    let mut rng = StdRng::seed_from_u64(5);
    let g = Perturbation::random(data.dim(), &mut rng);
    let (ptrain, ptest) = perturb_pair(&tt.train, &tt.test, &g);
    let pert_acc = Perceptron::fit(&ptrain, &cfg).accuracy(&ptest);
    // Linear separability is affine-invariant; training is stochastic so
    // allow a modest band.
    assert!(
        (clean_acc - pert_acc).abs() < 0.08,
        "perceptron accuracy moved: clean {clean_acc:.3} vs perturbed {pert_acc:.3}"
    );
}

/// The *negative control*: naive Bayes models attributes independently, so
/// a rotation (which mixes attributes) breaks it — geometric perturbation's
/// invariance claim is specific to distance/inner-product classifiers,
/// and this test pins the boundary.
#[test]
fn naive_bayes_is_not_rotation_invariant() {
    // Axis-aligned, anisotropic classes: NB's favorite geometry. After a
    // rotation that mixes the axes, its independence assumption breaks.
    let mut rng = StdRng::seed_from_u64(77);
    let mut records = Vec::new();
    let mut labels = Vec::new();
    for i in 0..400 {
        let class = i % 2;
        let x = sap_repro::linalg::randn(&mut rng) * 4.0; // high-variance axis
        let y = sap_repro::linalg::randn(&mut rng) * 0.08 + if class == 0 { -0.4 } else { 0.4 };
        records.push(vec![x, y]);
        labels.push(class);
    }
    let data = Dataset::new(records, labels);
    let tt = stratified_split(&data, 0.7, 78);
    let clean_acc = GaussianNaiveBayes::fit(&tt.train).accuracy(&tt.test);
    assert!(clean_acc > 0.95, "clean NB accuracy {clean_acc}");

    // A 45° mix of the axes destroys the axis-aligned separability.
    let theta = std::f64::consts::FRAC_PI_4;
    let r = sap_repro::linalg::Matrix::from_rows(&[
        vec![theta.cos(), -theta.sin()],
        vec![theta.sin(), theta.cos()],
    ]);
    let g = Perturbation::new(r, vec![0.0, 0.0]).unwrap();
    let (ptrain, ptest) = perturb_pair(&tt.train, &tt.test, &g);
    let rot_acc = GaussianNaiveBayes::fit(&ptrain).accuracy(&ptest);
    assert!(
        rot_acc < clean_acc - 0.1,
        "NB should degrade under rotation: clean {clean_acc:.3} vs rotated {rot_acc:.3}"
    );
}

#[test]
fn noise_degrades_accuracy_monotonically_in_expectation() {
    // The noise component is the only lossy part of geometric perturbation.
    let (data, _) = min_max_normalize(&UciDataset::Iris.generate(4));
    let tt = stratified_split(&data, 0.7, 5);
    let mut rng = StdRng::seed_from_u64(6);

    let acc_at = |sigma: f64, rng: &mut StdRng| -> f64 {
        let mut accs = Vec::new();
        for _ in 0..3 {
            let g = sap_repro::perturb::GeometricPerturbation::random(data.dim(), sigma, rng);
            let (ytr, _) = g.perturb(&tt.train.to_column_matrix(), rng);
            let (yte, _) = g.perturb(&tt.test.to_column_matrix(), rng);
            let ptrain =
                Dataset::from_column_matrix(&ytr, tt.train.labels().to_vec(), data.num_classes());
            let ptest =
                Dataset::from_column_matrix(&yte, tt.test.labels().to_vec(), data.num_classes());
            accs.push(KnnClassifier::fit(&ptrain, 5).accuracy(&ptest));
        }
        sap_repro::linalg::vecops::mean(&accs)
    };

    let low = acc_at(0.01, &mut rng);
    let high = acc_at(0.6, &mut rng);
    assert!(
        low > high + 0.02,
        "heavy noise should cost accuracy: sigma=0.01 -> {low:.3}, sigma=0.6 -> {high:.3}"
    );
}
