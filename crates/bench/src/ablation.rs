//! Ablation experiments over the design choices docs/PRIVACY.md,
//! "Ablations", argues for.
//!
//! Three sweeps, each a small table the `figures` binary can print:
//!
//! * **Noise level** — privacy guarantee vs KNN accuracy as σ grows: the
//!   utility/privacy trade-off the noise component controls.
//! * **Perturbation composition** — rotation-only [ICDM'05], rotation +
//!   translation, full geometric, and the additive-noise baseline
//!   [Agrawal–Srikant], all scored by the attack suite.
//! * **Known-point budget** — distance-inference attack strength as the
//!   adversary learns more plaintext records.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_classify::{KnnClassifier, Model};
use sap_datasets::normalize::min_max_normalize;
use sap_datasets::split::stratified_split;
use sap_datasets::{Dataset, UciDataset};
use sap_linalg::Matrix;
use sap_perturb::{AdditivePerturbation, GeometricPerturbation, Perturbation};
use sap_privacy::attack::distance_inference::DistanceInference;
use sap_privacy::attack::{Attack, AttackSuite, AttackerKnowledge};
use sap_privacy::metric::minimum_privacy_guarantee;

/// One row of the noise-level sweep.
#[derive(Debug, Clone)]
pub struct NoiseRow {
    /// Noise standard deviation σ.
    pub sigma: f64,
    /// Minimum privacy guarantee under the fast attack suite.
    pub privacy: f64,
    /// KNN accuracy on perturbed train/test.
    pub knn_accuracy: f64,
}

/// Sweeps the noise level on one dataset.
pub fn noise_sweep(dataset: UciDataset, sigmas: &[f64], seed: u64) -> Vec<NoiseRow> {
    let (data, _) = min_max_normalize(&dataset.generate(seed));
    let tt = stratified_split(&data, 0.7, seed ^ 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1A);
    let suite = AttackSuite::fast();

    sigmas
        .iter()
        .map(|&sigma| {
            let g = GeometricPerturbation::random(data.dim(), sigma, &mut rng);
            // Privacy on a training subsample.
            let x = tt.train.to_column_matrix();
            let sample = subsample(&x, 250);
            let knowledge = AttackerKnowledge::worst_case(&sample, 6);
            let (y, _) = g.perturb(&sample, &mut rng);
            let privacy = suite.privacy_guarantee(&sample, &y, &knowledge);
            // Accuracy with the same perturbation applied to train and test.
            let (ytr, _) = g.perturb(&tt.train.to_column_matrix(), &mut rng);
            let (yte, _) = g.perturb(&tt.test.to_column_matrix(), &mut rng);
            let ptrain =
                Dataset::from_column_matrix(&ytr, tt.train.labels().to_vec(), data.num_classes());
            let ptest =
                Dataset::from_column_matrix(&yte, tt.test.labels().to_vec(), data.num_classes());
            let knn_accuracy = KnnClassifier::fit(&ptrain, 5.min(ptrain.len())).accuracy(&ptest);
            NoiseRow {
                sigma,
                privacy,
                knn_accuracy,
            }
        })
        .collect()
}

/// One row of the composition ablation.
#[derive(Debug, Clone)]
pub struct CompositionRow {
    /// Variant label.
    pub variant: &'static str,
    /// Minimum privacy guarantee under the fast attack suite.
    pub privacy: f64,
}

/// Compares perturbation family members at a fixed noise budget.
pub fn composition_ablation(dataset: UciDataset, sigma: f64, seed: u64) -> Vec<CompositionRow> {
    let (data, _) = min_max_normalize(&dataset.generate(seed));
    let x = data.to_column_matrix();
    let sample = subsample(&x, 250);
    let knowledge = AttackerKnowledge::worst_case(&sample, 6);
    let suite = AttackSuite::fast();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1B);
    let d = data.dim();

    let mut rows = Vec::new();

    // Additive-noise baseline [Agrawal–Srikant].
    let (y, _) = AdditivePerturbation::new(sigma).perturb(&sample, &mut rng);
    rows.push(CompositionRow {
        variant: "additive-noise",
        privacy: suite.privacy_guarantee(&sample, &y, &knowledge),
    });

    // Rotation only [ICDM'05].
    let g = GeometricPerturbation::new(
        Perturbation::rotation_only(d, &mut rng),
        sap_perturb::noise::NoiseSpec::none(),
    );
    let (y, _) = g.perturb(&sample, &mut rng);
    rows.push(CompositionRow {
        variant: "rotation-only",
        privacy: suite.privacy_guarantee(&sample, &y, &knowledge),
    });

    // Rotation + translation, no noise.
    let g = GeometricPerturbation::new(
        Perturbation::random(d, &mut rng),
        sap_perturb::noise::NoiseSpec::none(),
    );
    let (y, _) = g.perturb(&sample, &mut rng);
    rows.push(CompositionRow {
        variant: "rotation+translation",
        privacy: suite.privacy_guarantee(&sample, &y, &knowledge),
    });

    // Full geometric.
    let g = GeometricPerturbation::random(d, sigma, &mut rng);
    let (y, _) = g.perturb(&sample, &mut rng);
    rows.push(CompositionRow {
        variant: "full-geometric",
        privacy: suite.privacy_guarantee(&sample, &y, &knowledge),
    });

    rows
}

/// One row of the known-point sweep.
#[derive(Debug, Clone)]
pub struct KnownPointRow {
    /// Number of known plaintext records granted to the adversary.
    pub known_points: usize,
    /// Privacy left by the distance-inference attack (`None`: inapplicable).
    pub privacy: Option<f64>,
}

/// Sweeps the distance-inference attack's known-point budget.
pub fn known_point_sweep(
    dataset: UciDataset,
    sigma: f64,
    budgets: &[usize],
    seed: u64,
) -> Vec<KnownPointRow> {
    let (data, _) = min_max_normalize(&dataset.generate(seed));
    let x = data.to_column_matrix();
    let sample = subsample(&x, 300);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1C);
    let g = GeometricPerturbation::random(data.dim(), sigma, &mut rng);
    let (y, _) = g.perturb(&sample, &mut rng);

    budgets
        .iter()
        .map(|&m| {
            let knowledge = AttackerKnowledge::worst_case(&sample, m);
            let privacy = DistanceInference
                .estimate(&y, &knowledge)
                .map(|est| minimum_privacy_guarantee(&sample, &est));
            KnownPointRow {
                known_points: m,
                privacy,
            }
        })
        .collect()
}

fn subsample(x: &Matrix, limit: usize) -> Matrix {
    if x.cols() <= limit {
        return x.clone();
    }
    let cols: Vec<Vec<f64>> = (0..limit).map(|c| x.column(c * x.cols() / limit)).collect();
    Matrix::from_columns(&cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_sweep_trades_privacy_for_accuracy() {
        let rows = noise_sweep(UciDataset::Iris, &[0.0, 0.4], 1);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].privacy > rows[0].privacy,
            "more noise, more privacy: {rows:?}"
        );
        assert!(
            rows[1].knn_accuracy <= rows[0].knn_accuracy + 0.02,
            "more noise should not improve accuracy: {rows:?}"
        );
    }

    #[test]
    fn geometric_beats_additive_baseline() {
        let rows = composition_ablation(UciDataset::Diabetes, 0.05, 2);
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().privacy;
        // The full geometric perturbation must dominate the additive-noise
        // baseline at the same sigma (the paper's motivating comparison).
        assert!(get("full-geometric") > get("additive-noise"), "{rows:?}");
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn more_known_points_weaken_privacy() {
        let rows = known_point_sweep(UciDataset::Diabetes, 0.05, &[0, 2, 16, 64], 3);
        assert_eq!(rows[0].privacy, None, "attack needs >= 2 points");
        let p2 = rows[1].privacy.unwrap();
        let p64 = rows[3].privacy.unwrap();
        assert!(
            p64 <= p2 + 0.05,
            "64 known points should be at least as strong as 2: {p2} vs {p64}"
        );
    }
}
