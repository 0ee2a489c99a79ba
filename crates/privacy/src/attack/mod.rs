//! Attack models used to *evaluate* perturbation privacy.
//!
//! The privacy guarantee of a candidate perturbation is defined
//! adversarially: run every attack the threat model admits, let each produce
//! its best estimate `X̂` of the original data, and score the perturbation by
//! the worst case ([`crate::metric::minimum_privacy_guarantee`]). The SDM'07
//! companion paper's threat model includes:
//!
//! * **Naive value estimation** ([`naive::NaiveEstimation`]) — treat the
//!   perturbed values themselves as the estimate, rescaled to known
//!   per-attribute statistics.
//! * **PCA-based reconstruction** ([`pca_recon::PcaReconstruction`]) — use
//!   the spectrum-preserving property of rotations plus known covariance
//!   structure to estimate the rotation.
//! * **ICA-based reconstruction** ([`ica_recon::IcaReconstruction`]) — run
//!   FastICA to undo the mixing and match components to known attribute
//!   statistics.
//! * **Distance-inference / known-point attack**
//!   ([`distance_inference::DistanceInference`]) — with a few known
//!   (original, perturbed) record pairs, solve orthogonal Procrustes for the
//!   rotation and invert it.
//! * **Known-sample attack** ([`known_sample::KnownSampleAttack`]) — the
//!   weaker-knowledge variant: the adversary holds an independent sample of
//!   the population and runs the PCA reconstruction against *estimated*
//!   statistics.

pub mod distance_inference;
pub mod ica_recon;
pub mod known_sample;
pub mod naive;
pub mod pca_recon;

pub use distance_inference::DistanceInference;
pub use ica_recon::IcaReconstruction;
pub use known_sample::KnownSampleAttack;
pub use naive::NaiveEstimation;
pub use pca_recon::PcaReconstruction;

use crate::metric::minimum_privacy_guarantee;
use sap_linalg::{vecops, Matrix};

/// Per-attribute statistics the adversary is assumed to know (marginal
/// domain knowledge — e.g. published census statistics for age columns).
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// Attribute mean.
    pub mean: f64,
    /// Attribute standard deviation.
    pub std: f64,
    /// Attribute skewness (third standardized moment).
    pub skewness: f64,
    /// Attribute excess kurtosis.
    pub kurtosis: f64,
}

impl AttrStats {
    /// Computes the statistics of one sample.
    pub fn from_sample(xs: &[f64]) -> Self {
        let mean = vecops::mean(xs);
        let std = vecops::std_dev(xs);
        let n = xs.len() as f64;
        let (skewness, kurtosis) = if std > 1e-12 && xs.len() >= 4 {
            let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
            let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
            (m3 / std.powi(3), m4 / std.powi(4) - 3.0)
        } else {
            (0.0, 0.0)
        };
        AttrStats {
            mean,
            std,
            skewness,
            kurtosis,
        }
    }
}

/// Sample skewness (third standardized moment); zero for a (near-)constant
/// sample. The reconstruction attacks use it to resolve sign ambiguity.
pub(crate) fn skewness(xs: &[f64]) -> f64 {
    let m = vecops::mean(xs);
    let s = vecops::std_dev(xs);
    if s <= 1e-12 {
        return 0.0;
    }
    let n = xs.len() as f64;
    xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n / s.powi(3)
}

/// Everything the semi-honest adversary knows when attacking a perturbed
/// dataset.
#[derive(Debug, Clone, Default)]
pub struct AttackerKnowledge {
    /// Marginal statistics of each original attribute (length `d`), if
    /// known.
    pub attr_stats: Vec<AttrStats>,
    /// Original `d × d` covariance matrix, if known.
    pub covariance: Option<Matrix>,
    /// Known plaintext records: `(column index in the perturbed matrix,
    /// original record)` pairs. Models insider leakage / public records.
    pub known_points: Vec<(usize, Vec<f64>)>,
}

impl AttackerKnowledge {
    /// Builds the *worst-case* knowledge directly from the original data:
    /// exact marginals, exact covariance, plus `num_known` known points
    /// (the first columns). This is the standard conservative assumption for
    /// privacy evaluation — real adversaries know less.
    pub fn worst_case(original: &Matrix, num_known: usize) -> Self {
        let attr_stats = (0..original.rows())
            .map(|j| AttrStats::from_sample(original.row(j)))
            .collect();
        let covariance = if original.cols() >= 2 {
            Some(original.column_covariance())
        } else {
            None
        };
        let known_points = (0..num_known.min(original.cols()))
            .map(|c| (c, original.column(c)))
            .collect();
        AttackerKnowledge {
            attr_stats,
            covariance,
            known_points,
        }
    }
}

/// A reconstruction attack on geometrically perturbed data.
pub trait Attack {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Produces the attack's best estimate `X̂` of the original `d × N`
    /// data, or `None` when the attack does not apply (e.g. no known points,
    /// ICA divergence).
    fn estimate(&self, perturbed: &Matrix, knowledge: &AttackerKnowledge) -> Option<Matrix>;
}

/// Outcome of evaluating one attack.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Attack identifier.
    pub attack: &'static str,
    /// Minimum privacy guarantee this attack leaves (lower = stronger
    /// attack), or `None` when the attack did not apply.
    pub privacy: Option<f64>,
}

/// A bundle of attacks evaluated together; the privacy guarantee is the
/// minimum across applicable attacks.
pub struct AttackSuite {
    attacks: Vec<Box<dyn Attack + Send + Sync>>,
}

impl Default for AttackSuite {
    fn default() -> Self {
        Self::standard()
    }
}

impl AttackSuite {
    /// The paper's standard suite: naive + PCA + ICA + distance inference.
    pub fn standard() -> Self {
        AttackSuite {
            attacks: vec![
                Box::new(NaiveEstimation),
                Box::new(PcaReconstruction),
                Box::new(IcaReconstruction::default()),
                Box::new(DistanceInference),
            ],
        }
    }

    /// A cheaper suite without ICA, for inner optimizer loops and tests.
    pub fn fast() -> Self {
        AttackSuite {
            attacks: vec![
                Box::new(NaiveEstimation),
                Box::new(PcaReconstruction),
                Box::new(DistanceInference),
            ],
        }
    }

    /// An empty suite; add attacks with [`AttackSuite::push`].
    pub fn empty() -> Self {
        AttackSuite {
            attacks: Vec::new(),
        }
    }

    /// Adds an attack to the suite.
    pub fn push(&mut self, attack: Box<dyn Attack + Send + Sync>) {
        self.attacks.push(attack);
    }

    /// Number of attacks in the suite.
    pub fn len(&self) -> usize {
        self.attacks.len()
    }

    /// `true` when the suite holds no attacks.
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// Runs every attack and reports per-attack privacy.
    pub fn run(
        &self,
        original: &Matrix,
        perturbed: &Matrix,
        knowledge: &AttackerKnowledge,
    ) -> Vec<AttackOutcome> {
        self.attacks
            .iter()
            .map(|a| AttackOutcome {
                attack: a.name(),
                privacy: a
                    .estimate(perturbed, knowledge)
                    .map(|est| minimum_privacy_guarantee(original, &est)),
            })
            .collect()
    }

    /// The minimum privacy guarantee across applicable attacks — the
    /// scalar `ρ` the paper's optimizer maximizes. Returns `f64::INFINITY`
    /// when no attack applies.
    pub fn privacy_guarantee(
        &self,
        original: &Matrix,
        perturbed: &Matrix,
        knowledge: &AttackerKnowledge,
    ) -> f64 {
        self.run(original, perturbed, knowledge)
            .into_iter()
            .filter_map(|o| o.privacy)
            .fold(f64::INFINITY, f64::min)
    }
}

impl std::fmt::Debug for AttackSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.attacks.iter().map(|a| a.name()).collect();
        f.debug_struct("AttackSuite")
            .field("attacks", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_linalg::randn_matrix;
    use sap_perturb::GeometricPerturbation;

    #[test]
    fn attr_stats_of_standard_normal() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs = sap_linalg::randn_vec(100_000, &mut rng);
        let s = AttrStats::from_sample(&xs);
        assert!(s.mean.abs() < 0.02);
        assert!((s.std - 1.0).abs() < 0.02);
        assert!(s.skewness.abs() < 0.05);
        assert!(s.kurtosis.abs() < 0.1);
    }

    #[test]
    fn worst_case_knowledge_is_complete() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = randn_matrix(3, 40, &mut rng);
        let k = AttackerKnowledge::worst_case(&x, 5);
        assert_eq!(k.attr_stats.len(), 3);
        assert!(k.covariance.is_some());
        assert_eq!(k.known_points.len(), 5);
        assert_eq!(k.known_points[2].1, x.column(2));
    }

    #[test]
    fn suite_reports_every_attack() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = randn_matrix(3, 120, &mut rng);
        let g = GeometricPerturbation::random(3, 0.05, &mut rng);
        let (y, _) = g.perturb(&x, &mut rng);
        let knowledge = AttackerKnowledge::worst_case(&x, 8);
        let suite = AttackSuite::fast();
        let outcomes = suite.run(&x, &y, &knowledge);
        assert_eq!(outcomes.len(), 3);
        let rho = suite.privacy_guarantee(&x, &y, &knowledge);
        assert!(rho.is_finite());
        assert!(rho >= 0.0);
    }

    #[test]
    fn empty_suite_gives_infinite_privacy() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = randn_matrix(2, 10, &mut rng);
        let suite = AttackSuite::empty();
        assert!(suite.is_empty());
        assert_eq!(
            suite.privacy_guarantee(&x, &x, &AttackerKnowledge::default()),
            f64::INFINITY
        );
    }

    #[test]
    fn identity_perturbation_is_fully_broken() {
        // "Perturbing" with the identity leaks everything: naive attack
        // reconstructs perfectly, so ρ ≈ 0.
        let mut rng = StdRng::seed_from_u64(5);
        let x = randn_matrix(3, 200, &mut rng);
        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        let suite = AttackSuite::fast();
        let rho = suite.privacy_guarantee(&x, &x, &knowledge);
        assert!(rho < 0.05, "identity perturbation rho {rho}");
    }
}
