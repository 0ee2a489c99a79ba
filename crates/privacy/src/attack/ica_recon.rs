//! ICA-based reconstruction.
//!
//! A rotation is a linear mixing of attributes; when original attributes are
//! non-Gaussian and roughly independent, FastICA applied to the perturbed
//! data recovers them up to permutation, sign, and scale. The adversary then
//! assigns recovered components to original attributes by matching known
//! kurtosis, fixes signs by skewness, and rescales to the known marginal
//! mean/std.
//!
//! The attack degrades gracefully exactly where ICA theory says it must:
//! near-Gaussian attributes, correlated attributes, and added noise all
//! reduce reconstruction quality — which is why the optimizer can find
//! rotations with high guarantees at all.

use super::{skewness, Attack, AttackerKnowledge};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_ica::excess_kurtosis;
use sap_ica::fastica::{FastIca, FastIcaConfig};
use sap_linalg::Matrix;

/// See the module docs.
#[derive(Debug, Clone)]
pub struct IcaReconstruction {
    /// FastICA settings.
    pub config: FastIcaConfig,
    /// Seed for FastICA's random initialization (the attack is randomized;
    /// privacy evaluation wants determinism).
    pub seed: u64,
}

impl Default for IcaReconstruction {
    fn default() -> Self {
        IcaReconstruction {
            config: FastIcaConfig {
                max_iter: 100,
                ..FastIcaConfig::default()
            },
            seed: 0x1CA,
        }
    }
}

impl IcaReconstruction {
    /// `true` when the attack's preconditions hold: known marginals for
    /// every attribute and enough records for ICA to be meaningful.
    fn applies(perturbed: &Matrix, knowledge: &AttackerKnowledge) -> bool {
        knowledge.attr_stats.len() == perturbed.rows() && perturbed.cols() >= 8
    }

    /// The attack with a caller-supplied whitener — the staged optimizer
    /// engine's entry point, where one
    /// [`sap_ica::workspace::WhiteningWorkspace`] decomposition is shared
    /// across every candidate rotation and each candidate's whitener is
    /// minted analytically. Numerically this grants the adversary *exact*
    /// whitening (a from-scratch fit estimates it from the release), so
    /// guarantees measured this way are conservative.
    pub fn estimate_with_whitener(
        &self,
        perturbed: &Matrix,
        knowledge: &AttackerKnowledge,
        whitener: sap_ica::Whitener,
    ) -> Option<Matrix> {
        if !Self::applies(perturbed, knowledge) {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ica = FastIca::fit_with_whitener(whitener, perturbed, &self.config, &mut rng).ok()?;
        let sources = ica.sources(perturbed).ok()?;
        Some(match_components(&sources, knowledge, perturbed.cols()))
    }
}

impl Attack for IcaReconstruction {
    fn name(&self) -> &'static str {
        "ica-reconstruction"
    }

    fn estimate(&self, perturbed: &Matrix, knowledge: &AttackerKnowledge) -> Option<Matrix> {
        if !Self::applies(perturbed, knowledge) {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ica = FastIca::fit(perturbed, &self.config, &mut rng).ok()?;
        let sources = ica.sources(perturbed).ok()?;
        Some(match_components(&sources, knowledge, perturbed.cols()))
    }
}

/// Assigns recovered components to attributes by kurtosis proximity,
/// fixes signs by skewness agreement, and rescales each component to the
/// known marginal — the deterministic tail shared by both whitening
/// paths of the attack.
fn match_components(sources: &Matrix, knowledge: &AttackerKnowledge, n_cols: usize) -> Matrix {
    let d = knowledge.attr_stats.len();
    let k = sources.rows();

    // Component statistics.
    let comp_kurt: Vec<f64> = (0..k).map(|r| excess_kurtosis(sources.row(r))).collect();
    let comp_skew: Vec<f64> = (0..k).map(|r| skewness(sources.row(r))).collect();

    // Greedy assignment: attributes with the most distinctive
    // (largest-|kurtosis|) priors pick first.
    let mut attr_order: Vec<usize> = (0..d).collect();
    attr_order.sort_by(|&a, &b| {
        knowledge.attr_stats[b]
            .kurtosis
            .abs()
            .total_cmp(&knowledge.attr_stats[a].kurtosis.abs())
    });

    let mut used = vec![false; k];
    let mut est = Matrix::zeros(d, n_cols);
    for &j in &attr_order {
        let prior = &knowledge.attr_stats[j];
        // Best unused component by kurtosis proximity.
        let pick = (0..k).filter(|&c| !used[c]).min_by(|&a, &b| {
            let da = (comp_kurt[a] - prior.kurtosis).abs();
            let db = (comp_kurt[b] - prior.kurtosis).abs();
            da.total_cmp(&db)
        });
        let Some(c) = pick else {
            // Fewer components than attributes (rank-deficient data):
            // fall back to the prior mean for the unmatched attribute.
            for col in 0..n_cols {
                est[(j, col)] = prior.mean;
            }
            continue;
        };
        used[c] = true;
        // Sign by skewness agreement; sources are unit-variance and
        // zero-mean, so rescale to the known marginal.
        let sign = if prior.skewness * comp_skew[c] < 0.0 {
            -1.0
        } else {
            1.0
        };
        for col in 0..n_cols {
            est[(j, col)] = sign * sources[(c, col)] * prior.std + prior.mean;
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::minimum_privacy_guarantee;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sap_perturb::GeometricPerturbation;

    /// Independent non-Gaussian attributes with distinct kurtosis priors:
    /// the canonical case ICA breaks.
    #[test]
    fn breaks_rotation_of_independent_non_gaussian_attrs() {
        let mut rng = StdRng::seed_from_u64(20);
        let n = 4000;
        let x = Matrix::from_fn(2, n, |r, _| match r {
            // Uniform: kurtosis -1.2.
            0 => rng.random_range(0.0..1.0),
            // Spiky two-sided exponential-ish: positive kurtosis.
            _ => {
                let u: f64 = rng.random_range(0.0001..1.0);
                let sign = if rng.random_range(0.0..1.0) < 0.5 {
                    -1.0
                } else {
                    1.0
                };
                sign * (-u.ln()) * 0.1 + 0.5
            }
        });
        let g = GeometricPerturbation::random(2, 0.0, &mut rng);
        let (y, _) = g.perturb(&x, &mut rng);

        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        let attack = IcaReconstruction::default();
        let est = attack.estimate(&y, &knowledge).unwrap();
        let rho = minimum_privacy_guarantee(&x, &est);
        assert!(rho < 0.45, "ICA should substantially break this, rho {rho}");
    }

    #[test]
    fn needs_marginal_knowledge() {
        let mut rng = StdRng::seed_from_u64(21);
        let y = sap_linalg::randn_matrix(2, 100, &mut rng);
        assert!(IcaReconstruction::default()
            .estimate(&y, &AttackerKnowledge::default())
            .is_none());
    }

    #[test]
    fn tiny_sample_returns_none() {
        let mut rng = StdRng::seed_from_u64(22);
        let x = sap_linalg::randn_matrix(2, 4, &mut rng);
        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        assert!(IcaReconstruction::default()
            .estimate(&x, &knowledge)
            .is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(23);
        let x = Matrix::from_fn(2, 500, |_, _| rng.random_range(0.0..1.0));
        let g = GeometricPerturbation::random(2, 0.0, &mut rng);
        let (y, _) = g.perturb(&x, &mut rng);
        let knowledge = AttackerKnowledge::worst_case(&x, 0);
        let attack = IcaReconstruction::default();
        let a = attack.estimate(&y, &knowledge);
        let b = attack.estimate(&y, &knowledge);
        match (a, b) {
            (Some(a), Some(b)) => assert!(a.approx_eq(&b, 1e-12)),
            (None, None) => {}
            _ => panic!("non-deterministic applicability"),
        }
    }
}
