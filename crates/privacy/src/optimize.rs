//! The randomized perturbation optimizer.
//!
//! "A randomized perturbation optimization algorithm is also developed in
//! previous work \[2\] to provide high privacy guarantee with high
//! probability (Figure 2)." The algorithm is a randomized search: sample
//! candidate perturbations, score each by the minimum privacy guarantee
//! under the attack suite, keep the best. The brief then builds on three
//! derived statistics:
//!
//! * the optimized guarantee `ρᵢ` (best candidate of a run),
//! * the empirical bound `b̂ = max{ρ^(i)} over n rounds`,
//! * the optimality rate `O = ρ̄ / b̂`.
//!
//! [`optimize`] is a thin wrapper over [`crate::engine::run`]: candidates
//! are drawn on deterministic per-candidate RNG streams, and a
//! best-first loop runs the expensive PCA/ICA reconstructions only on
//! candidates whose cheaper attacks leave them able to win — which is
//! what makes [`OptimizerConfig::use_ica`]` = true` the affordable
//! default. The winner is exactly the one scoring every candidate under
//! every attack would keep. See the engine module docs for the loop and
//! the determinism rules.

use rand::seq::SliceRandom;
use rand::Rng;
use sap_linalg::{vecops, Matrix};
use sap_perturb::GeometricPerturbation;
use std::fmt;

/// Failures of the optimizer — all configuration-shaped, all detectable
/// before any candidate is evaluated. Typed (rather than panicking) so a
/// malformed client config surfaces as a session error instead of killing
/// a server-side role thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeError {
    /// `candidates == 0`: there is nothing to select a winner from.
    NoCandidates,
    /// The dataset has no rows or no columns.
    EmptyDataset {
        /// Rows (attributes) of the rejected dataset.
        rows: usize,
        /// Columns (records) of the rejected dataset.
        cols: usize,
    },
    /// `rounds == 0` passed to [`estimate_bound`].
    NoRounds,
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::NoCandidates => write!(f, "optimizer needs at least one candidate"),
            OptimizeError::EmptyDataset { rows, cols } => {
                write!(f, "cannot optimize an empty dataset ({rows} x {cols})")
            }
            OptimizeError::NoRounds => write!(f, "bound estimation needs at least one round"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// The most candidates one optimizer run may draw (128× the default).
/// `SapConfig::validate` in `sap-core` rejects larger client configs
/// before a session starts: the engine allocates per candidate.
pub const MAX_CANDIDATES: usize = 4096;

/// Configuration of the randomized optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Number of random candidates per optimization run.
    pub candidates: usize,
    /// Noise level of every candidate (the protocol uses a common noise
    /// component, so candidates share σ).
    pub noise_sigma: f64,
    /// Known-point budget granted to the distance-inference attack.
    pub known_points: usize,
    /// Maximum number of records used for attack evaluation. Large datasets
    /// are subsampled: the metric is a per-attribute standard deviation, so
    /// a few hundred records estimate it tightly while keeping the inner
    /// loop cheap.
    pub eval_sample: usize,
    /// Include the (expensive) ICA attack in the evaluation suite.
    /// Default `true`: the engine fits it only on candidates that can
    /// still win.
    pub use_ica: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            candidates: 32,
            noise_sigma: 0.05,
            known_points: 6,
            eval_sample: 300,
            use_ica: true,
        }
    }
}

/// Result of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizedPerturbation {
    /// The winning perturbation.
    pub perturbation: GeometricPerturbation,
    /// Its minimum privacy guarantee under the full attack suite.
    pub privacy_guarantee: f64,
}

/// Scores one perturbation on (a subsample of) the data under the
/// engine's scoring model — a thin wrapper over
/// [`crate::engine::evaluate`], so single-perturbation scores (the
/// satisfaction ratio, Figure 2's random baseline) are directly
/// comparable with optimizer candidate scores.
pub fn evaluate_perturbation<R: Rng + ?Sized>(
    x: &Matrix,
    perturbation: &GeometricPerturbation,
    config: &OptimizerConfig,
    rng: &mut R,
) -> f64 {
    crate::engine::evaluate(x, perturbation, config, rng)
}

/// Runs the randomized optimizer on a `d × N` dataset: draws
/// `config.candidates` random perturbations and keeps the one with the
/// highest minimum privacy guarantee under the full attack suite. This is [`crate::engine::run`] with the per-stage
/// telemetry dropped.
///
/// # Errors
///
/// [`OptimizeError::NoCandidates`] / [`OptimizeError::EmptyDataset`] on a
/// malformed configuration or input.
pub fn optimize<R: Rng + ?Sized>(
    x: &Matrix,
    config: &OptimizerConfig,
    rng: &mut R,
) -> Result<OptimizedPerturbation, OptimizeError> {
    crate::engine::run(x, config, rng).map(|outcome| outcome.result)
}

/// Statistics of `n` independent optimization rounds — the quantities behind
/// the paper's Figures 3 and 4.
#[derive(Debug, Clone)]
pub struct BoundEstimate {
    /// Optimized guarantee of each round, `ρ^(i)`.
    pub round_guarantees: Vec<f64>,
    /// Empirical bound `b̂ = max ρ^(i)`.
    pub bound: f64,
    /// Mean optimized guarantee `ρ̄`.
    pub mean_guarantee: f64,
}

impl BoundEstimate {
    /// The optimality rate `O = ρ̄ / b̂` (paper Section 2). Returns 0 when
    /// the bound is degenerate.
    pub fn optimality_rate(&self) -> f64 {
        if self.bound > 1e-12 {
            self.mean_guarantee / self.bound
        } else {
            0.0
        }
    }
}

/// Runs `rounds` optimization rounds and estimates `b̂` and `O` — the
/// paper's procedure: "The bound bᵢ is usually estimated empirically by
/// looking at the maximum privacy guarantee of n-round optimizations."
///
/// # Errors
///
/// [`OptimizeError::NoRounds`] when `rounds == 0`, plus anything
/// [`optimize`] rejects.
pub fn estimate_bound<R: Rng + ?Sized>(
    x: &Matrix,
    config: &OptimizerConfig,
    rounds: usize,
    rng: &mut R,
) -> Result<BoundEstimate, OptimizeError> {
    if rounds == 0 {
        return Err(OptimizeError::NoRounds);
    }
    let round_guarantees: Vec<f64> = (0..rounds)
        .map(|_| optimize(x, config, rng).map(|o| o.privacy_guarantee))
        .collect::<Result<_, _>>()?;
    let bound = vecops::max(&round_guarantees);
    let mean_guarantee = vecops::mean(&round_guarantees);
    Ok(BoundEstimate {
        round_guarantees,
        bound,
        mean_guarantee,
    })
}

/// Draws a random perturbation and scores it — the "random perturbations"
/// baseline of Figure 2.
pub fn random_baseline<R: Rng + ?Sized>(
    x: &Matrix,
    config: &OptimizerConfig,
    rng: &mut R,
) -> (GeometricPerturbation, f64) {
    let cand = GeometricPerturbation::random(x.rows(), config.noise_sigma, rng);
    let rho = evaluate_perturbation(x, &cand, config, rng);
    (cand, rho)
}

pub(crate) fn subsample_columns<R: Rng + ?Sized>(x: &Matrix, limit: usize, rng: &mut R) -> Matrix {
    if x.cols() <= limit {
        return x.clone();
    }
    let mut idx: Vec<usize> = (0..x.cols()).collect();
    idx.shuffle(rng);
    idx.truncate(limit);
    let cols: Vec<Vec<f64>> = idx.iter().map(|&c| x.column(c)).collect();
    Matrix::from_columns(&cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn skewed_data(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(d, n, |r, _| {
            let u: f64 = rng.random_range(0.0001..1.0);
            (-u.ln()) * 0.2 + 0.1 * r as f64
        })
    }

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            candidates: 8,
            noise_sigma: 0.05,
            known_points: 4,
            eval_sample: 120,
            use_ica: false,
        }
    }

    #[test]
    fn optimized_at_least_matches_every_candidate() {
        // Candidate `i` depends only on the run seed and `i`, and the run
        // seed not on the candidate count: a run over the first `c`
        // candidates keeps the best of them, so the guarantee can only
        // grow with `c`, and the full run's is the best of all.
        let x = skewed_data(4, 300, 1);
        let cfg = quick_config();
        let guarantees: Vec<f64> = (1..=cfg.candidates)
            .map(|candidates| {
                let cfg = OptimizerConfig {
                    candidates,
                    ..cfg.clone()
                };
                let opt = optimize(&x, &cfg, &mut StdRng::seed_from_u64(2)).unwrap();
                assert!(opt.privacy_guarantee.is_finite());
                opt.privacy_guarantee
            })
            .collect();
        assert!(
            guarantees.windows(2).all(|w| w[0] <= w[1]),
            "{guarantees:?}"
        );
    }

    #[test]
    fn optimized_beats_mean_random_on_average() {
        // Figure 2's claim, in expectation over a few runs.
        let x = skewed_data(4, 300, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = quick_config();
        let mut opt_sum = 0.0;
        let mut rand_sum = 0.0;
        let runs = 5;
        for _ in 0..runs {
            opt_sum += optimize(&x, &cfg, &mut rng).unwrap().privacy_guarantee;
            rand_sum += random_baseline(&x, &cfg, &mut rng).1;
        }
        assert!(
            opt_sum / runs as f64 >= rand_sum / runs as f64,
            "optimized mean {} should beat random mean {}",
            opt_sum / runs as f64,
            rand_sum / runs as f64
        );
    }

    #[test]
    fn bound_estimate_consistency() {
        let x = skewed_data(3, 200, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let est = estimate_bound(&x, &quick_config(), 6, &mut rng).unwrap();
        assert_eq!(est.round_guarantees.len(), 6);
        assert!(est.bound >= est.mean_guarantee);
        let rate = est.optimality_rate();
        assert!(
            (0.0..=1.0 + 1e-12).contains(&rate),
            "optimality rate {rate} outside [0,1]"
        );
        // Bound is the max of the rounds.
        assert!((est.bound - vecops::max(&est.round_guarantees)).abs() < 1e-15);
    }

    #[test]
    fn subsampling_keeps_dimensions() {
        let x = skewed_data(4, 500, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = OptimizerConfig {
            eval_sample: 50,
            ..quick_config()
        };
        // evaluate through the public API; implicitly exercises subsampling.
        let g = GeometricPerturbation::random(4, 0.05, &mut rng);
        let rho = evaluate_perturbation(&x, &g, &cfg, &mut rng);
        assert!(rho.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let x = skewed_data(3, 200, 9);
        let cfg = quick_config();
        let a = optimize(&x, &cfg, &mut StdRng::seed_from_u64(10))
            .unwrap()
            .privacy_guarantee;
        let b = optimize(&x, &cfg, &mut StdRng::seed_from_u64(10))
            .unwrap()
            .privacy_guarantee;
        assert_eq!(a, b);
    }

    #[test]
    fn zero_candidates_is_typed_error() {
        let x = skewed_data(2, 50, 11);
        let cfg = OptimizerConfig {
            candidates: 0,
            ..quick_config()
        };
        assert_eq!(
            optimize(&x, &cfg, &mut StdRng::seed_from_u64(12)).unwrap_err(),
            OptimizeError::NoCandidates
        );
    }

    #[test]
    fn empty_dataset_is_typed_error() {
        let cfg = quick_config();
        let err = optimize(&Matrix::zeros(0, 0), &cfg, &mut StdRng::seed_from_u64(13)).unwrap_err();
        assert!(matches!(err, OptimizeError::EmptyDataset { .. }));
        assert_eq!(
            estimate_bound(
                &skewed_data(2, 50, 14),
                &cfg,
                0,
                &mut StdRng::seed_from_u64(15)
            )
            .unwrap_err(),
            OptimizeError::NoRounds
        );
    }
}
