//! The exact candidate-evaluation engine behind [`crate::optimize`].
//!
//! The paper's optimizer scores every candidate under the full attack
//! suite and keeps the best. A score is a minimum over attacks, so every
//! attack can only lower it, and any partial minimum bounds the full
//! score from above. The engine uses those bounds to select the same
//! winner, with the same guarantee bits, while most candidates meet only
//! the cheap attacks:
//!
//! 1. **Shared precomputation** (once per run): the evaluation subsample,
//!    the attacker-knowledge bundle, an independent reference subsample
//!    for the known-sample attack, and — when ICA is enabled — one
//!    [`WhiteningWorkspace`] eigendecomposition of the sample covariance
//!    that every candidate's ICA whitener is minted from.
//! 2. **Level 0** (all candidates): naive estimation and distance
//!    inference give every candidate its first bound.
//! 3. **Best-first loop**: take the candidate with the highest
//!    bound (lower index on ties) and fold its next level of the attack
//!    ladder into it, in cost order: (1) known-sample PCA, (2) PCA,
//!    (3) workspace-whitened ICA. Stop when the top candidate has all
//!    four levels. No other candidate's full score can exceed its bound,
//!    and a bound equal to the winner's belongs to a higher index, so the
//!    top candidate is the serial loop's first maximum.
//!
//! # Determinism
//!
//! Candidates draw from **deterministic per-candidate RNG streams**: the
//! run draws one `run_seed` from the caller's RNG, and candidate `i`
//! seeds a fresh [`StdRng`] with `mix(run_seed, i)` (a SplitMix64-style
//! finalizer). A candidate's perturbation, noise realization, and score
//! therefore depend only on `(run_seed, i)` and the shared
//! precomputation, never on evaluation order. The whole run stays on the
//! calling thread: a provider's optimizer is one session role, and the
//! roles are what run in parallel. [`run`] selects the winner, with the
//! same guarantee bits, that the plain serial full-suite loop its unit
//! tests keep as the specification selects, at every config.

use crate::attack::{
    Attack, AttackSuite, AttackerKnowledge, DistanceInference, IcaReconstruction,
    KnownSampleAttack, NaiveEstimation, PcaReconstruction,
};
use crate::metric::minimum_privacy_guarantee;
use crate::optimize::{subsample_columns, OptimizeError, OptimizedPerturbation, OptimizerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sap_ica::WhiteningWorkspace;
use sap_linalg::Matrix;
use sap_perturb::GeometricPerturbation;
use std::time::Instant;

/// Levels of the attack ladder: (0) naive estimation + distance
/// inference, (1) known-sample PCA, (2) PCA, (3) workspace ICA.
pub const LEVELS: usize = 4;

/// Per-stage telemetry of one engine run, surfaced through
/// `ProviderReport`/`SapOutcome` in `sap-core` and aggregated into the
/// server metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Candidates drawn, every one scored at level 0.
    pub candidates: usize,
    /// Candidates never fully scored: their bound already ruled them out.
    pub pruned: usize,
    /// Candidates each ladder level ran on, level 0 first. Non-increasing;
    /// the last entry counts the fully scored candidates, winner included.
    pub evaluations: [usize; LEVELS],
    /// Candidates the ICA reconstruction ran on (the last level, when ICA
    /// is enabled).
    pub ica_fits: usize,
    /// Of those fits, the ones that produced an estimate (ICA can
    /// decline: divergence, too few records).
    pub ica_applied: usize,
    /// Whether the ICA attack was part of the ladder.
    pub ica: bool,
    /// Wall time of level 0 (seconds).
    pub cheap_stage_s: f64,
    /// Wall time of the best-first loop (seconds).
    pub expensive_stage_s: f64,
    /// Wall time of the whole run, shared precomputation included.
    pub total_s: f64,
}

/// Result of one engine run: the winning perturbation plus observability.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The selected perturbation and its full-suite guarantee.
    pub result: OptimizedPerturbation,
    /// Per-stage telemetry.
    pub stats: EngineStats,
}
/// Derives candidate `index`'s RNG seed from the run seed — a
/// SplitMix64-style finalizer over `run_seed ⊕ (index · φ64)`, so
/// neighboring candidates land in unrelated regions of the seed space.
fn candidate_seed(run_seed: u64, index: u64) -> u64 {
    let mut z = run_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything shared by every candidate of one run.
struct RunContext {
    sample: Matrix,
    knowledge: AttackerKnowledge,
    cheap: AttackSuite,
    /// The known-sample adversary's knowledge, *derived once* from the
    /// reference subsample (the attack is PCA against estimated
    /// statistics; re-deriving marginals + covariance per candidate
    /// would put an O(d²·m) recomputation inside ladder level 1).
    known_sample: Option<AttackerKnowledge>,
    pca: PcaReconstruction,
    ica: Option<(IcaReconstruction, WhiteningWorkspace)>,
    run_seed: u64,
}

fn prepare<R: Rng + ?Sized>(
    x: &Matrix,
    config: &OptimizerConfig,
    rng: &mut R,
) -> Result<RunContext, OptimizeError> {
    if config.candidates == 0 {
        return Err(OptimizeError::NoCandidates);
    }
    let mut ctx = shared_context(x, config, rng)?;
    ctx.run_seed = rng.next_u64();
    Ok(ctx)
}

/// The per-run precomputation shared by [`run`] and the
/// single-perturbation [`evaluate`]: evaluation subsample,
/// attacker knowledge, attack suites, whitening workspace. Does **not**
/// draw the run seed (single-perturbation evaluation has no candidates).
fn shared_context<R: Rng + ?Sized>(
    x: &Matrix,
    config: &OptimizerConfig,
    rng: &mut R,
) -> Result<RunContext, OptimizeError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(OptimizeError::EmptyDataset {
            rows: x.rows(),
            cols: x.cols(),
        });
    }

    // One evaluation subsample and knowledge bundle shared by the whole
    // run: candidates must be compared on the same ground.
    let sample = subsample_columns(x, config.eval_sample, rng);
    // An independent draw models the known-sample adversary's reference
    // release (it coincides with `sample` only when the dataset is
    // smaller than the evaluation budget).
    let reference = subsample_columns(x, config.eval_sample, rng);
    let knowledge = AttackerKnowledge::worst_case(&sample, config.known_points);

    let mut cheap = AttackSuite::empty();
    cheap.push(Box::new(NaiveEstimation));
    cheap.push(Box::new(DistanceInference));
    let known_sample = if reference.cols() >= 4 {
        Some(KnownSampleAttack::new(reference).derived_knowledge())
    } else {
        None
    };

    let ica_attack = IcaReconstruction::default();
    let ica = if config.use_ica && sample.cols() >= 8 {
        WhiteningWorkspace::from_covariance(
            &sample.column_covariance(),
            ica_attack.config.whiten_eps,
        )
        .ok()
        .map(|ws| (ica_attack, ws))
    } else {
        None
    };

    Ok(RunContext {
        sample,
        knowledge,
        cheap,
        known_sample,
        pca: PcaReconstruction,
        ica,
        run_seed: 0,
    })
}

/// Rebuilds candidate `i` from its derived seed: the perturbation and the
/// realized perturbed sample. Cheap relative to any attack, so the engine
/// regenerates a candidate for each level instead of holding its matrix
/// alive.
fn regenerate(
    ctx: &RunContext,
    config: &OptimizerConfig,
    i: usize,
) -> (GeometricPerturbation, Matrix) {
    let mut crng = StdRng::seed_from_u64(candidate_seed(ctx.run_seed, i as u64));
    let cand = GeometricPerturbation::random(ctx.sample.rows(), config.noise_sigma, &mut crng);
    let (y, _delta) = cand.perturb(&ctx.sample, &mut crng);
    (cand, y)
}

/// Ladder level 0, a candidate's first bound: naive estimation and
/// distance inference on its realized perturbed sample.
fn level0_score(ctx: &RunContext, y: &Matrix) -> f64 {
    ctx.cheap.privacy_guarantee(&ctx.sample, y, &ctx.knowledge)
}

/// Folds ladder level `level` (1 to 3) into `bound`, a candidate's
/// minimum over the levels before it. Returns the new bound and, at
/// level 3, the ICA fit's outcome: `None` when no fit ran (ICA
/// disabled), else whether it produced an estimate.
fn tighten(
    ctx: &RunContext,
    level: usize,
    cand: &GeometricPerturbation,
    y: &Matrix,
    bound: f64,
) -> (f64, Option<bool>) {
    let estimate = match level {
        // PCA against the reference sample's precomputed estimated
        // statistics.
        1 => ctx
            .known_sample
            .as_ref()
            .and_then(|ks| ctx.pca.estimate(y, ks)),
        2 => ctx.pca.estimate(y, &ctx.knowledge),
        _ => return ica_tighten(ctx, cand, y, bound),
    };
    let rho = estimate.map_or(bound, |est| {
        bound.min(minimum_privacy_guarantee(&ctx.sample, &est))
    });
    (rho, None)
}

/// The workspace-whitened ICA reconstruction folded into `bound`.
fn ica_tighten(
    ctx: &RunContext,
    cand: &GeometricPerturbation,
    y: &Matrix,
    bound: f64,
) -> (f64, Option<bool>) {
    let Some((ica, ws)) = &ctx.ica else {
        return (bound, None);
    };
    // The noise variance belongs to the *evaluated* perturbation, not
    // the optimizer config — engine candidates always carry the
    // config's sigma, but `evaluate` accepts arbitrary perturbations
    // whose own NoiseSpec must drive the whitener's spectrum.
    let noise_var = cand.noise().sigma * cand.noise().sigma;
    match ws
        .whitener_for_rotation(cand.base().rotation(), y.row_means(), noise_var)
        .ok()
        .and_then(|whitener| ica.estimate_with_whitener(y, &ctx.knowledge, whitener))
    {
        Some(est) => (
            bound.min(minimum_privacy_guarantee(&ctx.sample, &est)),
            Some(true),
        ),
        None => (bound, Some(false)),
    }
}

/// The best-first loop over the ladder. `level0[i]` is candidate `i`'s
/// level-0 score; `fold(i, level, bound)` folds level `level` (1 to 3)
/// into candidate `i`'s bound and must not raise it. Returns the index
/// and full score of the first maximum of the full scores, or `None`
/// when there are no candidates. Requires no NaN bound (scores are
/// minima folded with `f64::min`, which keeps NaN out).
///
/// Each step advances the candidate with the highest bound, lower index
/// on ties, and the loop stops when that candidate is fully scored.
/// Every other candidate's full score is at most its bound, which is
/// below the winner's score or equal to it at a higher index.
fn best_first(
    level0: &[f64],
    mut fold: impl FnMut(usize, usize, f64) -> f64,
) -> Option<(usize, f64)> {
    // (bound, next level) per candidate.
    let mut state: Vec<(f64, usize)> = level0.iter().map(|&rho| (rho, 1)).collect();
    loop {
        // `+ 0.0` folds −0.0 into +0.0, so bounds that compare equal order
        // by index. `max_by` keeps the last maximum, hence `b.cmp(&a)`.
        let i = (0..state.len()).max_by(|&a, &b| {
            (state[a].0 + 0.0)
                .total_cmp(&(state[b].0 + 0.0))
                .then(b.cmp(&a))
        })?;
        let (rho, level) = &mut state[i];
        if *level == LEVELS {
            return Some((i, *rho));
        }
        *rho = fold(i, *level, *rho);
        *level += 1;
    }
}

/// Scores **one** given perturbation under the engine's scoring model —
/// the same shared precomputation and the whole attack ladder a
/// candidate would get. This is what the protocol actors use for the
/// satisfaction ratio `sᵢ = ρᵢᴳ / ρᵢ`: numerator and denominator must
/// come from the *same* attack model, or the ratio compares incomparable
/// scores.
///
/// Degenerate inputs (empty dataset) score `+∞` — "no attack applies" —
/// mirroring [`crate::attack::AttackSuite::privacy_guarantee`] on an
/// empty suite.
pub fn evaluate<R: Rng + ?Sized>(
    x: &Matrix,
    perturbation: &GeometricPerturbation,
    config: &OptimizerConfig,
    rng: &mut R,
) -> f64 {
    let Ok(ctx) = shared_context(x, config, rng) else {
        return f64::INFINITY;
    };
    let (y, _delta) = perturbation.perturb(&ctx.sample, rng);
    (1..LEVELS).fold(level0_score(&ctx, &y), |bound, level| {
        tighten(&ctx, level, perturbation, &y, bound).0
    })
}

/// Runs the exact engine on a `d × N` dataset.
///
/// # Errors
///
/// [`OptimizeError::NoCandidates`] / [`OptimizeError::EmptyDataset`] on a
/// malformed configuration or input.
pub fn run<R: Rng + ?Sized>(
    x: &Matrix,
    config: &OptimizerConfig,
    rng: &mut R,
) -> Result<EngineOutcome, OptimizeError> {
    let run_start = Instant::now();
    let ctx = prepare(x, config, rng)?;
    let n = config.candidates;

    // Level 0 on every candidate. Each score depends only on its index
    // and the shared context.
    let cheap_start = Instant::now();
    let level0: Vec<f64> = (0..n)
        .map(|i| level0_score(&ctx, &regenerate(&ctx, config, i).1))
        .collect();
    let cheap_stage_s = cheap_start.elapsed().as_secs_f64();

    let loop_start = Instant::now();
    let mut evaluations = [0; LEVELS];
    evaluations[0] = n;
    let mut ica_applied = 0;
    let (best, privacy_guarantee) = best_first(&level0, |i, level, bound| {
        evaluations[level] += 1;
        let (cand, y) = regenerate(&ctx, config, i);
        let (rho, fit) = tighten(&ctx, level, &cand, &y, bound);
        ica_applied += usize::from(fit == Some(true));
        rho
    })
    .ok_or(OptimizeError::NoCandidates)?;
    let expensive_stage_s = loop_start.elapsed().as_secs_f64();

    let (perturbation, _) = regenerate(&ctx, config, best);
    let fully_scored = evaluations[LEVELS - 1];

    Ok(EngineOutcome {
        result: OptimizedPerturbation {
            perturbation,
            privacy_guarantee,
        },
        stats: EngineStats {
            candidates: n,
            pruned: n - fully_scored,
            evaluations,
            ica_fits: if ctx.ica.is_some() { fully_scored } else { 0 },
            ica_applied,
            ica: ctx.ica.is_some(),
            cheap_stage_s,
            expensive_stage_s,
            total_s: run_start.elapsed().as_secs_f64(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngExt;

    /// The specification the engine is tested against: a plain serial
    /// loop over the same per-candidate seed streams, every candidate
    /// scored under the whole ladder, the first maximum kept. [`run`] must
    /// select this function's winner with the same guarantee bits.
    fn serial_reference(
        x: &Matrix,
        config: &OptimizerConfig,
        rng: &mut StdRng,
    ) -> Result<OptimizedPerturbation, OptimizeError> {
        let ctx = prepare(x, config, rng)?;
        let mut best: Option<(GeometricPerturbation, f64)> = None;
        for i in 0..config.candidates {
            let (cand, y) = regenerate(&ctx, config, i);
            let rho = (1..LEVELS).fold(level0_score(&ctx, &y), |bound, level| {
                tighten(&ctx, level, &cand, &y, bound).0
            });
            if best.as_ref().is_none_or(|&(_, b)| rho > b) {
                best = Some((cand, rho));
            }
        }
        let (perturbation, privacy_guarantee) = best.expect("candidates > 0");
        Ok(OptimizedPerturbation {
            perturbation,
            privacy_guarantee,
        })
    }

    /// Skewed, non-Gaussian data: every attack in the suite applies.
    fn skewed_data(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(d, n, |r, _| {
            let u: f64 = rng.random_range(0.0001..1.0);
            match r % 3 {
                0 => (-u.ln()) * 0.3,
                1 => u * u + 0.1 * r as f64,
                _ => u + 0.05 * r as f64,
            }
        })
    }

    /// Independent uniform attributes: FastICA's canonical case.
    fn uniform_data(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(d, n, |_, _| rng.random_range(0.0..1.0))
    }

    /// A two-component Gaussian mixture, the shape of the UCI stand-ins.
    fn mixture_data(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = sap_linalg::randn_matrix(d, n, &mut rng);
        for c in (0..n).step_by(3) {
            for r in 0..d {
                x[(r, c)] += 2.0 + r as f64;
            }
        }
        x
    }

    fn config(candidates: usize, use_ica: bool) -> OptimizerConfig {
        OptimizerConfig {
            candidates,
            noise_sigma: 0.05,
            known_points: 4,
            eval_sample: 96,
            use_ica,
        }
    }

    /// Runs the engine and checks it against the serial loop: the same
    /// winner and guarantee bits, and a well-formed ladder count.
    fn check_exact(x: &Matrix, candidates: usize, use_ica: bool, seed: u64) {
        let cfg = config(candidates, use_ica);
        let label = format!("seed={seed:#x} candidates={candidates} ica={use_ica}");
        let serial = serial_reference(x, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
        let out = run(x, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert_eq!(
            out.result.privacy_guarantee.to_bits(),
            serial.privacy_guarantee.to_bits(),
            "guarantee diverged: {label}"
        );
        assert_eq!(
            out.result.perturbation, serial.perturbation,
            "winner diverged: {label}"
        );
        let s = out.stats;
        assert_eq!(s.evaluations[0], candidates, "{label} {s:?}");
        assert!(
            s.evaluations.windows(2).all(|w| w[0] >= w[1]),
            "{label} {s:?}"
        );
        let fully_scored = s.evaluations[LEVELS - 1];
        assert!(fully_scored >= 1, "{label} {s:?}");
        if !s.ica {
            // A last level that cannot lower a bound leaves the top
            // candidate on top: only the winner reaches it.
            assert_eq!(fully_scored, 1, "{label} {s:?}");
        }
        assert_eq!(s.pruned, candidates - fully_scored);
        assert_eq!(s.ica_fits, if s.ica { fully_scored } else { 0 });
        assert!(s.ica_applied <= s.ica_fits);
    }

    #[test]
    fn parallel_matches_serial_reference_bitwise() {
        let x = skewed_data(4, 220, 1);
        for candidates in [1usize, 3, 9] {
            check_exact(&x, candidates, false, 7);
        }
    }

    #[test]
    fn stats_reflect_the_schedule() {
        let x = skewed_data(3, 200, 4);
        let out = run(&x, &config(16, false), &mut StdRng::seed_from_u64(5)).unwrap();
        let s = out.stats;
        assert_eq!(s.candidates, 16);
        assert_eq!(s.evaluations[0], 16);
        assert_eq!(s.evaluations[LEVELS - 1], 1);
        assert_eq!(s.pruned, 15);
        assert!(!s.ica);
        assert_eq!((s.ica_fits, s.ica_applied), (0, 0));
        assert!(s.total_s >= s.cheap_stage_s + s.expensive_stage_s);
    }

    #[test]
    fn ica_stage_applies_on_non_gaussian_data() {
        let x = uniform_data(2, 400, 6);
        let out = run(&x, &config(6, true), &mut StdRng::seed_from_u64(8)).unwrap();
        assert!(out.stats.ica);
        assert!(
            out.stats.ica_applied > 0,
            "ICA should reconstruct at least the winner: {:?}",
            out.stats
        );
        check_exact(&x, 6, true, 9);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let x = skewed_data(2, 50, 10);
        assert_eq!(
            run(&x, &config(0, false), &mut StdRng::seed_from_u64(1)).unwrap_err(),
            OptimizeError::NoCandidates
        );
        let empty = Matrix::zeros(3, 0);
        assert!(matches!(
            run(&empty, &config(4, false), &mut StdRng::seed_from_u64(1)).unwrap_err(),
            OptimizeError::EmptyDataset { rows: 3, cols: 0 }
        ));
    }

    #[test]
    fn candidate_seeds_are_spread() {
        let s: Vec<u64> = (0..64).map(|i| candidate_seed(0xDEAD_BEEF, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Skewed, uniform and Gaussian-mixture data × candidate counts
        /// 1–16 × ICA on and off: the engine selects the serial
        /// full-suite loop's winner, guarantee bits included.
        #[test]
        fn engine_matches_serial_loop(
            seed in any::<u64>(),
            kind in 0usize..3,
            dim in 2usize..5,
            records in 20usize..160,
            candidates in 1usize..=16,
            use_ica in any::<bool>(),
        ) {
            let x = match kind {
                0 => skewed_data(dim, records, seed),
                1 => uniform_data(dim, records, seed),
                _ => mixture_data(dim, records, seed),
            };
            check_exact(&x, candidates, use_ica, seed ^ 0x5EED);
        }
    }

    /// Fixed ICA cases, one where the last level binds on several
    /// candidates and the single-candidate run.
    #[test]
    fn engine_matches_serial_loop_with_ica() {
        check_exact(&skewed_data(3, 120, 0x1CA_5E55), 6, true, 0x1CA);
        check_exact(&uniform_data(3, 150, 0x1CA_0002), 12, true, 0x1CB);
        check_exact(&skewed_data(2, 90, 0x1CA_0001), 1, true, 0x1CC);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The best-first loop selects what folding every level into every
        /// candidate and taking the first maximum selects, on arbitrary
        /// level scores: ties, ±0 and +∞ ("no attack applied") included.
        /// It folds each level at most once, in ladder order, and the
        /// winner through every level.
        #[test]
        fn bounded_selection_matches_tightening_everything(
            seed in any::<u64>(),
            len in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few values force ties among bounds, among full scores and
            // between the two.
            let mut value = || match rng.random_range(0u32..7) {
                0 => f64::INFINITY,
                1 => -0.0,
                2 => 0.0,
                k => f64::from(k),
            };
            let scores: Vec<[f64; LEVELS]> = (0..len).map(|_| [value(), value(), value(), value()]).collect();
            let full: Vec<f64> = scores
                .iter()
                .map(|s| s[1..].iter().fold(s[0], |b, &v| b.min(v)))
                .collect();
            let mut first_max = 0;
            for j in 1..len {
                if full[j] > full[first_max] {
                    first_max = j;
                }
            }
            let level0: Vec<f64> = scores.iter().map(|s| s[0]).collect();
            let mut next_level = vec![1usize; len];
            let got = best_first(&level0, |i, level, bound| {
                assert_eq!(level, next_level[i], "candidate {i} folded out of order");
                next_level[i] += 1;
                bound.min(scores[i][level])
            });
            prop_assert_eq!(got.map(|(i, rho)| (i, rho.to_bits())), Some((first_max, full[first_max].to_bits())));
            prop_assert_eq!(next_level[first_max], LEVELS);
        }
    }

    #[test]
    fn best_first_without_candidates_selects_nothing() {
        assert_eq!(best_first(&[], |_, _, b| b), None);
    }
}
