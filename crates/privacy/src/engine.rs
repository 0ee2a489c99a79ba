//! The staged, parallel candidate-evaluation engine behind [`crate::optimize`].
//!
//! The serial optimizer evaluated every candidate under the full attack
//! suite, one after another, drawing all randomness from a single RNG
//! stream — which made the expensive ICA reconstruction unaffordable in
//! the inner loop and left the system shipping with its strongest
//! attacker disabled. The engine restructures that loop into overlapping
//! stages without changing what a candidate's score *means*:
//!
//! 1. **Shared precomputation** (once per run): the evaluation subsample,
//!    the attacker-knowledge bundle, an independent reference subsample
//!    for the known-sample attack, and — when ICA is enabled — one
//!    [`WhiteningWorkspace`] eigendecomposition of the sample covariance
//!    that every candidate's ICA whitener is minted from.
//! 2. **Cheap stage** (all candidates, parallel): naive estimation,
//!    distance inference, and the known-sample attack score every
//!    candidate.
//! 3. **Prune** (successive halving, [`crate::optimize::StagedBudget`]): the top-scoring
//!    fraction survives; the rest keep their cheap score as an upper
//!    bound.
//! 4. **Expensive stage** (survivors only): pass 1 (parallel) folds the
//!    PCA reconstruction into each survivor's score, `U = min(cheap,
//!    PCA)`. Pass 2 fits the workspace-whitened ICA reconstruction in
//!    order of `U`, only on survivors that can still win
//!    (`select_with_bounds`); with staging disabled, pass 1 runs ICA
//!    on every survivor instead.
//! 5. **Select**: the survivor with the highest full-suite guarantee
//!    wins (first index on ties). The cheap-stage winner always survives,
//!    so the staged selection is never worse than fully evaluating only
//!    the cheap winner.
//!
//! # Determinism
//!
//! Candidates draw from **deterministic per-candidate RNG streams**: the
//! run draws one `run_seed` from the caller's RNG, and candidate `i`
//! seeds a fresh [`StdRng`] with `mix(run_seed, i)` (a SplitMix64-style
//! finalizer). A candidate's perturbation, noise realization, and score
//! therefore depend only on `(run_seed, i)` and the shared
//! precomputation — never on thread count or scheduling (pass 2 runs
//! serially). With pruning disabled, [`run`] is **bit-identical** to the
//! plain serial loop its unit tests keep as the specification, for every
//! worker count; enabling pruning changes only *which* candidates pay
//! for the expensive stage, never the winner among the survivors.

use crate::attack::{
    Attack, AttackSuite, AttackerKnowledge, DistanceInference, IcaReconstruction,
    KnownSampleAttack, NaiveEstimation, PcaReconstruction,
};
use crate::metric::minimum_privacy_guarantee;
use crate::optimize::{subsample_columns, OptimizeError, OptimizedPerturbation, OptimizerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sap_ica::WhiteningWorkspace;
use sap_linalg::{parallel, Matrix};
use sap_perturb::GeometricPerturbation;
use std::time::Instant;

/// Per-stage telemetry of one engine run, surfaced through
/// `ProviderReport`/`SapOutcome` in `sap-core` and aggregated into the
/// server metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Candidates drawn and scored by the cheap stage.
    pub candidates: usize,
    /// Candidates that reached the expensive stage.
    pub survivors: usize,
    /// Candidates pruned after the cheap stage.
    pub pruned: usize,
    /// Survivors the ICA reconstruction ran on: all of them unstaged,
    /// only those pass 2 reached when staged.
    pub ica_fits: usize,
    /// Of those fits, the ones that produced an estimate (ICA can
    /// decline: divergence, too few records).
    pub ica_applied: usize,
    /// Worker threads used for candidate evaluation.
    pub threads: usize,
    /// Whether the two-stage schedule pruned anything.
    pub staged: bool,
    /// Whether the ICA attack was part of the expensive stage.
    pub ica: bool,
    /// Wall time of the cheap stage (seconds).
    pub cheap_stage_s: f64,
    /// Wall time of the expensive stage (seconds).
    pub expensive_stage_s: f64,
    /// Wall time of the whole run, shared precomputation included.
    pub total_s: f64,
}

/// Result of one engine run: the winning perturbation plus observability.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The selected perturbation, its full-suite guarantee, and the
    /// per-candidate history (see
    /// [`OptimizedPerturbation::history`] for staged semantics).
    pub result: OptimizedPerturbation,
    /// Every candidate's cheap-stage score, in candidate order.
    pub cheap_history: Vec<f64>,
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
    /// would put an O(d²·m) recomputation inside the cheap stage).
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
/// realized perturbed sample. Cheap relative to any attack, so stages
/// regenerate instead of holding every candidate's matrix alive.
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

/// The cheap suite on one realized perturbed sample: naive + distance
/// inference, plus the known-sample attack (PCA against the reference
/// sample's precomputed estimated statistics).
fn cheap_score(ctx: &RunContext, y: &Matrix) -> f64 {
    let mut rho = ctx.cheap.privacy_guarantee(&ctx.sample, y, &ctx.knowledge);
    if let Some(ks) = &ctx.known_sample {
        if let Some(est) = ctx.pca.estimate(y, ks) {
            rho = rho.min(minimum_privacy_guarantee(&ctx.sample, &est));
        }
    }
    rho
}

/// The PCA reconstruction folded into a cheap score: an upper bound on
/// the full-suite score that only [`ica_tighten`] can lower.
fn pca_bound(ctx: &RunContext, y: &Matrix, cheap_rho: f64) -> f64 {
    match ctx.pca.estimate(y, &ctx.knowledge) {
        Some(est) => cheap_rho.min(minimum_privacy_guarantee(&ctx.sample, &est)),
        None => cheap_rho,
    }
}

/// The workspace-whitened ICA reconstruction folded into a survivor's
/// [`pca_bound`]. Returns the score and the fit's outcome: `None` when
/// no fit ran (ICA disabled), else whether it produced an estimate.
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

/// Pass 2's selection: the index of the highest tightened score, first
/// index on ties, calling `tighten(j)` only on entries that can still
/// win. Requires `tighten(j) <= bounds[j]` and no NaN bound (engine
/// scores are minima folded from `+∞`, which NaN never enters).
///
/// Entries are visited by bound descending, index ascending, until one's
/// bound is below the best score so far, or equal to it at a higher
/// index: no later entry's score can exceed its bound, and on a tie its
/// index is higher too, so none can win. The result is the first maximum
/// of tightening every entry.
fn select_with_bounds(bounds: &[f64], mut tighten: impl FnMut(usize) -> f64) -> usize {
    // `+ 0.0` folds −0.0 into +0.0, so bounds that compare equal sort by
    // index.
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by(|&a, &b| {
        (bounds[b] + 0.0)
            .total_cmp(&(bounds[a] + 0.0))
            .then(a.cmp(&b))
    });
    let beats = |score: f64, j: usize, (best_j, best): (usize, f64)| {
        score > best || (score == best && j < best_j)
    };
    let mut best: Option<(usize, f64)> = None;
    for j in order {
        if best.is_some_and(|b| !beats(bounds[j], j, b)) {
            break;
        }
        let score = tighten(j);
        if best.is_none_or(|b| beats(score, j, b)) {
            best = Some((j, score));
        }
    }
    best.map_or(0, |(j, _)| j)
}

/// Scores **one** given perturbation under the engine's scoring model —
/// the same shared precomputation, cheap suite, and expensive
/// PCA/workspace-ICA stage a candidate would get. This is what the
/// protocol actors use for the satisfaction ratio `sᵢ = ρᵢᴳ / ρᵢ`:
/// numerator and denominator must come from the *same* attack model, or
/// the ratio compares incomparable scores.
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
    let bound = pca_bound(&ctx, &y, cheap_score(&ctx, &y));
    ica_tighten(&ctx, perturbation, &y, bound).0
}

/// Runs the staged, parallel engine on a `d × N` dataset. Worker count
/// comes from [`OptimizerConfig::threads`], defaulting to
/// [`sap_linalg::parallel::threads`] (the `SAP_LINALG_THREADS` override
/// applies); the staged schedule from [`OptimizerConfig::staged`].
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
    let workers = config.threads.unwrap_or_else(parallel::threads).max(1);

    // Stage 1: cheap attacks on every candidate. Each slot depends only
    // on its index and the shared context, so any worker count produces
    // the same bits.
    let cheap_start = Instant::now();
    let mut cheap = vec![0.0f64; n];
    parallel::for_each_chunk_mut_with(workers, &mut cheap, 1, |i, slot| {
        slot[0] = cheap_score(&ctx, &regenerate(&ctx, config, i).1);
    });
    let cheap_stage_s = cheap_start.elapsed().as_secs_f64();

    // Prune: survivors are the top cheap scorers (ties resolved by lower
    // index — a total, deterministic order), in candidate order.
    let mut survivors: Vec<usize> = (0..n).collect();
    survivors.sort_by(|&a, &b| cheap[b].total_cmp(&cheap[a]).then_with(|| a.cmp(&b)));
    survivors.truncate(config.staged.survivors(n));
    survivors.sort_unstable();

    // Stage 2, pass 1 (parallel): each survivor's bound `min(cheap, PCA)`,
    // tightened by ICA right away when unstaged.
    let expensive_start = Instant::now();
    let full_suite = !config.staged.enabled;
    let mut full: Vec<(f64, Option<bool>)> = vec![(0.0, None); survivors.len()];
    parallel::for_each_chunk_mut_with(workers, &mut full, 1, |j, slot| {
        let i = survivors[j];
        let (cand, y) = regenerate(&ctx, config, i);
        let bound = pca_bound(&ctx, &y, cheap[i]);
        slot[0] = if full_suite {
            ica_tighten(&ctx, &cand, &y, bound)
        } else {
            (bound, None)
        };
    });

    // Pass 2 and select: highest full-suite guarantee, first index on
    // ties. Staged, ICA runs in bound order only on survivors that can
    // still win; the others keep their bound.
    let bounds: Vec<f64> = full.iter().map(|&(rho, _)| rho).collect();
    let best_j = select_with_bounds(&bounds, |j| {
        if !full_suite && ctx.ica.is_some() {
            let (cand, y) = regenerate(&ctx, config, survivors[j]);
            full[j] = ica_tighten(&ctx, &cand, &y, bounds[j]);
        }
        full[j].0
    });
    let expensive_stage_s = expensive_start.elapsed().as_secs_f64();

    let mut history = cheap.clone();
    for (&i, &(rho, _)) in survivors.iter().zip(&full) {
        history[i] = rho;
    }
    let (perturbation, _) = regenerate(&ctx, config, survivors[best_j]);
    let fits = || full.iter().filter_map(|&(_, fit)| fit);

    Ok(EngineOutcome {
        result: OptimizedPerturbation {
            perturbation,
            privacy_guarantee: full[best_j].0,
            history,
        },
        cheap_history: cheap,
        stats: EngineStats {
            candidates: n,
            survivors: survivors.len(),
            pruned: n - survivors.len(),
            ica_fits: fits().count(),
            ica_applied: fits().filter(|&applied| applied).count(),
            threads: workers,
            staged: survivors.len() != n,
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
    use crate::optimize::StagedBudget;
    use proptest::prelude::*;
    use rand::RngExt;

    /// The specification the engine is tested against: a plain serial
    /// loop over the same per-candidate seed streams, every candidate
    /// evaluated under the full suite, no pruning, no worker threads.
    /// With [`StagedBudget::enabled`]` = false`, [`run`] must reproduce
    /// this function's output bit for bit.
    fn serial_reference(
        x: &Matrix,
        config: &OptimizerConfig,
        rng: &mut StdRng,
    ) -> Result<EngineOutcome, OptimizeError> {
        let ctx = prepare(x, config, rng)?;
        let n = config.candidates;

        let mut cheap_history = Vec::with_capacity(n);
        let mut history = Vec::with_capacity(n);
        let (mut ica_fits, mut ica_applied) = (0, 0);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            let (cand, y) = regenerate(&ctx, config, i);
            let cheap_rho = cheap_score(&ctx, &y);
            let (rho, fit) = ica_tighten(&ctx, &cand, &y, pca_bound(&ctx, &y, cheap_rho));
            cheap_history.push(cheap_rho);
            history.push(rho);
            ica_fits += usize::from(fit.is_some());
            ica_applied += usize::from(fit == Some(true));
            if best.is_none_or(|(_, b)| rho > b) {
                best = Some((i, rho));
            }
        }
        let (winner, privacy_guarantee) = best.expect("candidates > 0");
        let (perturbation, _) = regenerate(&ctx, config, winner);

        Ok(EngineOutcome {
            result: OptimizedPerturbation {
                perturbation,
                privacy_guarantee,
                history,
            },
            cheap_history,
            stats: EngineStats {
                candidates: n,
                survivors: n,
                ica_fits,
                ica_applied,
                threads: 1,
                ica: ctx.ica.is_some(),
                ..EngineStats::default()
            },
        })
    }

    /// Skewed, non-Gaussian data: every attack in the suite applies.
    fn skewed_data(d: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(d, n, |r, _| {
            let u: f64 = rng.random_range(0.0001..1.0);
            if r % 2 == 0 {
                (-u.ln()) * 0.2 + 0.1 * r as f64
            } else {
                u * u + 0.05 * r as f64
            }
        })
    }

    fn config(candidates: usize, use_ica: bool, staged: bool) -> OptimizerConfig {
        OptimizerConfig {
            candidates,
            noise_sigma: 0.05,
            known_points: 4,
            eval_sample: 96,
            use_ica,
            staged: StagedBudget {
                enabled: staged,
                survivor_fraction: 0.25,
                min_survivors: 2,
            },
            threads: None,
        }
    }

    #[test]
    fn parallel_matches_serial_reference_bitwise() {
        let x = skewed_data(4, 220, 1);
        for candidates in [1usize, 3, 9] {
            for threads in [1usize, 2, 4] {
                let cfg = OptimizerConfig {
                    threads: Some(threads),
                    ..config(candidates, false, false)
                };
                let serial = serial_reference(&x, &cfg, &mut StdRng::seed_from_u64(7)).unwrap();
                let par = run(&x, &cfg, &mut StdRng::seed_from_u64(7)).unwrap();
                assert_eq!(
                    par.result.privacy_guarantee.to_bits(),
                    serial.result.privacy_guarantee.to_bits(),
                    "candidates={candidates} threads={threads}"
                );
                assert_eq!(par.result.history, serial.result.history);
                assert_eq!(par.cheap_history, serial.cheap_history);
                assert_eq!(par.result.perturbation, serial.result.perturbation);
                assert_eq!(par.stats.ica_fits, serial.stats.ica_fits);
                assert_eq!(par.stats.ica_applied, serial.stats.ica_applied);
            }
        }
    }

    #[test]
    fn staged_never_beats_unstaged_and_never_undershoots_cheap_winner() {
        let x = skewed_data(3, 260, 2);
        let unstaged = run(&x, &config(12, false, false), &mut StdRng::seed_from_u64(3)).unwrap();
        let staged = run(&x, &config(12, false, true), &mut StdRng::seed_from_u64(3)).unwrap();
        // Same run seed → same candidates; the staged maximum ranges over
        // a subset of the unstaged one.
        assert!(staged.result.privacy_guarantee <= unstaged.result.privacy_guarantee + 1e-15);

        // Pruning to a single survivor selects exactly the cheap-stage
        // winner; the default schedule keeps that candidate too, so its
        // selection can only be better.
        let cheap_winner_only = OptimizerConfig {
            staged: StagedBudget {
                enabled: true,
                survivor_fraction: 0.0,
                min_survivors: 1,
            },
            ..config(12, false, true)
        };
        let floor = run(&x, &cheap_winner_only, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(floor.stats.survivors, 1);
        assert!(staged.result.privacy_guarantee >= floor.result.privacy_guarantee - 1e-15);
    }

    #[test]
    fn stats_reflect_the_schedule() {
        let x = skewed_data(3, 200, 4);
        let out = run(&x, &config(16, false, true), &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(out.stats.candidates, 16);
        assert_eq!(out.stats.survivors, 4);
        assert_eq!(out.stats.pruned, 12);
        assert!(out.stats.staged);
        assert!(!out.stats.ica);
        assert!(out.stats.threads >= 1);
        assert!(out.stats.total_s >= 0.0);
        assert_eq!(out.result.history.len(), 16);
        assert_eq!(out.cheap_history.len(), 16);
        // Survivors' history entries are tightened, never loosened.
        for (h, c) in out.result.history.iter().zip(&out.cheap_history) {
            assert!(h <= &(c + 1e-15));
        }
    }

    #[test]
    fn ica_stage_applies_on_non_gaussian_data() {
        // Independent uniform-ish attributes: FastICA's canonical case.
        let mut rng = StdRng::seed_from_u64(6);
        let x = Matrix::from_fn(2, 400, |_, _| rng.random_range(0.0..1.0));
        let out = run(&x, &config(6, true, true), &mut StdRng::seed_from_u64(8)).unwrap();
        assert!(out.stats.ica);
        assert!(
            out.stats.ica_applied > 0,
            "ICA should reconstruct at least one survivor: {:?}",
            out.stats
        );
        // And the serial reference agrees bit-for-bit with pruning off.
        let cfg = config(6, true, false);
        let a = serial_reference(&x, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = run(&x, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(
            a.result.privacy_guarantee.to_bits(),
            b.result.privacy_guarantee.to_bits()
        );
        assert_eq!(a.result.history, b.result.history);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let x = skewed_data(2, 50, 10);
        assert_eq!(
            run(&x, &config(0, false, true), &mut StdRng::seed_from_u64(1)).unwrap_err(),
            OptimizeError::NoCandidates
        );
        let empty = Matrix::zeros(3, 0);
        assert!(matches!(
            run(
                &empty,
                &config(4, false, true),
                &mut StdRng::seed_from_u64(1)
            )
            .unwrap_err(),
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

    /// Non-Gaussian data with mixed skew/kurtosis so every attack in the
    /// suite (naive, distance, known-sample, PCA, ICA) has something to
    /// bite.
    fn random_dataset(seed: u64, dim: usize, records: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(dim, records, |r, _| {
            let u: f64 = rng.random_range(0.0001..1.0);
            match r % 3 {
                0 => (-u.ln()) * 0.3,
                1 => u * u + 0.1 * r as f64,
                _ => u + 0.05 * r as f64,
            }
        })
    }

    fn base_config(candidates: usize, use_ica: bool) -> OptimizerConfig {
        OptimizerConfig {
            candidates,
            noise_sigma: 0.05,
            known_points: 4,
            eval_sample: 80,
            use_ica,
            staged: StagedBudget {
                enabled: false,
                ..StagedBudget::default()
            },
            threads: None,
        }
    }

    /// Bitwise comparison of two engine outcomes (timings excluded — they
    /// measure the schedule, not the result).
    fn assert_bit_identical(parallel: &EngineOutcome, serial: &EngineOutcome, label: &str) {
        assert_eq!(
            parallel.result.privacy_guarantee.to_bits(),
            serial.result.privacy_guarantee.to_bits(),
            "guarantee diverged: {label}"
        );
        assert_eq!(
            parallel.result.perturbation, serial.result.perturbation,
            "winning perturbation diverged: {label}"
        );
        assert_eq!(parallel.result.history.len(), serial.result.history.len());
        for (i, (p, s)) in parallel
            .result
            .history
            .iter()
            .zip(&serial.result.history)
            .enumerate()
        {
            assert_eq!(p.to_bits(), s.to_bits(), "history[{i}] diverged: {label}");
        }
        for (i, (p, s)) in parallel
            .cheap_history
            .iter()
            .zip(&serial.cheap_history)
            .enumerate()
        {
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "cheap_history[{i}] diverged: {label}"
            );
        }
        assert_eq!(parallel.stats.ica_fits, serial.stats.ica_fits);
        assert_eq!(parallel.stats.ica_applied, serial.stats.ica_applied);
    }

    fn check_equivalence(seed: u64, dim: usize, records: usize, candidates: usize, use_ica: bool) {
        let x = random_dataset(seed, dim, records);
        let cfg = base_config(candidates, use_ica);
        let serial = serial_reference(&x, &cfg, &mut StdRng::seed_from_u64(seed ^ 0x5EED))
            .expect("serial reference");
        for threads in [1usize, 2, 4] {
            let cfg = OptimizerConfig {
                threads: Some(threads),
                ..cfg.clone()
            };
            let parallel =
                run(&x, &cfg, &mut StdRng::seed_from_u64(seed ^ 0x5EED)).expect("parallel engine");
            assert_eq!(parallel.stats.threads, threads);
            assert_eq!(parallel.stats.pruned, 0, "pruning is disabled");
            assert_bit_identical(
                &parallel,
                &serial,
                &format!("seed={seed:#x} threads={threads} candidates={candidates} ica={use_ica}"),
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random datasets × worker counts {1, 2, 4} × candidate counts
        /// including 1: parallel engine ≡ serial loop, bit for bit.
        #[test]
        fn engine_matches_serial_loop(
            seed in any::<u64>(),
            dim in 2usize..5,
            records in 20usize..160,
            candidate_pick in 0usize..4,
        ) {
            // Candidate counts including the degenerate single-candidate run.
            let candidates = [1usize, 2, 7, 16][candidate_pick];
            check_equivalence(seed, dim, records, candidates, false);
        }
    }

    /// The ICA-enabled expensive stage obeys the same contract (fewer
    /// cases — FastICA per candidate is the expensive path the engine
    /// exists to tame).
    #[test]
    fn engine_matches_serial_loop_with_ica() {
        check_equivalence(0x1CA_5E55, 3, 120, 6, true);
        check_equivalence(0x1CA_0001, 2, 90, 1, true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Pass 2's stop rule selects what tightening every entry and
        /// taking the first maximum selects, on arbitrary bounds with
        /// `tight ≤ bound`, and tightens no entry twice.
        #[test]
        fn bounded_selection_matches_tightening_everything(
            seed in any::<u64>(),
            len in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few levels force ties among bounds, among tightened scores
            // and between the two; ±0 and +∞ ("no attack applied") too.
            let mut level = || match rng.random_range(0u32..7) {
                0 => f64::INFINITY,
                1 => -0.0,
                2 => 0.0,
                k => f64::from(k),
            };
            let bounds: Vec<f64> = (0..len).map(|_| level()).collect();
            let tight: Vec<f64> = bounds.iter().map(|&b| b.min(level())).collect();
            let mut first_max = 0;
            for j in 1..len {
                if tight[j] > tight[first_max] {
                    first_max = j;
                }
            }
            let mut visits = vec![0u32; len];
            let got = select_with_bounds(&bounds, |j| {
                visits[j] += 1;
                tight[j]
            });
            prop_assert_eq!(got, first_max);
            prop_assert!(visits.iter().all(|&v| v <= 1), "{visits:?}");
            prop_assert_eq!(visits[got], 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The staged schedule with nothing pruned against the unstaged
        /// full suite, on data FastICA separates: the same winner and
        /// guarantee bits at every worker count. A survivor pass 2 fitted
        /// carries its full score; one it skipped carries its bound, never
        /// below the full score. Pass 2 fits a prefix of the bound order.
        #[test]
        fn staged_bound_selects_what_the_full_suite_selects(
            seed in any::<u64>(),
            dim in 2usize..6,
            skewed in any::<bool>(),
            candidates in 2usize..9,
        ) {
            let x = if skewed {
                random_dataset(seed, dim, 120)
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                Matrix::from_fn(dim, 120, |_, _| rng.random_range(0.0..1.0))
            };
            let full_cfg = base_config(candidates, true);
            let reference = run(&x, &full_cfg, &mut StdRng::seed_from_u64(seed)).unwrap();

            // Pass 1's bounds, recomputed here to name the visit order.
            let ctx = prepare(&x, &full_cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            prop_assert!(ctx.ica.is_some());
            let bounds: Vec<f64> = (0..candidates)
                .map(|i| {
                    let (_cand, y) = regenerate(&ctx, &full_cfg, i);
                    pca_bound(&ctx, &y, reference.cheap_history[i])
                })
                .collect();
            let mut order: Vec<usize> = (0..candidates).collect();
            order.sort_by(|&a, &b| bounds[b].partial_cmp(&bounds[a]).unwrap().then(a.cmp(&b)));

            let mut first: Option<EngineOutcome> = None;
            for threads in [1usize, 2, 4] {
                let cfg = OptimizerConfig {
                    staged: StagedBudget {
                        enabled: true,
                        survivor_fraction: 1.0,
                        min_survivors: candidates,
                    },
                    threads: Some(threads),
                    ..full_cfg.clone()
                };
                let out = run(&x, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
                let stats = out.stats;
                prop_assert_eq!(stats.survivors, candidates);
                prop_assert!((1..=candidates).contains(&stats.ica_fits), "{stats:?}");
                prop_assert!(stats.ica_applied <= stats.ica_fits, "{stats:?}");
                prop_assert_eq!(
                    out.result.privacy_guarantee.to_bits(),
                    reference.result.privacy_guarantee.to_bits()
                );
                prop_assert_eq!(&out.result.perturbation, &reference.result.perturbation);
                for (rank, &i) in order.iter().enumerate() {
                    let (got, full) = (out.result.history[i], reference.result.history[i]);
                    if rank < stats.ica_fits {
                        prop_assert_eq!(got.to_bits(), full.to_bits());
                    } else {
                        prop_assert_eq!(got.to_bits(), bounds[i].to_bits());
                        prop_assert!(got >= full, "history[{i}] {got} below {full}");
                    }
                }
                match &first {
                    None => first = Some(out),
                    Some(f) => {
                        prop_assert_eq!(&f.result.history, &out.result.history);
                        prop_assert_eq!(f.stats.ica_fits, stats.ica_fits);
                        prop_assert_eq!(f.stats.ica_applied, stats.ica_applied);
                    }
                }
            }
        }
    }
}
