//! The optimizer engine's staged contract and the cross-commit oracle.
//! With pruning enabled, the selection never beats the unstaged optimum
//! and never falls below the cheap-stage winner's full-suite score. (The
//! unstaged contract — parallel engine ≡ plain serial loop, bit for bit,
//! at any worker count — is pinned next to the loop it compares against,
//! in `sap-privacy`'s engine unit tests.)
//!
//! The golden-digest tests are the cross-commit oracle: in-build
//! comparisons cannot see a change to a kernel both paths share, so the
//! optimizer's results and the attack kernels' outputs on a fixed grid
//! are hashed bit for bit against committed constants.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::ica::fastica::{FastIca, FastIcaConfig};
use sap_repro::ica::Whitener;
use sap_repro::linalg::eigen::SymmetricEigen;
use sap_repro::linalg::Matrix;
use sap_repro::privacy::engine::run;
use sap_repro::privacy::optimize::{evaluate_perturbation, OptimizerConfig, StagedBudget};

/// Non-Gaussian data with mixed skew/kurtosis so every attack in the
/// suite (naive, distance, known-sample, PCA, ICA) has something to bite.
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

/// Staged selection bounds: never above the unstaged optimum (it ranges
/// over a subset), never below the cheap-stage winner's full-suite score
/// (the cheap winner always survives).
#[test]
fn staged_selection_is_bracketed() {
    for seed in [1u64, 2, 3, 4] {
        let x = random_dataset(seed, 3, 140);
        let unstaged_cfg = base_config(12, false);
        let staged_cfg = OptimizerConfig {
            staged: StagedBudget {
                enabled: true,
                survivor_fraction: 0.25,
                min_survivors: 2,
            },
            ..unstaged_cfg.clone()
        };
        let cheap_winner_cfg = OptimizerConfig {
            staged: StagedBudget {
                enabled: true,
                survivor_fraction: 0.0,
                min_survivors: 1,
            },
            ..unstaged_cfg.clone()
        };
        let rng = || StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let unstaged = run(&x, &unstaged_cfg, &mut rng()).unwrap();
        let staged = run(&x, &staged_cfg, &mut rng()).unwrap();
        let floor = run(&x, &cheap_winner_cfg, &mut rng()).unwrap();
        assert!(staged.stats.pruned > 0);
        assert_eq!(floor.stats.survivors, 1);
        assert!(
            staged.result.privacy_guarantee <= unstaged.result.privacy_guarantee + 1e-15,
            "seed {seed}: staged beat the unstaged optimum"
        );
        assert!(
            staged.result.privacy_guarantee >= floor.result.privacy_guarantee - 1e-15,
            "seed {seed}: staged fell below the cheap-stage winner"
        );
    }
}

/// FNV-1a over 64-bit words: a stable, dependency-free digest of result
/// bits. Lengths are hashed before slices so shape changes show.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.f64s(m.as_slice());
    }
}

/// Compares computed `(label, digest)` pairs with the committed table and
/// prints the whole computed table on any mismatch.
fn assert_golden(got: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n"))
        .collect();
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let want: Vec<&str> = golden.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, want, "golden grid changed; computed:\n{table}");
    for ((label, d), (_, g)) in got.iter().zip(golden) {
        assert_eq!(
            d, g,
            "digest of {label} changed: results are no longer bit-identical; computed:\n{table}"
        );
    }
}

/// Engine outcome and satisfaction score on a fixed grid, recorded before
/// the attack kernels were last rewritten. Worker count comes from
/// `SAP_LINALG_THREADS`, so the same constants must hold at any setting.
const GOLDEN_ENGINE: &[(&str, u64)] = &[
    ("d=4 ica=false", 0x943351d9f70969ae),
    ("d=4 ica=true", 0xd676be5ca8fbe293),
    ("d=10 ica=false", 0x81fe0646ae767d47),
    ("d=10 ica=true", 0x81fe0646ae767d47),
    ("d=16 ica=false", 0xf70564b1c553f04b),
    ("d=16 ica=true", 0xf70564b1c553f04b),
];

#[test]
fn engine_golden_digests() {
    let mut got = Vec::new();
    for dim in [4usize, 10, 16] {
        for use_ica in [false, true] {
            let x = random_dataset(0x601D ^ dim as u64, dim, 160);
            let cfg = OptimizerConfig {
                candidates: 8,
                noise_sigma: 0.05,
                known_points: 4,
                eval_sample: 96,
                use_ica,
                staged: StagedBudget::default(),
                threads: None,
            };
            let out = run(&x, &cfg, &mut StdRng::seed_from_u64(dim as u64)).unwrap();
            let winner = &out.result.perturbation;
            let satisfaction =
                evaluate_perturbation(&x, winner, &cfg, &mut StdRng::seed_from_u64(99));

            let mut h = Digest::new();
            h.word(out.result.privacy_guarantee.to_bits());
            h.f64s(&out.result.history);
            h.f64s(&out.cheap_history);
            h.word(out.stats.survivors as u64);
            h.word(out.stats.ica_applied as u64);
            h.matrix(winner.base().rotation());
            h.f64s(winner.base().translation());
            h.word(winner.noise().sigma.to_bits());
            h.word(satisfaction.to_bits());
            got.push((format!("d={dim} ica={use_ica}"), h.0));
        }
    }
    assert_golden(&got, GOLDEN_ENGINE);
}

/// `SymmetricEigen` eigenpairs and `FastIca::fit_with_whitener` outcomes
/// (iterations and unmixing bits, or the error) on fixed inputs.
const GOLDEN_KERNELS: &[(&str, u64)] = &[
    ("eigen n=3", 0xba706f41e408b8cf),
    ("eigen n=10", 0x94b59f8d70ba0ea7),
    ("eigen n=16", 0xf6c1070e10ca49af),
    ("fastica d=3 uniform", 0x3e95101154d79bf0),
    ("fastica d=4 gaussian", 0xa2b23a015f6f66d6),
    ("fastica d=10 skewed tol=1e-2", 0xe00c70252fbdb7cb),
    ("fastica d=16 skewed tol=1e-3", 0xd1306f0893ec04a2),
];

#[test]
fn kernel_golden_digests() {
    let mut got = Vec::new();
    for n in [3usize, 10, 16] {
        let data = random_dataset(0xE16 ^ n as u64, n, 3 * n);
        let cov = data.column_covariance();
        let eig = SymmetricEigen::new(&cov).unwrap();
        let mut h = Digest::new();
        h.f64s(eig.eigenvalues());
        h.matrix(eig.eigenvectors());
        got.push((format!("eigen n={n}"), h.0));
    }

    let mut rng = StdRng::seed_from_u64(0x1CA);
    let uniform = Matrix::from_fn(3, 300, |_, _| rng.random_range(-1.0..1.0));
    let gaussian = sap_repro::linalg::randn_matrix(4, 200, &mut rng);
    // The optimizer's own fits almost never converge at `max_iter` 100,
    // so the skewed cases use a looser `tol` that stops mid-run: their
    // iteration count and unmixing bits then pin every step before it.
    let cases = [
        ("fastica d=3 uniform", uniform, 1e-6),
        ("fastica d=4 gaussian", gaussian, 1e-6),
        (
            "fastica d=10 skewed tol=1e-2",
            random_dataset(0xFA57, 10, 96),
            1e-2,
        ),
        (
            "fastica d=16 skewed tol=1e-3",
            random_dataset(0xFA58, 16, 96),
            1e-3,
        ),
    ];
    for (label, x, tol) in cases {
        let cfg = FastIcaConfig {
            max_iter: 100,
            tol,
            ..FastIcaConfig::default()
        };
        let whitener = Whitener::fit(&x, cfg.whiten_eps).unwrap();
        let fit = FastIca::fit_with_whitener(whitener, &x, &cfg, &mut StdRng::seed_from_u64(7));
        let mut h = Digest::new();
        match fit {
            Ok(ica) => {
                h.word(ica.iterations() as u64);
                h.matrix(ica.unmixing());
            }
            Err(e) => {
                for b in format!("{e:?}").bytes() {
                    h.word(u64::from(b));
                }
            }
        }
        got.push((label.to_string(), h.0));
    }
    assert_golden(&got, GOLDEN_KERNELS);
}
