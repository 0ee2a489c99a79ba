//! The optimizer's regression seeds and the cross-commit oracle. The
//! engine's contract — the serial full-suite loop's winner and guarantee
//! bits at any config — is pinned next to the loop it
//! compares against, in `sap-privacy`'s engine unit tests. Here the
//! engine must reach the recorded full-suite optimum on the stand-ins
//! where a cheaper selection rule once missed it.
//!
//! The golden-digest tests are the cross-commit oracle: in-build
//! comparisons cannot see a change to a kernel both paths share, so the
//! optimizer's results and the attack kernels' outputs on a fixed grid
//! are hashed bit for bit against committed constants.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::registry::UciDataset;
use sap_repro::ica::fastica::{FastIca, FastIcaConfig};
use sap_repro::ica::Whitener;
use sap_repro::linalg::eigen::SymmetricEigen;
use sap_repro::linalg::Matrix;
use sap_repro::privacy::engine::run;
use sap_repro::privacy::optimize::{evaluate_perturbation, random_baseline, OptimizerConfig};

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

/// Stand-ins where FastICA converges and binds, on which a survivor
/// heuristic (the best of the top quarter by cheap score) gave up the
/// optimum. Each entry is the dataset, its
/// generator seed `s`, and the bits of the serial full-suite optimum
/// with the optimizer RNG seeded at `77·s`.
const REGRESSION_SEEDS: &[(UciDataset, u64, u64)] = &[
    (UciDataset::Votes, 2, 0x3fe3_b0ff_c3a5_1587), // 0.6154 (heuristic: 0.1931)
    (UciDataset::Votes, 3, 0x3fe4_c49e_aa37_0740), // 0.6490 (heuristic: 0.5653)
    (UciDataset::Votes, 4, 0x3fe0_3fbe_a58b_959d), // 0.5078 (heuristic: 0.2535)
    (UciDataset::Ecoli, 3, 0x3fdc_0634_36ab_967c), // 0.4379 (heuristic: 0.3858)
];

/// The engine reaches the serial full-suite optimum on every seed, and on
/// Votes s = 2 beats the mean of 8 random perturbations, which the
/// heuristic's pick fell below (Figure 2's claim).
#[test]
fn optimizer_reaches_the_full_suite_optimum_on_regression_seeds() {
    let cfg = OptimizerConfig::default();
    for &(dataset, s, optimum) in REGRESSION_SEEDS {
        let (data, _) = min_max_normalize(&dataset.generate(s));
        let x = data.to_column_matrix();
        let out = run(&x, &cfg, &mut StdRng::seed_from_u64(77 * s)).unwrap();
        let rho = out.result.privacy_guarantee;
        assert_eq!(
            rho.to_bits(),
            optimum,
            "{} s={s}: {rho} is not the optimum {}",
            dataset.name(),
            f64::from_bits(optimum)
        );
        if (dataset, s) == (UciDataset::Votes, 2) {
            let mut rng = StdRng::seed_from_u64(77 * s + 1);
            let random_mean = (0..8)
                .map(|_| random_baseline(&x, &cfg, &mut rng).1)
                .sum::<f64>()
                / 8.0;
            assert!(
                rho > random_mean,
                "{rho} below the random mean {random_mean}"
            );
        }
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

/// Engine outcome (guarantee, evaluations per ladder level, ICA estimates,
/// winner) and satisfaction score on a fixed grid.
const GOLDEN_ENGINE: &[(&str, u64)] = &[
    ("d=4 ica=false", 0x7f3934c12de3e9d1),
    ("d=4 ica=true", 0x2c90610bb77d4502),
    ("d=10 ica=false", 0x8f2f2ba1ebf64063),
    ("d=10 ica=true", 0x8f2f2ba1ebf64063),
    ("d=16 ica=false", 0x8e31b58f557793e5),
    ("d=16 ica=true", 0x8e31b58f557793e5),
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
            };
            let out = run(&x, &cfg, &mut StdRng::seed_from_u64(dim as u64)).unwrap();
            let winner = &out.result.perturbation;
            let satisfaction =
                evaluate_perturbation(&x, winner, &cfg, &mut StdRng::seed_from_u64(99));

            let mut h = Digest::new();
            h.word(out.result.privacy_guarantee.to_bits());
            for count in out.stats.evaluations {
                h.word(count as u64);
            }
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
    ("fastica d=3 uniform", 0xb4a7d9443f22f903),
    ("fastica d=4 gaussian", 0xa2b23a015f6f66d6),
    ("fastica d=10 skewed tol=1e-2", 0x07e6cf2639bb05a3),
    ("fastica d=16 skewed tol=1e-3", 0x541dd0c6c50c5b4b),
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
