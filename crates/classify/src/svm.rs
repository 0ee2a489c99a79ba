//! Soft-margin support vector machine trained with SMO.
//!
//! Implements the simplified Sequential Minimal Optimization algorithm
//! (Platt 1998; the simplified variant of the Stanford CS229 notes): pairs
//! of Lagrange multipliers are optimized analytically until no multiplier
//! violates the KKT conditions. Multiclass problems are reduced by
//! one-vs-one voting, which is what LibSVM — the de-facto tool of the
//! paper's era — does.
//!
//! The RBF kernel depends only on pairwise distances, so the trained model's
//! accuracy is invariant under the rotation + translation part of geometric
//! perturbation; only the additive noise component degrades it. Figure 6 of
//! the brief measures exactly that residual degradation.

use crate::Model;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_datasets::Dataset;
use sap_linalg::vecops;

/// SVM kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Inner-product kernel `K(x, y) = ⟨x, y⟩`.
    Linear,
    /// Gaussian radial basis function `K(x, y) = exp(−γ·‖x − y‖²)`.
    Rbf {
        /// Bandwidth γ.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => vecops::dot(a, b),
            Kernel::Rbf { gamma } => (-gamma * vecops::dist2_sq(a, b)).exp(),
        }
    }

    /// The conventional default RBF bandwidth `γ = 1/d`.
    pub fn rbf_default(dim: usize) -> Kernel {
        Kernel::Rbf {
            gamma: 1.0 / dim.max(1) as f64,
        }
    }
}

/// Training configuration for [`SvmClassifier`].
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Soft-margin penalty `C`.
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of consecutive no-change passes before declaring convergence.
    pub max_passes: usize,
    /// Hard cap on total passes (guards pathological data).
    pub max_iter: usize,
    /// Seed for SMO's random partner selection.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.5 },
            tol: 1e-3,
            max_passes: 3,
            max_iter: 200,
            seed: 0x5eed,
        }
    }
}

impl SvmConfig {
    /// Default configuration with the RBF bandwidth set to `1/dim`.
    pub fn rbf_for_dim(dim: usize) -> Self {
        SvmConfig {
            kernel: Kernel::rbf_default(dim),
            ..SvmConfig::default()
        }
    }
}

/// One binary SVM of the one-vs-one ensemble.
#[derive(Debug, Clone)]
struct BinarySvm {
    /// The two class labels this machine separates: decision > 0 ⇒ `pos`.
    pos: usize,
    neg: usize,
    /// Support vectors with their `αᵢ·yᵢ` coefficients.
    support: Vec<(Vec<f64>, f64)>,
    bias: f64,
    kernel: Kernel,
}

impl BinarySvm {
    fn decision(&self, x: &[f64]) -> f64 {
        self.support
            .iter()
            .map(|(sv, coef)| coef * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.bias
    }

    fn vote(&self, x: &[f64]) -> usize {
        if self.decision(x) > 0.0 {
            self.pos
        } else {
            self.neg
        }
    }
}

/// A trained (possibly multiclass) SVM.
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    machines: Vec<BinarySvm>,
    num_classes: usize,
    /// Majority class, used as the degenerate fallback when training data
    /// contains a single class.
    fallback: usize,
}

impl SvmClassifier {
    /// Trains a one-vs-one SVM ensemble on `data`.
    ///
    /// Class pairs with no representatives are skipped; if the training data
    /// holds a single class, the classifier degenerates to predicting it.
    ///
    /// # Panics
    ///
    /// Panics if `config.c <= 0`.
    pub fn fit(data: &Dataset, config: &SvmConfig) -> Self {
        assert!(config.c > 0.0, "C must be positive");
        let counts = data.class_counts();
        let fallback =
            vecops::argmax(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>()).unwrap_or(0);
        let mut machines = Vec::new();
        for a in 0..data.num_classes() {
            for b in a + 1..data.num_classes() {
                if counts[a] == 0 || counts[b] == 0 {
                    continue;
                }
                let idx: Vec<usize> = (0..data.len())
                    .filter(|&i| data.label(i) == a || data.label(i) == b)
                    .collect();
                let records: Vec<&[f64]> = idx.iter().map(|&i| data.record(i)).collect();
                let y: Vec<f64> = idx
                    .iter()
                    .map(|&i| if data.label(i) == a { 1.0 } else { -1.0 })
                    .collect();
                machines.push(train_binary(a, b, &records, &y, config));
            }
        }
        SvmClassifier {
            machines,
            num_classes: data.num_classes(),
            fallback,
        }
    }
}

impl Model for SvmClassifier {
    fn predict(&self, record: &[f64]) -> usize {
        if self.machines.is_empty() {
            return self.fallback;
        }
        let mut votes = vec![0usize; self.num_classes];
        for m in &self.machines {
            votes[m.vote(record)] += 1;
        }
        vecops::argmax(&votes.iter().map(|&v| v as f64).collect::<Vec<_>>())
            .unwrap_or(self.fallback)
    }
}

/// Simplified SMO on a binary problem with labels `y ∈ {−1, +1}`.
fn train_binary(
    pos: usize,
    neg: usize,
    records: &[&[f64]],
    y: &[f64],
    config: &SvmConfig,
) -> BinarySvm {
    let n = records.len();
    debug_assert_eq!(n, y.len());
    let mut rng = StdRng::seed_from_u64(config.seed ^ ((pos as u64) << 32) ^ neg as u64);

    // Precompute the kernel matrix; pair subsets are small enough (≤ ~2000)
    // that the O(n²) memory is the right trade against re-evaluating RBF
    // exponentials inside the SMO inner loop.
    let mut k = vec![0.0; n * n];
    for i in 0..n {
        for j in i..n {
            let v = config.kernel.eval(records[i], records[j]);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    let kij = |i: usize, j: usize| k[i * n + j];

    let mut alpha = vec![0.0_f64; n];
    let mut b = 0.0_f64;
    let f = |alpha: &[f64], b: f64, i: usize| -> f64 {
        let mut s = b;
        for t in 0..n {
            if alpha[t] != 0.0 {
                s += alpha[t] * y[t] * kij(t, i);
            }
        }
        s
    };

    let mut passes = 0;
    let mut iter = 0;
    while passes < config.max_passes && iter < config.max_iter {
        iter += 1;
        let mut changed = 0;
        for i in 0..n {
            let ei = f(&alpha, b, i) - y[i];
            let violates = (y[i] * ei < -config.tol && alpha[i] < config.c)
                || (y[i] * ei > config.tol && alpha[i] > 0.0);
            if !violates {
                continue;
            }
            // Random partner j ≠ i.
            let mut j = rng.random_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let ej = f(&alpha, b, j) - y[j];

            let (ai_old, aj_old) = (alpha[i], alpha[j]);
            let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                (
                    (aj_old - ai_old).max(0.0),
                    (config.c + aj_old - ai_old).min(config.c),
                )
            } else {
                (
                    (ai_old + aj_old - config.c).max(0.0),
                    (ai_old + aj_old).min(config.c),
                )
            };
            if (hi - lo).abs() < 1e-12 {
                continue;
            }
            let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
            if eta >= 0.0 {
                continue;
            }
            let mut aj_new = aj_old - y[j] * (ei - ej) / eta;
            aj_new = aj_new.clamp(lo, hi);
            if (aj_new - aj_old).abs() < 1e-5 {
                continue;
            }
            let ai_new = ai_old + y[i] * y[j] * (aj_old - aj_new);
            alpha[i] = ai_new;
            alpha[j] = aj_new;

            let b1 = b
                - ei
                - y[i] * (ai_new - ai_old) * kij(i, i)
                - y[j] * (aj_new - aj_old) * kij(i, j);
            let b2 = b
                - ej
                - y[i] * (ai_new - ai_old) * kij(i, j)
                - y[j] * (aj_new - aj_old) * kij(j, j);
            b = if ai_new > 0.0 && ai_new < config.c {
                b1
            } else if aj_new > 0.0 && aj_new < config.c {
                b2
            } else {
                (b1 + b2) / 2.0
            };
            changed += 1;
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }

    let support: Vec<(Vec<f64>, f64)> = (0..n)
        .filter(|&i| alpha[i] > 1e-8)
        .map(|i| (records[i].to_vec(), alpha[i] * y[i]))
        .collect();
    BinarySvm {
        pos,
        neg,
        support,
        bias: b,
        kernel: config.kernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_datasets::registry::UciDataset;
    use sap_datasets::split::stratified_split;

    fn linearly_separable(n: usize) -> Dataset {
        // Class 0 around (0,0), class 1 around (3,3).
        let mut records = Vec::new();
        let mut labels = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { 0.0 } else { 3.0 };
            records.push(vec![
                cx + 0.5 * sap_linalg::randn(&mut rng),
                cx + 0.5 * sap_linalg::randn(&mut rng),
            ]);
            labels.push(class);
        }
        Dataset::new(records, labels)
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let rbf = Kernel::Rbf { gamma: 1.0 };
        assert!((rbf.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
        assert!((rbf.eval(&[0.0], &[1.0]) - (-1.0_f64).exp()).abs() < 1e-12);
        assert_eq!(Kernel::rbf_default(4), Kernel::Rbf { gamma: 0.25 });
    }

    #[test]
    fn separable_binary_problem_solved() {
        let data = linearly_separable(120);
        let svm = SvmClassifier::fit(&data, &SvmConfig::default());
        let acc = svm.accuracy(&data);
        assert!(acc > 0.95, "separable accuracy {acc}");
        assert_eq!(svm.machines.len(), 1);
        assert!(svm.machines[0].support.len() >= 2);
    }

    #[test]
    fn linear_kernel_on_separable() {
        let data = linearly_separable(100);
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            ..SvmConfig::default()
        };
        let svm = SvmClassifier::fit(&data, &cfg);
        assert!(svm.accuracy(&data) > 0.95);
    }

    #[test]
    fn rbf_solves_circle_inside_circle() {
        // Radially separated classes that no linear machine can split.
        let mut records = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let t = i as f64 / 60.0 * std::f64::consts::TAU;
            records.push(vec![0.3 * t.cos(), 0.3 * t.sin()]);
            labels.push(0);
            records.push(vec![2.0 * t.cos(), 2.0 * t.sin()]);
            labels.push(1);
        }
        let data = Dataset::new(records, labels);
        let cfg = SvmConfig {
            kernel: Kernel::Rbf { gamma: 1.0 },
            c: 10.0,
            ..SvmConfig::default()
        };
        let svm = SvmClassifier::fit(&data, &cfg);
        let acc = svm.accuracy(&data);
        assert!(acc > 0.95, "ring accuracy {acc}");

        let linear = SvmClassifier::fit(
            &data,
            &SvmConfig {
                kernel: Kernel::Linear,
                ..SvmConfig::default()
            },
        );
        assert!(
            linear.accuracy(&data) < 0.75,
            "a linear machine should fail on rings"
        );
    }

    #[test]
    fn multiclass_one_vs_one() {
        let data = UciDataset::Iris.generate(1);
        let tt = stratified_split(&data, 0.7, 3);
        let svm = SvmClassifier::fit(&tt.train, &SvmConfig::rbf_for_dim(data.dim()));
        assert_eq!(svm.machines.len(), 3); // 3 choose 2
        let acc = svm.accuracy(&tt.test);
        assert!(acc > 0.85, "iris-like accuracy {acc}");
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let data = Dataset::with_num_classes(vec![vec![1.0], vec![2.0]], vec![1, 1], 3);
        let svm = SvmClassifier::fit(&data, &SvmConfig::default());
        assert_eq!(svm.machines.len(), 0);
        assert_eq!(svm.predict(&[5.0]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = linearly_separable(80);
        let a = SvmClassifier::fit(&data, &SvmConfig::default());
        let b = SvmClassifier::fit(&data, &SvmConfig::default());
        let preds_a = a.predict_dataset(&data);
        let preds_b = b.predict_dataset(&data);
        assert_eq!(preds_a, preds_b);
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn non_positive_c_panics() {
        let data = linearly_separable(10);
        let _ = SvmClassifier::fit(
            &data,
            &SvmConfig {
                c: 0.0,
                ..SvmConfig::default()
            },
        );
    }
}
