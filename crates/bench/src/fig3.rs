//! Figure 3: sample optimality rates `ρ̄ᵢ / b̂ᵢ` for Diabetes, Shuttle, and
//! Votes under Class and Uniform partitions, as the number of parties grows.
//!
//! Procedure (Section 4 of the brief): split each dataset into `k` randomly
//! sized sub-datasets, let every party run repeated local optimizations on
//! its own partition, estimate the bound `b̂ᵢ = max ρ^(i)` over the rounds,
//! and report the optimality rate. The figure plots one point per
//! `(dataset, partition scheme, k)` with `k ∈ 5..=10` and rates in
//! roughly `[0.8, 1.0]`.

use crate::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_datasets::normalize::min_max_normalize;
use sap_datasets::partition::{partition, PartitionScheme};
use sap_datasets::UciDataset;
use sap_linalg::vecops;
use sap_privacy::optimize::{estimate_bound, OptimizerConfig};

/// One point of the Figure 3 series.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Partition scheme label (`Uniform` / `Class`).
    pub scheme: &'static str,
    /// Number of parties `k`.
    pub parties: usize,
    /// Mean optimality rate across the `k` parties.
    pub optimality_rate: f64,
}

/// The paper's `k` range.
pub const PARTY_RANGE: std::ops::RangeInclusive<usize> = 5..=10;

/// Runs the Figure 3 experiment.
pub fn run(scale: Scale, seed: u64) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    let config = OptimizerConfig {
        candidates: scale.candidates(),
        eval_sample: 200,
        ..OptimizerConfig::default()
    };
    for dataset in UciDataset::FIGURE3 {
        let (data, _) = min_max_normalize(&dataset.generate(seed));
        for scheme in [PartitionScheme::ClassSkewed, PartitionScheme::Uniform] {
            for k in PARTY_RANGE {
                let parts = partition(&data, k, scheme, seed ^ (k as u64) << 8);
                let mut rng =
                    StdRng::seed_from_u64(seed ^ 0xF163 ^ (k as u64) ^ ((scheme as u64) << 32));
                let rates: Vec<f64> = parts
                    .iter()
                    .map(|p| {
                        let x = p.to_column_matrix();
                        estimate_bound(&x, &config, scale.rounds(), &mut rng)
                            .expect("valid optimizer config")
                            .optimality_rate()
                    })
                    .collect();
                rows.push(Fig3Row {
                    dataset: dataset.name(),
                    scheme: scheme.label(),
                    parties: k,
                    optimality_rate: vecops::mean(&rates),
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed single-cell version of the experiment (full Quick run is
    /// exercised by the `figures` binary).
    #[test]
    fn one_cell_produces_sane_rate() {
        let (data, _) = min_max_normalize(&UciDataset::Diabetes.generate(1));
        let parts = partition(&data, 5, PartitionScheme::Uniform, 2);
        let config = OptimizerConfig {
            candidates: 4,
            eval_sample: 100,
            use_ica: false,
            ..OptimizerConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let est = estimate_bound(&parts[0].to_column_matrix(), &config, 3, &mut rng)
            .expect("valid optimizer config");
        let rate = est.optimality_rate();
        assert!(
            (0.0..=1.0 + 1e-9).contains(&rate),
            "optimality rate {rate} out of range"
        );
        assert!(
            rate > 0.5,
            "mean/max of repeated optima should be high: {rate}"
        );
    }

    #[test]
    fn party_range_matches_paper() {
        assert_eq!(PARTY_RANGE, 5..=10);
    }
}
