//! The correctness gate, run off the clock: the served outcome of the
//! first session must be bit-identical to a solo run of the same inputs
//! (the repo's determinism spine), and mining on the unified data must
//! keep the accuracy mining on the raw data has (the paper's utility
//! claim).

use crate::inputs::Inputs;
use sap_core::mining::{ClassificationClient, MiningService, ModelKind};
use sap_core::session::{run_session, SapConfig, SapOutcome};
use sap_datasets::Dataset;
use std::time::Instant;

/// Neighbourhood size of the KNN model the utility check trains.
const KNN_K: usize = 5;

/// Sessions smaller than this carry too few records for an accuracy
/// estimate to mean anything; the utility gate skips them.
const MIN_UTILITY_ROWS: usize = 600;

/// Most accuracy (absolute) that mining on unified data may lose or
/// gain against mining on the raw data. The held-out set has 200
/// records, so each accuracy is good to about ±0.03.
const MAX_ACCURACY_DELTA: f64 = 0.10;

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.len() == b.len()
        && a.labels() == b.labels()
        && a.records()
            .iter()
            .zip(b.records())
            .all(|(x, y)| same_bits(x, y))
}

/// Runs the session solo on the in-memory hub and compares; the error
/// says what differed.
pub fn matches_solo(
    inputs: &Inputs,
    config: &SapConfig,
    served: &SapOutcome,
) -> Result<(), String> {
    let solo = run_session(inputs.locals.clone(), config).map_err(|e| format!("solo run: {e}"))?;
    if !same_dataset(&solo.unified, &served.unified) {
        return Err("served unified dataset differs from the solo run".into());
    }
    let (a, b) = (&solo.target, &served.target);
    if !same_bits(a.rotation().as_slice(), b.rotation().as_slice())
        || !same_bits(a.translation(), b.translation())
    {
        return Err("served target space differs from the solo run".into());
    }
    Ok(())
}

/// Mining utility of one session's outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Utility {
    /// KNN accuracy on the held-out records, trained on the providers'
    /// pooled raw data.
    pub accuracy_original: f64,
    /// Same records, submitted through a provider-side client to a
    /// model trained on the unified data.
    pub accuracy_unified: f64,
    pub train_s: f64,
    pub predict_s: f64,
    pub predicted_rows: usize,
}

impl Utility {
    pub fn delta(&self) -> f64 {
        self.accuracy_original - self.accuracy_unified
    }
}

pub fn utility(inputs: &Inputs, outcome: &SapOutcome) -> Utility {
    let kind = ModelKind::Knn(KNN_K);
    let pooled = Dataset::concat(&inputs.locals);
    let accuracy_original = MiningService::train(&pooled, &kind).accuracy_unified(&inputs.test);

    let t0 = Instant::now();
    let service = MiningService::train(&outcome.unified, &kind);
    let t1 = Instant::now();
    let client = ClassificationClient::new(outcome.target.clone());
    let accuracy_unified = client.accuracy(&service, &inputs.test);
    Utility {
        accuracy_original,
        accuracy_unified,
        train_s: (t1 - t0).as_secs_f64(),
        predict_s: t1.elapsed().as_secs_f64(),
        predicted_rows: inputs.test.len(),
    }
}

/// Whether `utility` passes the gate for a session of `rows` records.
pub fn utility_ok(utility: &Utility, rows: usize) -> Result<(), String> {
    if rows >= MIN_UTILITY_ROWS && utility.delta().abs() > MAX_ACCURACY_DELTA {
        return Err(format!(
            "KNN accuracy {:.3} on raw data but {:.3} on unified data",
            utility.accuracy_original, utility.accuracy_unified
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_comparison_tells_zero_signs_apart() {
        assert!(same_bits(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn utility_gate_skips_tiny_sessions() {
        let bad = Utility {
            accuracy_original: 0.9,
            accuracy_unified: 0.5,
            ..Utility::default()
        };
        assert!(utility_ok(&bad, MIN_UTILITY_ROWS).is_err());
        assert!(utility_ok(&bad, MIN_UTILITY_ROWS - 1).is_ok());
        let good = Utility {
            accuracy_original: 0.9,
            accuracy_unified: 0.86,
            ..Utility::default()
        };
        assert!(utility_ok(&good, 10_000).is_ok());
    }
}
