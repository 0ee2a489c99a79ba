//! Figure 4: the lower bound on the number of parties as a function of the
//! expected satisfaction level `s0`, for the three optimality rates the
//! paper measured (Diabetes 0.95, Shuttle 0.89, Votes 0.98).
//!
//! This is an analytic curve over the risk model (`sap_privacy::risk`); the
//! reconstruction of the bound is argued in docs/PRIVACY.md, "The
//! party-count bound".

use sap_privacy::risk::min_parties;

/// One curve of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Curve {
    /// Dataset the optimality rate came from.
    pub dataset: &'static str,
    /// Optimality rate `O`.
    pub opt_rate: f64,
    /// `(s0, k_min)` points; `k_min = None` means no finite k suffices.
    pub points: Vec<(f64, Option<usize>)>,
}

/// The paper's legend: dataset → measured optimality rate.
pub const OPT_RATES: [(&str, f64); 3] = [("Diabetes", 0.95), ("Shuttle", 0.89), ("Votes", 0.98)];

/// The paper's x-axis: `s0 ∈ {0.90, 0.91, …, 0.99}`.
pub fn s0_axis() -> Vec<f64> {
    (0..10).map(|i| 0.90 + 0.01 * i as f64).collect()
}

/// Computes all three curves.
pub fn run() -> Vec<Fig4Curve> {
    OPT_RATES
        .iter()
        .map(|&(dataset, opt_rate)| Fig4Curve {
            dataset,
            opt_rate,
            points: s0_axis()
                .into_iter()
                .map(|s0| (s0, min_parties(s0, opt_rate)))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_cover_axis() {
        let curves = run();
        assert_eq!(curves.len(), 3);
        for c in &curves {
            assert_eq!(c.points.len(), 10);
            assert!((c.points[0].0 - 0.90).abs() < 1e-12);
            assert!((c.points[9].0 - 0.99).abs() < 1e-12);
        }
    }

    #[test]
    fn monotone_increasing_in_s0() {
        for c in run() {
            let mut prev = 0usize;
            for &(_, k) in &c.points {
                let k = k.expect("finite for s0 <= 0.99, O <= 0.98");
                assert!(k >= prev, "k must grow with s0");
                prev = k;
            }
        }
    }

    #[test]
    fn votes_needs_most_parties() {
        // Higher opt rate -> more parties needed at the same s0.
        let curves = run();
        let by_name = |n: &str| {
            curves
                .iter()
                .find(|c| c.dataset == n)
                .unwrap()
                .points
                .last()
                .unwrap()
                .1
                .unwrap()
        };
        let votes = by_name("Votes");
        let diabetes = by_name("Diabetes");
        let shuttle = by_name("Shuttle");
        assert!(votes > diabetes && diabetes > shuttle);
        // Scale matches the paper's 0–40 axis.
        assert!(votes <= 40, "votes k_min {votes} within the paper's axis");
        assert!(shuttle >= 5);
    }
}
