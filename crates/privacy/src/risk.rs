//! The multiparty risk model: equations (1) and (2) of the brief and the
//! minimum-parties bound of Figure 4.
//!
//! Definitions (Section 2 of the brief):
//!
//! * **Source identifiability** `πᵢ = Pr(DPᵢ | Xᵢ)` — the probability that a
//!   received dataset is traced back to its provider. SAP's random exchange
//!   reduces it to `1/(k−1)`.
//! * **Satisfaction level** `sᵢ = ρᵢᴳ / ρᵢ` — how much of the locally
//!   optimized guarantee survives under the unified perturbation `G`.
//! * **Risk of privacy breach** (eq. 1):
//!   `Rᵢᴳ = πᵢ·(bᵢ − sᵢρᵢ)/bᵢ = πᵢ·(1 − sᵢρᵢ/bᵢ)`.
//! * **SAP overall risk** (eq. 2):
//!   `Rᵢ^SAP = max{ (bᵢ−ρᵢ)/bᵢ, (bᵢ−sᵢρᵢ)/bᵢ · 1/(k−1) }` — the first term
//!   is what the *other data providers* (who see the locally perturbed data
//!   with identifiability 1) can breach; the second what the *miner* (who
//!   sees unified data with identifiability `1/(k−1)`) can breach.

/// Source identifiability under SAP's random exchange: `πᵢ = 1/(k−1)`.
///
/// # Panics
///
/// Panics when `k < 2` (the exchange needs a non-coordinator receiver).
pub fn source_identifiability(k: usize) -> f64 {
    assert!(k >= 2, "SAP requires at least 2 providers");
    1.0 / (k - 1) as f64
}

/// Satisfaction level `s = ρᴳ / ρ_local`.
///
/// # Panics
///
/// Panics when `rho_local <= 0` or either input is negative/non-finite.
pub fn satisfaction(rho_global: f64, rho_local: f64) -> f64 {
    assert!(
        rho_global.is_finite() && rho_global >= 0.0,
        "rho_global must be non-negative"
    );
    assert!(
        rho_local.is_finite() && rho_local > 0.0,
        "rho_local must be positive"
    );
    rho_global / rho_local
}

/// Equation (1): risk of privacy breach
/// `R = π·(1 − s·ρ/b)`, clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics when `π ∉ [0, 1]`, `b <= 0`, or `s`/`ρ` are negative.
pub fn risk_of_breach(pi: f64, s: f64, rho: f64, b: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&pi),
        "identifiability must be in [0,1]"
    );
    assert!(b > 0.0, "bound must be positive");
    assert!(s >= 0.0 && rho >= 0.0, "s and rho must be non-negative");
    (pi * (1.0 - s * rho / b)).clamp(0.0, 1.0)
}

/// The local residual risk `(b − ρ)/b` — eq. (2)'s first term: other
/// providers see the locally perturbed data with identifiability 1.
///
/// # Panics
///
/// Panics when `b <= 0` or `ρ < 0`.
pub fn local_risk(rho: f64, b: f64) -> f64 {
    assert!(b > 0.0, "bound must be positive");
    assert!(rho >= 0.0, "rho must be non-negative");
    ((b - rho) / b).clamp(0.0, 1.0)
}

/// Equation (2): the overall SAP risk
/// `max{ (b−ρ)/b, (b−sρ)/b · 1/(k−1) }`.
///
/// # Panics
///
/// Propagates the panics of [`local_risk`], [`risk_of_breach`] and
/// [`source_identifiability`].
pub fn sap_risk(b: f64, rho: f64, s: f64, k: usize) -> f64 {
    let provider_view = local_risk(rho, b);
    let miner_view = risk_of_breach(source_identifiability(k), s, rho, b);
    provider_view.max(miner_view)
}

/// The minimum number of parties needed to support an expected satisfaction
/// level `s0` at optimality rate `O` — the curve of the brief's Figure 4.
///
/// The brief plots this bound without restating its derivation; we require
/// the miner-side identifiability to be no larger than the residual privacy
/// slack (`π = 1/(k−1) ≤ 1 − s0·O`; the argument is in docs/PRIVACY.md,
/// "The party-count bound"), giving
///
/// ```text
/// k_min(s0, O) = 1 + ⌈ 1 / (1 − s0·O) ⌉
/// ```
///
/// Returns `None` when `s0·O ≥ 1` (no finite number of parties suffices).
///
/// # Panics
///
/// Panics when `s0` or `opt_rate` fall outside `[0, 1]`.
pub fn min_parties(s0: f64, opt_rate: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&s0), "s0 must be in [0,1]");
    assert!(
        (0.0..=1.0).contains(&opt_rate),
        "optimality rate must be in [0,1]"
    );
    let slack = 1.0 - s0 * opt_rate;
    if slack <= 0.0 {
        return None;
    }
    Some(1 + (1.0 / slack).ceil() as usize)
}

/// The per-provider privacy profile the protocol tracks: mean optimized
/// guarantee and empirical bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyProfile {
    /// Locally optimized privacy guarantee `ρᵢ` (or its mean over rounds).
    pub rho: f64,
    /// Empirical upper bound `bᵢ` (`b̂`).
    pub bound: f64,
}

impl PrivacyProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ρ ≤ b` and `b > 0`.
    pub fn new(rho: f64, bound: f64) -> Self {
        assert!(bound > 0.0, "bound must be positive");
        assert!(
            (0.0..=bound + 1e-12).contains(&rho),
            "rho must be in [0, bound]"
        );
        PrivacyProfile { rho, bound }
    }

    /// Optimality rate `O = ρ/b`.
    pub fn optimality_rate(&self) -> f64 {
        self.rho / self.bound
    }

    /// This provider's SAP risk for a unified perturbation yielding
    /// satisfaction `s` among `k` providers (eq. 2).
    pub fn sap_risk(&self, s: f64, k: usize) -> f64 {
        sap_risk(self.bound, self.rho, s, k)
    }

    /// Whether joining a `k`-party SAP session at satisfaction `s` is
    /// rational: the miner-side risk term must not dominate the risk the
    /// provider already accepts locally.
    pub fn joining_is_rational(&self, s: f64, k: usize) -> bool {
        let miner = risk_of_breach(source_identifiability(k), s, self.rho, self.bound);
        miner <= local_risk(self.rho, self.bound) + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiability_formula() {
        assert_eq!(source_identifiability(2), 1.0);
        assert_eq!(source_identifiability(5), 0.25);
        assert_eq!(source_identifiability(11), 0.1);
    }

    #[test]
    #[should_panic(expected = "at least 2 providers")]
    fn identifiability_needs_two() {
        let _ = source_identifiability(1);
    }

    #[test]
    fn satisfaction_ratio() {
        assert_eq!(satisfaction(0.8, 1.0), 0.8);
        assert_eq!(satisfaction(1.0, 0.5), 2.0); // unified can exceed local
    }

    #[test]
    fn eq1_matches_paper_form() {
        // R = π (1 - s ρ / b): π=0.25, s=0.9, ρ=0.8, b=1.0
        let r = risk_of_breach(0.25, 0.9, 0.8, 1.0);
        assert!((r - 0.25 * (1.0 - 0.72)).abs() < 1e-12);
    }

    #[test]
    fn eq1_clamped() {
        // s·ρ > b would give negative risk; clamp to 0.
        assert_eq!(risk_of_breach(0.5, 2.0, 1.0, 1.0), 0.0);
        assert_eq!(risk_of_breach(1.0, 0.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn eq2_takes_the_max() {
        // Small k: miner view dominates. Large k: provider view dominates.
        let b = 1.0;
        let rho = 0.9;
        let s = 0.5;
        let r2 = sap_risk(b, rho, s, 2); // π = 1
        assert!((r2 - (1.0 - 0.45)).abs() < 1e-12);
        let r20 = sap_risk(b, rho, s, 20); // π = 1/19, miner term tiny
        assert!(
            (r20 - 0.1).abs() < 1e-12,
            "local term (b-ρ)/b = 0.1 dominates"
        );
    }

    #[test]
    fn sap_risk_decreases_with_k_until_local_floor() {
        let b = 1.0;
        let rho = 0.8;
        let s = 0.9;
        let mut prev = f64::INFINITY;
        for k in 2..20 {
            let r = sap_risk(b, rho, s, k);
            assert!(r <= prev + 1e-12, "risk must be non-increasing in k");
            assert!(r >= local_risk(rho, b) - 1e-12, "never below local floor");
            prev = r;
        }
    }

    #[test]
    fn min_parties_matches_design_examples() {
        // The example values tabulated in docs/PRIVACY.md, "The party-count bound".
        assert_eq!(min_parties(0.99, 0.98), Some(35));
        assert_eq!(min_parties(0.99, 0.95), Some(18));
        assert_eq!(min_parties(0.99, 0.89), Some(10));
        // Monotone in s0 and O.
        let a = min_parties(0.90, 0.95).unwrap();
        let b = min_parties(0.99, 0.95).unwrap();
        assert!(b > a);
        let c = min_parties(0.95, 0.89).unwrap();
        let d = min_parties(0.95, 0.98).unwrap();
        assert!(d > c);
    }

    #[test]
    fn min_parties_saturates() {
        assert_eq!(min_parties(1.0, 1.0), None);
        assert_eq!(min_parties(0.0, 0.5), Some(2));
    }

    #[test]
    fn profile_accessors() {
        let p = PrivacyProfile::new(0.8, 1.0);
        assert!((p.optimality_rate() - 0.8).abs() < 1e-12);
        assert!(p.sap_risk(0.9, 5) >= 0.0);
    }

    #[test]
    fn joining_rationality_threshold() {
        let p = PrivacyProfile::new(0.9, 1.0);
        // With 2 parties (π = 1) and s < 1, joining is irrational.
        assert!(!p.joining_is_rational(0.9, 2));
        // With many parties the miner term vanishes.
        assert!(p.joining_is_rational(0.9, 30));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn profile_rejects_bad_bound() {
        let _ = PrivacyProfile::new(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn profile_rejects_rho_above_bound() {
        let _ = PrivacyProfile::new(1.5, 1.0);
    }
}
