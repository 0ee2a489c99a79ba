//! Privacy metrics, attack models, perturbation optimization, and the SAP
//! risk model.
//!
//! This crate implements the *evaluation* half of the PODC'07 brief and its
//! SDM'07 companion (reference \[2\]):
//!
//! * [`metric`] — the multi-column **minimum privacy guarantee** `ρ`: the
//!   worst per-attribute normalized deviation between the original data and
//!   the best reconstruction an attacker achieves.
//! * [`attack`] — the attacker suite used to *measure* `ρ`: naive value
//!   estimation, PCA-based rotation reconstruction, ICA-based reconstruction,
//!   and the known-point distance-inference (Procrustes) attack.
//! * [`optimize`] — the randomized perturbation optimizer: sample candidate
//!   rotations, score each under the attack suite, keep the best. This is
//!   what produces the "optimized perturbations give higher privacy
//!   guarantee" distribution of the brief's Figure 2.
//! * [`engine`] — the exact candidate-evaluation engine beneath the
//!   optimizer: deterministic per-candidate RNG streams, the cheap
//!   attacks on the whole field, then a best-first loop that
//!   runs the expensive PCA/ICA attacks only on candidates that can still
//!   win (which makes ICA affordable enough to be on by default).
//! * [`risk`] — the multiparty risk model: source identifiability `πᵢ`,
//!   satisfaction level `sᵢ`, risk of privacy breach (eq. 1), the SAP risk
//!   (eq. 2), and the minimum-parties bound behind Figure 4.
//!
//! # Orientation convention
//!
//! Everything takes data in the paper's `d × N` layout: attributes are rows,
//! records are columns. "Column privacy" in the papers refers to *attribute*
//! privacy, i.e. rows of the `d × N` matrix.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod attack;
pub mod engine;
pub mod metric;
pub mod optimize;
pub mod risk;

pub use attack::{Attack, AttackSuite, AttackerKnowledge};
pub use engine::{EngineOutcome, EngineStats};
pub use metric::{attribute_privacy, minimum_privacy_guarantee};
pub use optimize::{OptimizeError, OptimizedPerturbation, OptimizerConfig};
pub use risk::{min_parties, risk_of_breach, sap_risk, PrivacyProfile};
