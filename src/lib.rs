//! # sap-repro — Space Adaptation Protocol, reproduced
//!
//! A from-scratch Rust reproduction of *Chen & Liu, "Brief Announcement:
//! Space Adaptation: Privacy-preserving Multiparty Collaborative Mining with
//! Geometric Perturbation", PODC 2007* — the protocol, every substrate it
//! depends on, and every figure of its evaluation.
//!
//! This facade crate re-exports the workspace so applications can depend on
//! one crate:
//!
//! * [`linalg`] — dense matrices, QR/LU/eigen/SVD, random orthogonal groups.
//! * [`datasets`] — synthetic stand-ins for the paper's twelve UCI datasets,
//!   normalization, multiparty partitioning.
//! * [`ica`] — PCA, whitening, FastICA (attack substrate).
//! * [`classify`] — KNN, SVM (SMO/RBF), perceptron.
//! * [`perturb`] — geometric perturbation `G(X) = RX + Ψ + Δ` and space
//!   adaptors.
//! * [`privacy`] — the minimum-privacy-guarantee metric, attack suite,
//!   randomized perturbation optimizer, and the multiparty risk model.
//! * [`net`] — sealed, session-multiplexed transports (hub, TCP) with
//!   fault injection.
//! * [`core`] — the Space Adaptation Protocol itself, on a pooled actor
//!   runtime.
//! * [`server`] — the concurrent SAP service: session registry, admission
//!   control, metrics.
//! * [`fleet`] — the sharded multi-node service: rendezvous-hashing placement,
//!   node membership on the liveness plane, cross-node forwarding.
//!
//! ## One-minute tour
//!
//! ```
//! use sap_repro::core::session::{run_session, SapConfig};
//! use sap_repro::datasets::{registry::UciDataset, partition::{partition, PartitionScheme}};
//! use sap_repro::datasets::normalize::min_max_normalize;
//!
//! // Several providers hold horizontal slices of a dataset…
//! let (pooled, _) = min_max_normalize(&UciDataset::Iris.generate(42));
//! let locals = partition(&pooled, 4, PartitionScheme::Uniform, 7);
//!
//! // …and run SAP so the miner sees one unified, perturbed dataset.
//! let outcome = run_session(locals, &SapConfig::quick_test()).unwrap();
//! assert_eq!(outcome.unified.len(), pooled.len());
//! assert!(outcome.identifiability <= 1.0 / 3.0);
//! ```

pub use sap_classify as classify;
pub use sap_core as core;
pub use sap_datasets as datasets;
pub use sap_fleet as fleet;
pub use sap_ica as ica;
pub use sap_linalg as linalg;
pub use sap_net as net;
pub use sap_perturb as perturb;
pub use sap_privacy as privacy;
pub use sap_server as server;
