//! The Space Adaptation Protocol (SAP).
//!
//! This crate is the primary contribution of the reproduction: the
//! multiparty protocol of *Chen & Liu, "Space Adaptation: Privacy-preserving
//! Multiparty Collaborative Mining with Geometric Perturbation", PODC 2007*.
//!
//! # Protocol summary
//!
//! `k` data providers `DP₁..DP_k` hold horizontal partitions of a dataset
//! and want a mining service provider (the *miner*) to train a model on the
//! union, without any single party being able to reconstruct anyone's raw
//! records. Geometric perturbation (`sap-perturb`) protects the values;
//! SAP's job is to let every provider keep a *locally optimized*
//! perturbation while the miner still receives data in one *unified* space:
//!
//! 1. **Local optimization** — every provider runs the randomized
//!    perturbation optimizer on its own data, obtaining `Gᵢ : (Rᵢ, tᵢ)` with
//!    privacy guarantee `ρᵢ` (all providers share the noise component
//!    specification `Δ`).
//! 2. **Target selection** — the coordinator (one of the providers,
//!    conventionally `DP_k`) randomly selects the target space
//!    `G_t : (R_t, t_t)` with **no** noise component and broadcasts it.
//! 3. **Random exchange** — the coordinator draws a random permutation `τ`
//!    and assigns each provider's perturbed dataset to a random receiver,
//!    **excluding itself as a receiver** (it will later see the space
//!    adaptors, which together with a dataset would let it undo the
//!    perturbation). Each receiver forwards the dataset it got to the miner
//!    under an opaque slot tag. The miner's view of any dataset's origin is
//!    reduced to source identifiability `πᵢ = 1/(k−1)`.
//! 4. **Space adaptation** — each provider computes its adaptor
//!    `A_it = ⟨R_it, Ψ_it⟩ = ⟨R_t·Rᵢ⁻¹, Ψ_t − R_t·Rᵢ⁻¹·Ψᵢ⟩` and sends it to
//!    the coordinator, who maps it to the right slot tag (it knows `τ`) and
//!    forwards the table to the miner — the coordinator never sees data, the
//!    miner never sees `(Rᵢ, tᵢ)`.
//! 5. **Unification & mining** — the miner applies each slot's adaptor to
//!    the slot's dataset, pools everything (now all in `G_t`'s space, each
//!    partition carrying its inherited noise `Δ_it`), and trains the model.
//!
//! Every message travels over `sap-net`'s sealed channels; an [`audit`]
//! ledger records who saw what so tests can verify the protocol's
//! information-flow claims mechanically.
//!
//! # Quick start
//!
//! ```no_run
//! use sap_core::session::{run_session, SapConfig};
//! use sap_datasets::{registry::UciDataset, partition::{partition, PartitionScheme}};
//!
//! let pooled = UciDataset::Iris.generate(42);
//! let locals = partition(&pooled, 5, PartitionScheme::Uniform, 7);
//! let outcome = run_session(locals, &SapConfig::default()).unwrap();
//! println!("unified dataset: {} records", outcome.unified.len());
//! println!("identifiability: {}", outcome.identifiability);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod audit;
pub mod coordinator;
pub mod error;
pub mod link;
pub mod liveness;
pub mod messages;
pub mod miner;
pub mod mining;
pub mod party;
pub mod permutation;
pub mod placement;
pub mod runtime;
pub mod session;
pub mod stream;

pub use error::SapError;
pub use liveness::{Deadline, Roster};
pub use runtime::{
    ActorPool, Gang, QosClass, SchedStats, SchedulerConfig, SessionHandle, SessionStatus,
    SessionTimings, ShedInfo,
};
pub use session::{
    run_session, run_session_over, spawn_session, ProviderReport, RoleCtx, SapConfig, SapOutcome,
};
pub use stream::{StreamMonitor, StreamStats};
