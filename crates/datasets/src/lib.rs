//! Synthetic UCI-like datasets and multiparty data handling for the SAP
//! reproduction.
//!
//! The PODC'07 evaluation runs on twelve UCI machine-learning datasets, each
//! "split into several randomly sized sub-datasets, simulating the
//! distributed datasets from the data providers". The original UCI files are
//! not redistributable inside this offline reproduction, so this crate
//! provides **deterministic synthetic stand-ins**: for each of the twelve
//! datasets, a Gaussian-mixture generator calibrated to the published shape
//! (record count, dimensionality, class count, class balance, and a
//! per-dataset separability setting chosen so the clean classifier accuracy
//! lands in the ballpark reported for that dataset in the classifier
//! literature). The SAP experiments measure *relative* quantities — accuracy
//! deviation against the clean baseline, optimality rates of perturbations —
//! which this preserves; docs/PRIVACY.md, "Synthetic dataset stand-ins",
//! gives the substitution argument.
//!
//! # Layout
//!
//! * [`Dataset`] — records + integer labels, the records in one flat
//!   record-major `f64` buffer (borrowed per record through [`Records`]),
//!   with the `d × N` column-matrix view the perturbation code expects.
//! * [`registry::UciDataset`] — the twelve named datasets and their specs.
//! * [`generator`] — the Gaussian-mixture engine behind the registry.
//! * [`normalize`] — min–max normalization to `[0, 1]` (the paper perturbs
//!   *normalized* data).
//! * [`partition`] — uniform and class-skewed splits into `k` providers.
//! * [`split`] — the stratified train/test split.
//!
//! # Example
//!
//! ```
//! use sap_datasets::registry::UciDataset;
//! use sap_datasets::partition::{partition, PartitionScheme};
//!
//! let data = UciDataset::Iris.generate(42);
//! assert_eq!(data.dim(), 4);
//! let parts = partition(&data, 5, PartitionScheme::Uniform, 7);
//! assert_eq!(parts.len(), 5);
//! let total: usize = parts.iter().map(|p| p.len()).sum();
//! assert_eq!(total, data.len());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod dataset;
pub mod generator;
pub mod normalize;
pub mod partition;
pub mod registry;
pub mod split;

pub use dataset::{Dataset, DatasetError, Records};
pub use registry::UciDataset;
