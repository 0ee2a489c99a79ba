//! Dense linear algebra substrate for the SAP (Space Adaptation Protocol)
//! reproduction.
//!
//! The PODC'07 paper perturbs datasets with random orthogonal rotations,
//! inverts those rotations to build *space adaptors*, and evaluates attacks
//! that rely on PCA/ICA-style spectral analysis. This crate provides exactly
//! the dense, `f64` linear algebra those tasks need, implemented from scratch
//! so the reproduction has no dependency on `nalgebra`/`ndarray`:
//!
//! * [`Matrix`] — a row-major dense matrix with the usual arithmetic.
//! * [`qr::QrDecomposition`] — Householder QR, used to sample random
//!   orthogonal matrices; its reflection count gives the sign of
//!   `det(Q)`, which is how a random rotation is told from a reflection.
//! * [`eigen::SymmetricEigen`] — cyclic Jacobi eigendecomposition of
//!   symmetric matrices (PCA, whitening).
//! * [`svd::Svd`] — one-sided Jacobi singular value decomposition.
//! * [`orthogonal`] — uniform (Haar) random orthogonal and rotation matrices.
//! * [`randn`] — Box–Muller standard-normal sampling (the `rand` crate alone
//!   does not provide Gaussians).
//! * [`kernel`] — the blocked matmul and the register-blocked Gram /
//!   covariance microkernels, each pinned bit-identical to a reference
//!   loop.
//!
//! # Conventions
//!
//! Matrices are row-major. Following the paper, a dataset is a `d × N` matrix
//! whose *columns* are records; helpers on [`Matrix`] (e.g.
//! [`Matrix::column`], [`Matrix::from_columns`]) make that convention cheap
//! to work with.
//!
//! # Example
//!
//! ```
//! use sap_linalg::{Matrix, orthogonal};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let r = orthogonal::random_orthogonal(4, &mut rng);
//! let identity = &r * &r.transpose();
//! assert!(identity.approx_eq(&Matrix::identity(4), 1e-9));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod eigen;
pub mod error;
pub mod kernel;
pub mod matrix;
pub mod norms;
pub mod orthogonal;
pub mod qr;
pub mod rng;
pub mod svd;
pub mod vecops;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use rng::{randn, randn_fill, randn_matrix, randn_vec};
