//! Dense linear-algebra substrate for FreewayML.
//!
//! FreewayML's models (logistic regression, MLP, CNN) and its shift-graph
//! machinery (PCA, distribution distances) only need small dense matrices,
//! so this crate provides a deliberately compact, allocation-conscious
//! implementation rather than binding an external BLAS:
//!
//! * [`Matrix`] — row-major `f64` matrix with the handful of operations the
//!   rest of the workspace needs (matmul, transpose, row views, axpy).
//! * [`eigen`] — symmetric eigendecomposition via cyclic Jacobi rotations,
//!   which is robust for the covariance matrices PCA works on.
//! * [`stats`] — batch mean, covariance, and distance helpers used by the
//!   shift graph (Equations 2–7 of the paper).
//! * [`vector`] — free functions over `&[f64]` slices.
//! * [`lanes`] — the eight-lane `f64` register the matmul register tiles
//!   are written on (one AVX-512 vector, or an array without AVX-512F),
//!   the name of the backend a build picked, k-means' squared distance
//!   tile on it, a row-wise softmax and a row argmax eight rows to a
//!   register, and the softmax + cross-entropy gradient a row to a
//!   register.
//!
//! Every kernel runs on the calling thread. All random initialisation is
//! seeded and no global RNG state is used, so results are a pure
//! function of the inputs.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod eigen;
pub mod lanes;
pub mod matrix;
pub mod stats;
pub mod vector;

pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use matrix::{Epilogue, Matrix};
