//! Streaming-ML substrate for FreewayML.
//!
//! The paper evaluates FreewayML on *sensitive, lightweight* models trained
//! with mini-batch SGD: Streaming Logistic Regression, Streaming MLP, and
//! (in the appendix) a small Streaming CNN. This crate implements those
//! models from scratch on top of [`freeway_linalg`], together with the
//! optimizer family the baselines need (plain SGD, momentum, Adam for the
//! non-linear models; FTRL for the Alink baseline) and the gradient
//! plumbing FreewayML's optimizations rely on:
//!
//! * [`model::Model`] — the object-safe model trait. Gradients are exposed
//!   as *flat* parameter-order vectors so that A-GEM projection, the
//!   pre-computing window, and parameter snapshots all share one layout.
//! * [`optim`] — optimizers mapping `(params, grad) -> delta`.
//! * [`gradient::PrecomputeAccumulator`] — the paper's pre-computing
//!   window (§V-B): per-subset gradients accumulated incrementally.
//! * [`snapshot`] — serializable parameter snapshots with byte-exact size
//!   accounting, backing the historical-knowledge space study (Table IV).
//! * [`spec::ModelSpec`] — a declarative model description used to build
//!   identical fresh models across FreewayML and every baseline.
//!
//! Training and inference run on the calling thread.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cnn;
pub mod gradient;
pub mod logistic;
pub mod loss;
pub mod mlp;
pub mod model;
pub mod optim;
pub mod snapshot;
pub mod spec;
pub mod trainer;
pub mod workspace;

pub use cnn::Cnn1d;
pub use gradient::PrecomputeAccumulator;
pub use logistic::SoftmaxRegression;
pub use mlp::Mlp;
pub use model::Model;
pub use optim::{Adam, Ftrl, Momentum, Optimizer, Sgd};
pub use snapshot::ModelSnapshot;
pub use spec::ModelSpec;
pub use trainer::Trainer;
pub use workspace::Workspace;
