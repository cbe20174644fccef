//! Clustering substrate: k-means and coherent experience clustering.
//!
//! When a sudden shift makes the trained models useless, FreewayML
//! temporarily answers queries with unsupervised clustering (§IV-C). The
//! missing piece is the cluster→label mapping; *coherent experience
//! clustering* (CEC) supplies it by clustering the current batch together
//! with the `m` most recent labeled points ("coherent experience") and
//! voting labels within each cluster.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cec;
pub mod kmeans;

pub use cec::{CoherentExperience, ExperienceBuffer};
pub use kmeans::{KMeans, KMeansResult};
