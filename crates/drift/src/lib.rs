//! Shift graph and drift-pattern detection (§III of the paper).
//!
//! This crate implements the quantitative machinery behind FreewayML's
//! strategy selector:
//!
//! * [`pca::PcaReducer`] — PCA warm-up and batch-mean projection
//!   (Equations 2–6);
//! * [`shift::ShiftTracker`] — shift distance, weighted severity score,
//!   and nearest historical distance (Equations 7–10);
//! * [`pattern`] — the A / B / C pattern classifier built on those
//!   measurements;
//! * [`disorder`] — the inversion-count disorder of a distance ranking
//!   (Equation 11), used by the adaptive streaming window;
//! * [`adwin`] — the ADWIN drift detector, needed by the River and
//!   bagging baselines.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adwin;
pub mod disorder;
pub mod pattern;
pub mod pca;
pub mod shift;

pub use adwin::Adwin;
pub use disorder::{inversion_count, normalized_disorder};
pub use pattern::{classify, classify_and_emit, ShiftPattern};
pub use pca::PcaReducer;
pub use shift::{ShiftMeasurement, ShiftTracker, ShiftTrackerConfig};
