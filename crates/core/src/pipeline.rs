//! The train/infer pipeline (§V-A).
//!
//! The paper deploys FreewayML as a multi-process architecture with
//! asynchronous updates. This reproduction maps that onto a dedicated
//! worker thread owning the learner, fed through a bounded crossbeam
//! channel: producers never block on model updates shorter than the
//! channel's slack, updates are atomic because exactly one thread touches
//! parameters, and the labeled/unlabeled split of the paper's single
//! input stream happens at the worker.
//!
//! That worker is [`crate::supervisor::SupervisedPipeline`], and
//! [`Pipeline`] is its name here: every threaded runtime runs the same
//! one. A `Pipeline` therefore validates its input, quarantines poison
//! batches, and restarts a crashed worker from its last checkpoint; its
//! `finish` returns a [`crate::supervisor::FinishedRun`].

use crate::learner::InferenceReport;

/// Output of the pipeline for one batch.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// Sequence number of the batch this refers to.
    pub seq: u64,
    /// Inference report (`None` for training-only batches).
    pub report: Option<InferenceReport>,
}

/// The worker pipeline around a [`crate::Learner`]; see the module docs.
pub type Pipeline = crate::supervisor::SupervisedPipeline;
