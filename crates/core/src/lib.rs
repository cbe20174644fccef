//! FreewayML core: the adaptive, stable streaming-learning framework.
//!
//! This crate assembles the paper's three adaptive mechanisms behind a
//! single [`learner::Learner`] facade whose constructor mirrors the
//! paper's interface
//! (`Learner(Model, ModelNum, MiniBatch, KdgBuffer, ExpBuffer, α)`):
//!
//! * [`asw`] — the *adaptive streaming window* feeding the
//!   long-granularity model, with disorder-aware decay (§IV-B, Alg. 1);
//! * [`granularity`] — multi-time-granularity models and the Gaussian-
//!   kernel distance ensemble (Equations 12–14);
//! * [`knowledge`] — the `KdgBuffer` store with disorder-gated
//!   preservation and distance matching (§IV-D);
//! * [`selector`] — the strategy selector built on the shift tracker;
//! * [`learner`] — the public API tying everything together;
//! * [`pipeline`] — the threaded train/infer pipeline (§V-A): one worker
//!   thread owning the learner, which every threaded runtime below runs;
//! * [`rate`] — the rate-aware adjuster (§V-B).
//!
//! The fault-tolerance layer lives in three further modules: [`error`]
//! (the `FreewayError` taxonomy every fallible runtime operation
//! returns), [`guard`] (ingestion validation and the poison-batch
//! quarantine), and [`supervisor`] (the checkpointed, auto-restarting
//! [`supervisor::SupervisedPipeline`], which is the pipeline's worker:
//! [`Pipeline`] names the same type).
//!
//! The overload-resilience layer sits on top of it: [`admission`]
//! (admission policies, counted load shedding, and the
//! [`admission::AdmittedPipeline`] wrapper), [`degrade`] (the
//! graceful-degradation ladder with hysteresis), and [`retry`]
//! (bounded exponential backoff with deterministic jitter, used for
//! checkpoint persistence).
//!
//! The scale-out layer is [`shard`]: the keyed, hash-routed
//! [`shard::ShardedPipeline`] running one admitted pipeline per shard
//! over a shared cross-shard knowledge registry
//! ([`knowledge::SharedKnowledge`]).
//!
//! The liveness layer is [`liveness`]: per-worker heartbeat ledgers and
//! the stall watchdog behind
//! [`supervisor::SupervisedPipeline::check_liveness`], plus shard
//! *fencing* — a shard whose restart budget exhausts is isolated and its
//! keys deterministically rerouted ([`shard::failover_shard`]) instead of
//! erroring the whole runtime.
//!
//! The serving layer is [`serve`]: the sharded runtime behind one lock
//! and cloneable [`serve::ServiceHandle`]s, so many concurrent clients
//! submit through keyed [`serve::ClientSession`]s on their own threads,
//! with typed backpressure ([`serve::ServeError::Busy`]), and receive
//! exactly their own answers.
//!
//! Construction goes through [`builder::PipelineBuilder`] — one fluent
//! description of model, configuration, supervision, and telemetry sink
//! that builds everything from a bare `Learner` up to a multi-client
//! `Service`. Observability (metrics, per-stage timings, and the
//! structured event stream) comes from the `freeway-telemetry` crate,
//! re-exported here as [`telemetry`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod asw;
pub mod builder;
pub mod config;
pub mod degrade;
pub mod error;
pub mod granularity;
pub mod guard;
pub mod journal;
pub mod knowledge;
pub mod learner;
pub mod liveness;
pub mod persistence;
pub mod pipeline;
pub mod rate;
pub mod retry;
pub mod selector;
pub mod serve;
pub mod shard;
pub mod supervisor;

pub use freeway_telemetry as telemetry;

pub use admission::{
    AdmissionConfig, AdmissionOutcome, AdmissionPolicy, AdmissionStats, AdmittedPipeline,
    AdmittedRun, ShedBatch, ShedBuffer, ShedReason,
};
pub use builder::PipelineBuilder;
pub use config::{FreewayConfig, OptimizerKind};
pub use degrade::{DegradationHandle, DegradationLadder, DegradationLevel, LadderConfig};
pub use error::{CheckpointError, FreewayError};
pub use guard::{BatchFault, BatchGuard, GuardPolicy, Quarantine};
pub use journal::{frame_batch, Journal, JournalConfig, JournalRecord, JournalStats};
pub use knowledge::{SharedEntry, SharedKnowledge, SharedReader};
pub use learner::{InferenceReport, Learner, Strategy, StrategyStats};
pub use liveness::{HeartbeatLedger, WatchdogState, WorkerStage};
pub use persistence::{crc32, Checkpoint, CheckpointStore, CHECKPOINT_VERSION};
pub use pipeline::{Pipeline, PipelineOutput};
pub use retry::RetryPolicy;
pub use selector::StrategySelector;
pub use serve::{
    busy_hint, AdmittedRecord, ClientSession, ServeError, Service, ServiceConfig, ServiceHandle,
    ServiceReport, ServiceStats, SessionOutput, SubmitOutcome,
};
pub use shard::{failover_shard, shard_for, ShardedPipeline, ShardedRun};
pub use supervisor::{
    FeedOutcome, FinishedRun, SupervisedPipeline, SupervisorConfig, SupervisorStats, TryFeedOutcome,
};

/// Curated one-line import surface:
/// `use freeway_core::prelude::*;` pulls in everything a typical
/// deployment touches — the builder, configuration, the learner types,
/// every runtime tier, the error taxonomy, and the telemetry handles.
pub mod prelude {
    pub use crate::admission::{
        AdmissionConfig, AdmissionOutcome, AdmissionPolicy, AdmissionStats, AdmittedPipeline,
        AdmittedRun, ShedReason,
    };
    pub use crate::builder::PipelineBuilder;
    pub use crate::config::{FreewayConfig, OptimizerKind};
    pub use crate::degrade::{DegradationLevel, LadderConfig};
    pub use crate::error::{CheckpointError, FreewayError};
    pub use crate::guard::{BatchFault, Quarantine};
    pub use crate::journal::{Journal, JournalConfig, JournalStats};
    pub use crate::knowledge::{SharedEntry, SharedKnowledge};
    pub use crate::learner::{InferenceReport, Learner, Strategy, StrategyStats};
    pub use crate::liveness::{HeartbeatLedger, WatchdogState, WorkerStage};
    pub use crate::pipeline::{Pipeline, PipelineOutput};
    pub use crate::serve::{
        ClientSession, ServeError, Service, ServiceConfig, ServiceHandle, ServiceReport,
        SessionOutput, SubmitOutcome,
    };
    pub use crate::shard::{failover_shard, shard_for, ShardedPipeline, ShardedRun};
    pub use crate::supervisor::{
        FeedOutcome, FinishedRun, SupervisedPipeline, SupervisorConfig, SupervisorStats,
        TryFeedOutcome,
    };
    pub use freeway_telemetry::{
        RecordingSink, Stage, Telemetry, TelemetryEvent, TelemetrySink, TelemetrySnapshot,
    };
}
