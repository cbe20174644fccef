//! # FreewayML
//!
//! An adaptive and stable streaming-learning framework for dynamic data
//! streams — a from-scratch Rust reproduction of *"FreewayML: An Adaptive
//! and Stable Streaming Learning Framework for Dynamic Data Streams"*
//! (ICDE 2025).
//!
//! Streaming models are sensitive and lightweight; when the data
//! distribution drifts they fluctuate, collapse, or forget. FreewayML
//! watches the stream's *shift graph* — the trajectory of PCA-projected
//! batch means — classifies every batch's drift pattern, and routes
//! inference through the mechanism built for that pattern:
//!
//! | Pattern | Shift | Mechanism |
//! |---------|-------|-----------|
//! | A (slight) | `M ≤ α` | multi-time-granularity model ensemble |
//! | B (sudden) | `M > α` | coherent experience clustering |
//! | C (reoccurring) | `M > α`, `d_h < d_t` | historical knowledge reuse |
//!
//! ## Quickstart
//!
//! ```
//! use freewayml::prelude::*;
//!
//! // A drifting stream (rotating hyperplane, 10 features).
//! let mut stream = Hyperplane::new(10, 0.02, 0.05, 42);
//!
//! // One builder describes the whole deployment: model, configuration,
//! // and (optionally) a telemetry sink recording the event stream.
//! let (builder, sink) = PipelineBuilder::new(ModelSpec::mlp(10, vec![32], 2)).recording();
//! let mut learner = builder
//!     .with_config(FreewayConfig { mini_batch: 256, ..Default::default() })
//!     .build_learner()
//!     .expect("valid configuration");
//!
//! // Prequential loop: test, then train, on every batch.
//! let mut correct = 0usize;
//! let mut total = 0usize;
//! for _ in 0..30 {
//!     let batch = stream.next_batch(256);
//!     let report = learner.process(&batch);
//!     correct += report
//!         .predictions()
//!         .iter()
//!         .zip(batch.labels())
//!         .filter(|(p, t)| p == t)
//!         .count();
//!     total += batch.len();
//! }
//! assert!(correct as f64 / total as f64 > 0.5);
//! // Every batch dispatched exactly one strategy — observable as events.
//! let dispatched = sink
//!     .events()
//!     .iter()
//!     .filter(|e| matches!(e, TelemetryEvent::StrategyDispatched { .. }))
//!     .count();
//! assert_eq!(dispatched, 30);
//! ```
//!
//! ## Crate map
//!
//! This facade re-exports the workspace:
//!
//! * [`core`] (`freeway-core`) — the learner, ASW, knowledge store,
//!   strategy selector, pipeline;
//! * [`ml`] (`freeway-ml`) — models (LR / MLP / CNN), optimizers,
//!   snapshots;
//! * [`streams`] (`freeway-streams`) — benchmark generators and simulated
//!   datasets;
//! * [`drift`] (`freeway-drift`) — shift graph, pattern classifier,
//!   ADWIN;
//! * [`cluster`] (`freeway-cluster`) — k-means and coherent experience
//!   clustering;
//! * [`baselines`] (`freeway-baselines`) — Flink ML / Spark MLlib / Alink /
//!   River / Camel / A-GEM re-implementations;
//! * [`eval`] (`freeway-eval`) — the prequential harness and every
//!   table/figure runner;
//! * [`chaos`] (`freeway-chaos`) — deterministic fault injection and
//!   recovery drills for the supervised runtime;
//! * [`telemetry`] (`freeway-telemetry`) — metrics registry, structured
//!   event stream, and Prometheus/JSON exporters;
//! * [`linalg`] (`freeway-linalg`) — the dense math substrate.

#![warn(missing_docs)]

pub use freeway_baselines as baselines;
pub use freeway_chaos as chaos;
pub use freeway_cluster as cluster;
pub use freeway_core as core;
pub use freeway_drift as drift;
pub use freeway_eval as eval;
pub use freeway_linalg as linalg;
pub use freeway_ml as ml;
pub use freeway_streams as streams;
pub use freeway_telemetry as telemetry;

/// The commonly used types in one import.
pub mod prelude {
    pub use freeway_baselines::{FreewaySystem, StreamingLearner};
    pub use freeway_chaos::{LabelSchedule, LabelScheduler};
    pub use freeway_core::{
        shard_for, ClientSession, Fault, FreewayConfig, FreewayError, InferenceReport,
        JournalConfig, JournalStats, Learner, Pipeline, PipelineBuilder, ServeError, Service,
        ServiceConfig, ServiceHandle, ServiceReport, SessionOutput, ShardedPipeline, ShardedRun,
        SharedKnowledge, Strategy, SubmitOutcome, SupervisedPipeline, SupervisorConfig,
    };
    pub use freeway_drift::ShiftPattern;
    pub use freeway_linalg::Matrix;
    pub use freeway_ml::{Model, ModelSpec};
    pub use freeway_streams::{
        Batch, DriftPhase, Hyperplane, InterleavedKeyed, KeyedBatch, Sea, StreamGenerator,
    };
    pub use freeway_telemetry::{
        RecordingSink, Stage, Telemetry, TelemetryEvent, TelemetrySink, TelemetrySnapshot,
    };
}
