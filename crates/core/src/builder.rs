//! The unified construction path for FreewayML pipelines.
//!
//! [`PipelineBuilder`] is the single place where a deployment is
//! described: model architecture, learner configuration, supervision
//! policy, and the telemetry sink are all set **before** anything spawns,
//! so observers see the run from its very first batch. It is the single
//! construction path: the legacy `spawn` constructors were removed, and
//! only [`Learner::new`] remains as a thin convenience wrapper.
//!
//! ```
//! use freeway_core::PipelineBuilder;
//! use freeway_ml::ModelSpec;
//!
//! let (builder, sink) = PipelineBuilder::new(ModelSpec::lr(8, 2)).recording();
//! let mut learner = builder
//!     .with_mini_batch(128)
//!     .with_pca_warmup_rows(128)
//!     .build_learner()
//!     .expect("valid configuration");
//! assert!(learner.telemetry().enabled());
//! assert!(sink.is_empty(), "nothing has run yet");
//! # let _ = &mut learner;
//! ```

use crate::admission::{AdmissionConfig, AdmittedPipeline};
use crate::config::FreewayConfig;
use crate::degrade::DegradationHandle;
use crate::error::FreewayError;
use crate::knowledge::SharedKnowledge;
use crate::learner::Learner;
use crate::pipeline::Pipeline;
use crate::serve::{Service, ServiceConfig};
use crate::shard::ShardedPipeline;
use crate::supervisor::{SupervisedPipeline, SupervisorConfig};
use freeway_ml::ModelSpec;
use freeway_telemetry::{RecordingSink, Telemetry, TelemetrySink};
use std::path::PathBuf;
use std::sync::Arc;

/// Fluent builder producing a [`Learner`] or one of the threaded
/// runtimes around it — the [`SupervisedPipeline`] worker (also named
/// [`Pipeline`]), an [`AdmittedPipeline`], a [`ShardedPipeline`], or a
/// [`Service`] — from one description.
///
/// Every `with_*` method is by-value (chainable); the `build_*` methods
/// validate the whole description at once and return
/// [`FreewayError::InvalidConfig`] on contradictions instead of
/// panicking mid-construction.
#[derive(Debug)]
pub struct PipelineBuilder {
    spec: ModelSpec,
    config: FreewayConfig,
    supervisor: SupervisorConfig,
    admission: Option<AdmissionConfig>,
    telemetry: Telemetry,
    shards: usize,
    service: Option<ServiceConfig>,
}

impl PipelineBuilder {
    /// Starts a builder for the given model architecture with default
    /// [`FreewayConfig`], default [`SupervisorConfig`], and telemetry
    /// disabled.
    pub fn new(spec: ModelSpec) -> Self {
        Self {
            spec,
            config: FreewayConfig::default(),
            supervisor: SupervisorConfig::default(),
            admission: None,
            telemetry: Telemetry::disabled(),
            shards: 1,
            service: None,
        }
    }

    /// Replaces the whole learner configuration.
    #[must_use]
    pub fn with_config(mut self, config: FreewayConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the whole supervision policy (queue depth, checkpoint
    /// cadence, quarantine size, restart budget).
    #[must_use]
    pub fn with_supervisor_config(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Sets the mini-batch size ([`FreewayConfig::mini_batch`]).
    #[must_use]
    pub fn with_mini_batch(mut self, mini_batch: usize) -> Self {
        self.config.mini_batch = mini_batch;
        self
    }

    /// Sets the PCA warm-up row budget
    /// ([`FreewayConfig::pca_warmup_rows`]).
    #[must_use]
    pub fn with_pca_warmup_rows(mut self, rows: usize) -> Self {
        self.config.pca_warmup_rows = rows;
        self
    }

    /// Sets the worker's channel bound
    /// ([`SupervisorConfig::queue_depth`]).
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.supervisor.queue_depth = queue_depth;
        self
    }

    /// Sets the checkpoint cadence
    /// ([`SupervisorConfig::checkpoint_every_n_batches`]).
    #[must_use]
    pub fn with_checkpoint_every(mut self, batches: usize) -> Self {
        self.supervisor.checkpoint_every_n_batches = batches;
        self
    }

    /// Persists checkpoints to this path atomically
    /// ([`SupervisorConfig::checkpoint_path`]).
    #[must_use]
    pub fn with_checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.supervisor.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the worker restart budget
    /// ([`SupervisorConfig::max_restarts`]).
    #[must_use]
    pub fn with_max_restarts(mut self, max_restarts: usize) -> Self {
        self.supervisor.max_restarts = max_restarts;
        self
    }

    /// Arms the liveness watchdog: a worker owing work that makes no
    /// heartbeat progress for this long is declared stalled and forcibly
    /// recovered ([`SupervisorConfig::stall_deadline`]). Off by default.
    #[must_use]
    pub fn with_stall_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.supervisor.stall_deadline = Some(deadline);
        self
    }

    /// Attaches a telemetry sink: metrics, stage timings, and the full
    /// event stream flow into it from the first batch onward.
    #[must_use]
    pub fn with_telemetry_sink(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = Telemetry::attached(sink);
        self
    }

    /// Attaches a pre-built telemetry handle (shared across components).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the durable ingest journal
    /// ([`SupervisorConfig::journal`]): every accepted batch is appended
    /// to a segmented write-ahead log at the config's path, and crash
    /// recovery replays journaled batches instead of dropping in-flight
    /// work — effectively-once semantics (see the
    /// [`crate::journal`] module docs). Applies to every supervised
    /// build target; [`Self::build_sharded`] gives each shard its own
    /// log at `<path>.shard<i>` so one shard's crash replays only that
    /// shard.
    #[must_use]
    pub fn journal(mut self, config: crate::journal::JournalConfig) -> Self {
        self.supervisor.journal = Some(config);
        self
    }

    /// Puts admission control in front of the supervised pipeline:
    /// overload policy, bounded shed buffer, and (via
    /// [`AdmissionConfig::ladder`]) the graceful-degradation ladder.
    /// [`Self::build_admitted`], [`Self::build_sharded`] (per shard), and
    /// [`Self::build_service`] consume this, falling back to
    /// [`AdmissionConfig::default`] when it is unset; the learner and
    /// supervised targets ignore it.
    #[must_use]
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Sets the shard count for [`Self::build_sharded`]: keyed batches
    /// are hash-routed across `n` independent admitted pipelines sharing
    /// one telemetry stream and one cross-shard knowledge registry. The
    /// other build targets ignore this.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Configures the multi-client serving facade for
    /// [`Self::build_service`] (shutdown drain budget, feed-order
    /// recording). The other build targets ignore this;
    /// `build_service` without it uses [`ServiceConfig::default`].
    #[must_use]
    pub fn service(mut self, config: ServiceConfig) -> Self {
        self.service = Some(config);
        self
    }

    /// Convenience: attaches an in-memory [`RecordingSink`] and hands it
    /// back so the caller can read events after (or during) the run.
    #[must_use]
    pub fn recording(mut self) -> (Self, Arc<RecordingSink>) {
        let (telemetry, sink) = Telemetry::recording();
        self.telemetry = telemetry;
        (self, sink)
    }

    /// Builds the bare learner (synchronous use, no worker thread).
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] naming the offending field.
    pub fn build_learner(self) -> Result<Learner, FreewayError> {
        self.supervisor.check().map_err(FreewayError::InvalidConfig)?;
        Learner::try_new(self.spec, self.config, self.telemetry)
    }

    /// Builds the worker pipeline: the same [`SupervisedPipeline`] as
    /// [`Self::build_supervised`], under its [`Pipeline`] name.
    ///
    /// # Errors
    /// As [`Self::build_supervised`].
    pub fn build(self) -> Result<Pipeline, FreewayError> {
        self.build_supervised()
    }

    /// Builds the fault-tolerant supervised pipeline.
    ///
    /// # Errors
    /// As [`Self::build_learner`], plus a journal left by a previous
    /// process that cannot be recovered.
    pub fn build_supervised(self) -> Result<SupervisedPipeline, FreewayError> {
        let supervisor = self.supervisor.clone();
        let learner = self.build_learner()?;
        SupervisedPipeline::with_learner(learner, supervisor)
    }

    /// Builds the supervised pipeline behind admission control (the
    /// config set via [`Self::admission`], or [`AdmissionConfig::default`]
    /// when none was set). The learner, the supervisor, and the ladder
    /// all share one [`DegradationHandle`], so a level change made by the
    /// ladder is visible to the worker thread on its very next batch —
    /// and survives crash-restore, because the supervisor re-attaches the
    /// handle to the recovered learner.
    ///
    /// # Errors
    /// As [`Self::build_supervised`], plus invalid admission knobs.
    pub fn build_admitted(self) -> Result<AdmittedPipeline, FreewayError> {
        let admission = self.admission.clone().unwrap_or_default();
        let supervisor = self.supervisor.clone();
        let handle = DegradationHandle::new();
        let mut learner = self.build_learner()?;
        learner.attach_degradation(handle.clone());
        let inner = SupervisedPipeline::with_learner(learner, supervisor)?;
        AdmittedPipeline::new(inner, admission, handle)
    }

    /// Builds the sharded multi-tenant runtime: [`Self::shards`] admitted
    /// pipelines behind a hash router, sharing one telemetry stream and
    /// one cross-shard [`SharedKnowledge`] registry (capacity
    /// [`FreewayConfig::kdg_buffer`], like each shard's local store).
    ///
    /// Thread budget (see [`FreewayConfig::num_threads`] for the full
    /// policy): the kernel worker pool is process-wide and shared by all
    /// shards, so with `n` shards the compute threads are the `n` shard
    /// workers plus the pool. The resolved kernel thread count is
    /// `FREEWAY_THREADS` when set, else `num_threads` (`0` meaning
    /// "cores / shards", i.e. hand the whole budget to the shards).
    /// Multi-shard with a parallel kernel pool must fit the host:
    /// `shards + kernel_threads > cores` is rejected. Serial kernels
    /// (the default) permit any shard count — workers beyond the core
    /// count time-slice, they do not oversubscribe kernel compute.
    ///
    /// Per-shard checkpoint paths get a `.shard<i>` suffix so shards
    /// never clobber each other's persisted generations.
    ///
    /// # Errors
    /// As [`Self::build_admitted`], plus a zero shard count or an
    /// oversubscribing shard/kernel-thread split.
    pub fn build_sharded(self) -> Result<ShardedPipeline, FreewayError> {
        if self.shards == 0 {
            return Err(FreewayError::InvalidConfig("shard count must be positive".to_owned()));
        }
        self.supervisor.check().map_err(FreewayError::InvalidConfig)?;
        let admission = self.admission.clone().unwrap_or_default();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let requested = std::env::var("FREEWAY_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .unwrap_or(self.config.num_threads);
        let kernel_threads = if requested == 0 {
            // Auto: the shard workers are the parallelism; give the
            // kernel pool whatever cores the workers leave over.
            (cores / self.shards).max(1)
        } else {
            requested
        };
        if self.shards > 1 && kernel_threads > 1 && self.shards + kernel_threads > cores {
            return Err(FreewayError::InvalidConfig(format!(
                "{} shards + {kernel_threads} kernel threads oversubscribe {cores} cores; \
                 use serial kernels (num_threads = 1) or fewer shards \
                 (see FreewayConfig::num_threads)",
                self.shards
            )));
        }
        let mut config = self.config;
        config.num_threads = kernel_threads;
        let shared = SharedKnowledge::new(config.kdg_buffer);
        let mut shards = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let mut supervisor = self.supervisor.clone();
            if let Some(path) = supervisor.checkpoint_path.take() {
                supervisor.checkpoint_path =
                    Some(PathBuf::from(format!("{}.shard{shard}", path.display())));
            }
            if let Some(journal) = supervisor.journal.as_mut() {
                // One log per shard: a crash on shard i replays only
                // shard i's admitted batches.
                journal.path = PathBuf::from(format!("{}.shard{shard}", journal.path.display()));
            }
            let handle = DegradationHandle::new();
            let mut learner =
                Learner::try_new(self.spec.clone(), config.clone(), self.telemetry.clone())?;
            learner.attach_degradation(handle.clone());
            if self.shards > 1 {
                // A single shard gets no registry handle: lookups could
                // only ever see its own entries (which are excluded), so
                // attaching would just spend publish work — and skipping
                // it keeps 1-shard runs byte-identical to the plain
                // pipeline (the parity oracle).
                learner.attach_shared_knowledge(&shared, shard);
            }
            let mut inner = SupervisedPipeline::with_learner(learner, supervisor)?;
            if self.shards > 1 {
                inner.set_shared_knowledge(shared.clone(), shard);
            }
            shards.push(AdmittedPipeline::new(inner, admission.clone(), handle)?);
        }
        Ok(ShardedPipeline::new(shards, shared, self.telemetry))
    }

    /// Builds the serving facade: a [`Self::build_sharded`] runtime behind
    /// cloneable [`crate::ServiceHandle`]s whose keyed
    /// [`crate::ClientSession`]s submit concurrently (see
    /// [`crate::serve`]). Configure with [`Self::service`]; a single
    /// shard is a valid (unsharded) service.
    ///
    /// # Errors
    /// As [`Self::build_sharded`], plus invalid service knobs.
    pub fn build_service(mut self) -> Result<Service, FreewayError> {
        let config = self.service.take().unwrap_or_default();
        let pipeline = self.build_sharded()?;
        Service::start(pipeline, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::{Batch, DriftPhase};

    fn spec() -> ModelSpec {
        ModelSpec::lr(4, 2)
    }

    #[test]
    fn invalid_learner_config_is_an_error_not_a_panic() {
        let err = PipelineBuilder::new(spec())
            .with_config(FreewayConfig { alpha: -1.0, ..Default::default() })
            .build_learner()
            .err()
            .expect("negative alpha is invalid");
        assert!(matches!(err, FreewayError::InvalidConfig(_)), "got {err:?}");
        assert!(err.to_string().contains("alpha"), "message names the field: {err}");
    }

    #[test]
    fn invalid_supervision_is_an_error_not_a_panic() {
        let err = PipelineBuilder::new(spec())
            .with_queue_depth(0)
            .build_supervised()
            .err()
            .expect("zero queue depth is invalid");
        assert!(matches!(err, FreewayError::InvalidConfig(_)), "got {err:?}");
        let err = PipelineBuilder::new(spec())
            .with_checkpoint_every(0)
            .build_learner()
            .err()
            .expect("zero cadence is invalid even for a bare learner");
        assert!(err.to_string().contains("cadence"), "{err}");
    }

    #[test]
    fn recording_builder_wires_the_sink_through_the_whole_stack() {
        let mut rng = stream_rng(31);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let (builder, sink) = PipelineBuilder::new(spec()).recording();
        let mut learner = builder
            .with_mini_batch(64)
            .with_pca_warmup_rows(32)
            .build_learner()
            .expect("valid configuration");
        for i in 0..6 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            learner.process(&Batch::labeled(x, y, i, DriftPhase::Stable));
        }
        assert!(!sink.is_empty(), "processing batches must emit events");
        let snapshot = learner.telemetry().metrics();
        assert_eq!(snapshot.counters.get("freeway_batches_total"), Some(&6));
    }

    #[test]
    fn supervised_builder_runs_a_stream() {
        let mut rng = stream_rng(32);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = PipelineBuilder::new(spec())
            .with_mini_batch(64)
            .with_pca_warmup_rows(32)
            .with_queue_depth(8)
            .build_supervised()
            .expect("valid configuration");
        for i in 0..5 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable)).expect("healthy");
        }
        let run = sup.finish().expect("clean finish");
        assert_eq!(run.stats.accepted, 5);
    }
}
