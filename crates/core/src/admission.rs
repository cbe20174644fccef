//! Admission control in front of the supervised pipeline: bounded
//! backlog, counted load shedding, and the degradation ladder.
//!
//! The supervised runtime survives *faults*; this module makes it
//! survive *overload*. Without it, a producer faster than the worker has
//! two bad options: block (unbounded producer latency — the stream backs
//! up upstream) or grow a queue (unbounded memory). [`AdmittedPipeline`]
//! gives it governed options instead:
//!
//! * **policy** ([`AdmissionPolicy`]) decides what happens when the
//!   worker queue is full — block, or backlog and then shed the newest
//!   batch;
//! * **shed batches** are counted, not kept: each one adds to
//!   [`AdmissionStats::shed`] and is announced as a
//!   [`TelemetryEvent::BatchShed`] naming its [`ShedReason`], so shedding
//!   holds no memory;
//! * a [`DegradationLadder`] watches queue pressure and steps the
//!   learner's service level down before shedding becomes the only
//!   option, then back up — with hysteresis — once the load clears.
//!
//! The controller is a wrapper, not a mode: pipelines built without it
//! are byte-for-byte the code that ran before, so admission control is
//! zero-cost when disabled.

use crate::degrade::{DegradationHandle, DegradationLadder, DegradationLevel};
use crate::error::FreewayError;
use crate::learner::Learner;
use crate::pipeline::PipelineOutput;
use crate::supervisor::{FeedOutcome, FinishedRun, SupervisedPipeline};
use freeway_streams::Batch;
use freeway_telemetry::{Telemetry, TelemetryEvent};
use std::collections::VecDeque;

/// What to do with a batch when the worker queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Wait for queue space (the pre-admission behaviour). Producer
    /// latency is unbounded; nothing is ever dropped.
    Block,
    /// Keep a bounded backlog; once it is full, drop the *incoming*
    /// batch. Preserves the oldest waiting work (FIFO fairness).
    SheddingNewest,
}

impl AdmissionPolicy {
    /// Static tag used in config validation messages and exports.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Block => "block",
            Self::SheddingNewest => "shedding-newest",
        }
    }
}

/// Why a batch was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedReason {
    /// Worker queue and backlog were both full.
    QueueFull,
    /// The degradation ladder reached [`DegradationLevel::Shed`].
    Degraded,
    /// The shard owning this pipeline exhausted its restart budget and
    /// was fenced; the batch (and any backlog) is dropped here while
    /// subsequent traffic for its keys is rerouted to surviving shards.
    Fenced,
}

impl ShedReason {
    /// Static tag used in telemetry events and exports.
    pub fn tag(self) -> &'static str {
        match self {
            Self::QueueFull => "queue-full",
            Self::Degraded => "degraded",
            Self::Fenced => "fenced",
        }
    }
}

/// Admission-control knobs.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// What to do when the worker queue is full.
    pub policy: AdmissionPolicy,
    /// Batches held caller-side while the worker queue is full (not used
    /// by [`AdmissionPolicy::Block`]).
    pub backlog_capacity: usize,
    /// Whether the [`DegradationLadder`] steps the learner's service
    /// level down under queue pressure and back up once it clears; off,
    /// the policy alone governs overload.
    pub ladder: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { policy: AdmissionPolicy::SheddingNewest, backlog_capacity: 32, ladder: true }
    }
}

impl AdmissionConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// A message naming the offending field, in the builder's
    /// `InvalidConfig` style.
    pub fn check(&self) -> Result<(), String> {
        if self.policy == AdmissionPolicy::SheddingNewest && self.backlog_capacity == 0 {
            return Err(format!(
                "admission policy {} needs a positive backlog capacity",
                self.policy.tag()
            ));
        }
        Ok(())
    }
}

/// What happened to a batch offered to [`AdmittedPipeline::feed`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AdmissionOutcome {
    /// The batch reached the worker (possibly after a wait).
    Admitted,
    /// The batch is waiting caller-side in the bounded backlog; it will
    /// reach the worker on a later feed/drain call.
    Backlogged,
    /// The batch failed validation and was quarantined: counted and dropped.
    Quarantined(crate::guard::BatchFault),
    /// The batch was dropped under the configured policy.
    Shed(ShedReason),
}

/// Counters describing admission control over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Batches offered to [`AdmittedPipeline::feed`].
    pub offered: u64,
    /// Batches that reached the worker.
    pub admitted: u64,
    /// Batches shed, all reasons. A shed batch is dropped, not kept;
    /// each one is also announced as a [`TelemetryEvent::BatchShed`]
    /// naming its [`ShedReason`].
    pub shed: u64,
    /// Batches quarantined as poison (also counted in
    /// [`crate::supervisor::SupervisorStats::quarantined`]).
    pub quarantined: u64,
    /// High-water mark of the caller-side backlog.
    pub backlog_peak: usize,
    /// Degradation-ladder transitions (both directions).
    pub degradation_transitions: u64,
}

/// A [`SupervisedPipeline`] behind admission control. Construct via
/// [`crate::PipelineBuilder::admission`] + `build_admitted`.
pub struct AdmittedPipeline {
    inner: SupervisedPipeline,
    config: AdmissionConfig,
    /// Batches accepted by the guard-side policy but not yet on the
    /// worker queue, oldest first, with their prequential flag.
    backlog: VecDeque<(Batch, bool)>,
    ladder: Option<DegradationLadder>,
    handle: DegradationHandle,
    stats: AdmissionStats,
    telemetry: Telemetry,
    /// Raised by [`Self::fence`] after the shard's restart budget
    /// exhausted: every subsequent offer is shed with
    /// [`ShedReason::Fenced`] instead of touching the dead worker.
    fenced: bool,
}

/// The outcome of an offer that waited: no policy hands such a batch back.
pub(crate) fn waited(
    outcome: Result<AdmissionOutcome, Batch>,
) -> Result<AdmissionOutcome, FreewayError> {
    outcome.map_err(|_| FreewayError::QueueFull)
}

impl AdmittedPipeline {
    /// Wraps a supervised pipeline in admission control. The ladder
    /// steps the degradation level of the learner `inner` was built with.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `config` fails
    /// [`AdmissionConfig::check`].
    pub fn new(inner: SupervisedPipeline, config: AdmissionConfig) -> Result<Self, FreewayError> {
        config.check().map_err(FreewayError::InvalidConfig)?;
        let handle = inner.degradation().clone();
        let telemetry = inner.telemetry().clone();
        let ladder =
            config.ladder.then(|| DegradationLadder::new(handle.clone(), telemetry.clone()));
        Ok(Self {
            inner,
            config,
            backlog: VecDeque::new(),
            ladder,
            handle,
            stats: AdmissionStats::default(),
            telemetry,
            fenced: false,
        })
    }

    /// Offers a training/inference batch (routed by labeledness).
    ///
    /// # Errors
    /// As [`SupervisedPipeline::feed`] — supervision errors, never
    /// backpressure (that is what the policy absorbs).
    pub fn feed(&mut self, batch: Batch) -> Result<AdmissionOutcome, FreewayError> {
        waited(self.offer(batch, false, true)?)
    }

    /// Offers a prequential batch; see [`Self::feed`].
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn feed_prequential(&mut self, batch: Batch) -> Result<AdmissionOutcome, FreewayError> {
        waited(self.offer(batch, true, true)?)
    }

    /// Offers one batch. With `wait` unset, a batch that
    /// [`AdmissionPolicy::Block`] would wait on comes straight back as
    /// `Err`, untouched and not counted as offered, so its retry counts
    /// once; every other outcome is the same as a waiting offer's.
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub(crate) fn offer(
        &mut self,
        batch: Batch,
        prequential: bool,
        wait: bool,
    ) -> Result<Result<AdmissionOutcome, Batch>, FreewayError> {
        self.stats.offered += 1;
        if self.fenced {
            // Defensive: the sharded router stops sending here once the
            // fence is up, but a direct caller still gets a counted,
            // typed verdict instead of a dead-worker error.
            self.count_shed(batch.seq, ShedReason::Fenced);
            return Ok(Ok(AdmissionOutcome::Shed(ShedReason::Fenced)));
        }
        let seq = batch.seq;
        self.drain_backlog()?;
        let outcome = if self.handle.level() == DegradationLevel::Shed {
            // The ladder's last resort: even inference is load we cannot
            // afford. Shedding here keeps the queue draining so the
            // recovery observations below can actually happen.
            self.count_shed(seq, ShedReason::Degraded);
            AdmissionOutcome::Shed(ShedReason::Degraded)
        } else {
            match self.offer_with_policy(batch, prequential, wait)? {
                Ok(outcome) => outcome,
                Err(batch) => {
                    self.stats.offered -= 1;
                    return Ok(Err(batch));
                }
            }
        };
        self.observe_pressure(seq);
        Ok(Ok(outcome))
    }

    fn offer_with_policy(
        &mut self,
        batch: Batch,
        prequential: bool,
        wait: bool,
    ) -> Result<Result<AdmissionOutcome, Batch>, FreewayError> {
        // A non-empty backlog means older batches are still waiting; the
        // incoming one must not jump the queue (the guard would see its
        // seq regress when the backlog drains). Only shedding-newest
        // ever backlogs, so Block always takes the direct path.
        let full = if self.backlog.is_empty() {
            match self.try_inner(batch, prequential, false)? {
                Ok(outcome) => return Ok(Ok(outcome)),
                Err(batch) => batch,
            }
        } else {
            // Judge poison now: once backlogged, the batch meets the
            // guard in drain_backlog, where no caller hears the verdict.
            match self.inner.screen(batch) {
                Ok(batch) => batch,
                Err(fault) => {
                    self.stats.quarantined += 1;
                    return Ok(Ok(AdmissionOutcome::Quarantined(fault)));
                }
            }
        };
        Ok(match self.config.policy {
            AdmissionPolicy::Block if !wait => Err(full),
            // Backpressure by waiting: the waiting offer pumps worker
            // output until space frees up.
            AdmissionPolicy::Block => return self.try_inner(full, prequential, true),
            AdmissionPolicy::SheddingNewest => {
                if self.backlog.len() < self.config.backlog_capacity {
                    self.push_backlog(full, prequential);
                    Ok(AdmissionOutcome::Backlogged)
                } else {
                    self.count_shed(full.seq, ShedReason::QueueFull);
                    Ok(AdmissionOutcome::Shed(ShedReason::QueueFull))
                }
            }
        })
    }

    /// One offer to the inner pipeline, waiting out a full queue when
    /// `wait` is set. `Ok(Ok(..))` means the batch was resolved (admitted
    /// or quarantined); `Ok(Err(b))` hands the batch back on a full queue.
    fn try_inner(
        &mut self,
        batch: Batch,
        prequential: bool,
        wait: bool,
    ) -> Result<Result<AdmissionOutcome, Batch>, FreewayError> {
        Ok(match self.inner.offer(batch, prequential, wait)? {
            Ok(FeedOutcome::Accepted) => {
                self.stats.admitted += 1;
                Ok(AdmissionOutcome::Admitted)
            }
            Ok(FeedOutcome::Quarantined(fault)) => {
                self.stats.quarantined += 1;
                Ok(AdmissionOutcome::Quarantined(fault))
            }
            Err(batch) => Err(batch),
        })
    }

    fn push_backlog(&mut self, batch: Batch, prequential: bool) {
        self.backlog.push_back((batch, prequential));
        self.stats.backlog_peak = self.stats.backlog_peak.max(self.backlog.len());
    }

    /// Moves as many backlogged batches to the worker as fit right now.
    fn drain_backlog(&mut self) -> Result<(), FreewayError> {
        while let Some((batch, prequential)) = self.backlog.pop_front() {
            match self.try_inner(batch, prequential, false)? {
                Ok(_) => {}
                Err(batch) => {
                    self.backlog.push_front((batch, prequential));
                    break;
                }
            }
        }
        Ok(())
    }

    /// Counts and announces one shed batch. Also counts a batch consumed
    /// by the feed that *triggered* a fence: it was handed to a worker
    /// that died past its restart budget, so nothing answers it.
    pub(crate) fn count_shed(&mut self, seq: u64, reason: ShedReason) {
        self.stats.shed += 1;
        self.telemetry.emit(TelemetryEvent::BatchShed { seq, reason: reason.tag() });
    }

    /// Feeds the ladder one pressure observation: normalized occupancy of
    /// queue + backlog.
    fn observe_pressure(&mut self, seq: u64) {
        let Some(ladder) = self.ladder.as_mut() else { return };
        let capacity = self.inner.queue_depth() + self.config.backlog_capacity;
        let pressure = if capacity == 0 {
            0.0
        } else {
            (self.inner.in_flight() + self.backlog.len()) as f64 / capacity as f64
        };
        let before = ladder.level();
        let after = ladder.observe(seq, pressure);
        if before != after {
            self.stats.degradation_transitions += 1;
        }
    }

    /// Receives the next output without blocking; see
    /// [`SupervisedPipeline::try_recv`]. Also opportunistically drains
    /// the backlog — consuming outputs is what frees queue space.
    ///
    /// # Errors
    /// As [`SupervisedPipeline::try_recv`].
    pub fn try_recv(&mut self) -> Result<Option<PipelineOutput>, FreewayError> {
        let out = self.inner.try_recv()?;
        self.drain_backlog()?;
        Ok(out)
    }

    /// Current degradation service level.
    pub fn degradation_level(&self) -> DegradationLevel {
        self.handle.level()
    }

    /// Admission counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Batches waiting caller-side for queue space.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Normalized occupancy of worker queue + backlog in `[0, 1]`; the
    /// measured queue-pressure signal behind dynamic `Busy` retry hints.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.inner.queue_depth() + self.config.backlog_capacity;
        if capacity == 0 {
            return 0.0;
        }
        let filled = (self.inner.in_flight() + self.backlog.len()).min(capacity);
        filled as f64 / capacity as f64
    }

    /// Whether this pipeline has been fenced (restart budget exhausted).
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// Fences the pipeline after its restart budget exhausted: the
    /// backlog is shed as [`ShedReason::Fenced`] (those batches were
    /// waiting for a worker that will never return) and every future
    /// offer is shed the same way. Outputs the dead worker already
    /// produced stay consumable via [`Self::try_recv`].
    pub(crate) fn fence(&mut self) {
        if self.fenced {
            return;
        }
        self.fenced = true;
        while let Some((batch, _prequential)) = self.backlog.pop_front() {
            self.count_shed(batch.seq, ShedReason::Fenced);
        }
    }

    /// The wrapped supervised pipeline: its counters, journal stats, and
    /// fault injection. Shed batches never reach it, so they are never
    /// journaled — the log holds exactly the admitted stream.
    pub fn supervisor(&mut self) -> &mut SupervisedPipeline {
        &mut self.inner
    }

    /// Flushes the backlog (waiting — these batches were accepted for
    /// service, not shed) and finishes the wrapped pipeline, returning
    /// the run plus this controller's counters.
    ///
    /// # Errors
    /// As [`SupervisedPipeline::finish`].
    pub fn finish(mut self) -> Result<AdmittedRun, FreewayError> {
        while let Some((batch, prequential)) = self.backlog.pop_front() {
            waited(self.try_inner(batch, prequential, true)?)?;
        }
        let run = self.inner.finish()?;
        Ok(AdmittedRun { run, admission: self.stats })
    }
}

/// Everything a finished admitted run hands back.
pub struct AdmittedRun {
    /// The wrapped supervised run (learner, outputs, stats, journal).
    pub run: FinishedRun,
    /// Admission counters.
    pub admission: AdmissionStats,
}

/// Recovers a trained [`Learner`] plus all remaining outputs; sugar over
/// the nested [`FinishedRun`].
impl AdmittedRun {
    /// The learner recovered from the run.
    pub fn learner(&self) -> &Learner {
        &self.run.learner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PipelineBuilder;
    use crate::config::FreewayConfig;
    use crate::supervisor::Fault;
    use freeway_ml::ModelSpec;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::DriftPhase;
    use freeway_telemetry::{RecordingSink, TelemetrySink};
    use std::sync::Arc;
    use std::time::Duration;

    fn build(
        policy: AdmissionPolicy,
        queue_depth: usize,
        backlog: usize,
    ) -> (AdmittedPipeline, Arc<RecordingSink>) {
        let (builder, sink) = PipelineBuilder::new(ModelSpec::lr(4, 2))
            .with_config(FreewayConfig {
                pca_warmup_rows: 32,
                mini_batch: 64,
                ..Default::default()
            })
            .with_queue_depth(queue_depth)
            .admission(AdmissionConfig { policy, backlog_capacity: backlog, ladder: false })
            .recording();
        (builder.build_admitted().expect("valid admission build"), sink)
    }

    fn batches(n: u64, seed: u64) -> Vec<Batch> {
        let mut rng = stream_rng(seed);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        (0..n)
            .map(|i| {
                let (x, y) = concept.sample_batch(48, &mut rng);
                Batch::labeled(x, y, i, DriftPhase::Stable)
            })
            .collect()
    }

    #[test]
    fn config_validation_names_the_field() {
        let bad = AdmissionConfig { backlog_capacity: 0, ..Default::default() };
        assert!(bad.check().unwrap_err().contains("backlog"));
        assert!(AdmissionConfig::default().check().is_ok());
    }

    #[test]
    fn block_policy_never_sheds() {
        let (mut p, _) = build(AdmissionPolicy::Block, 2, 0);
        p.supervisor().inject(Fault::SlowTrain(Duration::from_millis(2))).expect("slow train");
        for b in batches(20, 31) {
            let outcome = p.feed_prequential(b).expect("healthy");
            assert_eq!(outcome, AdmissionOutcome::Admitted);
        }
        let run = p.finish().expect("finish");
        assert_eq!(run.admission.shed, 0);
        assert_eq!(run.admission.admitted, 20);
        assert_eq!(run.run.stats.accepted, 20);
    }

    #[test]
    fn shedding_newest_bounds_memory_and_counts_sheds() {
        let (mut p, sink) = build(AdmissionPolicy::SheddingNewest, 1, 2);
        p.supervisor().inject(Fault::SlowTrain(Duration::from_millis(25))).expect("slow train");
        let mut shed = 0u64;
        let mut backlogged = 0u64;
        for b in batches(30, 32) {
            match p.feed_prequential(b).expect("healthy") {
                AdmissionOutcome::Shed(ShedReason::QueueFull) => shed += 1,
                AdmissionOutcome::Backlogged => backlogged += 1,
                AdmissionOutcome::Admitted => {}
                other => panic!("unexpected outcome: {other:?}"),
            }
            assert!(p.backlog_len() <= 2, "backlog bound holds");
        }
        assert!(shed > 0, "a 25ms worker behind a 1-deep queue must shed");
        assert!(backlogged > 0, "the backlog absorbs the first overflow");
        p.supervisor().inject(Fault::SlowTrain(Duration::ZERO)).expect("slow train");
        let run = p.finish().expect("finish");
        assert_eq!(run.admission.shed, shed);
        let announced =
            sink.events().iter().filter(|e| matches!(e, TelemetryEvent::BatchShed { .. })).count();
        assert_eq!(run.admission.shed, announced as u64, "every shed batch is announced");
        assert_eq!(run.admission.offered, 30);
        assert_eq!(run.admission.admitted + run.admission.shed, 30);
    }

    #[test]
    fn ladder_degrades_under_load_and_recovers() {
        let mut p = PipelineBuilder::new(ModelSpec::lr(4, 2))
            .with_config(FreewayConfig {
                pca_warmup_rows: 32,
                mini_batch: 64,
                ..Default::default()
            })
            .with_queue_depth(2)
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::SheddingNewest,
                backlog_capacity: 2,
                ladder: true,
            })
            .build_admitted()
            .expect("valid admission build");
        p.supervisor().inject(Fault::SlowTrain(Duration::from_millis(25))).expect("slow train");
        let mut degraded_seen = false;
        for b in batches(25, 35) {
            p.feed_prequential(b).expect("healthy");
            if p.degradation_level() != DegradationLevel::Full {
                degraded_seen = true;
            }
        }
        assert!(degraded_seen, "sustained overload must step the ladder down");
        // Clear the load and keep feeding, paced below the service rate so
        // occupancy actually falls: the ladder must come back up. The loop
        // is condition-driven (with a generous cap) because how fast the
        // queue drains depends on machine load.
        p.supervisor().inject(Fault::SlowTrain(Duration::ZERO)).expect("slow train");
        let mut rng = stream_rng(99);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        for seq in 25..425 {
            if p.degradation_level() == DegradationLevel::Full {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            while p.try_recv().expect("healthy").is_some() {}
            let (x, y) = concept.sample_batch(48, &mut rng);
            p.feed_prequential(Batch::labeled(x, y, seq, DriftPhase::Stable)).expect("healthy");
        }
        assert_eq!(
            p.degradation_level(),
            DegradationLevel::Full,
            "recovery must walk the ladder back up"
        );
        let run = p.finish().expect("finish");
        assert!(run.admission.degradation_transitions >= 2, "{:?}", run.admission);
    }
}
