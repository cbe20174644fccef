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
//! * **shed batches** land in a counted, bounded [`ShedBuffer`]
//!   (mirroring the poison quarantine), each announced as
//!   [`TelemetryEvent::BatchShed`];
//! * a [`DegradationLadder`] watches queue pressure and steps the
//!   learner's service level down before shedding becomes the only
//!   option, then back up — with hysteresis — once the load clears.
//!
//! The controller is a wrapper, not a mode: pipelines built without it
//! are byte-for-byte the code that ran before, so admission control is
//! zero-cost when disabled.

use crate::degrade::{DegradationHandle, DegradationLadder, DegradationLevel, LadderConfig};
use crate::error::FreewayError;
use crate::learner::Learner;
use crate::pipeline::PipelineOutput;
use crate::supervisor::{FinishedRun, SupervisedPipeline, TryFeedOutcome};
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

/// One shed batch, held for inspection.
#[derive(Clone, Debug)]
pub struct ShedBatch {
    /// The dropped batch itself.
    pub batch: Batch,
    /// Why it was dropped.
    pub reason: ShedReason,
}

/// Bounded, counted buffer of shed batches (the overload mirror of the
/// poison [`crate::guard::Quarantine`]): every shed is counted, only the
/// most recent `capacity` are kept, so shedding never grows memory
/// without bound.
#[derive(Clone, Debug)]
pub struct ShedBuffer {
    entries: VecDeque<ShedBatch>,
    capacity: usize,
    total: u64,
    evicted: u64,
}

impl ShedBuffer {
    fn new(capacity: usize) -> Self {
        Self { entries: VecDeque::new(), capacity: capacity.max(1), total: 0, evicted: 0 }
    }

    fn push(&mut self, batch: Batch, reason: ShedReason) {
        self.total += 1;
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(ShedBatch { batch, reason });
    }

    /// Every shed ever recorded (kept or evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sheds evicted to respect the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained shed batches, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &ShedBatch> {
        self.entries.iter()
    }

    /// Number of batches currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    /// How many shed batches the [`ShedBuffer`] retains (all are counted
    /// regardless).
    pub shed_capacity: usize,
    /// Degradation ladder; `None` disables graceful degradation (the
    /// policy alone governs overload).
    pub ladder: Option<LadderConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            policy: AdmissionPolicy::SheddingNewest,
            backlog_capacity: 32,
            shed_capacity: 64,
            ladder: Some(LadderConfig::default()),
        }
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
        if self.shed_capacity == 0 {
            return Err("admission shed capacity must be positive".to_owned());
        }
        if let Some(ladder) = &self.ladder {
            ladder.check()?;
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
    /// The batch failed validation and sits in the poison quarantine.
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
    /// Batches shed (all reasons; see the [`ShedBuffer`] for detail).
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
    shed: ShedBuffer,
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
    /// Wraps a supervised pipeline in admission control. The learner
    /// driving `inner` must already share `handle` (the builder attaches
    /// it before spawning the worker).
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `config` fails
    /// [`AdmissionConfig::check`].
    pub fn new(
        mut inner: SupervisedPipeline,
        config: AdmissionConfig,
        handle: DegradationHandle,
    ) -> Result<Self, FreewayError> {
        config.check().map_err(FreewayError::InvalidConfig)?;
        inner.set_degradation_handle(handle.clone());
        let telemetry = inner.telemetry().clone();
        let ladder =
            config.ladder.map(|lc| DegradationLadder::new(lc, handle.clone(), telemetry.clone()));
        let shed = ShedBuffer::new(config.shed_capacity);
        Ok(Self {
            inner,
            config,
            backlog: VecDeque::new(),
            shed,
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
            self.shed_batch(batch, ShedReason::Fenced);
            return Ok(Ok(AdmissionOutcome::Shed(ShedReason::Fenced)));
        }
        let seq = batch.seq;
        self.drain_backlog()?;
        let outcome = if self.handle.level() == DegradationLevel::Shed {
            // The ladder's last resort: even inference is load we cannot
            // afford. Shedding here keeps the queue draining so the
            // recovery observations below can actually happen.
            self.shed_batch(batch, ShedReason::Degraded);
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
            match self.try_inner(batch, prequential)? {
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
            AdmissionPolicy::Block => {
                // Backpressure by waiting: hand the batch to the blocking
                // path, which pumps worker output until space frees up.
                let outcome = if prequential {
                    self.inner.feed_prequential(full)?
                } else {
                    self.inner.feed(full)?
                };
                self.stats.admitted += 1;
                match outcome {
                    crate::supervisor::FeedOutcome::Accepted => Ok(AdmissionOutcome::Admitted),
                    crate::supervisor::FeedOutcome::Quarantined(fault) => {
                        // Unreachable in practice: try_inner validated
                        // already. Kept total for safety.
                        self.stats.admitted -= 1;
                        self.stats.quarantined += 1;
                        Ok(AdmissionOutcome::Quarantined(fault))
                    }
                }
            }
            AdmissionPolicy::SheddingNewest => {
                if self.backlog.len() < self.config.backlog_capacity {
                    self.push_backlog(full, prequential);
                    Ok(AdmissionOutcome::Backlogged)
                } else {
                    self.shed_batch(full, ShedReason::QueueFull);
                    Ok(AdmissionOutcome::Shed(ShedReason::QueueFull))
                }
            }
        })
    }

    /// One non-blocking offer to the inner pipeline. `Ok(Ok(..))` means
    /// the batch was resolved (admitted or quarantined); `Ok(Err(b))`
    /// hands the batch back on a full queue.
    fn try_inner(
        &mut self,
        batch: Batch,
        prequential: bool,
    ) -> Result<Result<AdmissionOutcome, Batch>, FreewayError> {
        let outcome = if prequential {
            self.inner.try_feed_prequential(batch)?
        } else {
            self.inner.try_feed(batch)?
        };
        Ok(match outcome {
            TryFeedOutcome::Accepted => {
                self.stats.admitted += 1;
                Ok(AdmissionOutcome::Admitted)
            }
            TryFeedOutcome::Quarantined(fault) => {
                self.stats.quarantined += 1;
                Ok(AdmissionOutcome::Quarantined(fault))
            }
            TryFeedOutcome::Full(batch) => Err(batch),
        })
    }

    fn push_backlog(&mut self, batch: Batch, prequential: bool) {
        self.backlog.push_back((batch, prequential));
        self.stats.backlog_peak = self.stats.backlog_peak.max(self.backlog.len());
    }

    /// Moves as many backlogged batches to the worker as fit right now.
    fn drain_backlog(&mut self) -> Result<(), FreewayError> {
        while let Some((batch, prequential)) = self.backlog.pop_front() {
            match self.try_inner(batch, prequential)? {
                Ok(_) => {}
                Err(batch) => {
                    self.backlog.push_front((batch, prequential));
                    break;
                }
            }
        }
        Ok(())
    }

    fn shed_batch(&mut self, batch: Batch, reason: ShedReason) {
        self.stats.shed += 1;
        self.telemetry.emit(TelemetryEvent::BatchShed { seq: batch.seq, reason: reason.tag() });
        self.shed.push(batch, reason);
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

    /// The shed-batch buffer (counted, bounded).
    pub fn shed(&self) -> &ShedBuffer {
        &self.shed
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
    /// backlog is drained into the shed buffer as [`ShedReason::Fenced`]
    /// (those batches were waiting for a worker that will never return)
    /// and every future offer is shed the same way. Outputs the dead
    /// worker already produced stay consumable via [`Self::try_recv`].
    pub(crate) fn fence(&mut self) {
        if self.fenced {
            return;
        }
        self.fenced = true;
        while let Some((batch, _prequential)) = self.backlog.pop_front() {
            self.shed_batch(batch, ShedReason::Fenced);
        }
    }

    /// Counts a batch that was consumed by the feed that *triggered* the
    /// fence (it was handed to a worker that died before answering, past
    /// the restart budget — there is nothing left to retain).
    pub(crate) fn note_fenced_drop(&mut self, seq: u64) {
        self.stats.shed += 1;
        self.telemetry.emit(TelemetryEvent::BatchShed { seq, reason: ShedReason::Fenced.tag() });
    }

    /// Liveness passthrough: polls the wrapped supervisor's stall
    /// watchdog (see [`SupervisedPipeline::check_liveness`]); after a
    /// forced recovery the backlog is drained into the fresh worker's
    /// empty queue. A fenced pipeline reports `Ok(false)` without
    /// touching the dead worker.
    ///
    /// # Errors
    /// As [`SupervisedPipeline::check_liveness`].
    pub fn check_liveness(&mut self) -> Result<bool, FreewayError> {
        if self.fenced {
            return Ok(false);
        }
        let recovered = self.inner.check_liveness()?;
        if recovered {
            self.drain_backlog()?;
        }
        Ok(recovered)
    }

    /// The wrapped supervised pipeline: its counters, quarantine,
    /// journal stats, and chaos hooks. Shed batches never reach it, so
    /// they are never journaled — the log holds exactly the admitted
    /// stream.
    pub fn supervisor(&mut self) -> &mut SupervisedPipeline {
        &mut self.inner
    }

    /// Flushes the backlog (blocking — these batches were accepted for
    /// service, not shed) and finishes the wrapped pipeline, returning
    /// the run plus this controller's view of what was shed.
    ///
    /// # Errors
    /// As [`SupervisedPipeline::finish`].
    pub fn finish(mut self) -> Result<AdmittedRun, FreewayError> {
        while let Some((batch, prequential)) = self.backlog.pop_front() {
            if prequential {
                self.inner.feed_prequential(batch)?;
            } else {
                self.inner.feed(batch)?;
            }
            self.stats.admitted += 1;
        }
        let run = self.inner.finish()?;
        Ok(AdmittedRun { run, admission: self.stats, shed: self.shed })
    }
}

/// Everything a finished admitted run hands back.
pub struct AdmittedRun {
    /// The wrapped supervised run (learner, outputs, stats, quarantine).
    pub run: FinishedRun,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// The shed-batch buffer.
    pub shed: ShedBuffer,
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
    use crate::supervisor::SupervisorConfig;
    use freeway_ml::ModelSpec;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::DriftPhase;
    use std::time::Duration;

    fn build(policy: AdmissionPolicy, queue_depth: usize, backlog: usize) -> AdmittedPipeline {
        PipelineBuilder::new(ModelSpec::lr(4, 2))
            .with_config(FreewayConfig {
                pca_warmup_rows: 32,
                mini_batch: 64,
                ..Default::default()
            })
            .with_supervisor_config(SupervisorConfig { queue_depth, ..Default::default() })
            .admission(AdmissionConfig {
                policy,
                backlog_capacity: backlog,
                shed_capacity: 8,
                ladder: None,
            })
            .build_admitted()
            .expect("valid admission build")
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
        let bad = AdmissionConfig { shed_capacity: 0, ..Default::default() };
        assert!(bad.check().unwrap_err().contains("shed"));
        assert!(AdmissionConfig::default().check().is_ok());
    }

    #[test]
    fn block_policy_never_sheds() {
        let mut p = build(AdmissionPolicy::Block, 2, 0);
        p.supervisor().set_chaos_train_delay(Duration::from_millis(2));
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
        let mut p = build(AdmissionPolicy::SheddingNewest, 1, 2);
        p.supervisor().set_chaos_train_delay(Duration::from_millis(25));
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
        p.supervisor().set_chaos_train_delay(Duration::ZERO);
        let run = p.finish().expect("finish");
        assert_eq!(run.admission.shed, shed);
        assert_eq!(run.shed.total(), shed);
        assert!(run.shed.len() <= 8, "shed buffer is bounded");
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
            .with_supervisor_config(SupervisorConfig { queue_depth: 2, ..Default::default() })
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::SheddingNewest,
                backlog_capacity: 2,
                shed_capacity: 64,
                ladder: Some(LadderConfig {
                    downgrade_above: 0.7,
                    upgrade_below: 0.3,
                    dwell_down: 2,
                    dwell_up: 3,
                }),
            })
            .build_admitted()
            .expect("valid admission build");
        p.supervisor().set_chaos_train_delay(Duration::from_millis(25));
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
        p.supervisor().set_chaos_train_delay(Duration::ZERO);
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
