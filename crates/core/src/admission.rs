//! Admission control in front of the supervised pipeline: counted load
//! shedding at the worker queue, and the degradation ladder.
//!
//! The supervised runtime survives *faults*; this module makes it
//! survive *overload*. Without it, a producer faster than the worker has
//! two bad options: block (unbounded producer latency — the stream backs
//! up upstream) or grow a queue (unbounded memory). [`AdmittedPipeline`]
//! gives it governed options instead, over one buffer, the worker's
//! bounded queue:
//!
//! * **policy** ([`AdmissionPolicy`]) decides what happens when that
//!   queue is full — block, or shed the newest batch;
//! * **shed batches** are counted, not kept: each one adds to
//!   [`AdmissionStats::shed`] and is announced as a
//!   [`TelemetryEvent::BatchShed`] naming its [`ShedReason`], so shedding
//!   holds no memory;
//! * a [`DegradationLadder`] watches the queue's occupancy and steps the
//!   learner's service level down before shedding becomes the only
//!   option, then back up — with hysteresis — once the load clears.
//!
//! The controller is a wrapper, not a mode: pipelines built without it
//! are byte-for-byte the code that ran before, so admission control is
//! zero-cost when disabled.

use crate::degrade::{DegradationLadder, DegradationLevel};
use crate::error::FreewayError;
use crate::learner::Learner;
use crate::pipeline::PipelineOutput;
use crate::supervisor::{FeedOutcome, FinishedRun, SupervisedPipeline};
use freeway_streams::Batch;
use freeway_telemetry::TelemetryEvent;

/// What to do with a batch when the worker queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Wait for queue space (the pre-admission behaviour). Producer
    /// latency is unbounded; nothing is ever dropped.
    Block,
    /// Drop the *incoming* batch when the worker queue is full.
    /// Preserves the oldest waiting work (FIFO fairness).
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
    /// The worker queue was full.
    QueueFull,
    /// The degradation ladder reached [`DegradationLevel::Shed`].
    Degraded,
    /// The shard owning this pipeline exhausted its restart budget and
    /// was fenced: the batch whose feed found that out is dropped, and
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

/// Admission-control knobs. The one buffer is the worker queue, sized by
/// [`crate::PipelineBuilder::with_queue_depth`].
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// What to do when the worker queue is full.
    pub policy: AdmissionPolicy,
    /// Whether the [`DegradationLadder`] steps the learner's service
    /// level down under queue pressure and back up once it clears; off,
    /// the policy alone governs overload.
    pub ladder: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { policy: AdmissionPolicy::SheddingNewest, ladder: true }
    }
}

/// What happened to a batch offered to [`AdmittedPipeline::feed`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AdmissionOutcome {
    /// The batch reached the worker queue (possibly after a wait).
    Admitted,
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
    /// Degradation-ladder transitions (both directions).
    pub degradation_transitions: u64,
}

/// A [`SupervisedPipeline`] behind admission control. Construct via
/// [`crate::PipelineBuilder::admission`] + `build_admitted`.
pub struct AdmittedPipeline {
    inner: SupervisedPipeline,
    policy: AdmissionPolicy,
    ladder: Option<DegradationLadder>,
    /// Every counter but the ladder's transitions, which it counts itself.
    stats: AdmissionStats,
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
    pub fn new(inner: SupervisedPipeline, config: AdmissionConfig) -> Self {
        let ladder = config.ladder.then(|| {
            DegradationLadder::new(inner.degradation().clone(), inner.telemetry().clone())
        });
        Self { inner, policy: config.policy, ladder, stats: AdmissionStats::default() }
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

    /// Offers one batch. The ladder at [`DegradationLevel::Shed`] sheds
    /// it; otherwise it goes to the worker queue, the only buffer. A
    /// full queue sheds it under [`AdmissionPolicy::SheddingNewest`];
    /// under [`AdmissionPolicy::Block`] a waiting offer waits for space,
    /// and one with `wait` unset hands the batch straight back as `Err`,
    /// untouched and not counted as offered, so its retry counts once.
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
        let seq = batch.seq;
        let outcome = if self.degradation_level() == DegradationLevel::Shed {
            // The ladder's last resort: even inference is load we cannot
            // afford. Shedding here keeps the queue draining so the
            // recovery observations below can actually happen.
            self.count_shed(seq, ShedReason::Degraded);
            AdmissionOutcome::Shed(ShedReason::Degraded)
        } else {
            let block = self.policy == AdmissionPolicy::Block;
            match self.inner.offer(batch, prequential, wait && block)? {
                Ok(FeedOutcome::Accepted) => {
                    self.stats.admitted += 1;
                    AdmissionOutcome::Admitted
                }
                Ok(FeedOutcome::Quarantined(fault)) => {
                    self.stats.quarantined += 1;
                    AdmissionOutcome::Quarantined(fault)
                }
                Err(batch) if block => {
                    self.stats.offered -= 1;
                    return Ok(Err(batch));
                }
                Err(_) => {
                    self.count_shed(seq, ShedReason::QueueFull);
                    AdmissionOutcome::Shed(ShedReason::QueueFull)
                }
            }
        };
        let pressure = self.occupancy();
        if let Some(ladder) = self.ladder.as_mut() {
            ladder.observe(seq, pressure);
        }
        Ok(Ok(outcome))
    }

    /// Counts and announces one shed batch. Also counts a batch consumed
    /// by the feed that *triggered* a fence: it was handed to a worker
    /// that died past its restart budget, so nothing answers it.
    pub(crate) fn count_shed(&mut self, seq: u64, reason: ShedReason) {
        self.stats.shed += 1;
        self.inner.telemetry().emit(TelemetryEvent::BatchShed { seq, reason: reason.tag() });
    }

    /// Receives the next output without blocking; see
    /// [`SupervisedPipeline::try_recv`].
    ///
    /// # Errors
    /// As [`SupervisedPipeline::try_recv`].
    pub fn try_recv(&mut self) -> Result<Option<PipelineOutput>, FreewayError> {
        self.inner.try_recv()
    }

    /// Current degradation service level.
    pub fn degradation_level(&self) -> DegradationLevel {
        self.inner.degradation().level()
    }

    /// Admission counters so far.
    pub fn stats(&self) -> AdmissionStats {
        let transitions = self.ladder.as_ref().map_or(0, DegradationLadder::transitions);
        AdmissionStats { degradation_transitions: transitions, ..self.stats }
    }

    /// Normalized occupancy of the worker queue in `[0, 1]`: batches in
    /// flight over the queue depth. It is the ladder's pressure signal
    /// and the measured queue pressure behind dynamic `Busy` retry hints.
    pub fn occupancy(&self) -> f64 {
        let depth = self.inner.queue_depth();
        self.inner.in_flight().min(depth) as f64 / depth as f64
    }

    /// The wrapped supervised pipeline: its counters, journal stats, and
    /// fault injection. Shed batches never reach it, so they are never
    /// journaled — the log holds exactly the admitted stream.
    pub fn supervisor(&mut self) -> &mut SupervisedPipeline {
        &mut self.inner
    }

    /// Finishes the wrapped pipeline, returning the run plus this
    /// controller's counters.
    ///
    /// # Errors
    /// As [`SupervisedPipeline::finish`].
    pub fn finish(self) -> Result<AdmittedRun, FreewayError> {
        let admission = self.stats();
        Ok(AdmittedRun { run: self.inner.finish()?, admission })
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
    use crate::liveness::{HeartbeatLedger, WorkerStage};
    use crate::supervisor::Fault;
    use freeway_ml::ModelSpec;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::DriftPhase;
    use freeway_telemetry::{RecordingSink, TelemetrySink};
    use std::sync::Arc;
    use std::time::Duration;

    fn builder(queue_depth: usize) -> PipelineBuilder {
        PipelineBuilder::new(ModelSpec::lr(4, 2))
            .with_config(FreewayConfig {
                pca_warmup_rows: 32,
                mini_batch: 64,
                ..Default::default()
            })
            .with_queue_depth(queue_depth)
    }

    fn build(
        policy: AdmissionPolicy,
        queue_depth: usize,
    ) -> (AdmittedPipeline, Arc<RecordingSink>) {
        let (builder, sink) =
            builder(queue_depth).admission(AdmissionConfig { policy, ladder: false }).recording();
        (builder.build_admitted().expect("valid admission build"), sink)
    }

    /// Parks the worker in a stall of `duration` with its queue empty.
    fn stall(p: &mut AdmittedPipeline, duration: Duration) {
        p.supervisor().inject(Fault::Stall { duration, livelock: false }).expect("stall");
        while p.supervisor().heartbeat().map(HeartbeatLedger::stage)
            != Some(WorkerStage::ChaosStall)
        {
            std::thread::yield_now();
        }
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
    fn block_policy_never_sheds() {
        let (mut p, _) = build(AdmissionPolicy::Block, 2);
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
        let (mut p, sink) = build(AdmissionPolicy::SheddingNewest, 3);
        p.supervisor().inject(Fault::SlowTrain(Duration::from_millis(25))).expect("slow train");
        let mut shed = 0u64;
        for b in batches(30, 32) {
            match p.feed_prequential(b).expect("healthy") {
                AdmissionOutcome::Shed(ShedReason::QueueFull) => shed += 1,
                AdmissionOutcome::Admitted => {}
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(shed > 0, "a 25ms worker behind a 3-deep queue must shed");
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
    fn shedding_newest_sheds_the_offer_that_finds_the_queue_full() {
        // The shed point `simulate_overload` models: a queue of four
        // takes four batches, and the fifth is shed on the spot.
        let (mut p, sink) = build(AdmissionPolicy::SheddingNewest, 4);
        stall(&mut p, Duration::from_millis(300));
        let mut outcomes = Vec::new();
        for b in batches(5, 36) {
            outcomes.push(p.feed_prequential(b).expect("healthy"));
            assert!(p.supervisor().in_flight() <= 4, "the queue is the only buffer");
        }
        assert_eq!(outcomes[..4], vec![AdmissionOutcome::Admitted; 4]);
        assert_eq!(outcomes[4], AdmissionOutcome::Shed(ShedReason::QueueFull));
        let shed: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, TelemetryEvent::BatchShed { .. }))
            .collect();
        assert_eq!(shed, [TelemetryEvent::BatchShed { seq: 4, reason: "queue-full" }]);
        let run = p.finish().expect("finish");
        assert_eq!(run.run.outputs.len(), 4, "every admitted batch is answered");
        let stats = run.admission;
        assert_eq!((stats.admitted, stats.shed), (4, 1), "{stats:?}");
        assert_eq!(stats.offered, stats.admitted + stats.shed, "{stats:?}");
    }

    #[test]
    fn block_pressure_is_the_queue_occupancy() {
        // No checkpoint request may take a queue slot during the stall.
        let (builder, sink) = builder(8)
            .with_checkpoint_every(64)
            .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ladder: true })
            .recording();
        let mut p = builder.build_admitted().expect("valid admission build");
        stall(&mut p, Duration::from_millis(300));
        for b in batches(8, 37) {
            assert_eq!(p.feed_prequential(b).expect("healthy"), AdmissionOutcome::Admitted);
        }
        // Readings 7/8 and 8/8 are the two over 0.85 that step the ladder.
        assert_eq!(p.degradation_level(), DegradationLevel::ShortOnly);
        let steps: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, TelemetryEvent::DegradationChanged { .. }))
            .collect();
        assert_eq!(
            steps,
            [TelemetryEvent::DegradationChanged { seq: 7, from: "full", to: "short-only" }]
        );
        let run = p.finish().expect("finish");
        assert_eq!(run.admission.admitted, 8);
        assert_eq!(run.admission.degradation_transitions, 1);
    }

    #[test]
    fn ladder_degrades_under_load_and_recovers() {
        let mut p = PipelineBuilder::new(ModelSpec::lr(4, 2))
            .with_config(FreewayConfig {
                pca_warmup_rows: 32,
                mini_batch: 64,
                ..Default::default()
            })
            .with_queue_depth(4)
            .admission(AdmissionConfig { policy: AdmissionPolicy::SheddingNewest, ladder: true })
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
