//! Label-delivery regimes for prequential drills.
//!
//! The supervised harness in the crate root assumes every labeled batch
//! arrives with its labels attached. Real streams rarely cooperate:
//! labels come from downstream systems (human review, settlement,
//! delayed joins) and arrive *late*, *partially*, or in *bursts*. This
//! module makes those regimes reproducible:
//!
//! * [`LabelSchedule`] describes a regime — delay-by-`k`-batches,
//!   Bernoulli partial labels, burst-late delivery — as one combinable
//!   value (a drill can run `delay = 4` **and** `keep = 0.5` at once).
//! * [`LabelScheduler`] applies a schedule to a batch stream: labels are
//!   stripped at ingest, parked, and released as training-only
//!   [`LateLabels`] when due. Same schedule, same stream, same split,
//!   every run.
//! * [`run_label_prequential`] drives a [`SupervisedPipeline`] under a
//!   schedule. Feature batches are always fed prequentially (so the
//!   learner's continuous pseudo-label mode can act on the unlabeled
//!   ones), late labels are fed as training-only batches with fresh
//!   sequence numbers, and scoring uses the stream's ground truth — the
//!   schedule degrades what the *learner* sees, never what the *judge*
//!   knows.
//!
//! A pass-through schedule ([`LabelSchedule::full`]) reproduces
//! [`run_supervised_prequential`](crate::run_supervised_prequential)
//! byte-for-byte — the regime machinery costs nothing when idle, which
//! is the regression gate `tests/label_regime.rs` pins.

use std::collections::{BTreeMap, HashMap, VecDeque};

use freeway_core::supervisor::{SupervisedPipeline, SupervisorConfig};
use freeway_core::telemetry::{TelemetryEvent, LABEL_LAG_BATCHES_BOUNDS};
use freeway_core::{FreewayError, Learner};
use freeway_linalg::Matrix;
use freeway_streams::{Batch, DriftPhase, StreamGenerator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::ChaosRunReport;

/// A label-delivery regime. The three axes compose: delivery is delayed
/// by [`delay_batches`](Self::delay_batches), each batch's labels
/// survive with probability
/// [`keep_probability`](Self::keep_probability), and parked labels are
/// only released on batch indices divisible by
/// [`burst_period`](Self::burst_period).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelSchedule {
    /// Labels for the batch fed at index `i` become deliverable at index
    /// `i + delay_batches`. `0` with `burst_period == 1` means inline
    /// (never parked).
    pub delay_batches: u64,
    /// Probability a batch's labels survive at all (Bernoulli per batch,
    /// seeded). Dropped labels never arrive — the partial-label regime.
    pub keep_probability: f64,
    /// Parked labels are released only when the current batch index is a
    /// multiple of this period (`1` = every step). Models settlement
    /// systems that flush in bursts.
    pub burst_period: u64,
    /// Seed for the Bernoulli keep/drop draws. Unused when
    /// `keep_probability >= 1`.
    pub seed: u64,
}

impl Default for LabelSchedule {
    fn default() -> Self {
        Self::full()
    }
}

impl LabelSchedule {
    /// Every label arrives inline — the exact semantics of
    /// [`run_supervised_prequential`](crate::run_supervised_prequential).
    pub fn full() -> Self {
        Self { delay_batches: 0, keep_probability: 1.0, burst_period: 1, seed: 0 }
    }

    /// Labels arrive `k` batches after their features.
    pub fn delayed(k: u64) -> Self {
        Self { delay_batches: k, ..Self::full() }
    }

    /// Each batch keeps its labels with probability `p`; the rest train
    /// nobody (pseudo-labeling's natural habitat).
    pub fn partial(p: f64, seed: u64) -> Self {
        Self { keep_probability: p, seed, ..Self::full() }
    }

    /// Labels are parked at least `k` batches and released only on
    /// indices divisible by `period`.
    pub fn bursty(k: u64, period: u64) -> Self {
        Self { delay_batches: k, burst_period: period, ..Self::full() }
    }

    /// Validates the schedule, naming the offending field.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `keep_probability` is outside
    /// `[0, 1]` or not finite, or `burst_period` is zero.
    pub fn check(&self) -> Result<(), FreewayError> {
        if !self.keep_probability.is_finite() || !(0.0..=1.0).contains(&self.keep_probability) {
            return Err(FreewayError::InvalidConfig(
                "LabelSchedule.keep_probability must be in [0, 1]".into(),
            ));
        }
        if self.burst_period == 0 {
            return Err(FreewayError::InvalidConfig(
                "LabelSchedule.burst_period must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Previously parked labels, released by the scheduler as a
/// training-only payload.
#[derive(Clone, Debug)]
pub struct LateLabels {
    /// Sequence number of the original feature batch.
    pub orig_seq: u64,
    /// The features the labels belong to (training needs both).
    pub x: Matrix,
    /// The labels themselves.
    pub labels: Vec<usize>,
    /// Drift phase of the original batch.
    pub phase: DriftPhase,
    /// Batches elapsed between deferral and release.
    pub lag: u64,
}

/// What happened to the incoming batch's labels in one scheduler step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LabelFate {
    /// Labels stayed attached (pass-through step).
    Inline,
    /// Labels were parked for later delivery.
    Deferred {
        /// Batches until the scheduled release index.
        expected_lag: u64,
    },
    /// Labels were dropped permanently (partial-label regime).
    Dropped,
    /// The batch arrived unlabeled; nothing to schedule.
    Unlabeled,
}

/// One scheduler step: the (possibly stripped) feature batch, the fate
/// of its labels, and any previously parked labels now due.
#[derive(Clone, Debug)]
pub struct LabelStep {
    /// The incoming batch, labels stripped unless [`LabelFate::Inline`].
    pub batch: Batch,
    /// What happened to the incoming batch's labels.
    pub fate: LabelFate,
    /// Parked labels released this step, oldest first.
    pub released: Vec<LateLabels>,
}

struct Parked {
    due: u64,
    deferred_at: u64,
    orig_seq: u64,
    x: Matrix,
    labels: Vec<usize>,
    phase: DriftPhase,
}

/// Applies a [`LabelSchedule`] to a batch stream, one step per batch.
pub struct LabelScheduler {
    schedule: LabelSchedule,
    rng: StdRng,
    parked: VecDeque<Parked>,
    index: u64,
    deferred: u64,
    arrived: u64,
    dropped: u64,
    max_lag: u64,
}

impl LabelScheduler {
    /// Builds a scheduler for `schedule`.
    ///
    /// # Errors
    /// As [`LabelSchedule::check`].
    pub fn new(schedule: LabelSchedule) -> Result<Self, FreewayError> {
        schedule.check()?;
        Ok(Self {
            schedule,
            rng: StdRng::seed_from_u64(schedule.seed),
            parked: VecDeque::new(),
            index: 0,
            deferred: 0,
            arrived: 0,
            dropped: 0,
            max_lag: 0,
        })
    }

    /// Batches whose labels were parked so far.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// Parked label payloads released so far.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Batches whose labels were dropped permanently.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Largest observed release lag, in batches.
    pub fn max_lag(&self) -> u64 {
        self.max_lag
    }

    /// Labels still parked (deferred but not yet released).
    pub fn pending(&self) -> usize {
        self.parked.len()
    }

    fn release_due(&mut self, index: u64) -> Vec<LateLabels> {
        if self.schedule.burst_period > 1 && !index.is_multiple_of(self.schedule.burst_period) {
            return Vec::new();
        }
        let mut out = Vec::new();
        while self.parked.front().is_some_and(|p| p.due <= index) {
            let Some(p) = self.parked.pop_front() else { break };
            let lag = index - p.deferred_at;
            self.arrived += 1;
            self.max_lag = self.max_lag.max(lag);
            out.push(LateLabels {
                orig_seq: p.orig_seq,
                x: p.x,
                labels: p.labels,
                phase: p.phase,
                lag,
            });
        }
        out
    }

    /// Advances one batch: releases parked labels that are due, then
    /// decides the incoming batch's label fate.
    pub fn step(&mut self, mut batch: Batch) -> LabelStep {
        let index = self.index;
        self.index += 1;
        let released = self.release_due(index);
        let fate = match batch.labels.take() {
            None => LabelFate::Unlabeled,
            Some(labels) => {
                let keep = self.schedule.keep_probability >= 1.0
                    || self.rng.random::<f64>() < self.schedule.keep_probability;
                if !keep {
                    self.dropped += 1;
                    LabelFate::Dropped
                } else if self.schedule.delay_batches == 0 && self.schedule.burst_period <= 1 {
                    // A pure partial regime keeps surviving labels inline:
                    // only delay/burst axes park them.
                    batch.labels = Some(labels);
                    LabelFate::Inline
                } else {
                    let due = index + self.schedule.delay_batches;
                    // Release happens at the start of a *later* step, on a
                    // burst boundary: the first index after this one that
                    // is >= due and divisible by the period.
                    let period = self.schedule.burst_period.max(1);
                    let earliest = due.max(index + 1);
                    let release_at = earliest.next_multiple_of(period);
                    self.deferred += 1;
                    self.parked.push_back(Parked {
                        due,
                        deferred_at: index,
                        orig_seq: batch.seq,
                        x: batch.x.clone(),
                        labels,
                        phase: batch.phase,
                    });
                    LabelFate::Deferred { expected_lag: release_at - index }
                }
            }
        };
        LabelStep { batch, fate, released }
    }

    /// Releases every still-parked payload regardless of due time or
    /// burst gating — end-of-stream settlement.
    pub fn flush(&mut self) -> Vec<LateLabels> {
        let index = self.index;
        let mut out = Vec::new();
        while let Some(p) = self.parked.pop_front() {
            let lag = index - p.deferred_at;
            self.arrived += 1;
            self.max_lag = self.max_lag.max(lag);
            out.push(LateLabels {
                orig_seq: p.orig_seq,
                x: p.x,
                labels: p.labels,
                phase: p.phase,
                lag,
            });
        }
        out
    }
}

/// Outcome of one label-regime prequential drill.
#[derive(Clone, Debug)]
pub struct LabelRegimeReport {
    /// The underlying prequential run, scored against ground truth (the
    /// transcript and `per_seq` are keyed by *original* stream sequence
    /// numbers, so pass-through runs compare byte-for-byte against
    /// [`run_supervised_prequential`](crate::run_supervised_prequential)).
    pub run: ChaosRunReport,
    /// Batches whose labels were parked.
    pub deferred: u64,
    /// Parked payloads delivered (including the end-of-stream flush).
    pub arrived: u64,
    /// Batches whose labels were dropped permanently.
    pub dropped: u64,
    /// Largest observed delivery lag, in batches.
    pub max_lag: u64,
    /// Unlabeled batches the learner trained on via CEC pseudo-labels
    /// (zero unless `FreewayConfig::enable_pseudo_labels`).
    pub pseudo_trained: u64,
}

/// Drives a [`SupervisedPipeline`] over `batches` batches of `stream`
/// under a [`LabelSchedule`], scoring every prequential output against
/// the stream's ground-truth labels.
///
/// Every feature batch is fed prequentially — labeled ones
/// test-then-train, stripped ones test-then-(maybe-pseudo-)train — and
/// released [`LateLabels`] are fed as training-only batches with fresh
/// monotone sequence numbers (the ingestion guard requires them).
/// Deferral and arrival are reported into the learner's telemetry
/// handle as [`TelemetryEvent::LabelDeferred`] /
/// [`TelemetryEvent::LabelArrived`] plus the
/// `freeway_label_lag_batches` histogram.
///
/// # Errors
/// Propagates pipeline errors from feeding or shutdown.
pub fn run_label_prequential(
    stream: &mut dyn StreamGenerator,
    learner: Learner,
    config: SupervisorConfig,
    batches: usize,
    batch_size: usize,
    schedule: LabelSchedule,
) -> Result<LabelRegimeReport, FreewayError> {
    let mut scheduler = LabelScheduler::new(schedule)?;
    let telemetry = learner.telemetry().clone();
    let lag_histogram = telemetry.histogram("freeway_label_lag_batches", LABEL_LAG_BATCHES_BOUNDS);
    let mut sup = SupervisedPipeline::with_learner(learner, config)?;

    let mut labels_by_seq: HashMap<u64, Vec<usize>> = HashMap::new();
    // Fed (guard-visible) seq -> original stream seq, for scoring.
    let mut orig_of: HashMap<u64, u64> = HashMap::new();
    let mut next_seq = 0u64;
    let mut outputs = Vec::new();

    let feed_late = |sup: &mut SupervisedPipeline,
                     late: Vec<LateLabels>,
                     next_seq: &mut u64|
     -> Result<(), FreewayError> {
        for l in late {
            if telemetry.enabled() {
                telemetry.emit(TelemetryEvent::LabelArrived { seq: l.orig_seq, lag: l.lag });
            }
            lag_histogram.record(l.lag as f64);
            let seq = *next_seq;
            *next_seq += 1;
            sup.feed(Batch::labeled(l.x, l.labels, seq, l.phase))?;
        }
        Ok(())
    };

    for _ in 0..batches {
        let batch = stream.next_batch(batch_size);
        if batch.is_empty() {
            break;
        }
        if let Some(labels) = &batch.labels {
            labels_by_seq.entry(batch.seq).or_insert_with(|| labels.clone());
        }
        let step = scheduler.step(batch);
        if telemetry.enabled() {
            match step.fate {
                LabelFate::Deferred { expected_lag } => telemetry
                    .emit(TelemetryEvent::LabelDeferred { seq: step.batch.seq, expected_lag }),
                LabelFate::Dropped => telemetry
                    .emit(TelemetryEvent::LabelDeferred { seq: step.batch.seq, expected_lag: 0 }),
                LabelFate::Inline | LabelFate::Unlabeled => {}
            }
        }
        feed_late(&mut sup, step.released, &mut next_seq)?;
        let mut now = step.batch;
        let orig_seq = now.seq;
        now.seq = next_seq;
        orig_of.insert(next_seq, orig_seq);
        next_seq += 1;
        sup.feed_prequential(now)?;
        while let Some(out) = sup.try_recv()? {
            outputs.push(out);
        }
    }
    feed_late(&mut sup, scheduler.flush(), &mut next_seq)?;

    let run = sup.finish()?;
    outputs.extend(run.outputs);

    let mut per_seq = BTreeMap::new();
    let mut transcript = BTreeMap::new();
    let (mut correct, mut scored) = (0usize, 0usize);
    for out in &outputs {
        let Some(report) = &out.report else { continue };
        let orig = orig_of.get(&out.seq).copied().unwrap_or(out.seq);
        transcript.insert(orig, report.predictions.clone());
        let Some(labels) = labels_by_seq.get(&orig) else { continue };
        let c = report.predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        per_seq.insert(orig, (c, labels.len()));
        correct += c;
        scored += labels.len();
    }

    Ok(LabelRegimeReport {
        run: ChaosRunReport {
            stats: run.stats,
            quarantined: run.quarantine.total(),
            per_seq,
            correct,
            scored,
            events: run.learner.telemetry().events(),
            transcript,
            delivered: outputs.len(),
            journal: run.journal,
        },
        deferred: scheduler.deferred(),
        arrived: scheduler.arrived(),
        dropped: scheduler.dropped(),
        max_lag: scheduler.max_lag(),
        pseudo_trained: run.learner.pseudo_trained(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::Hyperplane;

    fn batch(seq: u64) -> Batch {
        let x = Matrix::from_rows(&[vec![seq as f64, 1.0]]);
        Batch::labeled(x, vec![0], seq, DriftPhase::Stable)
    }

    #[test]
    fn pass_through_schedule_changes_nothing() {
        let mut s = LabelScheduler::new(LabelSchedule::full()).expect("valid");
        for i in 0..5 {
            let step = s.step(batch(i));
            assert_eq!(step.fate, LabelFate::Inline);
            assert!(step.released.is_empty());
            assert!(step.batch.labels.is_some());
        }
        assert_eq!(s.deferred(), 0);
        assert_eq!(s.pending(), 0);
        assert!(s.flush().is_empty());
    }

    #[test]
    fn delayed_labels_release_after_k_batches() {
        let mut s = LabelScheduler::new(LabelSchedule::delayed(2)).expect("valid");
        let step0 = s.step(batch(0));
        assert_eq!(step0.fate, LabelFate::Deferred { expected_lag: 2 });
        assert!(step0.batch.labels.is_none(), "labels stripped at ingest");
        assert!(s.step(batch(1)).released.is_empty(), "not due yet");
        let step2 = s.step(batch(2));
        assert_eq!(step2.released.len(), 1, "due at index 0 + 2");
        assert_eq!(step2.released[0].orig_seq, 0);
        assert_eq!(step2.released[0].lag, 2);
        assert_eq!(s.arrived(), 1);
    }

    #[test]
    fn burst_period_gates_release_to_multiples() {
        let mut s = LabelScheduler::new(LabelSchedule::bursty(1, 4)).expect("valid");
        let step0 = s.step(batch(0));
        assert_eq!(step0.fate, LabelFate::Deferred { expected_lag: 4 });
        for i in 1..4 {
            assert!(s.step(batch(i)).released.is_empty(), "index {i} is not a burst tick");
        }
        let step4 = s.step(batch(4));
        assert_eq!(step4.released.len(), 4, "burst tick flushes everything due");
        assert_eq!(step4.released[0].lag, 4);
    }

    #[test]
    fn partial_labels_drop_roughly_the_configured_fraction() {
        let mut s = LabelScheduler::new(LabelSchedule::partial(0.5, 9)).expect("valid");
        for i in 0..200 {
            let step = s.step(batch(i));
            assert!(matches!(step.fate, LabelFate::Inline | LabelFate::Dropped));
        }
        let dropped = s.dropped();
        assert!(
            (60..=140).contains(&(dropped as i64)),
            "Bernoulli(0.5) over 200 draws landed at {dropped}"
        );
        // Same seed, same split.
        let mut t = LabelScheduler::new(LabelSchedule::partial(0.5, 9)).expect("valid");
        for i in 0..200 {
            t.step(batch(i));
        }
        assert_eq!(t.dropped(), dropped);
    }

    #[test]
    fn flush_releases_everything_still_parked() {
        let mut s = LabelScheduler::new(LabelSchedule::delayed(50)).expect("valid");
        for i in 0..3 {
            s.step(batch(i));
        }
        let flushed = s.flush();
        assert_eq!(flushed.len(), 3);
        assert_eq!(s.pending(), 0);
        assert_eq!(flushed[0].lag, 3, "flush lag measured from the final index");
    }

    #[test]
    fn invalid_schedules_are_rejected_by_name() {
        let err = LabelSchedule { keep_probability: 1.5, ..LabelSchedule::full() }
            .check()
            .expect_err("p > 1 rejected");
        assert!(err.to_string().contains("keep_probability"), "{err}");
        let err = LabelSchedule { burst_period: 0, ..LabelSchedule::full() }
            .check()
            .expect_err("period 0 rejected");
        assert!(err.to_string().contains("burst_period"), "{err}");
    }

    #[test]
    fn harness_scores_against_ground_truth_under_delay() {
        let mut stream = Hyperplane::new(6, 0.01, 0.0, 13);
        let learner = Learner::new(
            freeway_ml::ModelSpec::lr(6, 2),
            freeway_core::FreewayConfig {
                pca_warmup_rows: 64,
                mini_batch: 64,
                ..Default::default()
            },
        );
        let report = run_label_prequential(
            &mut stream,
            learner,
            SupervisorConfig { queue_depth: 16, ..Default::default() },
            30,
            64,
            LabelSchedule::delayed(3),
        )
        .expect("clean run");
        assert_eq!(report.run.transcript.len(), 30, "every feature batch produced a report");
        assert_eq!(report.run.scored, 30 * 64, "ground truth scores every batch");
        assert_eq!(report.deferred, 30);
        assert_eq!(report.arrived, 30, "flush settles the tail");
        assert!(report.max_lag >= 3);
        assert_eq!(report.run.stats.worker_panics, 0);
    }
}
