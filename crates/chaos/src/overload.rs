//! Overload chaos: burst arrivals, a slowed train stage, disk latency —
//! and the machinery to assert the runtime degrades *gracefully*.
//!
//! Two harnesses, two jobs:
//!
//! * [`run_overload_prequential`] drives a real [`AdmittedPipeline`]
//!   (worker thread and all) under a [`BurstSchedule`], with the train
//!   stage and the checkpoint disk artificially slowed through
//!   [`Fault::SlowTrain`] and [`Fault::SlowDisk`]. It measures what only wall-clock can show: producer feed
//!   latency percentiles, stall-freedom, bounded memory. Thread timing
//!   makes its *counters* run-to-run noisy, so its assertions should be
//!   envelopes, not exact values.
//! * [`simulate_overload`] replays the same admission policy + ladder
//!   against a virtual-time queue/server model around a real, synchronous
//!   [`Learner`]. No threads, no clocks — byte-identical output for a
//!   given seed, which is what the committed `results/` artifacts and CI
//!   gates need.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use freeway_core::admission::{
    AdmissionConfig, AdmissionOutcome, AdmissionPolicy, AdmissionStats, AdmittedPipeline,
    ShedReason,
};
use freeway_core::degrade::{DegradationHandle, DegradationLadder, DegradationLevel};
use freeway_core::supervisor::{SupervisedPipeline, SupervisorConfig, SupervisorStats};
use freeway_core::{Fault, FreewayError, Learner};
use freeway_streams::{Batch, StreamGenerator};
use serde::Serialize;

use crate::{score, Score};

/// A deterministic square-wave arrival schedule, in batches per tick.
///
/// Ticks `0..duty` of every `period` are the burst plateau (`burst`
/// arrivals), the rest the baseline (`base` arrivals). `period == 0`
/// degenerates to a constant `base`.
#[derive(Clone, Copy, Debug)]
pub struct BurstSchedule {
    /// Arrivals per tick outside the burst window.
    pub base: usize,
    /// Arrivals per tick inside the burst window.
    pub burst: usize,
    /// Length of one base+burst cycle, in ticks.
    pub period: usize,
    /// Leading ticks of each cycle that burst.
    pub duty: usize,
}

impl BurstSchedule {
    /// Arrivals scheduled for `tick`.
    pub fn arrivals(&self, tick: usize) -> usize {
        if self.period == 0 {
            return self.base;
        }
        if tick % self.period < self.duty {
            self.burst
        } else {
            self.base
        }
    }

    /// Peak-to-base overload factor (`burst / base`, saturating).
    pub fn overload_factor(&self) -> usize {
        if self.base == 0 {
            return self.burst;
        }
        self.burst / self.base
    }
}

/// Knobs for the threaded overload drill.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Admission policy + ladder in front of the pipeline.
    pub admission: AdmissionConfig,
    /// Supervision policy for the wrapped pipeline.
    pub supervisor: SupervisorConfig,
    /// Arrival schedule, in batches per tick.
    pub schedule: BurstSchedule,
    /// Wall-clock length of one producer tick.
    pub tick: Duration,
    /// Number of ticks to run.
    pub ticks: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// How long the worker sleeps per train/infer command
    /// ([`Fault::SlowTrain`]). Zero disables.
    pub train_delay: Duration,
    /// How long each checkpoint save and journal fsync sleeps
    /// ([`Fault::SlowDisk`]). Zero disables.
    pub persist_delay: Duration,
}

/// Outcome of one threaded overload drill.
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// Admission counters (offered/admitted/shed/quarantined/ladder
    /// transitions); the worker queue is the only buffer, so shedding
    /// bounds memory at its depth.
    pub admission: AdmissionStats,
    /// Supervisor counters (accepted/panics/restarts/checkpoints/…).
    pub stats: SupervisorStats,
    /// Per-offer producer feed latency, sorted ascending.
    pub feed_latencies: Vec<Duration>,
    /// Per-sequence `(correct, total)` over every scored output.
    pub per_seq: BTreeMap<u64, (usize, usize)>,
    /// Correct predictions across all scored rows.
    pub correct: usize,
    /// Scored rows.
    pub scored: usize,
    /// Degradation level when the run finished.
    pub final_level: DegradationLevel,
}

impl OverloadReport {
    /// Prequential accuracy over every scored row.
    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            return 0.0;
        }
        self.correct as f64 / self.scored as f64
    }

    /// The `q`-quantile feed latency (`q` in `[0, 1]`, nearest-rank).
    pub fn feed_latency_quantile(&self, q: f64) -> Duration {
        if self.feed_latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((self.feed_latencies.len() as f64 * q).ceil() as usize)
            .clamp(1, self.feed_latencies.len());
        self.feed_latencies[rank - 1]
    }
}

/// Accuracy of two runs restricted to the sequence numbers both scored;
/// the first element belongs to `a`. Lost/shed batches exist in only one
/// run, so the intersection is the honest comparison.
pub fn paired_per_seq(
    a: &BTreeMap<u64, (usize, usize)>,
    b: &BTreeMap<u64, (usize, usize)>,
) -> (f64, f64) {
    let (mut ca, mut ta, mut cb, mut tb) = (0usize, 0usize, 0usize, 0usize);
    for (seq, (c, t)) in a {
        if let Some((c2, t2)) = b.get(seq) {
            ca += c;
            ta += t;
            cb += c2;
            tb += t2;
        }
    }
    let acc = |c: usize, t: usize| if t == 0 { 0.0 } else { c as f64 / t as f64 };
    (acc(ca, ta), acc(cb, tb))
}

/// Drives an [`AdmittedPipeline`] under burst arrivals with a slowed
/// train stage and a slow checkpoint disk, measuring producer-side feed
/// latency for every offer and scoring every output that made it through.
///
/// Each tick offers [`BurstSchedule::arrivals`] batches back to back,
/// drains whatever the worker produced, then sleeps out the remainder of
/// the tick. Labeled batches ride the prequential path.
///
/// # Errors
/// Propagates pipeline errors — shedding and degradation are outcomes,
/// not errors, so a healthy drill returns `Ok` even at heavy overload.
pub fn run_overload_prequential(
    stream: &mut dyn StreamGenerator,
    learner: Learner,
    config: &OverloadConfig,
) -> Result<OverloadReport, FreewayError> {
    let inner = SupervisedPipeline::with_learner(learner, config.supervisor.clone())?;
    let mut pipe = AdmittedPipeline::new(inner, config.admission.clone());
    pipe.supervisor().inject(Fault::SlowTrain(config.train_delay))?;
    pipe.supervisor().inject(Fault::SlowDisk(config.persist_delay))?;

    let mut labels_by_seq: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut outputs = Vec::new();
    let mut latencies = Vec::new();

    for tick in 0..config.ticks {
        let tick_start = Instant::now();
        for _ in 0..config.schedule.arrivals(tick) {
            let batch = stream.next_batch(config.batch_size);
            if batch.is_empty() {
                break;
            }
            let labels = batch.labels.clone();
            let seq = batch.seq;
            let start = Instant::now();
            let outcome = match &labels {
                Some(_) => pipe.feed_prequential(batch)?,
                None => pipe.feed(batch)?,
            };
            latencies.push(start.elapsed());
            if let (Some(labels), AdmissionOutcome::Admitted) = (labels, &outcome) {
                labels_by_seq.insert(seq, labels);
            }
        }
        while let Some(out) = pipe.try_recv()? {
            outputs.push(out);
        }
        if let Some(rest) = config.tick.checked_sub(tick_start.elapsed()) {
            std::thread::sleep(rest);
        }
    }

    let final_level = pipe.degradation_level();
    let mut run = pipe.finish()?;
    outputs.append(&mut run.run.outputs);
    let Score { per_seq, correct, scored, .. } = score(&outputs, &labels_by_seq, |seq| seq);

    latencies.sort_unstable();
    Ok(OverloadReport {
        admission: run.admission,
        stats: run.run.stats,
        feed_latencies: latencies,
        per_seq,
        correct,
        scored,
        final_level,
    })
}

/// Knobs for the deterministic virtual-time overload simulation.
#[derive(Clone, Debug)]
pub struct SimOverloadConfig {
    /// Arrival schedule, in batches per virtual tick.
    pub schedule: BurstSchedule,
    /// Virtual ticks to run.
    pub ticks: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// Capacity of the modeled worker queue.
    pub queue_capacity: usize,
    /// Batches the modeled server completes per tick at the `Full`
    /// service level (may be fractional).
    pub service_per_tick: f64,
    /// Service-rate multiplier applied while the ladder sits below
    /// `Full` — degraded batches are cheaper, that is the whole point.
    pub degraded_speedup: f64,
    /// Admission policy at the queue. `Block` is modeled as an infinite
    /// queue (nothing shed, occupancy unbounded).
    pub policy: AdmissionPolicy,
    /// Whether the degradation ladder runs; off, the policy alone
    /// governs overload.
    pub ladder: bool,
}

/// One ladder transition in virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTransition {
    /// Virtual tick at which the transition happened.
    pub tick: usize,
    /// Level before.
    pub from: &'static str,
    /// Level after.
    pub to: &'static str,
}

/// Outcome of one deterministic overload simulation.
#[derive(Clone, Debug)]
pub struct SimOverloadReport {
    /// Batches the schedule offered.
    pub offered: u64,
    /// Batches the model admitted to the queue.
    pub admitted: u64,
    /// Batches shed, by reason tag.
    pub shed_by_reason: BTreeMap<&'static str, u64>,
    /// Batches the server actually processed, per service level tag.
    pub processed_by_level: BTreeMap<&'static str, u64>,
    /// Peak queue occupancy observed.
    pub queue_peak: usize,
    /// Every ladder transition, in order.
    pub transitions: Vec<SimTransition>,
    /// Correct predictions across all processed labeled rows.
    pub correct: usize,
    /// Processed labeled rows.
    pub scored: usize,
}

impl SimOverloadReport {
    /// Prequential accuracy over every processed row.
    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            return 0.0;
        }
        self.correct as f64 / self.scored as f64
    }

    /// Total sheds across every reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_by_reason.values().sum()
    }

    /// Renders the report as deterministic pretty-printed JSON: same
    /// stream and config, same bytes — suitable for committed artifacts
    /// and CI gates. Accuracy is fixed to four decimals so float
    /// formatting can never wiggle the output.
    pub fn deterministic_json(&self) -> String {
        #[derive(Serialize)]
        struct Tagged {
            tag: String,
            count: u64,
        }
        #[derive(Serialize)]
        struct Transition {
            tick: u64,
            from: String,
            to: String,
        }
        #[derive(Serialize)]
        struct Report {
            offered: u64,
            admitted: u64,
            shed: Vec<Tagged>,
            processed: Vec<Tagged>,
            queue_peak: u64,
            transitions: Vec<Transition>,
            accuracy: String,
            scored: u64,
        }
        let tagged = |m: &BTreeMap<&'static str, u64>| {
            m.iter().map(|(tag, n)| Tagged { tag: (*tag).to_owned(), count: *n }).collect()
        };
        let report = Report {
            offered: self.offered,
            admitted: self.admitted,
            shed: tagged(&self.shed_by_reason),
            processed: tagged(&self.processed_by_level),
            queue_peak: self.queue_peak as u64,
            transitions: self
                .transitions
                .iter()
                .map(|t| Transition {
                    tick: t.tick as u64,
                    from: t.from.to_owned(),
                    to: t.to.to_owned(),
                })
                .collect(),
            accuracy: format!("{:.4}", self.accuracy()),
            scored: self.scored as u64,
        };
        serde_json::to_string_pretty(&report).unwrap_or_else(|_| String::from("{}"))
    }
}

/// Replays admission + ladder against a virtual-time queue/server model
/// wrapped around a real, synchronous [`Learner`].
///
/// Per tick: arrivals are admitted or shed under `policy`; the ladder
/// observes queue occupancy after every arrival; the server spends its
/// (level-dependent) service credit processing queued batches through
/// [`Learner::process`] — which honours the shared degradation level, so
/// `ShortOnly`/`InferenceOnly` really do change what the model learns.
/// No wall clock, no threads: the outcome is a pure function of the
/// stream and the config.
pub fn simulate_overload(
    stream: &mut dyn StreamGenerator,
    mut learner: Learner,
    config: &SimOverloadConfig,
) -> SimOverloadReport {
    let handle = DegradationHandle::new();
    learner.attach_degradation(handle.clone());
    let telemetry = learner.telemetry().clone();
    let mut ladder = config.ladder.then(|| DegradationLadder::new(handle.clone(), telemetry));

    let mut queue: VecDeque<Batch> = VecDeque::new();
    let mut report = SimOverloadReport {
        offered: 0,
        admitted: 0,
        shed_by_reason: BTreeMap::new(),
        processed_by_level: BTreeMap::new(),
        queue_peak: 0,
        transitions: Vec::new(),
        correct: 0,
        scored: 0,
    };
    let mut credit = 0.0f64;

    for tick in 0..config.ticks {
        for _ in 0..config.schedule.arrivals(tick) {
            let batch = stream.next_batch(config.batch_size);
            if batch.is_empty() {
                break;
            }
            report.offered += 1;
            let level = handle.level();
            if level == DegradationLevel::Shed {
                *report.shed_by_reason.entry(ShedReason::Degraded.tag()).or_insert(0) += 1;
            } else if queue.len() >= config.queue_capacity
                && !matches!(config.policy, AdmissionPolicy::Block)
            {
                // Shedding-newest drops the arrival.
                *report.shed_by_reason.entry(ShedReason::QueueFull.tag()).or_insert(0) += 1;
            } else {
                queue.push_back(batch);
                report.admitted += 1;
            }
            report.queue_peak = report.queue_peak.max(queue.len());
            if let Some(ladder) = ladder.as_mut() {
                let before = ladder.level();
                let pressure = queue.len() as f64 / config.queue_capacity.max(1) as f64;
                let after = ladder.observe(tick as u64, pressure);
                if before != after {
                    report.transitions.push(SimTransition {
                        tick,
                        from: before.tag(),
                        to: after.tag(),
                    });
                }
            }
        }

        let speedup =
            if handle.level() == DegradationLevel::Full { 1.0 } else { config.degraded_speedup };
        credit += config.service_per_tick * speedup;
        while credit >= 1.0 {
            let Some(batch) = queue.pop_front() else {
                // An idle server does not bank unbounded credit.
                credit = credit.min(1.0);
                break;
            };
            credit -= 1.0;
            let level = handle.level();
            *report.processed_by_level.entry(level.tag()).or_insert(0) += 1;
            let out = learner.process(&batch);
            if let Some(labels) = &batch.labels {
                report.correct +=
                    out.predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
                report.scored += labels.len();
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_is_a_square_wave() {
        let s = BurstSchedule { base: 1, burst: 4, period: 10, duty: 3 };
        assert_eq!(s.arrivals(0), 4);
        assert_eq!(s.arrivals(2), 4);
        assert_eq!(s.arrivals(3), 1);
        assert_eq!(s.arrivals(9), 1);
        assert_eq!(s.arrivals(10), 4);
        assert_eq!(s.overload_factor(), 4);
        let constant = BurstSchedule { base: 2, burst: 9, period: 0, duty: 0 };
        assert_eq!(constant.arrivals(123), 2);
    }

    #[test]
    fn paired_per_seq_scores_only_the_intersection() {
        let a: BTreeMap<u64, (usize, usize)> =
            [(0, (8, 10)), (1, (5, 10)), (2, (10, 10))].into_iter().collect();
        let b: BTreeMap<u64, (usize, usize)> = [(0, (10, 10)), (2, (6, 10))].into_iter().collect();
        let (acc_a, acc_b) = paired_per_seq(&a, &b);
        assert!((acc_a - 0.9).abs() < 1e-12, "{acc_a}");
        assert!((acc_b - 0.8).abs() < 1e-12, "{acc_b}");
    }
}
