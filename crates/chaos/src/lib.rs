//! Deterministic chaos harness for the fault-tolerant runtime.
//!
//! Real deployments of a streaming learner meet data nobody curated:
//! sensor dropouts turn into NaN bursts, schema drift changes row widths
//! mid-stream, at-least-once transports duplicate and reorder batches, and
//! the process hosting the worker occasionally dies. This crate makes all
//! of that *reproducible* so the recovery machinery in `freeway-core` can
//! be tested instead of trusted:
//!
//! * [`ChaosStream`] wraps any [`StreamGenerator`] and injects faults from
//!   a seeded RNG — same seed, same faults, every run. Each injected fault
//!   is recorded in a [`FaultRecord`] log stating whether the ingestion
//!   guard is expected to quarantine the batch.
//! * [`run_supervised_prequential`] drives a [`SupervisedPipeline`]
//!   over a (possibly chaotic) stream, schedules worker panics at chosen
//!   batch indices, and scores prequential accuracy per sequence number so
//!   a faulted run can be compared against a fault-free run of the same
//!   seed ([`paired_accuracy`]).
//!
//! The integration tests in `tests/recovery.rs` are the acceptance drill:
//! ~10% poison plus a mid-stream worker panic must produce zero process
//! panics, quarantine every poison batch, and land within two accuracy
//! points of the fault-free run.
//!
//! The [`overload`] module is the companion drill for *load* faults:
//! burst arrival schedules, a slowed train stage, disk-latency injection,
//! and both a wall-clock harness ([`run_overload_prequential`]) and a
//! deterministic virtual-time one ([`simulate_overload`]) for asserting
//! that admission control and the degradation ladder keep the runtime
//! stable under 4× overload.
//!
//! The [`label`] module covers *label-delivery* faults: delayed,
//! partial, and bursty label arrival ([`LabelSchedule`]), with
//! [`run_label_prequential`] measuring how far a regime pushes accuracy
//! from the fully-labeled baseline.
//!
//! The [`stall`] module covers *liveness* faults: hung and livelocked
//! workers, with a threaded drill ([`run_stall_prequential`]) proving the
//! watchdog's detect → force-restart path and a virtual-time simulation
//! ([`simulate_stall`]) pinning its decision logic — most importantly
//! that a slow-but-progressing worker is never declared stalled.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod label;
pub mod overload;
pub mod stall;

pub use label::{
    run_label_prequential, LabelFate, LabelRegimeReport, LabelSchedule, LabelScheduler, LabelStep,
    LateLabels,
};
pub use overload::{
    paired_per_seq, run_overload_prequential, simulate_overload, BurstSchedule, OverloadConfig,
    OverloadReport, SimOverloadConfig, SimOverloadReport, SimTransition,
};
pub use stall::{
    run_stall_prequential, simulate_stall, SimDetection, SimStallConfig, SimStallReport, StallSpec,
};

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use freeway_core::supervisor::{
    FinishedRun, SupervisedPipeline, SupervisorConfig, SupervisorStats,
};
use freeway_core::telemetry::TelemetryEvent;
use freeway_core::{Fault, FreewayError, JournalStats, Learner, PipelineOutput};
use freeway_linalg::Matrix;
use freeway_streams::{Batch, StreamGenerator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The kinds of fault [`ChaosStream`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A handful of feature cells overwritten with `NaN`.
    NanBurst,
    /// A single feature cell overwritten with `+inf`.
    InfCell,
    /// Every row loses (or, for 1-D streams, gains) a column.
    WidthCorruption,
    /// One label pushed past `num_classes`.
    LabelOutOfRange,
    /// The label vector dropped entirely (valid: inference-only batch).
    DropLabels,
    /// The batch emitted twice with the same sequence number.
    DuplicateBatch,
    /// Two adjacent batches emitted in swapped order.
    ReorderBatches,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::NanBurst => "nan-burst",
            Self::InfCell => "inf-cell",
            Self::WidthCorruption => "width-corruption",
            Self::LabelOutOfRange => "label-out-of-range",
            Self::DropLabels => "drop-labels",
            Self::DuplicateBatch => "duplicate-batch",
            Self::ReorderBatches => "reorder-batches",
        };
        f.write_str(s)
    }
}

/// One injected fault, logged at emission time.
#[derive(Clone, Copy, Debug)]
pub struct FaultRecord {
    /// Position in the emission order (0-based) of the *affected* batch —
    /// for duplicates/reorders, the occurrence the guard should reject.
    pub emit_index: usize,
    /// Sequence number carried by the affected batch.
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Whether the ingestion guard is expected to quarantine the batch.
    /// `DropLabels` batches are valid (inference-only) and flow through.
    pub expect_quarantine: bool,
}

/// Per-fault injection probabilities, drawn independently per batch with
/// at most one fault applied (cumulative draw; keep the sum ≤ 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosConfig {
    /// RNG seed — identical seeds replay identical fault schedules.
    pub seed: u64,
    /// Probability of a NaN burst.
    pub p_nan_burst: f64,
    /// Probability of a single `+inf` cell.
    pub p_inf_cell: f64,
    /// Probability of a row-width corruption.
    pub p_width_corruption: f64,
    /// Probability of an out-of-range label.
    pub p_label_out_of_range: f64,
    /// Probability of dropping the labels (valid batch).
    pub p_drop_labels: f64,
    /// Probability of duplicating the batch.
    pub p_duplicate: f64,
    /// Probability of swapping the batch with its successor.
    pub p_reorder: f64,
}

impl ChaosConfig {
    /// A representative mix totalling `rate` poison (quarantinable faults)
    /// plus `rate / 5` each of the two delivery faults and dropped labels.
    pub fn standard(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            p_nan_burst: rate * 0.3,
            p_inf_cell: rate * 0.15,
            p_width_corruption: rate * 0.15,
            p_label_out_of_range: rate * 0.1,
            p_drop_labels: rate * 0.2,
            p_duplicate: rate * 0.15,
            p_reorder: rate * 0.15,
        }
    }
}

/// A seeded fault injector wrapping any stream source.
///
/// Wraps `inner` and perturbs its batches per [`ChaosConfig`]. Duplicated
/// and reordered batches are staged in an internal queue, so a single
/// `next_batch` call never returns more than one batch and the emission
/// order is fully deterministic.
pub struct ChaosStream<G> {
    inner: G,
    cfg: ChaosConfig,
    rng: StdRng,
    queued: VecDeque<Batch>,
    log: Vec<FaultRecord>,
    emitted: usize,
    name: String,
}

impl<G: StreamGenerator> ChaosStream<G> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: G, cfg: ChaosConfig) -> Self {
        let name = format!("chaos-{}", inner.name());
        Self {
            inner,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            queued: VecDeque::new(),
            log: Vec::new(),
            emitted: 0,
            name,
        }
    }

    /// Every fault injected so far, in emission order.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// How many emitted batches the ingestion guard should quarantine.
    pub fn expected_quarantines(&self) -> usize {
        self.log.iter().filter(|r| r.expect_quarantine).count()
    }

    /// [`Self::expected_quarantines`] restricted to the first `emitted`
    /// emissions — a duplicate or reorder staged right at the end of a
    /// run queues a twin the consumer may never pull.
    pub fn expected_quarantines_within(&self, emitted: usize) -> usize {
        self.log.iter().filter(|r| r.expect_quarantine && r.emit_index < emitted).count()
    }

    fn record(&mut self, emit_index: usize, seq: u64, kind: FaultKind, expect_quarantine: bool) {
        self.log.push(FaultRecord { emit_index, seq, kind, expect_quarantine });
    }

    fn draw_fault(&mut self) -> Option<FaultKind> {
        let draw: f64 = self.rng.random();
        let table = [
            (FaultKind::NanBurst, self.cfg.p_nan_burst),
            (FaultKind::InfCell, self.cfg.p_inf_cell),
            (FaultKind::WidthCorruption, self.cfg.p_width_corruption),
            (FaultKind::LabelOutOfRange, self.cfg.p_label_out_of_range),
            (FaultKind::DropLabels, self.cfg.p_drop_labels),
            (FaultKind::DuplicateBatch, self.cfg.p_duplicate),
            (FaultKind::ReorderBatches, self.cfg.p_reorder),
        ];
        let mut acc = 0.0;
        for (kind, p) in table {
            acc += p;
            if draw < acc {
                return Some(kind);
            }
        }
        None
    }

    fn corrupt(&mut self, mut batch: Batch, kind: FaultKind, size: usize) -> Batch {
        let idx = self.emitted;
        match kind {
            FaultKind::NanBurst => {
                let (rows, cols) = (batch.len(), batch.dim());
                for _ in 0..3 {
                    let r = self.rng.random_range(0..rows);
                    let c = self.rng.random_range(0..cols);
                    batch.x.row_mut(r)[c] = f64::NAN;
                }
                self.record(idx, batch.seq, kind, true);
            }
            FaultKind::InfCell => {
                let r = self.rng.random_range(0..batch.len());
                let c = self.rng.random_range(0..batch.dim());
                batch.x.row_mut(r)[c] = f64::INFINITY;
                self.record(idx, batch.seq, kind, true);
            }
            FaultKind::WidthCorruption => {
                let grow = batch.dim() == 1;
                let rows: Vec<Vec<f64>> = (0..batch.len())
                    .map(|r| {
                        let mut v = batch.x.row(r).to_vec();
                        if grow {
                            v.push(0.0);
                        } else {
                            v.pop();
                        }
                        v
                    })
                    .collect();
                batch.x = Matrix::from_rows(&rows);
                self.record(idx, batch.seq, kind, true);
            }
            FaultKind::LabelOutOfRange => match batch.labels.as_mut() {
                Some(labels) if !labels.is_empty() => {
                    let i = self.rng.random_range(0..labels.len());
                    labels[i] = self.inner.num_classes() + 3;
                    self.record(idx, batch.seq, kind, true);
                }
                // An unlabeled batch has no label to corrupt; inject a
                // NaN burst instead so the fault budget is still spent.
                _ => return self.corrupt(batch, FaultKind::NanBurst, size),
            },
            FaultKind::DropLabels => {
                batch.labels = None;
                self.record(idx, batch.seq, kind, false);
            }
            FaultKind::DuplicateBatch => {
                // Emit the clean batch now; its same-seq twin follows and
                // is the occurrence the guard rejects.
                self.record(idx + 1, batch.seq, kind, true);
                self.queued.push_back(batch.clone());
            }
            FaultKind::ReorderBatches => {
                // Emit the successor first; the held batch then arrives
                // with a regressed sequence number.
                let successor = self.inner.next_batch(size);
                self.record(idx + 1, batch.seq, kind, true);
                self.queued.push_back(batch);
                batch = successor;
            }
        }
        batch
    }
}

impl<G: StreamGenerator> StreamGenerator for ChaosStream<G> {
    fn next_batch(&mut self, size: usize) -> Batch {
        if let Some(staged) = self.queued.pop_front() {
            self.emitted += 1;
            return staged;
        }
        let batch = self.inner.next_batch(size);
        if batch.is_empty() {
            return batch;
        }
        let batch = match self.draw_fault() {
            Some(kind) => self.corrupt(batch, kind, size),
            None => batch,
        };
        self.emitted += 1;
        batch
    }

    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Outcome of one supervised prequential drill.
#[derive(Clone, Debug)]
pub struct ChaosRunReport {
    /// Supervisor counters at finish (restarts, quarantined, panics, …).
    pub stats: SupervisorStats,
    /// Per-sequence `(correct, total)` over every scored output.
    pub per_seq: BTreeMap<u64, (usize, usize)>,
    /// Correct predictions across all scored rows.
    pub correct: usize,
    /// Scored rows (labeled batches that produced an output).
    pub scored: usize,
    /// Telemetry events recorded during the run (empty unless the learner
    /// was built with a recording sink, e.g. via
    /// `PipelineBuilder::recording`).
    pub events: Vec<TelemetryEvent>,
    /// The exact predictions of every output, keyed by sequence number —
    /// the run's transcript. Two runs that delivered identical outputs
    /// for identical seqs compare equal here, which is the
    /// effectively-once acceptance check for journaled crash drills.
    pub transcript: BTreeMap<u64, Vec<usize>>,
    /// Every output the run delivered, a seq delivered twice counted
    /// twice (the transcript keeps one entry per seq).
    pub delivered: usize,
    /// Journal counters at finish (`None` when the run was not
    /// journaled).
    pub journal: Option<JournalStats>,
}

impl ChaosRunReport {
    /// Prequential accuracy over every scored row.
    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            return 0.0;
        }
        self.correct as f64 / self.scored as f64
    }

    /// Accuracy restricted to sequence numbers at or after `from_seq`
    /// (post-recovery tail accuracy).
    pub fn tail_accuracy(&self, from_seq: u64) -> f64 {
        let (c, t) = self
            .per_seq
            .range(from_seq..)
            .fold((0usize, 0usize), |(c, t), (_, (bc, bt))| (c + bc, t + bt));
        if t == 0 {
            return 0.0;
        }
        c as f64 / t as f64
    }
}

/// Accuracy of two runs restricted to the sequence numbers both scored —
/// the apples-to-apples comparison between a faulted and a fault-free run
/// (lost and quarantined batches exist in only one of the two).
pub fn paired_accuracy(a: &ChaosRunReport, b: &ChaosRunReport) -> (f64, f64) {
    paired_per_seq(&a.per_seq, &b.per_seq)
}

/// A run's outputs scored against the stream's ground-truth labels.
#[derive(Default)]
struct Score {
    per_seq: BTreeMap<u64, (usize, usize)>,
    transcript: BTreeMap<u64, Vec<usize>>,
    correct: usize,
    scored: usize,
}

/// Scores every output that carries a report against the labels of the
/// stream batch it answered. `stream_seq` maps a fed seq back to the
/// stream's own (the identity unless the drill re-stamped seqs); the
/// transcript and per-seq scores are keyed by the stream's seq.
fn score(
    outputs: &[PipelineOutput],
    labels_by_seq: &HashMap<u64, Vec<usize>>,
    stream_seq: impl Fn(u64) -> u64,
) -> Score {
    let mut score = Score::default();
    for out in outputs {
        let Some(report) = &out.report else { continue };
        let seq = stream_seq(out.seq);
        score.transcript.insert(seq, report.predictions.clone());
        let Some(labels) = labels_by_seq.get(&seq) else { continue };
        let c = report.predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        score.per_seq.insert(seq, (c, labels.len()));
        score.correct += c;
        score.scored += labels.len();
    }
    score
}

impl ChaosRunReport {
    /// The report of a finished supervised run that delivered `outputs`,
    /// scored as [`score`] does.
    fn scored(
        run: &FinishedRun,
        outputs: &[PipelineOutput],
        labels_by_seq: &HashMap<u64, Vec<usize>>,
        stream_seq: impl Fn(u64) -> u64,
    ) -> Self {
        let Score { per_seq, transcript, correct, scored } =
            score(outputs, labels_by_seq, stream_seq);
        Self {
            stats: run.stats,
            per_seq,
            correct,
            scored,
            events: run.learner.telemetry().events(),
            transcript,
            delivered: outputs.len(),
            journal: run.journal,
        }
    }
}

/// Drives a [`SupervisedPipeline`] over `batches` batches of the stream,
/// injecting `fault_at(i)` immediately before feeding batch `i` and
/// waiting for the supervisor to recover from a panic or stall, then
/// scores every output against the labels the stream produced. Labeled
/// batches go through the prequential (test-then-train) path, unlabeled
/// ones through the inference path.
fn run_faulted(
    stream: &mut dyn StreamGenerator,
    learner: Learner,
    config: SupervisorConfig,
    batches: usize,
    batch_size: usize,
    fault_at: impl Fn(usize) -> Option<Fault>,
) -> Result<ChaosRunReport, FreewayError> {
    let mut sup = SupervisedPipeline::with_learner(learner, config)?;
    let mut labels_by_seq: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut outputs = Vec::new();

    for i in 0..batches {
        let fault = fault_at(i);
        let before = sup.stats();
        if let Some(fault) = fault {
            sup.inject(fault)?;
        }
        let batch = stream.next_batch(batch_size);
        if batch.is_empty() {
            break;
        }
        match &batch.labels {
            Some(labels) => {
                labels_by_seq.entry(batch.seq).or_insert_with(|| labels.clone());
                sup.feed_prequential(batch)?;
            }
            None => {
                sup.feed(batch)?;
            }
        }
        // Wait until the supervisor has recovered from the fault, so the
        // recovery really is exercised (not raced past by the next feed).
        match fault {
            Some(Fault::Panic) => {
                while sup.stats().restarts == before.restarts {
                    match sup.try_recv()? {
                        Some(out) => outputs.push(out),
                        None => std::thread::yield_now(),
                    }
                }
            }
            Some(Fault::Stall { .. }) => {
                while sup.stats().worker_stalls == before.worker_stalls {
                    while let Some(out) = sup.try_recv()? {
                        outputs.push(out);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            _ => {}
        }
        while let Some(out) = sup.try_recv()? {
            outputs.push(out);
        }
    }

    let mut run = sup.finish()?;
    outputs.append(&mut run.outputs);
    Ok(ChaosRunReport::scored(&run, &outputs, &labels_by_seq, |seq| seq))
}

/// Drives a [`SupervisedPipeline`] over `batches` batches of the stream,
/// injecting a worker panic immediately before feeding each index listed
/// in `panic_at`, and scores every output against the labels the stream
/// produced.
///
/// Labeled batches go through the prequential (test-then-train) path;
/// unlabeled ones through the inference path. The batch at a panic index
/// is fed right behind the panic command. Whether it is still in flight
/// when the worker dies depends on scheduling, which the harness cannot
/// force without a timing assumption: if the worker dies before the
/// hand-off, the feed notices the crash, restarts, and hands the batch to
/// the fresh worker; if the batch was already handed off, it dies with
/// the worker — lost without a journal (counted in `lost_in_flight`),
/// replayed with one ([`SupervisorConfig::journal`]). Either way a
/// journaled run delivers every accepted batch exactly once and its
/// [`ChaosRunReport::transcript`] comes out identical to a fault-free
/// run. After feeding it the function waits for the supervisor to
/// complete the restart so the recovery really is exercised (not raced
/// past).
///
/// # Errors
/// Propagates supervisor errors — notably
/// [`FreewayError::RestartsExhausted`] when panics outnumber the restart
/// budget.
pub fn run_supervised_prequential(
    stream: &mut dyn StreamGenerator,
    learner: Learner,
    config: SupervisorConfig,
    batches: usize,
    batch_size: usize,
    panic_at: &[usize],
) -> Result<ChaosRunReport, FreewayError> {
    run_faulted(stream, learner, config, batches, batch_size, |i| {
        panic_at.contains(&i).then_some(Fault::Panic)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::Hyperplane;

    fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, ..Default::default() }
    }

    #[test]
    fn zero_probability_chaos_is_a_pass_through() {
        let mut plain = Hyperplane::new(5, 0.01, 0.05, 7);
        let mut chaotic = ChaosStream::new(Hyperplane::new(5, 0.01, 0.05, 7), quiet(1));
        for _ in 0..5 {
            let a = plain.next_batch(32);
            let b = chaotic.next_batch(32);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.x.as_slice(), b.x.as_slice());
            assert_eq!(a.labels, b.labels);
        }
        assert!(chaotic.log().is_empty());
        assert_eq!(chaotic.expected_quarantines(), 0);
    }

    #[test]
    fn same_seed_replays_the_same_fault_schedule() {
        let cfg = ChaosConfig::standard(99, 0.5);
        let mut a = ChaosStream::new(Hyperplane::new(5, 0.01, 0.05, 7), cfg);
        let mut b = ChaosStream::new(Hyperplane::new(5, 0.01, 0.05, 7), cfg);
        for _ in 0..40 {
            let ba = a.next_batch(16);
            let bb = b.next_batch(16);
            assert_eq!(ba.seq, bb.seq);
            assert_eq!(ba.x.as_slice().len(), bb.x.as_slice().len());
        }
        assert!(!a.log().is_empty(), "rate 0.5 over 40 batches must fire");
        assert_eq!(a.log().len(), b.log().len());
        for (ra, rb) in a.log().iter().zip(b.log()) {
            assert_eq!(ra.kind, rb.kind);
            assert_eq!(ra.emit_index, rb.emit_index);
            assert_eq!(ra.seq, rb.seq);
        }
    }

    #[test]
    fn nan_burst_corrupts_and_is_logged_as_quarantinable() {
        let cfg = ChaosConfig { seed: 3, p_nan_burst: 1.0, ..Default::default() };
        let mut s = ChaosStream::new(Hyperplane::new(4, 0.01, 0.0, 11), cfg);
        let b = s.next_batch(16);
        assert!(b.x.as_slice().iter().any(|v| v.is_nan()));
        assert_eq!(s.log().len(), 1);
        assert!(s.log()[0].expect_quarantine);
        assert_eq!(s.log()[0].kind, FaultKind::NanBurst);
    }

    #[test]
    fn duplicate_emits_the_same_seq_twice() {
        let cfg = ChaosConfig { seed: 4, p_duplicate: 1.0, ..Default::default() };
        let mut s = ChaosStream::new(Hyperplane::new(4, 0.01, 0.0, 11), cfg);
        let first = s.next_batch(8);
        let twin = s.next_batch(8);
        assert_eq!(first.seq, twin.seq);
        assert_eq!(first.x.as_slice(), twin.x.as_slice());
        let rec = s.log()[0];
        assert_eq!(rec.kind, FaultKind::DuplicateBatch);
        assert_eq!(rec.emit_index, 1, "the twin is the rejected occurrence");
        assert!(rec.expect_quarantine);
    }

    #[test]
    fn reorder_swaps_adjacent_batches() {
        let cfg = ChaosConfig { seed: 5, p_reorder: 1.0, ..Default::default() };
        let mut s = ChaosStream::new(Hyperplane::new(4, 0.01, 0.0, 11), cfg);
        let first = s.next_batch(8);
        let second = s.next_batch(8);
        assert_eq!(first.seq, 1, "successor jumped the queue");
        assert_eq!(second.seq, 0, "held batch arrives with a regressed seq");
        let rec = s.log()[0];
        assert_eq!(rec.kind, FaultKind::ReorderBatches);
        assert_eq!(rec.seq, 0);
        assert!(rec.expect_quarantine);
    }

    #[test]
    fn width_corruption_changes_the_dimension() {
        let cfg = ChaosConfig { seed: 6, p_width_corruption: 1.0, ..Default::default() };
        let mut s = ChaosStream::new(Hyperplane::new(4, 0.01, 0.0, 11), cfg);
        let b = s.next_batch(8);
        assert_eq!(b.dim(), 3, "one column dropped");
        assert_eq!(s.num_features(), 4, "advertised schema is unchanged");
    }

    #[test]
    fn dropped_labels_are_valid_not_quarantinable() {
        let cfg = ChaosConfig { seed: 7, p_drop_labels: 1.0, ..Default::default() };
        let mut s = ChaosStream::new(Hyperplane::new(4, 0.01, 0.0, 11), cfg);
        let b = s.next_batch(8);
        assert!(b.labels.is_none());
        assert!(!s.log()[0].expect_quarantine);
        assert_eq!(s.expected_quarantines(), 0);
    }
}
