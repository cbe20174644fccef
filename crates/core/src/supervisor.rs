//! The supervised pipeline: checkpointed auto-restart + poison quarantine.
//!
//! [`SupervisedPipeline`] wraps the same worker-thread architecture as
//! [`crate::pipeline::Pipeline`] in a fault boundary:
//!
//! * every batch passes the [`BatchGuard`] **before** touching the
//!   channel; poison batches land in a bounded, counted [`Quarantine`]
//!   instead of panicking inside the math substrate;
//! * the worker captures a [`Checkpoint`] every
//!   `checkpoint_every_n_batches` accepted batches (persisted atomically
//!   to disk when a path is configured);
//! * a worker panic is detected at the channel boundary, the crashed
//!   thread is joined for its panic message, and a fresh worker is
//!   spawned from the last checkpoint — up to `max_restarts` times;
//! * without a journal, batches in flight at the moment of a crash are
//!   *lost, not replayed* (streaming semantics: the stream has moved
//!   on), and the loss is counted in
//!   [`SupervisorStats::lost_in_flight`];
//! * with [`SupervisorConfig::journal`] set, every accepted batch is
//!   appended to a durable [`crate::journal::Journal`] after the worker
//!   hand-off, and restart becomes restore-then-replay: the replay base
//!   checkpoint is restored, journaled batches above it are re-fed
//!   synchronously (shared-registry publishes muted, telemetry muted,
//!   outputs deduplicated by seq against what was already delivered),
//!   and `lost_in_flight` stays zero — effectively-once semantics. The
//!   base advances, and old journal segments are dropped, only when a
//!   checkpoint is *durably persisted* to disk; a run without a
//!   checkpoint path replays from genesis, which reconstructs the
//!   worker's exact state (cadence checkpoints are deliberately lossy
//!   about PCA/shift-tracker state, a genesis replay is not).
//!
//! The supervisor is single-threaded on the caller side: `feed`,
//! `try_recv`, and `finish` take `&mut self` so restart bookkeeping
//! needs no locking.

use crate::degrade::{DegradationHandle, DegradationLevel};
use crate::error::{panic_message, FreewayError};
use crate::guard::{BatchFault, BatchGuard, GuardPolicy, Quarantine};
use crate::journal::{frame_batch, Journal, JournalConfig, JournalRecord, JournalStats};
use crate::learner::Learner;
use crate::liveness::{HeartbeatLedger, WatchdogState, WorkerStage};
use crate::persistence::{Checkpoint, CheckpointStore};
use crate::pipeline::PipelineOutput;
use crate::retry::RetryPolicy;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use freeway_streams::Batch;
use freeway_telemetry::{Counter, Telemetry, TelemetryEvent, DURATION_SECONDS_BOUNDS};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Supervision policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Bound on both channels (backpressure), as in the plain pipeline.
    pub queue_depth: usize,
    /// A checkpoint is captured after every this-many accepted batches.
    pub checkpoint_every_n_batches: usize,
    /// When set, every checkpoint is also persisted here atomically
    /// (write temp, fsync, rename). Persistence failures are counted and
    /// logged, never fatal — the in-memory checkpoint still updates.
    pub checkpoint_path: Option<PathBuf>,
    /// How many poison batches the dead-letter buffer retains (all are
    /// counted regardless).
    pub quarantine_capacity: usize,
    /// Worker crashes tolerated before the supervisor gives up with
    /// [`FreewayError::RestartsExhausted`].
    pub max_restarts: usize,
    /// Reject duplicate / regressing sequence numbers at the guard.
    /// Disable for sources that legitimately re-emit (cycling files).
    pub check_seq: bool,
    /// How many on-disk checkpoint generations to retain when
    /// `checkpoint_path` is set (`checkpoint.0.json` newest). Restore
    /// falls back to the newest generation passing CRC and validation.
    pub checkpoint_generations: usize,
    /// Retry schedule wrapped around each checkpoint persistence attempt
    /// (exponential backoff with deterministic jitter). Transient disk
    /// stalls retry in place; a persistently failing disk degrades the
    /// checkpoint *cadence* instead of killing the worker.
    pub persist_retry: RetryPolicy,
    /// When set, every accepted batch is journaled and crash recovery
    /// replays instead of dropping in-flight work (see the module docs
    /// for the effectively-once contract). `None` (the default) keeps
    /// the journal-free path byte-identical to previous builds.
    pub journal: Option<JournalConfig>,
    /// When set, [`SupervisedPipeline::check_liveness`] arms a stall
    /// watchdog: a worker with work pending whose heartbeat makes no
    /// progress for this long is forcibly recovered through the same
    /// checkpoint-restore + journal-replay path as a crash, counted
    /// against the restart budget. A slow-but-progressing worker is
    /// never killed — only a fully wedged one. `None` (the default)
    /// disables the watchdog.
    pub stall_deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            queue_depth: 32,
            checkpoint_every_n_batches: 8,
            checkpoint_path: None,
            quarantine_capacity: 64,
            max_restarts: 3,
            check_seq: true,
            checkpoint_generations: 3,
            persist_retry: RetryPolicy::default(),
            journal: None,
            stall_deadline: None,
        }
    }
}

/// Counters describing one supervised run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Batches that passed the guard and reached the worker.
    pub accepted: u64,
    /// Batches rejected by the guard and quarantined.
    pub quarantined: u64,
    /// Worker crashes observed (restarted or not).
    pub worker_panics: u64,
    /// Successful checkpoint restarts performed.
    pub restarts: usize,
    /// Checkpoints captured from the worker.
    pub checkpoints_taken: u64,
    /// Checkpoints also persisted to disk.
    pub checkpoints_persisted: u64,
    /// Disk persistence failures (non-fatal; in-memory state kept).
    pub checkpoint_persist_failures: u64,
    /// Accepted batches whose results were lost to a crash. Without a
    /// journal this is streaming at-most-once accounting; with one, it
    /// counts only what replay could not recover (zero on a healthy
    /// journal).
    pub lost_in_flight: u64,
    /// Journaled batches re-fed during crash recoveries.
    pub replayed: u64,
    /// Replayed batches whose outputs were suppressed because they had
    /// already been delivered before the crash (seq-based dedup).
    pub replay_suppressed: u64,
    /// Stalls declared by the liveness watchdog (each one forced a
    /// recovery counted in `restarts`, or exhausted the budget).
    pub worker_stalls: u64,
}

/// What happened to a batch offered to [`SupervisedPipeline::feed`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FeedOutcome {
    /// The batch passed validation and reached the worker.
    Accepted,
    /// The batch was rejected and sits in the quarantine.
    Quarantined(BatchFault),
}

/// What happened to a batch offered to the non-blocking
/// [`SupervisedPipeline::try_feed`].
#[derive(Debug)]
#[non_exhaustive]
pub enum TryFeedOutcome {
    /// The batch passed validation and reached the worker.
    Accepted,
    /// The batch was rejected and sits in the quarantine.
    Quarantined(BatchFault),
    /// The worker queue is full; the batch comes back to the caller
    /// untouched (the guard watermark did not advance, so it can be
    /// re-offered later without tripping duplicate-seq detection).
    Full(Batch),
}

/// Everything a finished supervised run hands back.
pub struct FinishedRun {
    /// The learner, recovered from the last checkpoint if the worker was
    /// dead at finish time.
    pub learner: Learner,
    /// All outputs not yet consumed via `recv`/`try_recv`, in order.
    pub outputs: Vec<PipelineOutput>,
    /// Run counters.
    pub stats: SupervisorStats,
    /// The dead-letter buffer with every retained poison batch.
    pub quarantine: Quarantine,
    /// Journal counters (appends, syncs, recovered records, truncated
    /// segments); `None` when journaling was not configured. The journal
    /// is fsynced before these are captured, so they describe a fully
    /// durable log.
    pub journal: Option<JournalStats>,
}

enum SupCommand {
    Batch(Batch),
    Prequential(Batch),
    /// Capture and send back a checkpoint of the current learner state.
    Checkpoint,
    /// Chaos hook: panic deterministically inside the worker.
    InjectPanic,
    /// Chaos hook: stop making progress for this many nanoseconds
    /// (`u64::MAX` = until fenced), either parked in short sleeps or
    /// livelocked in a spin loop. No heartbeat lands while it runs, so
    /// the watchdog sees exactly what a wedged worker looks like.
    InjectStall {
        nanos: u64,
        livelock: bool,
    },
}

enum WorkerMsg {
    Output(PipelineOutput),
    Checkpoint(Box<Checkpoint>),
}

struct Worker {
    input: Sender<SupCommand>,
    output: Receiver<WorkerMsg>,
    handle: JoinHandle<Result<Learner, String>>,
    /// Progress ledger the worker thread beats after every completed
    /// command; the watchdog reads it from the supervisor side.
    heartbeat: HeartbeatLedger,
    /// Raised by forced stall recovery after the handle is abandoned: a
    /// zombie worker that eventually wakes up sees it and exits instead
    /// of ghost-writing into channels nobody reads.
    fence: Arc<AtomicBool>,
}

/// Wakes a parked consumer thread (the serving router) when a worker or
/// client has something for it. Cloning shares one slot; the thread is
/// installed at most once, and ringing a bell with no thread installed is
/// a no-op, so layers nobody parks on pay one atomic load per ring.
#[derive(Clone, Default)]
pub(crate) struct Doorbell(Arc<OnceLock<Thread>>);

impl Doorbell {
    /// Makes `thread` the one [`Self::ring`] unparks; later installs are
    /// ignored.
    pub(crate) fn install(&self, thread: Thread) {
        let _ = self.0.set(thread);
    }

    /// Unparks the installed thread, if any. An unpark that lands before
    /// the thread parks is kept as its park token, so a ring is never
    /// lost between the consumer's last poll and its park.
    pub(crate) fn ring(&self) {
        if let Some(thread) = self.0.get() {
            thread.unpark();
        }
    }
}

fn spawn_worker(
    mut learner: Learner,
    queue_depth: usize,
    chaos_delay: Arc<AtomicU64>,
    initial_last_seq: Option<u64>,
    doorbell: Doorbell,
) -> Worker {
    let telemetry = learner.telemetry().clone();
    let (in_tx, in_rx) = bounded::<SupCommand>(queue_depth);
    // One extra slot per possible in-flight checkpoint reply so a
    // checkpoint command never wedges behind a full output queue.
    let (out_tx, out_rx) = bounded::<WorkerMsg>(queue_depth + 1);
    let heartbeat = HeartbeatLedger::new();
    let fence = Arc::new(AtomicBool::new(false));
    let ledger = heartbeat.clone();
    let fenced = fence.clone();
    let handle = std::thread::spawn(move || {
        let bell = doorbell.clone();
        let result = catch_unwind(AssertUnwindSafe(move || {
            // Highest batch seq processed; stamped onto checkpoints as
            // the journal replay floor. Seeded with the replay
            // high-water mark on post-recovery respawns.
            let mut last_seq = initial_last_seq;
            loop {
                // Queue wait is the ingest stage, as in the plain pipeline.
                let cmd = {
                    ledger.set_stage(WorkerStage::Idle);
                    let _span = telemetry.time(freeway_telemetry::Stage::Ingest);
                    match in_rx.recv() {
                        Ok(cmd) => cmd,
                        Err(_) => break,
                    }
                };
                if fenced.load(Ordering::Relaxed) {
                    break;
                }
                // Chaos hook: an artificially slowed worker turns any
                // stream into an overload, exercising backpressure,
                // shedding, and the degradation ladder for real. The
                // delay models the train stage, so it shrinks with the
                // service level: degraded levels skip (most of) training
                // and genuinely run faster.
                if matches!(cmd, SupCommand::Batch(_) | SupCommand::Prequential(_)) {
                    let nanos = chaos_delay.load(Ordering::Relaxed);
                    if nanos > 0 {
                        let scaled = match learner.degradation_level() {
                            DegradationLevel::Full => nanos,
                            DegradationLevel::ShortOnly => nanos / 2,
                            DegradationLevel::InferenceOnly | DegradationLevel::Shed => nanos / 8,
                        };
                        std::thread::sleep(std::time::Duration::from_nanos(scaled));
                    }
                }
                let msg = match cmd {
                    SupCommand::Batch(batch) => {
                        ledger.set_stage(WorkerStage::Train);
                        telemetry.batch_started(batch.seq);
                        last_seq = Some(batch.seq);
                        let report = match batch.labels.as_deref() {
                            Some(labels) => {
                                learner.train(&batch.x, labels);
                                None
                            }
                            None => Some(learner.infer(&batch.x)),
                        };
                        WorkerMsg::Output(PipelineOutput { seq: batch.seq, report })
                    }
                    SupCommand::Prequential(batch) => {
                        ledger.set_stage(WorkerStage::Train);
                        last_seq = Some(batch.seq);
                        let report = learner.process(&batch);
                        WorkerMsg::Output(PipelineOutput { seq: batch.seq, report: Some(report) })
                    }
                    SupCommand::Checkpoint => {
                        ledger.set_stage(WorkerStage::Checkpoint);
                        let mut checkpoint = Checkpoint::capture(&learner);
                        checkpoint.journal_seq = last_seq;
                        WorkerMsg::Checkpoint(Box::new(checkpoint))
                    }
                    SupCommand::InjectPanic => panic!("injected worker panic (chaos)"),
                    SupCommand::InjectStall { nanos, livelock } => {
                        // A deliberately heartbeat-free window: the only
                        // exits are the budget elapsing or the fence
                        // going up after a forced recovery.
                        ledger.set_stage(WorkerStage::ChaosStall);
                        let started = Instant::now();
                        let budget = Duration::from_nanos(nanos);
                        while started.elapsed() < budget && !fenced.load(Ordering::Relaxed) {
                            if livelock {
                                std::hint::spin_loop();
                            } else {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        }
                        if fenced.load(Ordering::Relaxed) {
                            break;
                        }
                        // Survived a bounded stall: progress resumes.
                        ledger.beat(None);
                        continue;
                    }
                };
                if out_tx.send(msg).is_err() {
                    break;
                }
                ledger.beat(last_seq);
                bell.ring();
            }
            learner
        }))
        .map_err(panic_message);
        // The closure's channel ends are gone by now, so the woken
        // consumer sees the disconnect (a crash, panics included).
        doorbell.ring();
        result
    });
    Worker { input: in_tx, output: out_rx, handle, heartbeat, fence }
}

/// Everything the supervisor keeps per enabled journal.
struct JournalState {
    journal: Journal,
    /// Replay base: restoring this checkpoint and re-feeding every
    /// journaled record above `base.journal_seq` reproduces the
    /// crashed worker's exact state. Advances only when a checkpoint is
    /// durably persisted to disk (never on in-memory cadence captures),
    /// so a run without a checkpoint path replays from genesis.
    base: Checkpoint,
    /// Seqs whose outputs have already been delivered toward the
    /// caller; replay re-feeds these for state but suppresses their
    /// outputs (seq-based dedup). Pruned below the truncation floor.
    produced: BTreeSet<u64>,
    /// Wall-clock cost of each restore-then-replay recovery.
    recovery_seconds: freeway_telemetry::Histogram,
}

/// Outcome of one synchronous replay pass (see [`replay_into`]).
struct ReplaySummary {
    replayed: u64,
    suppressed: u64,
    /// Outputs delivered now that were lost with the crashed worker.
    recovered: u64,
    last_seq: Option<u64>,
}

/// Re-feeds `records` into `learner` exactly as the worker loop would
/// have, routing each output through seq-based dedup: already-delivered
/// seqs are suppressed, the rest land on `pending` in order. The caller
/// is responsible for muting the learner's telemetry and shared-registry
/// publishes around this call (replayed work already had its side
/// effects the first time).
fn replay_into(
    learner: &mut Learner,
    records: &[JournalRecord],
    produced: &mut BTreeSet<u64>,
    pending: &mut VecDeque<PipelineOutput>,
) -> ReplaySummary {
    let mut summary = ReplaySummary { replayed: 0, suppressed: 0, recovered: 0, last_seq: None };
    for record in records {
        let batch = record.to_batch();
        let report = if record.prequential {
            Some(learner.process(&batch))
        } else {
            match batch.labels.as_deref() {
                Some(labels) => {
                    learner.train(&batch.x, labels);
                    None
                }
                None => Some(learner.infer(&batch.x)),
            }
        };
        summary.replayed += 1;
        summary.last_seq = Some(record.seq);
        if produced.contains(&record.seq) {
            summary.suppressed += 1;
        } else {
            produced.insert(record.seq);
            pending.push_back(PipelineOutput { seq: record.seq, report });
            summary.recovered += 1;
        }
    }
    summary
}

/// A fault-tolerant pipeline around a [`Learner`].
pub struct SupervisedPipeline {
    config: SupervisorConfig,
    worker: Option<Worker>,
    guard: BatchGuard,
    quarantine: Quarantine,
    /// Outputs drained from the worker but not yet handed to the caller.
    pending: VecDeque<PipelineOutput>,
    /// The restart point. Seeded with a checkpoint of the initial
    /// learner, so recovery is possible before the first cadence point.
    last_checkpoint: Checkpoint,
    stats: SupervisorStats,
    /// Accepted batches whose outputs have not been observed yet.
    in_flight: usize,
    /// Checkpoint requests sent but not yet answered. Counted separately
    /// from `in_flight` (which is batch accounting) so the watchdog sees
    /// a worker wedged mid-checkpoint as owing work too.
    checkpoints_in_flight: usize,
    accepted_since_checkpoint: usize,
    /// A checkpoint request that could not be enqueued without blocking
    /// (non-blocking feed path); sent opportunistically later.
    checkpoint_due: bool,
    /// Cadence multiplier, doubled on persistence failure and reset on
    /// success: a sick disk is asked for checkpoints less often instead
    /// of stalling or killing a healthy worker.
    cadence_backoff: usize,
    /// Chaos hook shared with the worker thread: nanoseconds of
    /// artificial delay before each train/infer command (0 = off).
    chaos_train_delay: Arc<AtomicU64>,
    /// Chaos hook: artificial delay injected before each checkpoint
    /// persistence attempt, simulating a slow disk.
    chaos_persist_delay: Arc<AtomicU64>,
    /// When set, a restored learner is re-attached to this shared
    /// degradation level so overload service levels survive restarts.
    degradation: Option<DegradationHandle>,
    /// When set, a restored learner is re-joined to the cross-shard
    /// knowledge registry as this shard, so one shard's crash never
    /// disconnects it from the fleet's preserved concepts.
    shared: Option<(crate::knowledge::SharedKnowledge, usize)>,
    /// Shared with the learner: quarantine/checkpoint/restart events are
    /// emitted here so fault handling is observable from the outside.
    telemetry: Telemetry,
    /// The durable ingest journal and its replay bookkeeping; `None`
    /// when journaling is not configured (the default, byte-identical
    /// legacy path).
    journal: Option<JournalState>,
    /// Exported restart counter (`freeway_worker_restarts_total`).
    restarts_counter: Counter,
    /// Exported loss counter (`freeway_lost_in_flight_total`).
    lost_counter: Counter,
    /// Exported stall counter (`freeway_worker_stalls_total`).
    stalls_counter: Counter,
    /// Wall-clock cost of each forced stall recovery
    /// (`freeway_stall_recovery_seconds`).
    stall_recovery_seconds: freeway_telemetry::Histogram,
    /// Stall detector, armed lazily on the first [`Self::check_liveness`]
    /// call when `stall_deadline` is configured; reset on every respawn
    /// so a fresh worker gets a full deadline.
    watchdog: Option<WatchdogState>,
    /// Monotonic origin for watchdog ticks (nanoseconds since here).
    watchdog_origin: Instant,
    /// Rung by every worker this pipeline spawns after each message it
    /// sends and when it exits; empty until a router installs itself.
    doorbell: Doorbell,
    /// Highest batch seq startup recovery restored from a previous
    /// process's journal: the last replayed record, or the loaded
    /// checkpoint's floor. `None` without a journal or when it was empty.
    recovered_seq: Option<u64>,
}

impl SupervisedPipeline {
    /// Spawns the supervised worker. The guard's policy (feature width,
    /// class count) is derived from the learner's model spec, and the
    /// learner's [`Telemetry`] handle is shared by the supervisor so
    /// quarantine, checkpoint, and restart events land on the same stream
    /// as the learner's own.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `queue_depth` or
    /// `checkpoint_every_n_batches` is zero.
    pub fn with_learner(learner: Learner, config: SupervisorConfig) -> Result<Self, FreewayError> {
        if config.queue_depth == 0 {
            return Err(FreewayError::InvalidConfig("queue depth must be positive".to_owned()));
        }
        if config.checkpoint_every_n_batches == 0 {
            return Err(FreewayError::InvalidConfig(
                "checkpoint cadence must be positive".to_owned(),
            ));
        }
        let policy = GuardPolicy {
            expected_features: learner.spec().features(),
            num_classes: learner.spec().classes(),
            check_seq: config.check_seq,
        };
        let guard = BatchGuard::new(policy);
        let quarantine = Quarantine::new(config.quarantine_capacity);
        if config.checkpoint_generations == 0 {
            return Err(FreewayError::InvalidConfig(
                "checkpoint generations must be positive".to_owned(),
            ));
        }
        let mut learner = learner;
        let last_checkpoint = Checkpoint::capture(&learner);
        let telemetry = learner.telemetry().clone();
        let restarts_counter = telemetry.counter("freeway_worker_restarts_total");
        let lost_counter = telemetry.counter("freeway_lost_in_flight_total");
        let stalls_counter = telemetry.counter("freeway_worker_stalls_total");
        let stall_recovery_seconds =
            telemetry.histogram("freeway_stall_recovery_seconds", DURATION_SECONDS_BOUNDS);
        let chaos_train_delay = Arc::new(AtomicU64::new(0));
        let mut stats = SupervisorStats::default();
        // With a journal configured, a non-empty log means the previous
        // process died with work admitted but not durably checkpointed:
        // recover its exact state before spawning the worker. Outputs of
        // replayed batches were delivered by the previous incarnation, so
        // every one of them is suppressed here.
        let mut startup_seq = None;
        let mut recovered_seq = None;
        let journal = match config.journal.clone() {
            None => None,
            Some(journal_config) => {
                if journal_config.segment_max_bytes == 0 {
                    return Err(FreewayError::InvalidConfig(
                        "journal segment size must be positive".to_owned(),
                    ));
                }
                if journal_config.fsync_every_n_appends == 0 {
                    return Err(FreewayError::InvalidConfig(
                        "journal fsync cadence must be positive".to_owned(),
                    ));
                }
                let (journal, recovered) = Journal::open(journal_config)?;
                let recovery_seconds = telemetry
                    .histogram("freeway_journal_recovery_seconds", DURATION_SECONDS_BOUNDS);
                let mut base = last_checkpoint.clone();
                let mut produced = BTreeSet::new();
                if !recovered.is_empty() {
                    let started = Instant::now();
                    // Genesis journal (lowest segment index 0): the fresh
                    // learner plus a full replay IS the crashed process's
                    // state. A truncated journal needs the disk
                    // checkpoint that justified the truncation.
                    let records: Vec<JournalRecord> = if journal.lowest_segment_index() == 0 {
                        recovered
                    } else {
                        let Some(path) = config.checkpoint_path.as_ref() else {
                            return Err(FreewayError::InvalidConfig(
                                "journal history is truncated below a checkpoint; \
                                     recovering it requires checkpoint_path"
                                    .to_owned(),
                            ));
                        };
                        let store =
                            CheckpointStore::new(path.clone(), config.checkpoint_generations);
                        let (loaded, _generation) = store.load_newest()?;
                        let floor = loaded.journal_seq;
                        base = loaded;
                        learner = base.restore()?;
                        match floor {
                            Some(floor) => {
                                recovered.into_iter().filter(|r| r.seq > floor).collect()
                            }
                            None => recovered,
                        }
                    };
                    learner.attach_telemetry(Telemetry::disabled());
                    learner.set_shared_publish_muted(true);
                    for record in &records {
                        produced.insert(record.seq);
                    }
                    // A genesis base has no floor; a loaded checkpoint's
                    // floor counts when no record lies above it.
                    recovered_seq = records.iter().map(|r| r.seq).max().max(base.journal_seq);
                    let mut discarded = VecDeque::new();
                    let summary =
                        replay_into(&mut learner, &records, &mut produced, &mut discarded);
                    learner.set_shared_publish_muted(false);
                    learner.attach_telemetry(telemetry.clone());
                    stats.replayed += summary.replayed;
                    stats.replay_suppressed += summary.suppressed;
                    startup_seq = summary.last_seq;
                    recovery_seconds.record(started.elapsed().as_secs_f64());
                    telemetry.emit(TelemetryEvent::JournalReplayed {
                        seq: summary.last_seq.unwrap_or(0),
                        replayed: summary.replayed,
                        suppressed: summary.suppressed,
                    });
                }
                Some(JournalState { journal, base, produced, recovery_seconds })
            }
        };
        let doorbell = Doorbell::default();
        let worker = Some(spawn_worker(
            learner,
            config.queue_depth,
            chaos_train_delay.clone(),
            startup_seq,
            doorbell.clone(),
        ));
        Ok(Self {
            config,
            worker,
            guard,
            quarantine,
            pending: VecDeque::new(),
            last_checkpoint,
            stats,
            in_flight: 0,
            checkpoints_in_flight: 0,
            accepted_since_checkpoint: 0,
            checkpoint_due: false,
            cadence_backoff: 1,
            chaos_train_delay,
            chaos_persist_delay: Arc::new(AtomicU64::new(0)),
            degradation: None,
            shared: None,
            telemetry,
            journal,
            restarts_counter,
            lost_counter,
            stalls_counter,
            stall_recovery_seconds,
            watchdog: None,
            watchdog_origin: Instant::now(),
            doorbell,
            recovered_seq,
        })
    }

    /// Feeds a batch, routed by labeledness. Poison batches are
    /// quarantined (an `Ok` outcome — the pipeline survived them).
    ///
    /// # Errors
    /// [`FreewayError::RestartsExhausted`] when the worker kept crashing
    /// past the restart budget, [`FreewayError::Checkpoint`] if the
    /// restart checkpoint itself failed to restore.
    pub fn feed(&mut self, batch: Batch) -> Result<FeedOutcome, FreewayError> {
        self.submit(batch, false)
    }

    /// Feeds a prequential batch (infer-then-train on the same data).
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn feed_prequential(&mut self, batch: Batch) -> Result<FeedOutcome, FreewayError> {
        self.submit(batch, true)
    }

    fn submit(&mut self, batch: Batch, prequential: bool) -> Result<FeedOutcome, FreewayError> {
        if let Err(fault) = self.guard.admit(&batch) {
            self.stats.quarantined += 1;
            self.telemetry
                .emit(TelemetryEvent::BatchQuarantined { seq: batch.seq, fault: fault.tag() });
            self.quarantine.push(batch, fault.clone());
            return Ok(FeedOutcome::Quarantined(fault));
        }
        // Absorb finished work first so checkpoint results (and their
        // disk verdicts) are applied promptly, not only at finish.
        self.absorb_available()?;
        let seq = batch.seq;
        // Frame before the batch moves into the command; the append
        // itself happens only after the hand-off succeeds (a restart
        // mid-send re-sends the batch, so journaling it early would
        // replay it on top of the re-send).
        let frame = self.journal.as_ref().map(|_| frame_batch(&batch, prequential));
        let cmd =
            if prequential { SupCommand::Prequential(batch) } else { SupCommand::Batch(batch) };
        self.send_with_recovery(cmd)?;
        self.note_accepted();
        self.journal_append(seq, frame);
        if self.checkpoint_due {
            self.checkpoint_due = false;
            self.send_with_recovery(SupCommand::Checkpoint)?;
            self.checkpoints_in_flight += 1;
        }
        Ok(FeedOutcome::Accepted)
    }

    /// Shared bookkeeping after a batch actually reached the worker.
    /// The checkpoint cadence is the configured one times the current
    /// disk-backoff multiplier; the request itself is only *flagged*
    /// here so the non-blocking path can defer it.
    fn note_accepted(&mut self) {
        self.in_flight += 1;
        self.stats.accepted += 1;
        self.accepted_since_checkpoint += 1;
        let cadence = self.config.checkpoint_every_n_batches.saturating_mul(self.cadence_backoff);
        if self.accepted_since_checkpoint >= cadence {
            self.accepted_since_checkpoint = 0;
            self.checkpoint_due = true;
        }
    }

    /// Non-blocking feed, routed by labeledness: the admission
    /// controller's primitive. Never waits on the worker — a full queue
    /// hands the batch straight back as [`TryFeedOutcome::Full`] so the
    /// caller can shed, backlog, or retry under its own policy. A dead
    /// worker is restarted (the restarted queue is empty, so the retry
    /// then succeeds or the restart budget errors out).
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn try_feed(&mut self, batch: Batch) -> Result<TryFeedOutcome, FreewayError> {
        self.try_submit(batch, false)
    }

    /// Non-blocking prequential feed; see [`Self::try_feed`].
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn try_feed_prequential(&mut self, batch: Batch) -> Result<TryFeedOutcome, FreewayError> {
        self.try_submit(batch, true)
    }

    fn try_submit(
        &mut self,
        batch: Batch,
        prequential: bool,
    ) -> Result<TryFeedOutcome, FreewayError> {
        // Inspect without advancing the watermark: a Full outcome must
        // leave the guard willing to see this seq again.
        if let Err(fault) = self.guard.inspect(&batch) {
            self.stats.quarantined += 1;
            self.telemetry
                .emit(TelemetryEvent::BatchQuarantined { seq: batch.seq, fault: fault.tag() });
            self.quarantine.push(batch, fault.clone());
            return Ok(TryFeedOutcome::Quarantined(fault));
        }
        // Absorb whatever the worker already produced — freeing output
        // slots is what lets a busy worker drain its input queue.
        self.absorb_available()?;
        let seq = batch.seq;
        let frame = self.journal.as_ref().map(|_| frame_batch(&batch, prequential));
        let mut cmd =
            if prequential { SupCommand::Prequential(batch) } else { SupCommand::Batch(batch) };
        loop {
            let Some(worker) = self.worker.as_ref() else {
                return Err(FreewayError::WorkerUnavailable);
            };
            match worker.input.try_send(cmd) {
                Ok(()) => break,
                Err(TrySendError::Full(returned)) => {
                    let batch = match returned {
                        SupCommand::Batch(b) | SupCommand::Prequential(b) => b,
                        // Only batch commands enter this loop.
                        _ => return Err(FreewayError::WorkerUnavailable),
                    };
                    return Ok(TryFeedOutcome::Full(batch));
                }
                Err(TrySendError::Disconnected(returned)) => {
                    cmd = returned;
                    self.restart_worker()?;
                }
            }
        }
        self.guard.accept(seq);
        self.note_accepted();
        self.journal_append(seq, frame);
        self.flush_due_checkpoint();
        Ok(TryFeedOutcome::Accepted)
    }

    /// Opportunistically sends a deferred checkpoint request; if the
    /// queue is still full the flag stays set for the next call.
    fn flush_due_checkpoint(&mut self) {
        if !self.checkpoint_due {
            return;
        }
        if let Some(worker) = self.worker.as_ref() {
            if worker.input.try_send(SupCommand::Checkpoint).is_ok() {
                self.checkpoint_due = false;
                self.checkpoints_in_flight += 1;
            }
        }
    }

    /// Drains every worker message currently available, without
    /// blocking. A detected disconnect restarts the worker.
    fn absorb_available(&mut self) -> Result<(), FreewayError> {
        loop {
            let Some(worker) = self.worker.as_ref() else { return Ok(()) };
            match worker.output.try_recv() {
                Ok(msg) => self.handle_msg(msg),
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => {
                    self.restart_worker()?;
                    return Ok(());
                }
            }
        }
    }

    /// Batches accepted but not yet answered by the worker.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The configured channel bound (capacity of the worker queue).
    pub fn queue_depth(&self) -> usize {
        self.config.queue_depth
    }

    /// The configured stall deadline (`None` = no watchdog).
    pub(crate) fn stall_deadline(&self) -> Option<Duration> {
        self.config.stall_deadline
    }

    /// See the `recovered_seq` field.
    pub(crate) fn recovered_seq(&self) -> Option<u64> {
        self.recovered_seq
    }

    /// Has this pipeline's workers, the current one and every respawn,
    /// unpark `thread` after each message they send and when they exit.
    pub(crate) fn install_doorbell(&self, thread: Thread) {
        self.doorbell.install(thread);
    }

    /// Chaos hook: every subsequent train/infer command sleeps this long
    /// inside the worker before running, simulating an overloaded or
    /// degraded compute stage. Survives worker restarts. Zero disables.
    pub fn set_chaos_train_delay(&self, delay: std::time::Duration) {
        self.chaos_train_delay
            .store(delay.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }

    /// Chaos hook: every subsequent checkpoint persistence sleeps this
    /// long first, simulating a slow disk. Zero disables.
    pub fn set_chaos_persist_delay(&self, delay: std::time::Duration) {
        self.chaos_persist_delay
            .store(delay.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }

    /// Chaos hook: every subsequent journal fsync sleeps this long first,
    /// simulating a slow disk. The delay counts against the slow-sync
    /// budget, so a sustained one degrades the fsync cadence instead of
    /// stalling ingest. No-op without a journal; zero disables.
    pub fn set_chaos_journal_sync_delay(&self, delay: std::time::Duration) {
        if let Some(state) = self.journal.as_ref() {
            state
                .journal
                .chaos_sync_delay_handle()
                .store(delay.as_millis().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        }
    }

    /// Journal counters so far (`None` without a journal).
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|state| state.journal.stats())
    }

    /// The journal's current fsync-cadence backoff multiplier (1 =
    /// healthy disk, doubled per slow/failed sync); `None` without a
    /// journal.
    pub fn journal_sync_backoff(&self) -> Option<u64> {
        self.journal.as_ref().map(|state| state.journal.sync_backoff())
    }

    /// Shares the overload degradation level with this supervisor so a
    /// learner restored after a crash re-attaches to it (the live
    /// learner must have been attached before the pipeline was built —
    /// [`crate::PipelineBuilder`] wires both ends).
    pub fn set_degradation_handle(&mut self, handle: DegradationHandle) {
        self.degradation = Some(handle);
    }

    /// Registers the cross-shard knowledge registry this pipeline's
    /// learner belongs to (as `shard`), so a learner restored after a
    /// crash is re-joined to it — like the degradation handle, the live
    /// learner must have been attached before the worker was spawned;
    /// [`crate::PipelineBuilder::build_sharded`] wires both ends.
    pub fn set_shared_knowledge(
        &mut self,
        shared: crate::knowledge::SharedKnowledge,
        shard: usize,
    ) {
        self.shared = Some((shared, shard));
    }

    /// Current checkpoint-cadence multiplier (1 = healthy disk; doubles
    /// per persistence failure, resets on success).
    pub fn cadence_backoff(&self) -> usize {
        self.cadence_backoff
    }

    /// The telemetry handle shared with the worker thread.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Chaos hook: makes the worker panic on its next command, exercising
    /// the real crash-detection and restart path end to end.
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn inject_worker_panic(&mut self) -> Result<(), FreewayError> {
        self.send_with_recovery(SupCommand::InjectPanic)
    }

    /// Delivers a command, recovering along the way: a full queue blocks
    /// on draining one worker message (backpressure), a disconnected
    /// queue means the worker died — restart it and retry.
    fn send_with_recovery(&mut self, mut cmd: SupCommand) -> Result<(), FreewayError> {
        loop {
            let Some(worker) = self.worker.as_ref() else {
                return Err(FreewayError::WorkerUnavailable);
            };
            match worker.input.try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(returned)) => {
                    cmd = returned;
                    self.pump_one_blocking()?;
                }
                Err(TrySendError::Disconnected(returned)) => {
                    cmd = returned;
                    self.restart_worker()?;
                }
            }
        }
    }

    /// Waits for one worker message and absorbs it; a disconnect is a
    /// crash — restart. With a stall deadline configured the wait is a
    /// polling loop that keeps the watchdog running, so backpressure
    /// against a wedged worker ends in forced recovery instead of a
    /// deadlock (the respawned worker's queue is empty, which unblocks
    /// the caller's retry).
    fn pump_one_blocking(&mut self) -> Result<(), FreewayError> {
        if self.config.stall_deadline.is_none() {
            let Some(worker) = self.worker.as_ref() else {
                return Err(FreewayError::WorkerUnavailable);
            };
            return match worker.output.recv() {
                Ok(msg) => {
                    self.handle_msg(msg);
                    Ok(())
                }
                Err(_) => self.restart_worker(),
            };
        }
        loop {
            let Some(worker) = self.worker.as_ref() else {
                return Err(FreewayError::WorkerUnavailable);
            };
            match worker.output.try_recv() {
                Ok(msg) => {
                    self.handle_msg(msg);
                    return Ok(());
                }
                Err(TryRecvError::Disconnected) => return self.restart_worker(),
                Err(TryRecvError::Empty) => {
                    if self.check_liveness()? {
                        // Forced recovery emptied the queue; the caller's
                        // pending send now has room.
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Appends one framed batch to the journal (when enabled). Append
    /// failures are logged, never fatal: ingest continues and only the
    /// replay guarantee degrades for the unjournaled window.
    fn journal_append(&mut self, seq: u64, frame: Option<Vec<u8>>) {
        let Some(state) = self.journal.as_mut() else { return };
        let Some(frame) = frame else { return };
        match state.journal.append_frame(seq, &frame) {
            Ok(synced) => {
                self.telemetry.emit(TelemetryEvent::JournalAppended {
                    seq,
                    bytes: frame.len() as u64,
                    synced,
                });
            }
            Err(e) => eprintln!("freeway-core: journal append failed (batch not durable): {e}"),
        }
    }

    fn handle_msg(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Output(out) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                if let Some(state) = self.journal.as_mut() {
                    // Delivered toward the caller: a future replay of
                    // this seq must be state-only (output suppressed).
                    state.produced.insert(out.seq);
                }
                self.pending.push_back(out);
            }
            WorkerMsg::Checkpoint(cp) => {
                self.checkpoints_in_flight = self.checkpoints_in_flight.saturating_sub(1);
                self.install_checkpoint(*cp);
            }
        }
    }

    fn install_checkpoint(&mut self, checkpoint: Checkpoint) {
        self.stats.checkpoints_taken += 1;
        let mut persisted = false;
        if let Some(path) = self.config.checkpoint_path.as_ref() {
            let delay = self.chaos_persist_delay.load(Ordering::Relaxed);
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(delay));
            }
            let store = CheckpointStore::new(path.clone(), self.config.checkpoint_generations);
            match self.config.persist_retry.run(|| store.save(&checkpoint)) {
                Ok(()) => {
                    self.stats.checkpoints_persisted += 1;
                    self.cadence_backoff = 1;
                    persisted = true;
                }
                Err(e) => {
                    // Persistence failing must not take down a healthy
                    // pipeline: the in-memory checkpoint still advances,
                    // and the sick disk gets asked less often.
                    self.stats.checkpoint_persist_failures += 1;
                    self.cadence_backoff = (self.cadence_backoff * 2).min(64);
                    eprintln!("freeway-core: checkpoint persistence failed (state kept): {e}");
                }
            }
        }
        self.telemetry
            .emit(TelemetryEvent::CheckpointWritten { seq: self.telemetry.seq(), persisted });
        // Only a *durably persisted* checkpoint may advance the replay
        // base and truncate journal history below it: an in-memory
        // cadence capture dies with the process, so truncating on it
        // would leave an unrecoverable hole after a crash.
        if persisted {
            if let Some(state) = self.journal.as_mut() {
                state.base = checkpoint.clone();
                if let Some(floor) = checkpoint.journal_seq {
                    match state.journal.truncate_below(floor) {
                        Ok(removed) if removed > 0 => {
                            self.telemetry.emit(TelemetryEvent::JournalTruncated {
                                seq: floor,
                                segments: removed,
                            });
                        }
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("freeway-core: journal truncation failed (log kept): {e}")
                        }
                    }
                    // Seqs at or below the floor can never replay again.
                    state.produced = state.produced.split_off(&(floor + 1));
                }
            }
        }
        self.last_checkpoint = checkpoint;
    }

    /// Restores the given checkpoint and re-wires the restored learner to
    /// this supervisor's telemetry stream and shared degradation level,
    /// announcing the restore.
    fn restore_checkpoint_from(&self, checkpoint: &Checkpoint) -> Result<Learner, FreewayError> {
        let mut learner = checkpoint.restore()?;
        learner.attach_telemetry(self.telemetry.clone());
        if let Some(handle) = self.degradation.as_ref() {
            learner.attach_degradation(handle.clone());
        }
        if let Some((shared, shard)) = self.shared.as_ref() {
            learner.attach_shared_knowledge(shared, *shard);
        }
        self.telemetry.emit(TelemetryEvent::CheckpointRestored { seq: self.telemetry.seq() });
        Ok(learner)
    }

    /// Restores the last checkpoint; see [`Self::restore_checkpoint_from`].
    fn restore_checkpoint(&self) -> Result<Learner, FreewayError> {
        self.restore_checkpoint_from(&self.last_checkpoint)
    }

    /// Produces the learner to respawn after a crash. With a journal,
    /// this is restore-the-base-then-replay: journaled records above the
    /// base are re-fed synchronously (telemetry and shared-registry
    /// publishes muted — the crashed worker already had those side
    /// effects), outputs the crashed worker never delivered land on
    /// `pending` via seq-based dedup, and the loss shrinks by exactly
    /// what replay recovered. Without a journal the last checkpoint is
    /// restored and the in-flight work is genuinely lost.
    ///
    /// Returns `(learner, net_lost, respawn_seq)` where `respawn_seq`
    /// seeds the new worker's checkpoint stamping.
    fn recover_learner(&mut self, lost: u64) -> Result<(Learner, u64, Option<u64>), FreewayError> {
        let journal_parts = self.journal.as_mut().map(|state| {
            let base = state.base.clone();
            let records = state.journal.records_above(base.journal_seq);
            let produced = std::mem::take(&mut state.produced);
            (base, records, produced)
        });
        let Some((base, records, mut produced)) = journal_parts else {
            let learner = self.restore_checkpoint()?;
            return Ok((learner, lost, self.last_checkpoint.journal_seq));
        };
        let records = match records {
            Ok(records) => records,
            Err(e) => {
                // An unreadable journal degrades to the journal-free
                // contract: restore the newest checkpoint, count the
                // loss honestly.
                eprintln!("freeway-core: journal replay failed ({e}); restoring checkpoint only");
                if let Some(state) = self.journal.as_mut() {
                    state.produced = produced;
                }
                let learner = self.restore_checkpoint()?;
                return Ok((learner, lost, self.last_checkpoint.journal_seq));
            }
        };
        let started = Instant::now();
        let mut learner = self.restore_checkpoint_from(&base)?;
        learner.attach_telemetry(Telemetry::disabled());
        learner.set_shared_publish_muted(true);
        let summary = replay_into(&mut learner, &records, &mut produced, &mut self.pending);
        learner.set_shared_publish_muted(false);
        learner.attach_telemetry(self.telemetry.clone());
        self.stats.replayed += summary.replayed;
        self.stats.replay_suppressed += summary.suppressed;
        let net_lost = lost.saturating_sub(summary.recovered);
        let respawn_seq = summary.last_seq.or(base.journal_seq);
        if let Some(state) = self.journal.as_mut() {
            state.produced = produced;
            state.recovery_seconds.record(started.elapsed().as_secs_f64());
        }
        self.telemetry.emit(TelemetryEvent::JournalReplayed {
            seq: summary.last_seq.unwrap_or(0),
            replayed: summary.replayed,
            suppressed: summary.suppressed,
        });
        Ok((learner, net_lost, respawn_seq))
    }

    /// Reaps a dead worker and spawns a replacement from the last
    /// checkpoint. Outputs the dead worker already produced are kept;
    /// batches still in its queue are counted as lost.
    fn restart_worker(&mut self) -> Result<(), FreewayError> {
        let Some(Worker { input, output, handle, .. }) = self.worker.take() else {
            return Err(FreewayError::WorkerUnavailable);
        };
        drop(input);
        // Everything the worker managed to emit before dying survives.
        while let Ok(msg) = output.recv() {
            self.handle_msg(msg);
        }
        let panic = match handle.join() {
            Ok(Err(panic)) => panic,
            Err(payload) => panic_message(payload),
            Ok(Ok(learner)) => {
                // A clean exit while we hold the sender should be
                // impossible; salvage the freshest state anyway.
                self.last_checkpoint = Checkpoint::capture(&learner);
                "worker exited unexpectedly".to_string()
            }
        };
        self.stats.worker_panics += 1;
        let lost = self.in_flight as u64;
        self.in_flight = 0;
        self.checkpoints_in_flight = 0;
        self.accepted_since_checkpoint = 0;
        self.complete_restart(panic, lost)
    }

    /// Shared tail of every recovery (crash or forced stall): charge the
    /// restart budget, recover the learner (journal replay when enabled),
    /// and respawn. The caller has already reaped or abandoned the old
    /// worker and zeroed `in_flight`.
    fn complete_restart(&mut self, panic: String, lost: u64) -> Result<(), FreewayError> {
        // Outputs recovery leaves on `pending` (the dead worker's last
        // messages, journal replay) were never announced by a worker ring.
        self.doorbell.ring();
        self.watchdog = None;
        if self.stats.restarts >= self.config.max_restarts {
            // Past the budget nothing replays: the loss is real.
            self.stats.lost_in_flight += lost;
            self.lost_counter.add(lost);
            return Err(FreewayError::RestartsExhausted {
                attempts: self.stats.restarts,
                last_panic: panic,
            });
        }
        self.stats.restarts += 1;
        self.restarts_counter.inc();
        let (learner, net_lost, respawn_seq) = self.recover_learner(lost)?;
        self.stats.lost_in_flight += net_lost;
        self.lost_counter.add(net_lost);
        self.telemetry.emit(TelemetryEvent::WorkerRestarted {
            restarts: self.stats.restarts as u64,
            lost_in_flight: net_lost,
        });
        self.worker = Some(spawn_worker(
            learner,
            self.config.queue_depth,
            self.chaos_train_delay.clone(),
            respawn_seq,
            self.doorbell.clone(),
        ));
        Ok(())
    }

    /// Polls the liveness watchdog, forcing recovery of a stalled worker.
    ///
    /// A no-op (always `Ok(false)`) unless
    /// [`SupervisorConfig::stall_deadline`] is set. Otherwise this first
    /// absorbs available worker output (the cheapest progress signal),
    /// then feeds the heartbeat ledger into the watchdog: a worker with
    /// work pending whose progress epoch has not advanced for a full
    /// deadline is declared stalled and forcibly recovered — emitting
    /// [`TelemetryEvent::WorkerStalled`] / `WorkerRecovered`, charging
    /// the restart budget, and replaying the journal when enabled.
    /// Returns `Ok(true)` when a stall was recovered this call.
    ///
    /// Callers with a deadline configured should poll this from their
    /// drain loops (the admitted, sharded, and serving layers all do).
    ///
    /// # Errors
    /// [`FreewayError::RestartsExhausted`] when the forced recovery blows
    /// the budget; restore errors as [`Self::feed`].
    pub fn check_liveness(&mut self) -> Result<bool, FreewayError> {
        let Some(deadline) = self.config.stall_deadline else {
            return Ok(false);
        };
        self.absorb_available()?;
        let Some(worker) = self.worker.as_ref() else {
            return Ok(false);
        };
        let epoch = worker.heartbeat.epoch();
        let pending = (self.in_flight + self.checkpoints_in_flight) as u64;
        let now = self.watchdog_origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let deadline_ticks = deadline.as_nanos().min(u128::from(u64::MAX)) as u64;
        let watchdog = self.watchdog.get_or_insert_with(|| WatchdogState::new(deadline_ticks));
        if !watchdog.observe(now, epoch, pending) {
            return Ok(false);
        }
        self.force_restart_stalled(now)?;
        Ok(true)
    }

    /// Forced recovery of a stalled worker. Unlike a crash, the thread is
    /// still running and can be neither joined nor drained blocking: raise
    /// the fence (so the zombie exits if it ever wakes), drop our channel
    /// ends, keep whatever output it already produced, abandon the
    /// handle, and restart from the last checkpoint exactly as the crash
    /// path does.
    fn force_restart_stalled(&mut self, now: u64) -> Result<(), FreewayError> {
        let Some(Worker { input, output, handle, heartbeat, fence }) = self.worker.take() else {
            return Err(FreewayError::WorkerUnavailable);
        };
        fence.store(true, Ordering::Release);
        drop(input);
        while let Ok(msg) = output.try_recv() {
            self.handle_msg(msg);
        }
        drop(output);
        drop(handle);
        let stalled_seq = heartbeat.last_seq().unwrap_or(0);
        let stage = heartbeat.stage().tag();
        let stalled_for = self.watchdog.as_ref().map(|w| w.stalled_for(now)).unwrap_or(0);
        self.stats.worker_stalls += 1;
        self.stalls_counter.inc();
        self.telemetry.emit(TelemetryEvent::WorkerStalled { seq: stalled_seq, stage });
        let started = Instant::now();
        let lost = self.in_flight as u64;
        self.in_flight = 0;
        self.checkpoints_in_flight = 0;
        self.accepted_since_checkpoint = 0;
        self.complete_restart(
            format!(
                "worker stalled in stage `{stage}` (no progress for {}ms, deadline {}ms)",
                stalled_for / 1_000_000,
                self.config.stall_deadline.map(|d| d.as_millis()).unwrap_or(0),
            ),
            lost,
        )?;
        self.stall_recovery_seconds.record(started.elapsed().as_secs_f64());
        self.telemetry.emit(TelemetryEvent::WorkerRecovered {
            seq: stalled_seq,
            restarts: self.stats.restarts as u64,
        });
        Ok(())
    }

    /// Chaos hook: makes the worker stop progressing on its next command
    /// for `duration` (pass `Duration::MAX` for an unbounded hang that
    /// only forced recovery clears), as a parked hang or a spinning
    /// livelock. Exercises the real stall-detection and forced-recovery
    /// path end to end.
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn inject_worker_stall(
        &mut self,
        duration: Duration,
        livelock: bool,
    ) -> Result<(), FreewayError> {
        let nanos = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.send_with_recovery(SupCommand::InjectStall { nanos, livelock })
    }

    /// The live worker's heartbeat ledger, when a worker is running.
    /// Observational: drills and dashboards read progress epoch, last
    /// seq, and stage from it.
    pub fn heartbeat(&self) -> Option<&HeartbeatLedger> {
        self.worker.as_ref().map(|w| &w.heartbeat)
    }

    /// Receives the next output without blocking; absorbs checkpoint
    /// messages and restarts a crashed worker along the way.
    ///
    /// # Errors
    /// As [`Self::feed`] when a crash is detected and recovery fails.
    pub fn try_recv(&mut self) -> Result<Option<PipelineOutput>, FreewayError> {
        loop {
            if let Some(out) = self.pending.pop_front() {
                return Ok(Some(out));
            }
            let Some(worker) = self.worker.as_ref() else {
                return Ok(None);
            };
            match worker.output.try_recv() {
                Ok(msg) => self.handle_msg(msg),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => {
                    self.restart_worker()?;
                    return Ok(None);
                }
            }
        }
    }

    /// Receives the next output, blocking while results are outstanding.
    ///
    /// # Errors
    /// [`FreewayError::WorkerUnavailable`] when nothing is in flight
    /// (results of batches lost to a crash are never produced — check
    /// [`Self::stats`]); restart errors as [`Self::feed`].
    pub fn recv(&mut self) -> Result<PipelineOutput, FreewayError> {
        loop {
            if let Some(out) = self.pending.pop_front() {
                return Ok(out);
            }
            if self.in_flight == 0 {
                return Err(FreewayError::WorkerUnavailable);
            }
            self.pump_one_blocking()?;
        }
    }

    /// Run counters so far.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// The dead-letter buffer (counted, bounded).
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// The most recent checkpoint (the restart point).
    pub fn last_checkpoint(&self) -> &Checkpoint {
        &self.last_checkpoint
    }

    /// Stops the worker and returns the learner plus every unconsumed
    /// output. If the worker is dead at finish time (crashed on its final
    /// batches, or the restart budget ran out), the learner is recovered
    /// from the last checkpoint instead of failing the whole run.
    ///
    /// # Errors
    /// [`FreewayError::Checkpoint`] only when that final checkpoint
    /// recovery itself fails.
    pub fn finish(mut self) -> Result<FinishedRun, FreewayError> {
        // With a watchdog armed, the blocking drain below could hang on a
        // wedged worker: run the liveness loop until nothing is owed (a
        // stall forces recovery; an exhausted budget leaves the worker
        // `None` and the checkpoint path below takes over), then raise
        // the fence so an injected idle-stall exits instead of outliving
        // the join.
        if self.config.stall_deadline.is_some() {
            while let Ok(progressed) = self.check_liveness() {
                if self.worker.is_none() || self.in_flight + self.checkpoints_in_flight == 0 {
                    break;
                }
                if !progressed {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            if let Some(worker) = self.worker.as_ref() {
                worker.fence.store(true, Ordering::Release);
            }
        }
        let learner = match self.worker.take() {
            Some(Worker { input, output, handle, .. }) => {
                drop(input);
                while let Ok(msg) = output.recv() {
                    self.handle_msg(msg);
                }
                match handle.join() {
                    Ok(Ok(learner)) => learner,
                    Ok(Err(panic)) => self.finish_recover(panic)?,
                    Err(payload) => {
                        let panic = panic_message(payload);
                        self.finish_recover(panic)?
                    }
                }
            }
            None => self.restore_checkpoint()?,
        };
        let journal = self.journal.as_mut().map(|state| {
            // Make everything admitted this run durable before handing
            // the stats out.
            state.journal.sync();
            state.journal.stats()
        });
        Ok(FinishedRun {
            learner,
            outputs: std::mem::take(&mut self.pending).into(),
            stats: self.stats,
            quarantine: self.quarantine.clone(),
            journal,
        })
    }

    /// Dead-worker recovery at finish time: counts the crash, recovers
    /// the learner (replaying the journal when enabled — recovered
    /// outputs still land in the finished run), and surfaces the
    /// residual loss.
    fn finish_recover(&mut self, panic: String) -> Result<Learner, FreewayError> {
        self.stats.worker_panics += 1;
        let lost = self.in_flight as u64;
        self.in_flight = 0;
        self.checkpoints_in_flight = 0;
        eprintln!("freeway-core: worker dead at finish ({panic}); recovering");
        let (learner, net_lost, _respawn_seq) = self.recover_learner(lost)?;
        self.stats.lost_in_flight += net_lost;
        self.lost_counter.add(net_lost);
        Ok(learner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FreewayConfig;
    use freeway_linalg::Matrix;
    use freeway_ml::ModelSpec;
    use freeway_streams::concept::{stream_rng, GmmConcept};
    use freeway_streams::DriftPhase;

    fn learner() -> Learner {
        Learner::new(
            ModelSpec::lr(4, 2),
            FreewayConfig { pca_warmup_rows: 32, mini_batch: 64, ..Default::default() },
        )
    }

    fn config() -> SupervisorConfig {
        SupervisorConfig { checkpoint_every_n_batches: 3, ..Default::default() }
    }

    fn drain(p: &mut SupervisedPipeline, into: &mut Vec<PipelineOutput>) {
        while let Ok(Some(out)) = p.try_recv() {
            into.push(out);
        }
    }

    #[test]
    fn clean_stream_flows_like_the_plain_pipeline() {
        let mut rng = stream_rng(21);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(learner(), config()).expect("spawn");
        let mut outputs = Vec::new();
        for i in 0..12 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            let outcome = sup
                .feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable))
                .expect("healthy pipeline");
            assert_eq!(outcome, FeedOutcome::Accepted);
            drain(&mut sup, &mut outputs);
        }
        let run = sup.finish().expect("clean finish");
        outputs.extend(run.outputs);
        assert_eq!(outputs.len(), 12, "one output per accepted batch");
        assert_eq!(run.stats.accepted, 12);
        assert_eq!(run.stats.restarts, 0);
        assert_eq!(run.stats.quarantined, 0);
        assert!(run.stats.checkpoints_taken >= 3, "cadence 3 over 12 batches");
        assert!(run.quarantine.is_empty());
    }

    #[test]
    fn poison_batches_are_quarantined_not_fed() {
        let mut rng = stream_rng(22);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(learner(), config()).expect("spawn");
        let (x, y) = concept.sample_batch(64, &mut rng);
        sup.feed_prequential(Batch::labeled(x, y, 0, DriftPhase::Stable)).expect("clean");

        let mut nan = concept.sample_batch(64, &mut rng).0;
        nan.row_mut(3)[1] = f64::NAN;
        let outcome = sup
            .feed_prequential(Batch::unlabeled(nan, 1, DriftPhase::Stable))
            .expect("quarantine is not an error");
        assert!(matches!(outcome, FeedOutcome::Quarantined(BatchFault::NonFiniteFeature { .. })));

        let wide = Batch::unlabeled(Matrix::zeros(8, 7), 2, DriftPhase::Stable);
        assert!(matches!(
            sup.feed(wide).expect("quarantine is not an error"),
            FeedOutcome::Quarantined(BatchFault::WidthMismatch { found: 7, expected: 4 })
        ));

        let run = sup.finish().expect("finish");
        assert_eq!(run.stats.accepted, 1);
        assert_eq!(run.stats.quarantined, 2);
        assert_eq!(run.quarantine.total(), 2);
        assert_eq!(run.stats.restarts, 0, "poison never reached the worker");
        assert_eq!(run.outputs.len(), 1);
    }

    /// Spins on `try_recv` until the supervisor has performed `target`
    /// restarts (crash detection happens at the channel boundary, so the
    /// test must give the supervisor a chance to observe the disconnect).
    fn wait_for_restarts(
        sup: &mut SupervisedPipeline,
        target: usize,
        outputs: &mut Vec<PipelineOutput>,
    ) {
        while sup.stats().restarts < target {
            match sup.try_recv() {
                Ok(Some(out)) => outputs.push(out),
                Ok(None) => std::thread::yield_now(),
                Err(e) => panic!("recovery failed while waiting for restart: {e}"),
            }
        }
    }

    #[test]
    fn injected_panic_restarts_from_checkpoint_and_stream_continues() {
        let mut rng = stream_rng(23);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(learner(), config()).expect("spawn");
        let mut outputs = Vec::new();
        for i in 0..6 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable)).expect("healthy");
            drain(&mut sup, &mut outputs);
        }
        sup.inject_worker_panic().expect("inject");
        wait_for_restarts(&mut sup, 1, &mut outputs);
        for i in 6..12 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable))
                .expect("restart absorbs the crash");
            drain(&mut sup, &mut outputs);
        }
        let run = sup.finish().expect("finish");
        outputs.extend(run.outputs);
        assert_eq!(run.stats.restarts, 1, "exactly one restart: {:?}", run.stats);
        assert_eq!(run.stats.worker_panics, 1);
        assert!(run.stats.checkpoints_taken >= 1, "restart had a checkpoint to use");
        // Every post-restart batch reached the fresh worker and produced
        // its output (nothing was in flight when they were fed).
        let post_restart = outputs.iter().filter(|o| o.seq >= 6).count();
        assert_eq!(post_restart, 6, "stream flowed after recovery");
    }

    #[test]
    fn restart_budget_exhaustion_is_an_error_and_finish_still_recovers() {
        let mut rng = stream_rng(24);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig { max_restarts: 1, ..config() },
        )
        .expect("spawn");
        let mut outputs = Vec::new();
        let (x, y) = concept.sample_batch(64, &mut rng);
        sup.feed_prequential(Batch::labeled(x, y, 0, DriftPhase::Stable)).expect("healthy");
        sup.inject_worker_panic().expect("first crash scheduled");
        wait_for_restarts(&mut sup, 1, &mut outputs);
        // Second crash exceeds max_restarts = 1: the next recovery
        // attempt must surface RestartsExhausted instead of respawning.
        sup.inject_worker_panic().expect("second crash scheduled");
        let err = loop {
            match sup.try_recv() {
                Ok(Some(out)) => outputs.push(out),
                Ok(None) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, FreewayError::RestartsExhausted { attempts: 1, .. }),
            "expected RestartsExhausted, got {err:?}"
        );
        // With the budget spent, feeding errors too (worker is gone).
        let (x, y) = concept.sample_batch(64, &mut rng);
        assert!(matches!(
            sup.feed_prequential(Batch::labeled(x, y, 1, DriftPhase::Stable)),
            Err(FreewayError::WorkerUnavailable)
        ));
        // The run still finishes by recovering state from the checkpoint.
        let run = sup.finish().expect("finish recovers from checkpoint");
        assert_eq!(run.stats.restarts, 1);
        assert_eq!(run.stats.worker_panics, 2);
    }

    #[test]
    fn checkpoints_persist_to_disk_at_cadence() {
        let dir = std::env::temp_dir().join("freeway-supervisor-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sup-ckpt.json");
        let _ = std::fs::remove_file(&path);

        let mut rng = stream_rng(25);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig {
                checkpoint_every_n_batches: 2,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("spawn");
        for i in 0..6 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable)).expect("healthy");
        }
        let run = sup.finish().expect("finish");
        assert!(run.stats.checkpoints_persisted >= 1, "{:?}", run.stats);
        assert_eq!(run.stats.checkpoint_persist_failures, 0);
        let store = CheckpointStore::new(path, SupervisorConfig::default().checkpoint_generations);
        assert!(store.generation_path(0).exists(), "newest generation on disk");
        let (loaded, generation) =
            store.load_newest().expect("persisted checkpoint loads and validates");
        assert_eq!(generation, 0);
        assert_eq!(loaded.spec, *run.learner.spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_feed_full_queue_returns_the_batch_and_keeps_the_guard_open() {
        let mut rng = stream_rng(27);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig { queue_depth: 1, ..config() },
        )
        .expect("spawn");
        // Slow the worker so the 1-deep queue reliably fills.
        sup.set_chaos_train_delay(std::time::Duration::from_millis(30));
        let mut full_batch = None;
        let mut accepted = 0u64;
        for i in 0..50 {
            let (x, y) = concept.sample_batch(32, &mut rng);
            match sup.try_feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable)) {
                Ok(TryFeedOutcome::Accepted) => accepted += 1,
                Ok(TryFeedOutcome::Full(batch)) => {
                    full_batch = Some(batch);
                    break;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let bounced = full_batch.expect("a 1-deep queue with a 30ms worker must fill");
        // The bounced batch can be re-offered without a duplicate-seq
        // quarantine once the queue drains.
        sup.set_chaos_train_delay(std::time::Duration::ZERO);
        loop {
            match sup.try_feed_prequential(bounced.clone()).expect("healthy") {
                TryFeedOutcome::Accepted => break,
                TryFeedOutcome::Full(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
                TryFeedOutcome::Quarantined(fault) => {
                    panic!("re-offer after Full must not quarantine: {fault:?}")
                }
            }
        }
        let run = sup.finish().expect("finish");
        assert_eq!(run.stats.accepted, accepted + 1);
        assert_eq!(run.stats.quarantined, 0);
    }

    #[test]
    fn try_feed_still_quarantines_poison() {
        let mut sup = SupervisedPipeline::with_learner(learner(), config()).expect("spawn");
        let wide = Batch::unlabeled(Matrix::zeros(8, 7), 0, DriftPhase::Stable);
        assert!(matches!(
            sup.try_feed(wide).expect("quarantine is not an error"),
            TryFeedOutcome::Quarantined(BatchFault::WidthMismatch { found: 7, expected: 4 })
        ));
        let run = sup.finish().expect("finish");
        assert_eq!(run.stats.quarantined, 1);
    }

    #[test]
    fn failing_disk_degrades_cadence_instead_of_killing_the_run() {
        let dir = std::env::temp_dir().join("freeway-supervisor-sickdisk");
        let _ = std::fs::remove_dir_all(&dir);
        // The directory deliberately does not exist: every persistence
        // attempt fails, exercising retry exhaustion + cadence backoff.
        let path = dir.join("nope").join("ckpt.json");
        let mut rng = stream_rng(28);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig {
                checkpoint_every_n_batches: 2,
                checkpoint_path: Some(path),
                persist_retry: RetryPolicy {
                    max_attempts: 2,
                    base_delay: std::time::Duration::from_micros(50),
                    max_delay: std::time::Duration::from_micros(100),
                    seed: 7,
                },
                ..Default::default()
            },
        )
        .expect("spawn");
        let mut received = 0u64;
        for i in 0..12 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable))
                .expect("persist failures must not fail the feed");
        }
        // Drain every in-flight result so the checkpoint verdicts queued
        // behind them are applied before we look at the backoff.
        while sup.recv().is_ok() {
            received += 1;
        }
        assert!(sup.cadence_backoff() > 1, "cadence degraded after persist failures");
        let run = sup.finish().expect("finish");
        assert!(run.stats.checkpoint_persist_failures >= 1, "{:?}", run.stats);
        assert_eq!(run.stats.checkpoints_persisted, 0);
        assert_eq!(run.stats.worker_panics, 0, "the worker never noticed the sick disk");
        assert_eq!(received + run.outputs.len() as u64 + run.stats.lost_in_flight, 12);
    }

    #[test]
    fn journaled_restart_replays_lost_in_flight_batches() {
        let dir =
            std::env::temp_dir().join(format!("freeway-journal-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut rng = stream_rng(29);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig {
                journal: Some(JournalConfig::new(dir.join("ingest.wal"))),
                ..config()
            },
        )
        .expect("spawn");
        let mut outputs = Vec::new();
        for i in 0..4 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable)).expect("healthy");
            drain(&mut sup, &mut outputs);
        }
        // The panic command queues ahead of batch 4, so the crash
        // deterministically takes an admitted batch down with it.
        sup.inject_worker_panic().expect("inject");
        let (x, y) = concept.sample_batch(64, &mut rng);
        sup.feed_prequential(Batch::labeled(x, y, 4, DriftPhase::Stable)).expect("fed");
        wait_for_restarts(&mut sup, 1, &mut outputs);
        for i in 5..8 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            sup.feed_prequential(Batch::labeled(x, y, i, DriftPhase::Stable)).expect("healthy");
            drain(&mut sup, &mut outputs);
        }
        let run = sup.finish().expect("finish");
        outputs.extend(run.outputs);
        assert_eq!(run.stats.restarts, 1, "{:?}", run.stats);
        assert_eq!(run.stats.lost_in_flight, 0, "replay recovers everything: {:?}", run.stats);
        assert!(run.stats.replayed >= 1, "{:?}", run.stats);
        let seqs: Vec<u64> = outputs.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>(), "every batch exactly once, in order");
        let journal = run.journal.expect("journal stats present");
        assert_eq!(journal.appended, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_recovery_replays_a_previous_processes_journal() {
        let dir =
            std::env::temp_dir().join(format!("freeway-journal-startup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = JournalConfig::new(dir.join("ingest.wal"));
        let mut rng = stream_rng(30);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        // First incarnation: admit five batches, then die without a
        // clean finish (the journal is the only durable trace).
        let mut batches = Vec::new();
        for i in 0..8 {
            let (x, y) = concept.sample_batch(64, &mut rng);
            batches.push(Batch::labeled(x, y, i, DriftPhase::Stable));
        }
        {
            let mut sup = SupervisedPipeline::with_learner(
                learner(),
                SupervisorConfig { journal: Some(journal.clone()), ..config() },
            )
            .expect("spawn");
            for batch in batches.iter().take(5) {
                sup.feed_prequential(batch.clone()).expect("healthy");
            }
            // Dropped without finish(): a process crash from the
            // journal's point of view.
        }
        // Second incarnation: genesis replay reconstructs the state,
        // suppressing every already-delivered output.
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig { journal: Some(journal), ..config() },
        )
        .expect("recovering spawn");
        assert_eq!(sup.stats().replayed, 5, "{:?}", sup.stats());
        assert_eq!(sup.stats().replay_suppressed, 5, "{:?}", sup.stats());
        for batch in batches.iter().skip(5) {
            sup.feed_prequential(batch.clone()).expect("healthy");
        }
        let run = sup.finish().expect("finish");
        assert_eq!(run.outputs.len(), 3, "only post-recovery outputs are delivered");
        assert_eq!(run.stats.accepted, 3);
        assert_eq!(run.stats.lost_in_flight, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_faults_are_quarantined_when_enabled() {
        let mut rng = stream_rng(26);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(learner(), config()).expect("spawn");
        let (x, y) = concept.sample_batch(64, &mut rng);
        let batch = Batch::labeled(x, y, 5, DriftPhase::Stable);
        sup.feed_prequential(batch.clone()).expect("clean");
        assert!(matches!(
            sup.feed_prequential(batch).expect("quarantine is not an error"),
            FeedOutcome::Quarantined(BatchFault::DuplicateSeq { seq: 5 })
        ));
        let run = sup.finish().expect("finish");
        assert_eq!(run.stats.quarantined, 1);
    }
}
