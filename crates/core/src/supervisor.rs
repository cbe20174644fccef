//! The supervised pipeline: the runtime's one worker, with checkpointed
//! auto-restart and poison quarantine.
//!
//! [`SupervisedPipeline`] runs the paper's train/infer worker (§V-A): one
//! thread owns the [`Learner`], fed through a bounded channel, and routes
//! each batch by labeledness. Every threaded runtime in this crate —
//! [`crate::Pipeline`] (an alias of this type), admission, shards, and
//! the serving facade — drives exactly this worker, inside a fault
//! boundary:
//!
//! * every batch passes the [`BatchGuard`] **before** touching the
//!   channel; a poison batch is counted in
//!   [`SupervisorStats::quarantined`], announced as a `BatchQuarantined`
//!   event and dropped, instead of panicking inside the math substrate;
//! * the worker checkpoints itself: after every
//!   `checkpoint_every_n_batches`-th batch it takes from its queue it
//!   sends that batch's answer, then a [`Checkpoint`] of its learner,
//!   which the supervisor installs (and persists atomically when a path
//!   is configured);
//! * one receive step is the only reader of the worker's output: every
//!   feed, receive, barrier and finish runs it, so every one of them
//!   detects a crash and, with [`SupervisorConfig::stall_deadline`] set,
//!   polls the stall watchdog;
//! * a worker panic is detected at the channel boundary, the crashed
//!   thread is joined for its panic message, and a fresh worker is
//!   spawned from the last checkpoint — up to `max_restarts` times; a
//!   stalled worker is fenced and abandoned, then replaced the same way;
//! * without a journal, batches in flight at the moment of a crash are
//!   *lost, not replayed* (streaming semantics: the stream has moved
//!   on), and the loss is counted in
//!   [`SupervisorStats::lost_in_flight`];
//! * with [`SupervisorConfig::journal`] set, every accepted batch is
//!   appended to a durable [`crate::journal::Journal`] after the worker
//!   hand-off, and restart becomes restore-then-replay: the replay base
//!   checkpoint is restored, and the replacement worker re-feeds the
//!   journaled batches above it before it reads its queue
//!   (shared-registry publishes muted, telemetry muted, outputs at or
//!   below the highest seq already delivered suppressed). Its answers
//!   count in flight like any other, and `lost_in_flight` stays zero —
//!   effectively-once semantics. The base advances only when a
//!   checkpoint is *durably persisted* to disk, and journal segments are
//!   dropped only below the oldest checkpoint generation this process
//!   persisted, so every generation restore can fall back to still has
//!   its journal; a run without a checkpoint path replays from genesis,
//!   which reconstructs the worker's exact state (cadence checkpoints
//!   are deliberately lossy about PCA/shift-tracker state, a genesis
//!   replay is not);
//! * [`SupervisedPipeline::inject`] takes a [`Fault`] in — a panic, a
//!   stall, a slow train stage or a slow disk — so drills drive the real
//!   recovery paths end to end.
//!
//! The supervisor is single-threaded on the caller side: `feed`,
//! `try_recv`, and `finish` take `&mut self` so restart bookkeeping
//! needs no locking. A restart is one spawn: the caller restores the
//! checkpoint and reads the journal, and the replay runs on the new
//! worker. Dropping the supervisor closes the worker's queue without
//! blocking or joining, so a dead worker behind a full queue can never
//! hang the caller.

use crate::degrade::{DegradationHandle, DegradationLevel};
use crate::error::{panic_message, FreewayError};
use crate::guard::{BatchFault, BatchGuard, GuardPolicy};
use crate::journal::{frame_batch, Journal, JournalConfig, JournalRecord, JournalStats};
use crate::learner::{InferenceReport, Learner};
use crate::liveness::{HeartbeatLedger, WatchdogState, WorkerStage};
use crate::persistence::{Checkpoint, CheckpointStore};
use crate::pipeline::PipelineOutput;
use crate::retry::retry;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use freeway_streams::Batch;
use freeway_telemetry::{Counter, Telemetry, TelemetryEvent, DURATION_SECONDS_BOUNDS};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// On-disk checkpoint generations kept when
/// [`SupervisorConfig::checkpoint_path`] is set (`checkpoint.0.json`
/// newest). Restore falls back to the newest generation passing CRC and
/// validation.
const CHECKPOINT_GENERATIONS: usize = 3;

/// Supervision policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Bound on both worker channels (backpressure).
    pub queue_depth: usize,
    /// The worker checkpoints itself after every this-many batches it
    /// takes from its queue (journal replays do not count), times
    /// [`SupervisedPipeline::cadence_backoff`].
    pub checkpoint_every_n_batches: usize,
    /// When set, every checkpoint is also persisted here atomically
    /// (write temp, fsync, rename). Persistence failures are counted and
    /// logged, never fatal — the in-memory checkpoint still updates.
    pub checkpoint_path: Option<PathBuf>,
    /// Worker crashes tolerated before the supervisor gives up with
    /// [`FreewayError::RestartsExhausted`].
    pub max_restarts: usize,
    /// When set, every accepted batch is journaled and crash recovery
    /// replays instead of dropping in-flight work (see the module docs
    /// for the effectively-once contract). `None` (the default) keeps
    /// the journal-free path byte-identical to previous builds.
    pub journal: Option<JournalConfig>,
    /// When set, every feed and receive polls a stall watchdog: a worker
    /// with work pending whose heartbeat makes no progress for this long
    /// is forcibly recovered through the same checkpoint-restore +
    /// journal-replay path as a crash, counted against the restart
    /// budget. A slow-but-progressing worker is never killed — only a
    /// fully wedged one. `None` (the default) disables the watchdog.
    pub stall_deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            queue_depth: 32,
            checkpoint_every_n_batches: 8,
            checkpoint_path: None,
            max_restarts: 3,
            journal: None,
            stall_deadline: None,
        }
    }
}

impl SupervisorConfig {
    /// Validates the configuration; [`crate::PipelineBuilder`] and
    /// [`SupervisedPipeline::with_learner`] both run it.
    ///
    /// # Errors
    /// A message naming the offending field, in the builder's
    /// `InvalidConfig` style.
    pub fn check(&self) -> Result<(), String> {
        if self.queue_depth == 0 {
            return Err("queue depth must be positive".to_owned());
        }
        if self.checkpoint_every_n_batches == 0 {
            return Err("checkpoint cadence must be positive".to_owned());
        }
        if self.stall_deadline.is_some_and(|deadline| deadline.is_zero()) {
            return Err("stall deadline must be positive when set".to_owned());
        }
        Ok(())
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
    /// The batch was rejected: counted in
    /// [`SupervisorStats::quarantined`], announced, and dropped.
    Quarantined(BatchFault),
}

/// Everything a finished supervised run hands back.
pub struct FinishedRun {
    /// The learner. A worker dead at finish time is replaced by one that
    /// replays the journal; past the restart budget the learner comes
    /// from the last checkpoint.
    pub learner: Learner,
    /// All outputs not yet consumed via `recv`/`try_recv`, in order.
    pub outputs: Vec<PipelineOutput>,
    /// Run counters.
    pub stats: SupervisorStats,
    /// Journal counters (appends, syncs, recovered records, truncated
    /// segments); `None` when journaling was not configured. The journal
    /// is fsynced before these are captured, so they describe a fully
    /// durable log.
    pub journal: Option<JournalStats>,
}

enum SupCommand {
    /// A batch to run through [`run_batch`].
    Batch { batch: Batch, prequential: bool },
    /// [`Fault::Panic`]: panic deterministically inside the worker.
    Panic,
    /// [`Fault::Stall`]: stop making progress for this many nanoseconds
    /// (`u64::MAX` = until fenced). No heartbeat lands while it runs, so
    /// the watchdog sees exactly what a wedged worker looks like.
    Stall { nanos: u64, livelock: bool },
}

/// A fault injected into a runtime's worker, through the one entry point
/// each tier has: [`SupervisedPipeline::inject`],
/// [`crate::ShardedPipeline::inject`] and [`crate::ServiceHandle::inject`].
/// Drills and tests drive the real recovery paths with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The worker panics on its next command: the crash-restart path.
    Panic,
    /// The worker stops making progress on its next command, parked in
    /// short sleeps or, with `livelock`, spinning: the watchdog's
    /// stall-recovery path (stage `chaos-stall`).
    Stall {
        /// How long the hang lasts if nothing recovers the worker first
        /// (`Duration::MAX`: until forced recovery).
        duration: Duration,
        /// Spin, burning a core, instead of sleeping.
        livelock: bool,
    },
    /// Every later train or infer command sleeps this long first, half as
    /// long at [`DegradationLevel::ShortOnly`] and an eighth below it: an
    /// overloaded train stage. Zero clears it.
    SlowTrain(Duration),
    /// Every later checkpoint save and journal fsync sleeps this long
    /// first: a slow disk. Zero clears it.
    SlowDisk(Duration),
}

/// `duration` in nanoseconds, saturating at `u64::MAX`.
fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
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
    /// Raised when a stalled worker is abandoned: a zombie worker that
    /// eventually wakes up sees it and exits instead of ghost-writing into
    /// channels nobody reads.
    fence: Arc<AtomicBool>,
}

/// Wakes the threads that wait on one pipeline's workers. Client threads
/// queue on the bell for outputs: each output a worker sends takes one
/// thread off the queue and unparks it, the one waiting for that output
/// if it is queued, else the longest-queued, and that thread drains the
/// outputs for whichever session they belong to. A worker thread's exit,
/// panics included, unparks the one installed maintenance thread.
/// Cloning shares the bell. A ring with nobody queued costs one atomic
/// load.
#[derive(Clone, Default)]
pub(crate) struct Doorbell(Arc<Bell>);

#[derive(Default)]
struct Bell {
    /// `waiters.len()`, readable without the lock.
    queued: AtomicUsize,
    /// Queued threads, longest-queued first, each with the output seq it
    /// waits for (`None` when its session has nothing in flight).
    waiters: parking_lot::Mutex<VecDeque<(Thread, Option<u64>)>>,
    exit: OnceLock<Thread>,
}

impl Doorbell {
    /// Makes `thread` the one a worker's exit unparks; later installs are
    /// ignored.
    pub(crate) fn install_exit(&self, thread: Thread) {
        let _ = self.0.exit.set(thread);
    }

    /// Queues `thread`, waiting for output `awaits`, unless it is queued
    /// already. Returns `true` when it had to be queued: after a ring has
    /// taken it off, that obliges it to drain the pipeline's outputs, so
    /// the ring is never lost. Queue *before* the last check for output:
    /// a ring that lands between that check and the park is then kept as
    /// the thread's park token.
    pub(crate) fn enqueue(&self, thread: &Thread, awaits: Option<u64>) -> bool {
        let mut waiters = self.0.waiters.lock();
        if waiters.iter().any(|(waiter, _)| waiter.id() == thread.id()) {
            return false;
        }
        waiters.push_back((thread.clone(), awaits));
        self.0.queued.store(waiters.len(), Ordering::SeqCst);
        true
    }

    /// Takes `thread` off the queue. Returns `false` when a ring already
    /// took it, which obliges it to drain the pipeline's outputs.
    pub(crate) fn dequeue(&self, thread: &Thread) -> bool {
        let mut waiters = self.0.waiters.lock();
        let Some(at) = waiters.iter().position(|(waiter, _)| waiter.id() == thread.id()) else {
            return false;
        };
        waiters.remove(at);
        self.0.queued.store(waiters.len(), Ordering::SeqCst);
        true
    }

    /// Takes the thread waiting for output `seq` (when given and queued),
    /// or else the longest-queued one, off the queue and unparks it.
    pub(crate) fn ring(&self, seq: Option<u64>) {
        if self.0.queued.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut waiters = self.0.waiters.lock();
        let owner = seq.and_then(|seq| waiters.iter().position(|(_, awaits)| *awaits == Some(seq)));
        let at = owner.unwrap_or(0);
        let woken = waiters.remove(at);
        self.0.queued.store(waiters.len(), Ordering::SeqCst);
        drop(waiters);
        if let Some((thread, _)) = woken {
            thread.unpark();
        }
    }
}

/// Runs one batch through `learner` the way the paper splits its input
/// stream: a prequential batch is answered, then trained on; otherwise a
/// labeled batch trains (no report) and an unlabeled one is answered. The
/// worker loop and its journal replay both dispatch through here.
fn run_batch(learner: &mut Learner, batch: &Batch, prequential: bool) -> Option<InferenceReport> {
    if prequential {
        return Some(learner.process(batch));
    }
    learner.telemetry().batch_started(batch.seq);
    match batch.labels.as_deref() {
        Some(labels) => {
            learner.train(&batch.x, labels);
            None
        }
        None => Some(learner.infer(&batch.x)),
    }
}

/// The journal records a replacement worker re-feeds before it reads its
/// queue. The supervisor fixes every count in advance; the worker runs
/// it ([`spawn_worker`]).
struct Replay {
    records: Vec<JournalRecord>,
    /// Highest seq whose answer the caller already has: records at or
    /// below it are replayed for state, their answers suppressed.
    delivered: Option<u64>,
    /// `freeway_journal_recovery_seconds`, and when the recovery began.
    seconds: freeway_telemetry::Histogram,
    started: Instant,
}

impl Replay {
    /// The answers the replay sends: one per record above the watermark.
    fn answers(&self) -> usize {
        self.records.iter().filter(|record| !self.suppresses(record.seq)).count()
    }

    fn suppresses(&self, seq: u64) -> bool {
        self.delivered.is_some_and(|delivered| seq <= delivered)
    }
}

/// Spawns the worker thread for `learner`. It runs `replay` first, then
/// serves its queue, and after every `cadence`-th batch it takes from the
/// queue it sends a checkpoint right behind that batch's answer.
fn spawn_worker(
    mut learner: Learner,
    replay: Option<Replay>,
    queue_depth: usize,
    slow_train: Arc<AtomicU64>,
    cadence: Arc<AtomicUsize>,
    doorbell: Doorbell,
) -> Worker {
    let telemetry = learner.telemetry().clone();
    let (in_tx, in_rx) = bounded::<SupCommand>(queue_depth);
    // A crash owes at most a full queue plus the batch in hand, which
    // this capacity holds; only a crash during a replay can owe more, and
    // the channel grows to hold that replay's answers too.
    let answers = replay.as_ref().map_or(0, Replay::answers);
    let (out_tx, out_rx) = bounded::<WorkerMsg>((queue_depth + 1).max(answers));
    let heartbeat = HeartbeatLedger::new();
    let fence = Arc::new(AtomicBool::new(false));
    let ledger = heartbeat.clone();
    let fenced = fence.clone();
    let handle = std::thread::spawn(move || {
        let bell = doorbell.clone();
        let result = catch_unwind(AssertUnwindSafe(move || {
            if let Some(replay) = replay {
                // Re-feed the journaled batches exactly as the dead worker
                // ran them, with telemetry and shared-registry publishes
                // muted: replayed work already had those side effects.
                // The channel holds every unsuppressed answer, so this
                // never waits for a reader, and a beat per record keeps a
                // long replay from being taken for a stall.
                learner.attach_telemetry(Telemetry::disabled());
                learner.set_shared_publish_muted(true);
                ledger.set_stage(WorkerStage::Train);
                for record in &replay.records {
                    let report = run_batch(&mut learner, &record.to_batch(), record.prequential);
                    if !replay.suppresses(record.seq) {
                        let answer = PipelineOutput { seq: record.seq, report };
                        match out_tx.try_send(WorkerMsg::Output(answer)) {
                            Ok(()) => bell.ring(Some(record.seq)),
                            Err(TrySendError::Disconnected(_)) => break,
                            Err(TrySendError::Full(_)) => {
                                unreachable!("the output channel holds every replayed answer")
                            }
                        }
                    }
                    ledger.beat(Some(record.seq));
                }
                learner.set_shared_publish_muted(false);
                learner.attach_telemetry(telemetry.clone());
                replay.seconds.record(replay.started.elapsed().as_secs_f64());
            }
            // Batches taken from the queue since the last checkpoint.
            let mut taken = 0usize;
            loop {
                // The ingest span covers queue wait: how long the worker
                // starved before the next command arrived.
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
                let (batch, prequential) = match cmd {
                    SupCommand::Batch { batch, prequential } => (batch, prequential),
                    SupCommand::Panic => panic!("injected worker panic (chaos)"),
                    SupCommand::Stall { nanos, livelock } => {
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
                // Fault::SlowTrain: an artificially slowed worker turns
                // any stream into an overload, exercising backpressure,
                // shedding, and the degradation ladder for real. The
                // delay models the train stage, so it shrinks with the
                // service level: degraded levels skip (most of) training
                // and genuinely run faster.
                let nanos = slow_train.load(Ordering::Relaxed);
                if nanos > 0 {
                    let scaled = match learner.degradation_level() {
                        DegradationLevel::Full => nanos,
                        DegradationLevel::ShortOnly => nanos / 2,
                        DegradationLevel::InferenceOnly | DegradationLevel::Shed => nanos / 8,
                    };
                    std::thread::sleep(std::time::Duration::from_nanos(scaled));
                }
                ledger.set_stage(WorkerStage::Train);
                let seq = batch.seq;
                let report = run_batch(&mut learner, &batch, prequential);
                if out_tx.send(WorkerMsg::Output(PipelineOutput { seq, report })).is_err() {
                    break;
                }
                ledger.beat(Some(seq));
                bell.ring(Some(seq));
                taken += 1;
                if taken >= cadence.load(Ordering::Relaxed) {
                    // Nobody waits for a checkpoint: the next call that
                    // touches the pipeline takes it in, so no ring.
                    taken = 0;
                    ledger.set_stage(WorkerStage::Checkpoint);
                    let checkpoint =
                        Checkpoint { journal_seq: Some(seq), ..Checkpoint::capture(&learner) };
                    if out_tx.send(WorkerMsg::Checkpoint(Box::new(checkpoint))).is_err() {
                        break;
                    }
                    ledger.beat(None);
                }
            }
            learner
        }))
        .map_err(panic_message);
        // The closure's channel ends are gone by now, so the woken
        // maintenance thread sees the disconnect (a crash, panics
        // included).
        if let Some(thread) = doorbell.0.exit.get() {
            thread.unpark();
        }
        result
    });
    Worker { input: in_tx, output: out_rx, handle, heartbeat, fence }
}

/// How long one receive waits for the worker before it polls the
/// watchdog again and hands control back, so a waiting send can retry.
const RECEIVE_POLL: Duration = Duration::from_millis(1);

/// Everything the supervisor keeps per enabled journal.
struct JournalState {
    journal: Journal,
    /// Replay base: restoring this checkpoint and re-feeding every
    /// journaled record above `base.journal_seq` reproduces the
    /// crashed worker's exact state. Advances only when a checkpoint is
    /// durably persisted to disk (never on in-memory cadence captures),
    /// so a run without a checkpoint path replays from genesis.
    base: Checkpoint,
    /// Highest seq whose output has been delivered toward the caller;
    /// replay re-feeds records at or below it for state but suppresses
    /// their outputs. Accepted seqs ascend (the guard enforces it) and
    /// the worker answers in queue order, so the delivered seqs are
    /// always a prefix of the journaled ones and one number covers them.
    delivered: Option<u64>,
    /// Journal floors of the last [`CHECKPOINT_GENERATIONS`] checkpoints
    /// this process persisted, oldest first: the generations a restore
    /// can fall back to, so the journal is cut only below the first.
    persisted_floors: VecDeque<u64>,
    /// Wall-clock cost of each restore-then-replay recovery, recorded by
    /// the worker that replays.
    recovery_seconds: freeway_telemetry::Histogram,
}

/// A fault-tolerant pipeline around a [`Learner`].
pub struct SupervisedPipeline {
    config: SupervisorConfig,
    worker: Option<Worker>,
    guard: BatchGuard,
    /// Outputs drained from the worker but not yet handed to the caller.
    pending: VecDeque<PipelineOutput>,
    /// The restart point. Seeded with a checkpoint of the initial
    /// learner, so recovery is possible before the first cadence point.
    last_checkpoint: Checkpoint,
    stats: SupervisorStats,
    /// Accepted batches whose outputs have not been observed yet,
    /// including the answers a replacement worker's replay owes.
    in_flight: usize,
    /// Cadence multiplier, doubled on persistence failure and reset on
    /// success: a sick disk is asked for checkpoints less often instead
    /// of stalling or killing a healthy worker.
    cadence_backoff: usize,
    /// The worker's checkpoint cadence, shared with every worker this
    /// pipeline spawns: `checkpoint_every_n_batches * cadence_backoff`,
    /// rewritten whenever the backoff changes.
    cadence: Arc<AtomicUsize>,
    /// [`Fault::SlowTrain`], shared with every worker this pipeline
    /// spawns: nanoseconds of delay before each train/infer command
    /// (0 = off).
    slow_train: Arc<AtomicU64>,
    /// [`Fault::SlowDisk`]: the delay before each checkpoint save (the
    /// journal keeps its own copy for its fsyncs).
    slow_disk: Duration,
    /// Whether an injected panic or stall waits for queue space. A
    /// [`crate::Service`] clears it: nothing may wait for a worker under
    /// the service lock, so a full queue fails the injection at once.
    pub(crate) inject_waits: bool,
    /// The overload degradation level the learner was built with; a
    /// restored learner is re-attached to it so service levels survive
    /// restarts.
    degradation: DegradationHandle,
    /// The cross-shard knowledge registry the learner was built into, and
    /// as which shard; a restored learner re-joins it, so one shard's
    /// crash never disconnects it from the fleet's preserved concepts.
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
    /// Wall-clock cost of each forced stall recovery, up to the
    /// replacement's spawn (`freeway_stall_recovery_seconds`).
    stall_recovery_seconds: freeway_telemetry::Histogram,
    /// Stall detector, armed lazily on the first receive when
    /// `stall_deadline` is configured; reset on every respawn so a fresh
    /// worker gets a full deadline.
    watchdog: Option<WatchdogState>,
    /// Monotonic origin for watchdog ticks (nanoseconds since here).
    watchdog_origin: Instant,
    /// Rung by every worker this pipeline spawns after each output it
    /// sends and when it exits; nobody waits on it below the service.
    doorbell: Doorbell,
    /// Highest batch seq startup recovery restored from a previous
    /// process's journal: the last replayed record, or the loaded
    /// checkpoint's floor. `None` without a journal or when it was empty.
    recovered_seq: Option<u64>,
}

impl SupervisedPipeline {
    /// Spawns the supervised worker. The guard's policy (feature width,
    /// class count) is derived from the learner's model spec, and the
    /// learner's [`Telemetry`] handle, degradation level and shared
    /// knowledge registry are the ones every restored learner is wired
    /// to, so quarantine, checkpoint, and restart events land on the same
    /// stream as the learner's own.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `config` fails
    /// [`SupervisorConfig::check`]; journal and checkpoint errors when a
    /// journal left by a previous process cannot be recovered;
    /// [`FreewayError::PoisonBatch`] for the first journaled record the
    /// learner's guard rejects (a journal written for another model).
    pub fn with_learner(learner: Learner, config: SupervisorConfig) -> Result<Self, FreewayError> {
        config.check().map_err(FreewayError::InvalidConfig)?;
        let guard = BatchGuard::new(GuardPolicy {
            expected_features: learner.spec().features(),
            num_classes: learner.spec().classes(),
        });
        let telemetry = learner.telemetry().clone();
        let mut pipeline = Self {
            worker: None,
            guard,
            pending: VecDeque::new(),
            last_checkpoint: Checkpoint::capture(&learner),
            stats: SupervisorStats::default(),
            in_flight: 0,
            cadence_backoff: 1,
            cadence: Arc::new(AtomicUsize::new(config.checkpoint_every_n_batches)),
            slow_train: Arc::new(AtomicU64::new(0)),
            slow_disk: Duration::ZERO,
            inject_waits: true,
            degradation: learner.degradation_handle().clone(),
            shared: learner.shared_membership().map(|(shared, shard)| (shared.clone(), shard)),
            journal: None,
            restarts_counter: telemetry.counter("freeway_worker_restarts_total"),
            lost_counter: telemetry.counter("freeway_lost_in_flight_total"),
            stalls_counter: telemetry.counter("freeway_worker_stalls_total"),
            stall_recovery_seconds: telemetry
                .histogram("freeway_stall_recovery_seconds", DURATION_SECONDS_BOUNDS),
            watchdog: None,
            watchdog_origin: Instant::now(),
            doorbell: Doorbell::default(),
            recovered_seq: None,
            telemetry,
            config,
        };
        let mut learner = learner;
        let mut replay = None;
        if let Some(journal_config) = pipeline.config.journal.clone() {
            let (journal, recovered) = Journal::open(journal_config)?;
            pipeline.journal = Some(JournalState {
                journal,
                base: pipeline.last_checkpoint.clone(),
                delivered: None,
                persisted_floors: VecDeque::new(),
                recovery_seconds: pipeline
                    .telemetry
                    .histogram("freeway_journal_recovery_seconds", DURATION_SECONDS_BOUNDS),
            });
            if !recovered.is_empty() {
                replay = pipeline.recover_startup(&mut learner, recovered)?;
            }
        }
        pipeline.spawn(learner, replay);
        Ok(pipeline)
    }

    /// Startup recovery over a non-empty journal: the previous process
    /// died with work admitted but not durably checkpointed, so the first
    /// worker replays it before it takes new input. A genesis journal
    /// (lowest segment index 0) replays onto the fresh learner; a
    /// truncated one needs the disk checkpoint that justified the
    /// truncation, restored into `learner`. The previous incarnation
    /// delivered every replayed output, so all of them are suppressed.
    fn recover_startup(
        &mut self,
        learner: &mut Learner,
        recovered: Vec<JournalRecord>,
    ) -> Result<Option<Replay>, FreewayError> {
        let started = Instant::now();
        let Some(state) = self.journal.as_mut() else { return Ok(None) };
        let truncated = state.journal.lowest_segment_index() != 0;
        if truncated {
            let Some(path) = self.config.checkpoint_path.as_ref() else {
                return Err(FreewayError::InvalidConfig(
                    "journal history is truncated below a checkpoint; \
                     recovering it requires checkpoint_path"
                        .to_owned(),
                ));
            };
            let store = CheckpointStore::new(path.clone(), CHECKPOINT_GENERATIONS);
            let (loaded, _generation) = store.load_newest()?;
            *learner = loaded.restore()?;
            state.base = loaded;
        }
        let records: Vec<JournalRecord> = match state.base.journal_seq {
            Some(floor) => recovered.into_iter().filter(|r| r.seq > floor).collect(),
            None => recovered,
        };
        // Another process may have written the journal for a different
        // model: refuse records this pipeline's guard rejects instead of
        // replaying them into a panic. The guard has accepted nothing
        // yet, so only content faults can fire on the ascending seqs.
        for record in &records {
            if let Err(fault) = self.guard.inspect(&record.to_batch()) {
                return Err(FreewayError::PoisonBatch { seq: record.seq, fault });
            }
        }
        // A genesis base has no floor; a loaded checkpoint's floor counts
        // when no record lies above it.
        self.recovered_seq = records.iter().map(|r| r.seq).max().max(state.base.journal_seq);
        state.delivered = self.recovered_seq;
        if truncated {
            self.wire(learner);
        }
        Ok(self.plan_replay(records, started))
    }

    /// Plans the replay of `records` on a new worker: counts them in
    /// `replayed`, those at or below the delivered watermark in
    /// `replay_suppressed`, and announces it, all before the worker runs
    /// it. `started` is when the recovery began.
    fn plan_replay(&mut self, records: Vec<JournalRecord>, started: Instant) -> Option<Replay> {
        let state = self.journal.as_ref()?;
        let replay = Replay {
            records,
            delivered: state.delivered,
            seconds: state.recovery_seconds.clone(),
            started,
        };
        let replayed = replay.records.len() as u64;
        let suppressed = replayed - replay.answers() as u64;
        self.stats.replayed += replayed;
        self.stats.replay_suppressed += suppressed;
        self.telemetry.emit(TelemetryEvent::JournalReplayed {
            seq: replay.records.last().map_or(0, |r| r.seq),
            replayed,
            suppressed,
        });
        Some(replay)
    }

    /// Feeds a batch, routed by labeledness, waiting out a full worker
    /// queue (backpressure). Poison batches are quarantined (an `Ok`
    /// outcome — the pipeline survived them).
    ///
    /// # Errors
    /// [`FreewayError::RestartsExhausted`] when the worker kept crashing
    /// past the restart budget, [`FreewayError::Checkpoint`] if the
    /// restart checkpoint itself failed to restore.
    pub fn feed(&mut self, batch: Batch) -> Result<FeedOutcome, FreewayError> {
        self.offer(batch, false, true)?.map_err(|_| FreewayError::QueueFull)
    }

    /// Feeds a prequential batch (infer-then-train on the same data).
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub fn feed_prequential(&mut self, batch: Batch) -> Result<FeedOutcome, FreewayError> {
        self.offer(batch, true, true)?.map_err(|_| FreewayError::QueueFull)
    }

    /// Offers one batch, routed by labeledness: the one feed path behind
    /// [`Self::feed`], admission and the serving facade. Poison is
    /// quarantined first: counted, announced and dropped, with its fault
    /// returned. With `wait` set, a full worker queue is waited out; with
    /// it unset, the batch comes straight back as `Err`, untouched, so the
    /// caller can shed or retry under its own policy. A dead worker is
    /// restarted either way (its replacement's queue is empty, so the
    /// send then succeeds or the restart budget errors out).
    ///
    /// # Errors
    /// As [`Self::feed`].
    pub(crate) fn offer(
        &mut self,
        batch: Batch,
        prequential: bool,
        wait: bool,
    ) -> Result<Result<FeedOutcome, Batch>, FreewayError> {
        // Inspect without advancing the watermark: a batch handed back
        // must leave the guard willing to see its seq again.
        if let Err(fault) = self.guard.inspect(&batch) {
            self.stats.quarantined += 1;
            self.telemetry
                .emit(TelemetryEvent::BatchQuarantined { seq: batch.seq, fault: fault.tag() });
            return Ok(Ok(FeedOutcome::Quarantined(fault)));
        }
        // Take in finished work first: freeing output slots is what lets
        // a busy worker drain its input queue, and its checkpoints (and
        // their disk verdicts) are applied promptly, not only at finish.
        self.receive(false)?;
        let seq = batch.seq;
        // Frame before the batch moves into the command; the append
        // itself happens only after the hand-off succeeds (a restart
        // mid-send re-sends the batch, so journaling it early would
        // replay it on top of the re-send).
        let frame = self.journal.as_ref().map(|_| frame_batch(&batch, prequential));
        match self.send_with_recovery(SupCommand::Batch { batch, prequential }, wait)? {
            Ok(()) => {}
            Err(SupCommand::Batch { batch, .. }) => return Ok(Err(batch)),
            // Only the batch was sent, so only the batch comes back.
            Err(_) => return Err(FreewayError::WorkerUnavailable),
        }
        self.guard.accept(seq);
        self.in_flight += 1;
        self.stats.accepted += 1;
        self.journal_append(seq, frame);
        Ok(Ok(FeedOutcome::Accepted))
    }

    /// The one step that reads the worker's output channel, behind every
    /// feed, receive, barrier and finish. It takes in every message that
    /// is ready, restarts a worker found dead, and, with a stall deadline
    /// set, feeds the watchdog and restarts a wedged worker. With `wait`
    /// set and nothing new on `pending`, it first waits for the worker's
    /// next message, at most [`RECEIVE_POLL`]. Returns whether `pending`
    /// grew or a worker was replaced: either is progress for a waiting
    /// caller, which re-checks what it waits for after every step.
    fn receive(&mut self, wait: bool) -> Result<bool, FreewayError> {
        let before = self.pending.len();
        let mut waited = !wait;
        loop {
            if self.take_in() {
                // Every message is in; the thread has ended: join it.
                let panic = match self.worker.take().map(|worker| worker.handle.join()) {
                    Some(Ok(Ok(learner))) => {
                        // A clean exit while we hold the sender should be
                        // impossible; salvage the freshest state anyway.
                        self.last_checkpoint = Checkpoint::capture(&learner);
                        "worker exited unexpectedly".to_owned()
                    }
                    Some(Ok(Err(panic))) => panic,
                    Some(Err(payload)) => panic_message(payload),
                    None => return Err(FreewayError::WorkerUnavailable),
                };
                self.stats.worker_panics += 1;
                self.restart(panic, true)?;
                return Ok(true);
            }
            if let Some(now) = self.stalled() {
                self.recover_stalled(now)?;
                return Ok(true);
            }
            let grew = self.pending.len() > before;
            if grew || waited {
                return Ok(grew);
            }
            waited = true;
            let Some(worker) = self.worker.as_ref() else { return Ok(false) };
            if let Ok(msg) = worker.output.recv_timeout(RECEIVE_POLL) {
                self.handle_msg(msg);
            }
        }
    }

    /// Takes in every message the worker has ready, without waiting.
    /// Returns `true` when the worker has exited: its channel is drained
    /// and closed.
    fn take_in(&mut self) -> bool {
        while let Some(worker) = self.worker.as_ref() {
            match worker.output.try_recv() {
                Ok(msg) => self.handle_msg(msg),
                Err(closed) => return closed == TryRecvError::Disconnected,
            }
        }
        false
    }

    /// Feeds the heartbeat to the watchdog when a stall deadline is set:
    /// `Some(now)` when a worker that owes work has made no progress for
    /// a full deadline.
    fn stalled(&mut self) -> Option<u64> {
        let deadline = self.config.stall_deadline?;
        let epoch = self.worker.as_ref()?.heartbeat.epoch();
        let owed = self.in_flight as u64;
        let now = nanos(self.watchdog_origin.elapsed());
        let watchdog = self.watchdog.get_or_insert_with(|| WatchdogState::new(nanos(deadline)));
        watchdog.observe(now, epoch, owed).then_some(now)
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

    /// The bell this pipeline's workers, the current one and every
    /// respawn, ring after each output they send and when they exit.
    pub(crate) fn doorbell(&self) -> &Doorbell {
        &self.doorbell
    }

    /// The overload degradation level the learner reads, shared by every
    /// learner this pipeline restores.
    pub(crate) fn degradation(&self) -> &DegradationHandle {
        &self.degradation
    }

    /// Journal counters so far (`None` without a journal).
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|state| state.journal.stats())
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

    /// Injects `fault` into the worker. The two slow-downs take effect at
    /// once and survive restarts. A panic or stall is a command on the
    /// worker's queue: it runs after every batch already fed, and waits
    /// for queue space ([`Self::feed`]'s backpressure) unless a
    /// [`crate::Service`] drives this pipeline.
    ///
    /// # Errors
    /// As [`Self::feed`]; [`FreewayError::QueueFull`] for a panic or
    /// stall that meets a full queue under a service.
    pub fn inject(&mut self, fault: Fault) -> Result<(), FreewayError> {
        let cmd = match fault {
            Fault::Panic => SupCommand::Panic,
            Fault::Stall { duration, livelock } => {
                SupCommand::Stall { nanos: nanos(duration), livelock }
            }
            Fault::SlowTrain(delay) => {
                self.slow_train.store(nanos(delay), Ordering::Relaxed);
                return Ok(());
            }
            Fault::SlowDisk(delay) => {
                self.slow_disk = delay;
                if let Some(state) = self.journal.as_mut() {
                    state.journal.slow_disk = delay;
                }
                return Ok(());
            }
        };
        self.send_with_recovery(cmd, self.inject_waits)?.map_err(|_| FreewayError::QueueFull)
    }

    /// Delivers a command. A full queue hands the command back as `Err`
    /// when `wait` is unset; otherwise it, like a closed queue (the
    /// worker died), runs the receive step until the send goes through:
    /// the worker's answers free queue space, and the step restarts a
    /// dead or wedged worker, whose replacement's queue is empty.
    fn send_with_recovery(
        &mut self,
        mut cmd: SupCommand,
        wait: bool,
    ) -> Result<Result<(), SupCommand>, FreewayError> {
        loop {
            let Some(worker) = self.worker.as_ref() else {
                return Err(FreewayError::WorkerUnavailable);
            };
            match worker.input.try_send(cmd) {
                Ok(()) => return Ok(Ok(())),
                Err(TrySendError::Full(returned)) if !wait => return Ok(Err(returned)),
                Err(TrySendError::Full(returned) | TrySendError::Disconnected(returned)) => {
                    cmd = returned;
                    self.receive(true)?;
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
                    state.delivered = state.delivered.max(Some(out.seq));
                }
                self.pending.push_back(out);
            }
            WorkerMsg::Checkpoint(cp) => self.install_checkpoint(*cp),
        }
    }

    fn install_checkpoint(&mut self, checkpoint: Checkpoint) {
        self.stats.checkpoints_taken += 1;
        let mut persisted = false;
        if let Some(path) = self.config.checkpoint_path.as_ref() {
            if !self.slow_disk.is_zero() {
                std::thread::sleep(self.slow_disk);
            }
            let store = CheckpointStore::new(path.clone(), CHECKPOINT_GENERATIONS);
            // Transient disk stalls retry in place; a persistently
            // failing disk degrades the checkpoint cadence instead of
            // killing the worker.
            match retry(|| store.save(&checkpoint)) {
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
            self.cadence.store(
                self.config.checkpoint_every_n_batches.saturating_mul(self.cadence_backoff),
                Ordering::Relaxed,
            );
        }
        self.telemetry
            .emit(TelemetryEvent::CheckpointWritten { seq: self.telemetry.seq(), persisted });
        // Only a *durably persisted* checkpoint may advance the replay
        // base: an in-memory cadence capture dies with the process. The
        // journal is cut below the oldest generation this process
        // persisted, and not before it has persisted every generation the
        // store keeps (older files may come from a previous process), so
        // whichever generation a restore falls back to replays without a
        // hole.
        if persisted {
            if let Some(state) = self.journal.as_mut() {
                state.base = checkpoint.clone();
                state.persisted_floors.extend(checkpoint.journal_seq);
                if state.persisted_floors.len() > CHECKPOINT_GENERATIONS {
                    state.persisted_floors.pop_front();
                }
                if state.persisted_floors.len() == CHECKPOINT_GENERATIONS {
                    let floor = state.persisted_floors[0];
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
                }
            }
        }
        self.last_checkpoint = checkpoint;
    }

    /// Wires a restored learner like the one this pipeline was built
    /// with: its telemetry stream, degradation level and shared registry.
    fn wire(&self, learner: &mut Learner) {
        learner.attach_telemetry(self.telemetry.clone());
        learner.attach_degradation(self.degradation.clone());
        if let Some((shared, shard)) = self.shared.as_ref() {
            learner.attach_shared_knowledge(shared, *shard);
        }
    }

    /// Restores `checkpoint`, wired ([`Self::wire`]), and announces the
    /// restore.
    fn restore_checkpoint(&self, checkpoint: &Checkpoint) -> Result<Learner, FreewayError> {
        let mut learner = checkpoint.restore()?;
        self.wire(&mut learner);
        self.telemetry.emit(TelemetryEvent::CheckpointRestored { seq: self.telemetry.seq() });
        Ok(learner)
    }

    /// The state a replacement worker starts from. With a journal: the
    /// replay base restored, and the records above it planned
    /// ([`Self::plan_replay`]) for the worker to replay; an unreadable
    /// journal degrades to the journal-free contract. Without one: the
    /// last checkpoint.
    fn recover(&mut self) -> Result<(Learner, Option<Replay>), FreewayError> {
        let started = Instant::now();
        if let Some(state) = self.journal.as_ref() {
            match state.journal.records_above(state.base.journal_seq) {
                Ok(records) => {
                    let learner = self.restore_checkpoint(&state.base)?;
                    return Ok((learner, self.plan_replay(records, started)));
                }
                Err(e) => {
                    eprintln!(
                        "freeway-core: journal replay failed ({e}); restoring checkpoint only"
                    )
                }
            }
        }
        Ok((self.restore_checkpoint(&self.last_checkpoint)?, None))
    }

    /// Spawns the worker for `learner`, which runs `replay` first.
    fn spawn(&mut self, learner: Learner, replay: Option<Replay>) {
        self.worker = Some(spawn_worker(
            learner,
            replay,
            self.config.queue_depth,
            self.slow_train.clone(),
            self.cadence.clone(),
            self.doorbell.clone(),
        ));
    }

    /// Forced recovery of the wedged worker the watchdog found at tick
    /// `now`. A hung thread can be neither joined nor drained blocking:
    /// raise its fence, so it exits if it ever wakes, take in what it
    /// answered before the fence, abandon it, and restart.
    fn recover_stalled(&mut self, now: u64) -> Result<(), FreewayError> {
        let Some(worker) = self.worker.as_ref() else {
            return Err(FreewayError::WorkerUnavailable);
        };
        worker.fence.store(true, Ordering::Release);
        let seq = worker.heartbeat.last_seq().unwrap_or(0);
        let stage = worker.heartbeat.stage().tag();
        self.take_in();
        drop(self.worker.take());
        let stalled_for = self.watchdog.as_ref().map_or(0, |w| w.stalled_for(now));
        self.stats.worker_stalls += 1;
        self.stalls_counter.inc();
        self.telemetry.emit(TelemetryEvent::WorkerStalled { seq, stage });
        let started = Instant::now();
        self.restart(
            format!(
                "worker stalled in stage `{stage}` (no progress for {}ms, deadline {}ms)",
                stalled_for / 1_000_000,
                self.config.stall_deadline.map_or(0, |d| d.as_millis()),
            ),
            true,
        )?;
        self.stall_recovery_seconds.record(started.elapsed().as_secs_f64());
        self.telemetry
            .emit(TelemetryEvent::WorkerRecovered { seq, restarts: self.stats.restarts as u64 });
        Ok(())
    }

    /// The one restart path, once the caller has let the old worker go
    /// (joined after a crash, abandoned after a stall): writes off what
    /// it owed, charges the restart budget unless `charged` is unset (a
    /// worker found dead at finish), and spawns a replacement from the
    /// recovered state ([`Self::recover`]). With a journal the
    /// replacement replays the old worker's admitted work before its
    /// queue, and its answers count in `in_flight` like any other; only
    /// what the replay cannot answer counts as lost. `panic` is the old
    /// worker's end, reported when the budget has run out.
    fn restart(&mut self, panic: String, charged: bool) -> Result<(), FreewayError> {
        // Whoever this wakes drains what the old worker left on
        // `pending` and what its replacement replays.
        self.doorbell.ring(None);
        self.watchdog = None;
        let lost = std::mem::take(&mut self.in_flight) as u64;
        if charged {
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
        }
        let (learner, replay) = self.recover()?;
        self.in_flight = replay.as_ref().map_or(0, Replay::answers);
        let lost = lost.saturating_sub(self.in_flight as u64);
        self.stats.lost_in_flight += lost;
        self.lost_counter.add(lost);
        if charged {
            self.telemetry.emit(TelemetryEvent::WorkerRestarted {
                restarts: self.stats.restarts as u64,
                lost_in_flight: lost,
            });
        }
        self.spawn(learner, replay);
        Ok(())
    }

    /// The live worker's heartbeat ledger, when a worker is running.
    /// Observational: drills and dashboards read progress epoch, last
    /// seq, and stage from it.
    pub fn heartbeat(&self) -> Option<&HeartbeatLedger> {
        self.worker.as_ref().map(|w| &w.heartbeat)
    }

    /// Receives the next output without blocking. Takes in checkpoint
    /// messages, restarts a crashed or (with a stall deadline) wedged
    /// worker, and polls the watchdog along the way. `None` means nothing
    /// is ready yet: answers a replacement worker replays still count in
    /// [`Self::in_flight`] until they arrive.
    ///
    /// # Errors
    /// As [`Self::feed`] when a crash is detected and recovery fails.
    pub fn try_recv(&mut self) -> Result<Option<PipelineOutput>, FreewayError> {
        loop {
            if let Some(out) = self.pending.pop_front() {
                return Ok(Some(out));
            }
            if !self.receive(false)? {
                return Ok(None);
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
            self.receive(true)?;
        }
    }

    /// Run counters so far.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// Stops the worker and returns the learner plus every unconsumed
    /// output. It first takes in everything owed through the receive
    /// step, then closes the worker's queue and joins it. A worker found
    /// dead at that point is replaced once, free of the restart budget,
    /// by one that replays its journal and exits; when the budget ran
    /// out, the learner is recovered from the last checkpoint instead of
    /// failing the whole run.
    ///
    /// # Errors
    /// [`FreewayError::Checkpoint`] only when that final checkpoint
    /// recovery itself fails.
    pub fn finish(mut self) -> Result<FinishedRun, FreewayError> {
        let mut charged = false;
        let learner = loop {
            // A crash or an exhausted budget on the way ends this wait;
            // a stall is recovered.
            while self.worker.is_some() && self.in_flight > 0 {
                if self.receive(true).is_err() {
                    break;
                }
            }
            let Some(Worker { input, output, handle, fence, .. }) = self.worker.take() else {
                break self.restore_checkpoint(&self.last_checkpoint)?;
            };
            // Every answer is in, so at most a checkpoint sent after the
            // last one arrives. With a watchdog armed, the fence lets a
            // queued stall go instead of outliving the join.
            if self.config.stall_deadline.is_some() {
                fence.store(true, Ordering::Release);
            }
            drop(input);
            let joined = handle.join().unwrap_or_else(|payload| Err(panic_message(payload)));
            while let Ok(msg) = output.try_recv() {
                self.handle_msg(msg);
            }
            match joined {
                Ok(learner) => break learner,
                Err(panic) => {
                    self.stats.worker_panics += 1;
                    eprintln!("freeway-core: worker dead at finish ({panic}); recovering");
                    // A replacement whose replay dies again spends the
                    // budget, so this loop ends.
                    match self.restart(panic, charged) {
                        Ok(()) | Err(FreewayError::RestartsExhausted { .. }) => charged = true,
                        Err(e) => return Err(e),
                    }
                }
            }
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
            journal,
        })
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
    fn a_ring_takes_one_thread_off_the_bell_and_prefers_the_outputs_owner() {
        let exited = || {
            let handle = std::thread::spawn(|| {});
            let thread = handle.thread().clone();
            handle.join().expect("empty thread");
            thread
        };
        let (idle, first, second) = (exited(), exited(), exited());
        let bell = Doorbell::default();
        assert!(bell.enqueue(&idle, None));
        assert!(bell.enqueue(&first, Some(7)));
        assert!(bell.enqueue(&second, Some(8)));
        assert!(!bell.enqueue(&idle, None), "a queued thread is queued once");
        bell.ring(Some(8));
        assert!(!bell.dequeue(&second), "the ring takes the output's owner");
        bell.ring(Some(9));
        assert!(!bell.dequeue(&idle), "with no owner queued it takes the longest-queued");
        assert!(bell.dequeue(&first), "each ring takes one thread");
        bell.ring(None);
        assert!(bell.enqueue(&idle, None), "a thread a ring took queues afresh");
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
        sup.inject(Fault::Panic).expect("inject");
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
        sup.inject(Fault::Panic).expect("first crash scheduled");
        wait_for_restarts(&mut sup, 1, &mut outputs);
        // Second crash exceeds max_restarts = 1: the next recovery
        // attempt must surface RestartsExhausted instead of respawning.
        sup.inject(Fault::Panic).expect("second crash scheduled");
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
        // A dead worker must not masquerade as backpressure: an offer
        // that must not wait fails permanently instead of handing the
        // batch back.
        let (x, y) = concept.sample_batch(64, &mut rng);
        let outcome = sup.offer(Batch::labeled(x, y, 2, DriftPhase::Stable), false, false);
        assert!(matches!(outcome, Err(FreewayError::WorkerUnavailable)), "got {outcome:?}");
        // The run still finishes by recovering state from the checkpoint.
        let run = sup.finish().expect("finish recovers from checkpoint");
        assert_eq!(run.stats.restarts, 1);
        assert_eq!(run.stats.worker_panics, 2);
    }

    #[test]
    fn with_learner_rejects_what_the_builder_rejects() {
        let zero_deadline =
            SupervisorConfig { stall_deadline: Some(std::time::Duration::ZERO), ..config() };
        let no_queue = SupervisorConfig { queue_depth: 0, ..config() };
        for (bad, field) in [(zero_deadline, "stall deadline"), (no_queue, "queue depth")] {
            match SupervisedPipeline::with_learner(learner(), bad) {
                Err(FreewayError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
                Err(other) => panic!("expected InvalidConfig naming {field}, got {other:?}"),
                Ok(_) => panic!("with_learner accepted an invalid {field}"),
            }
        }
    }

    #[test]
    fn drop_with_full_queue_and_dead_worker_does_not_deadlock() {
        let mut rng = stream_rng(31);
        let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut sup = SupervisedPipeline::with_learner(
            learner(),
            SupervisorConfig { queue_depth: 1, max_restarts: 0, ..config() },
        )
        .expect("spawn");
        sup.inject(Fault::Panic).expect("panic scheduled");
        // Keep pushing into the 1-deep queue behind the crash until the
        // dead worker is noticed: with no restart budget the supervisor
        // gives up, and the drop below runs against a dead worker.
        let mut seq = 0;
        loop {
            let (x, y) = concept.sample_batch(32, &mut rng);
            match sup.feed_prequential(Batch::labeled(x, y, seq, DriftPhase::Stable)) {
                Ok(_) => seq += 1,
                Err(err) => {
                    assert!(matches!(err, FreewayError::RestartsExhausted { .. }), "{err:?}");
                    break;
                }
            }
            assert!(seq < 64, "the crash must surface long before 64 batches");
        }
        drop(sup); // must return promptly
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
        let store = CheckpointStore::new(path, CHECKPOINT_GENERATIONS);
        assert!(store.generation_path(0).exists(), "newest generation on disk");
        let (loaded, generation) =
            store.load_newest().expect("persisted checkpoint loads and validates");
        assert_eq!(generation, 0);
        assert_eq!(loaded.spec, *run.learner.spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_offer_returns_the_batch_and_keeps_the_guard_open() {
        for wait_on_reoffer in [false, true] {
            let mut rng = stream_rng(27);
            let concept = GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
            let mut sup = SupervisedPipeline::with_learner(
                learner(),
                SupervisorConfig { queue_depth: 1, ..config() },
            )
            .expect("spawn");
            // Slow the worker so the 1-deep queue reliably fills.
            sup.inject(Fault::SlowTrain(Duration::from_millis(30))).expect("slowed");
            let mut full_batch = None;
            let mut accepted = 0u64;
            for i in 0..50 {
                let (x, y) = concept.sample_batch(32, &mut rng);
                match sup.offer(Batch::labeled(x, y, i, DriftPhase::Stable), true, false) {
                    Ok(Ok(FeedOutcome::Accepted)) => accepted += 1,
                    Ok(Err(batch)) => {
                        full_batch = Some(batch);
                        break;
                    }
                    other => panic!("unexpected outcome: {other:?}"),
                }
            }
            let bounced = full_batch.expect("a 1-deep queue with a 30ms worker must fill");
            // The bounced batch can be re-offered without a duplicate-seq
            // quarantine: a waiting offer waits out the slow worker, one
            // that must not wait retries once the queue drains.
            if wait_on_reoffer {
                let outcome = sup.offer(bounced, true, true).expect("healthy");
                assert!(matches!(outcome, Ok(FeedOutcome::Accepted)), "got {outcome:?}");
            } else {
                sup.inject(Fault::SlowTrain(Duration::ZERO)).expect("cleared");
                loop {
                    match sup.offer(bounced.clone(), true, false).expect("healthy") {
                        Ok(FeedOutcome::Accepted) => break,
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        Ok(FeedOutcome::Quarantined(fault)) => {
                            panic!("re-offer after a full queue must not quarantine: {fault:?}")
                        }
                    }
                }
            }
            sup.inject(Fault::SlowTrain(Duration::ZERO)).expect("cleared");
            let run = sup.finish().expect("finish");
            assert_eq!(run.stats.accepted, accepted + 1);
            assert_eq!(run.stats.quarantined, 0);
        }
    }

    #[test]
    fn non_waiting_offer_still_quarantines_poison() {
        let mut sup = SupervisedPipeline::with_learner(learner(), config()).expect("spawn");
        let wide = Batch::unlabeled(Matrix::zeros(8, 7), 0, DriftPhase::Stable);
        assert!(matches!(
            sup.offer(wide, false, false).expect("quarantine is not an error"),
            Ok(FeedOutcome::Quarantined(BatchFault::WidthMismatch { found: 7, expected: 4 }))
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
        sup.inject(Fault::Panic).expect("inject");
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
    fn two_journaled_crashes_deliver_every_batch_exactly_once() {
        let dir = std::env::temp_dir()
            .join(format!("freeway-journal-two-crashes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut rng = stream_rng(33);
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
        let mut seq = 0;
        let mut next = || {
            let (x, y) = concept.sample_batch(64, &mut rng);
            seq += 1;
            Batch::labeled(x, y, seq - 1, DriftPhase::Stable)
        };
        for crash in 1..=2 {
            // Consumed before the crash: replay must suppress these.
            for _ in 0..4 {
                sup.feed_prequential(next()).expect("healthy");
                outputs.push(sup.recv().expect("answered"));
            }
            // The panic queues ahead of the next batch and takes it down
            // (or the feed finds the worker dead and hands it over anew).
            sup.inject(Fault::Panic).expect("inject");
            sup.feed_prequential(next()).expect("fed");
            wait_for_restarts(&mut sup, crash, &mut outputs);
        }
        let run = sup.finish().expect("finish");
        outputs.extend(run.outputs);
        assert_eq!(run.stats.restarts, 2, "{:?}", run.stats);
        assert_eq!(run.stats.lost_in_flight, 0, "{:?}", run.stats);
        let seqs: Vec<u64> = outputs.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>(), "every batch exactly once, in order");
        // Genesis replays: the first crash re-feeds the four consumed
        // batches, the second the nine delivered before it.
        assert_eq!(run.stats.replay_suppressed, 4 + 9, "{:?}", run.stats);
        assert_eq!(run.journal.expect("journal stats present").appended, 10);
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
    fn sequence_faults_are_quarantined() {
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
