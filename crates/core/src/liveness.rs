//! Worker liveness: heartbeat progress ledger and stall watchdog.
//!
//! The supervisor (PR 3) recovers workers that *crash* — the panic tears
//! down the channel and the restart machinery notices immediately. A worker
//! that silently *hangs* (stalled disk, livelock, pathological batch) is
//! invisible to that path: the channels stay open, `in_flight` stays
//! pinned, and every drain loop above it spins forever. This module adds
//! the detection half of forced stall recovery:
//!
//! * [`HeartbeatLedger`] — a tiny shared ledger the worker thread bumps
//!   after every completed command (relaxed atomics, no locks, no
//!   syscalls). It records a monotonically increasing *progress epoch*,
//!   the last batch seq the worker finished, and the stage it is currently
//!   executing.
//! * [`WatchdogState`] — a pure, tick-driven state machine the supervisor
//!   polls from its one receive step, so every feed, receive and barrier
//!   runs it. It declares a stall **only** when work
//!   is pending *and* the progress epoch has not advanced for a full
//!   configured deadline. A slow-but-progressing worker (e.g. one behind a
//!   slow-disk checkpoint cadence backoff) keeps advancing its epoch and
//!   is therefore never declared stalled, no matter how slow it gets.
//!
//! The watchdog is deliberately pure — it consumes `(now_tick, epoch,
//! pending)` observations and returns a verdict — so the false-positive
//! property is proptestable without threads and the chaos crate can drive
//! it under virtual time.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Stage a worker reported itself in at its last heartbeat.
///
/// Stored in the ledger as a single byte; purely observational (telemetry
/// and drill output) — the watchdog verdict depends only on the progress
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkerStage {
    /// Blocked on the command channel waiting for work.
    Idle,
    /// Executing a train / prequential command.
    Train,
    /// Snapshotting learner state for a checkpoint.
    Checkpoint,
    /// Executing an injected [`crate::Fault::Stall`] (drills only).
    ChaosStall,
}

impl WorkerStage {
    /// Stable lowercase tag for telemetry and drill JSON.
    pub fn tag(self) -> &'static str {
        match self {
            WorkerStage::Idle => "idle",
            WorkerStage::Train => "train",
            WorkerStage::Checkpoint => "checkpoint",
            WorkerStage::ChaosStall => "chaos-stall",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            WorkerStage::Idle => 0,
            WorkerStage::Train => 1,
            WorkerStage::Checkpoint => 2,
            WorkerStage::ChaosStall => 3,
        }
    }

    fn from_u8(raw: u8) -> Self {
        match raw {
            1 => WorkerStage::Train,
            2 => WorkerStage::Checkpoint,
            3 => WorkerStage::ChaosStall,
            _ => WorkerStage::Idle,
        }
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// Bumped once per completed command. The only field the watchdog
    /// consults; everything else is observability.
    epoch: AtomicU64,
    /// Last batch seq the worker finished, offset by one (0 = none yet).
    last_seq: AtomicU64,
    /// Current [`WorkerStage`] as a byte.
    stage: AtomicU8,
}

/// Shared per-worker progress ledger.
///
/// Cloning is cheap (`Arc`); the worker thread holds one clone and beats
/// it, the supervisor holds the other and reads it. All accesses are
/// relaxed: the watchdog only needs *eventual* visibility of progress, and
/// its deadline (milliseconds) dwarfs any propagation delay.
#[derive(Clone, Debug, Default)]
pub struct HeartbeatLedger {
    inner: Arc<LedgerInner>,
}

impl HeartbeatLedger {
    /// Fresh ledger at epoch 0, no seq, [`WorkerStage::Idle`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one unit of progress: a command was fully processed.
    ///
    /// `seq` is the batch seq that completed, when the command carried one
    /// (checkpoints and injected faults do not).
    pub fn beat(&self, seq: Option<u64>) {
        if let Some(seq) = seq {
            self.inner.last_seq.store(seq + 1, Ordering::Relaxed);
        }
        self.inner.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the stage the worker is entering. Not a progress signal.
    pub fn set_stage(&self, stage: WorkerStage) {
        self.inner.stage.store(stage.as_u8(), Ordering::Relaxed);
    }

    /// Monotonic count of completed commands.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// Last batch seq the worker completed, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.inner.last_seq.load(Ordering::Relaxed).checked_sub(1)
    }

    /// Stage reported at the most recent [`set_stage`](Self::set_stage).
    pub fn stage(&self) -> WorkerStage {
        WorkerStage::from_u8(self.inner.stage.load(Ordering::Relaxed))
    }
}

/// Pure stall detector over heartbeat observations.
///
/// Ticks are an abstract monotone unit chosen by the caller — the
/// supervisor feeds nanoseconds from a monotonic clock, the chaos
/// simulator feeds virtual ticks. The contract, independent of unit:
///
/// * **No pending work ⇒ never stalled.** An idle worker parked on its
///   command channel makes no progress by design.
/// * **Epoch advanced since the last observation ⇒ not stalled**, and the
///   progress clock resets.
/// * **Stalled** exactly when work has been pending and the epoch has not
///   moved across observations spanning at least `deadline` ticks.
///
/// The first observation only primes the state (a watchdog attached to an
/// already-busy worker must grant it a full deadline before judging it).
#[derive(Clone, Copy, Debug)]
pub struct WatchdogState {
    deadline: u64,
    last_epoch: u64,
    last_progress: u64,
    primed: bool,
}

impl WatchdogState {
    /// Watchdog with the given stall deadline in ticks.
    ///
    /// A zero deadline would declare a stall on the second observation of
    /// any busy worker; construction clamps it to 1 tick, and the builder
    /// rejects zero `stall_deadline` durations before they get here.
    pub fn new(deadline_ticks: u64) -> Self {
        Self { deadline: deadline_ticks.max(1), last_epoch: 0, last_progress: 0, primed: false }
    }

    /// Feed one observation; returns `true` when the worker is stalled.
    ///
    /// `now` must be monotonically non-decreasing across calls; `epoch` is
    /// the ledger's current progress epoch; `pending` is the number of
    /// commands the worker still owes answers for.
    pub fn observe(&mut self, now: u64, epoch: u64, pending: u64) -> bool {
        if !self.primed {
            self.primed = true;
            self.last_epoch = epoch;
            self.last_progress = now;
            return false;
        }
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            self.last_progress = now;
            return false;
        }
        if pending == 0 {
            self.last_progress = now;
            return false;
        }
        now.saturating_sub(self.last_progress) >= self.deadline
    }

    /// Ticks since the last observed progress (or priming observation).
    pub fn stalled_for(&self, now: u64) -> u64 {
        now.saturating_sub(self.last_progress)
    }

    /// The configured deadline in ticks.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_round_trips_progress() {
        let ledger = HeartbeatLedger::new();
        assert_eq!(ledger.epoch(), 0);
        assert_eq!(ledger.last_seq(), None);
        assert_eq!(ledger.stage(), WorkerStage::Idle);

        ledger.set_stage(WorkerStage::Train);
        ledger.beat(Some(0));
        assert_eq!(ledger.epoch(), 1);
        assert_eq!(ledger.last_seq(), Some(0));
        assert_eq!(ledger.stage(), WorkerStage::Train);

        ledger.beat(None);
        assert_eq!(ledger.epoch(), 2);
        assert_eq!(ledger.last_seq(), Some(0), "seq-less beats keep the last seq");
    }

    #[test]
    fn ledger_clones_share_state() {
        let ledger = HeartbeatLedger::new();
        let clone = ledger.clone();
        clone.beat(Some(7));
        assert_eq!(ledger.epoch(), 1);
        assert_eq!(ledger.last_seq(), Some(7));
    }

    #[test]
    fn idle_worker_is_never_stalled() {
        let mut wd = WatchdogState::new(10);
        assert!(!wd.observe(0, 0, 0));
        for t in 1..1000 {
            assert!(!wd.observe(t, 0, 0), "no pending work must never stall");
        }
    }

    #[test]
    fn progressing_worker_is_never_stalled() {
        let mut wd = WatchdogState::new(10);
        assert!(!wd.observe(0, 0, 3));
        for t in 1..1000u64 {
            // Epoch advances every observation: always progress.
            assert!(!wd.observe(t * 100, t, 3));
        }
    }

    #[test]
    fn stall_declared_only_after_full_deadline() {
        let mut wd = WatchdogState::new(10);
        assert!(!wd.observe(0, 5, 2), "priming observation");
        assert!(!wd.observe(5, 5, 2), "within deadline");
        assert!(!wd.observe(9, 5, 2), "still within deadline");
        assert!(wd.observe(10, 5, 2), "deadline elapsed with pending work");
        assert_eq!(wd.stalled_for(10), 10);
    }

    #[test]
    fn progress_resets_the_deadline() {
        let mut wd = WatchdogState::new(10);
        assert!(!wd.observe(0, 0, 1));
        assert!(!wd.observe(9, 1, 1), "progress just in time");
        assert!(!wd.observe(18, 1, 1), "only 9 ticks since progress");
        assert!(wd.observe(19, 1, 1), "10 ticks since progress");
    }

    #[test]
    fn draining_to_idle_resets_the_deadline() {
        let mut wd = WatchdogState::new(10);
        assert!(!wd.observe(0, 0, 1));
        assert!(!wd.observe(50, 0, 0), "queue drained: idle, not stalled");
        assert!(!wd.observe(55, 0, 1), "new work arrives");
        assert!(!wd.observe(59, 0, 1));
        assert!(wd.observe(60, 0, 1), "deadline counts from the idle reset");
    }

    #[test]
    fn priming_grants_a_full_deadline() {
        let mut wd = WatchdogState::new(10);
        // Attach to a worker that has been busy for ages (epoch 400).
        assert!(!wd.observe(1_000_000, 400, 9));
        assert!(!wd.observe(1_000_009, 400, 9));
        assert!(wd.observe(1_000_010, 400, 9));
    }

    #[test]
    fn zero_deadline_is_clamped() {
        let mut wd = WatchdogState::new(0);
        assert_eq!(wd.deadline(), 1);
        assert!(!wd.observe(0, 0, 1));
        assert!(wd.observe(1, 0, 1));
    }

    #[test]
    fn stage_tags_are_stable() {
        assert_eq!(WorkerStage::Idle.tag(), "idle");
        assert_eq!(WorkerStage::Train.tag(), "train");
        assert_eq!(WorkerStage::Checkpoint.tag(), "checkpoint");
        assert_eq!(WorkerStage::ChaosStall.tag(), "chaos-stall");
    }
}
