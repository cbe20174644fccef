//! Multi-client serving facade over the sharded runtime.
//!
//! The sharded pipeline ([`crate::ShardedPipeline`]) is a single-producer
//! API: one caller routes keyed batches and drains outputs. Production
//! serving is many concurrent clients, each with its own stream identity
//! and its own view of "my answers". [`Service`] closes that gap by
//! putting the sharded pipeline behind one lock that every client call
//! takes on its own thread:
//!
//! * clients clone a [`ServiceHandle`] and open keyed
//!   [`ClientSession`]s; every session's submissions route to the shard
//!   its key hashes to, so per-session answer order is total;
//! * [`ClientSession::submit`]/[`ClientSession::submit_labeled`] run
//!   admission on the caller's thread and never wait for queue space: a
//!   batch its shard cannot take right now comes straight back as the
//!   typed, retryable [`ServeError::Busy`] (with a pacing hint);
//! * every accepted submission is stamped with a globally monotone
//!   sequence number (the ingest guard's contract), and a **per-session
//!   ledger** maps those sequence numbers back to the owning session, so
//!   each client receives exactly its own [`SessionOutput`]s — including
//!   shed and quarantine verdicts — and never another tenant's
//!   predictions. When a shard is fenced, every submission stranded on it
//!   comes back as a `fenced` shed verdict, in submission order;
//! * [`ClientSession::recv_output`] parks until a ring from its shard's
//!   worker wakes it, then drains the finished outputs on the caller's
//!   thread: its own answer is returned, another session's is queued for
//!   that session and its parked thread woken;
//! * shutdown ([`Service::shutdown`]) runs the deterministic
//!   [`crate::ShardedPipeline::barrier`], delivers every remaining answer,
//!   and hands back the finished [`ServiceReport`]; when a drain budget
//!   runs out, every answer the healthy shards computed is still
//!   delivered before the timeout is reported.
//!
//! Backpressure is the admission controller configured on the builder
//! (see [`crate::AdmissionPolicy`]). With the blocking policy nothing is
//! ever dropped: a full shard queue hands the batch back as `Busy`, the
//! only overload signal. With shedding-newest a full queue drops the
//! batch, and it comes back to its session as [`SubmitOutcome::Shed`].
//!
//! Every call waits for the service lock and for nothing else the shards
//! do, except that whoever holds the lock runs what the runtime needs
//! next: a restart when it finds a worker dead or, with a stall deadline,
//! wedged (every receive polls the watchdog), or the drain of
//! [`Service::shutdown`]. A restart holds the lock only to restore the
//! checkpoint and read the journal; the replacement worker replays the
//! journal itself. A panic under the lock ends the service like any
//! runtime failure.
//!
//! Nothing sleep-polls. Each output a shard worker sends wakes one thread
//! waiting in `recv_output` on that shard: the one waiting for that
//! output if it is queued, else the longest-queued one, which hands the
//! answer over. So a healthy closed-loop round trip whose session is
//! waiting when its answer comes wakes two threads: the submit wakes the
//! worker, and the worker's ring wakes the session. A ring that lands
//! before the session parks is kept as its park token, so none is lost.
//! One maintenance thread
//! (`freeway-serve`) stays off that path. It parks until a shard worker
//! exits (a crash, panics included) or, when a stall deadline is set,
//! for a watchdog tick (a sixteenth of the smallest shard deadline); it
//! then drains the shards, whose receives restart a crashed worker and
//! poll the watchdog, reconciles fences and publishes pressure under the
//! same lock. With no stall deadline and no crash it never wakes.
//!
//! Construct via [`crate::PipelineBuilder::service`] +
//! [`crate::PipelineBuilder::build_service`].

use crate::admission::AdmissionOutcome;
use crate::degrade::DegradationLevel;
use crate::error::{panic_message, FreewayError};
use crate::learner::InferenceReport;
use crate::shard::{ShardedPipeline, ShardedRun};
use crate::supervisor::{Doorbell, Fault};
use freeway_streams::keyed::KeyedBatch;
use freeway_streams::Batch;
use freeway_telemetry::{Counter, Gauge};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// *Base* pacing hint handed back inside [`ServeError::Busy`]: the wait
/// suggested when the runtime is unloaded. The actual hint scales with
/// measured pressure — worker queue occupancy and the degradation
/// ladder — up to 4× this base (see [`busy_hint`]). Advisory, not
/// enforced.
const RETRY_AFTER_HINT: Duration = Duration::from_micros(200);

/// Serving-facade knobs.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Wall-clock budget for the shutdown drain. `None` (the default)
    /// drains unboundedly via [`crate::ShardedPipeline::barrier`]; with a
    /// budget, shutdown uses
    /// [`crate::ShardedPipeline::barrier_deadline`] and surfaces the
    /// typed [`FreewayError::DrainTimeout`] naming the unresponsive
    /// shards instead of hanging on a wedged worker — after delivering
    /// every answer and shed verdict the other shards produced.
    /// Submissions stranded on a wedged shard get none.
    pub drain_budget: Option<Duration>,
    /// When set, the service records the exact order in which
    /// submissions were fed to the shards
    /// ([`ServiceReport::admitted_order`]), so a serialized oracle can
    /// replay the run deterministically.
    pub record_admitted: bool,
}

impl ServiceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// A message naming the offending field, in the builder's
    /// `InvalidConfig` style.
    pub fn check(&self) -> Result<(), String> {
        if self.drain_budget.is_some_and(|budget| budget.is_zero()) {
            return Err("service drain budget must be positive when set".to_owned());
        }
        Ok(())
    }
}

/// Everything that can go wrong at the serving facade.
///
/// The two backpressure-adjacent failure modes stay distinguishable
/// through every conversion: [`Self::Busy`] is transient (retry after
/// the hint), [`Self::Disconnected`] is permanent (the service has shut
/// down or failed). [`From`] impls in both directions round-trip
/// [`FreewayError::QueueFull`] and [`FreewayError::WorkerUnavailable`]
/// losslessly onto them.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The session's shard cannot take the batch (or injected fault)
    /// right now: blocking admission with a full worker queue. Transient
    /// backpressure: retry after roughly `retry_after_hint`; a batch is
    /// handed back.
    Busy {
        /// Suggested client-side pause before the next attempt.
        retry_after_hint: Duration,
    },
    /// The service has shut down, or a runtime failure ended it. A retry
    /// can never succeed.
    Disconnected,
    /// The runtime beneath the facade failed; never wraps
    /// [`FreewayError::QueueFull`] or
    /// [`FreewayError::WorkerUnavailable`] (those normalize to
    /// [`Self::Busy`] / [`Self::Disconnected`]).
    Runtime(FreewayError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Busy { retry_after_hint } => {
                write!(f, "service busy (retry after ~{retry_after_hint:?})")
            }
            Self::Disconnected => write!(f, "service is not running"),
            Self::Runtime(e) => write!(f, "service runtime error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FreewayError> for ServeError {
    /// Normalizes the pipeline taxonomy onto the facade's:
    /// `QueueFull` → [`ServeError::Busy`] (with the default hint),
    /// `WorkerUnavailable` → [`ServeError::Disconnected`], everything
    /// else wraps as [`ServeError::Runtime`].
    fn from(e: FreewayError) -> Self {
        match e {
            FreewayError::QueueFull => Self::Busy { retry_after_hint: RETRY_AFTER_HINT },
            FreewayError::WorkerUnavailable => Self::Disconnected,
            other => Self::Runtime(other),
        }
    }
}

impl From<ServeError> for FreewayError {
    /// The inverse mapping: [`ServeError::Busy`] → `QueueFull`,
    /// [`ServeError::Disconnected`] → `WorkerUnavailable`,
    /// [`ServeError::Runtime`] unwraps. Composing the two `From`s in
    /// either order preserves the retryable-vs-permanent distinction.
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Busy { .. } => Self::QueueFull,
            ServeError::Disconnected => Self::WorkerUnavailable,
            ServeError::Runtime(other) => other,
        }
    }
}

/// What finally happened to one submission, delivered to the owning
/// session only.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum SubmitOutcome {
    /// The batch was answered; prequential submissions also trained.
    Answered(InferenceReport),
    /// The batch trained the model; training-only submissions produce no
    /// report.
    Trained,
    /// The batch was dropped under the admission policy; the tag is the
    /// [`crate::ShedReason`] tag.
    Shed(&'static str),
    /// The batch failed ingestion validation; the tag is the
    /// [`crate::BatchFault`] tag.
    Quarantined(&'static str),
}

/// One delivered result, tagged with both sequence spaces.
#[derive(Clone, Debug)]
pub struct SessionOutput {
    /// The session-local sequence number [`ClientSession::submit`]
    /// returned for this batch.
    pub client_seq: u64,
    /// The globally monotone sequence number the service stamped.
    pub global_seq: u64,
    /// Shard that served (or dropped) the batch.
    pub shard: usize,
    /// The verdict.
    pub outcome: SubmitOutcome,
}

/// Counters describing one service run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Sessions opened over the service's lifetime.
    pub sessions_opened: u64,
    /// Submissions accepted, each counted once (a batch handed back as
    /// [`ServeError::Busy`] is not a submission).
    pub submitted: u64,
    /// Submissions answered with an [`InferenceReport`].
    pub answered: u64,
    /// Training-only submissions completed.
    pub trained: u64,
    /// Submissions shed under the admission policy.
    pub shed: u64,
    /// Submissions quarantined as poison.
    pub quarantined: u64,
}

/// One entry of the feed-order record ([`ServiceConfig::record_admitted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmittedRecord {
    /// Owning session id.
    pub session: u64,
    /// The session's routing key.
    pub key: u64,
    /// Session-local sequence number.
    pub client_seq: u64,
    /// Global sequence number the service stamped.
    pub global_seq: u64,
    /// Shard the batch routed to.
    pub shard: usize,
    /// True for prequential (test-then-train) submissions.
    pub prequential: bool,
    /// True when the batch carried labels.
    pub labeled: bool,
}

/// Everything a finished service hands back.
pub struct ServiceReport {
    /// The finished sharded run (per-shard learners, outputs, stats).
    pub run: ShardedRun,
    /// Facade-level counters.
    pub stats: ServiceStats,
    /// Exact feed order when [`ServiceConfig::record_admitted`] was set:
    /// replaying these records serially through an identically built
    /// pipeline reproduces every shard's input sequence, which (with
    /// cross-shard knowledge disabled) reproduces every answer.
    /// Batches a fence stranded are removed, so the record is exactly
    /// what the workers answered.
    pub admitted_order: Option<Vec<AdmittedRecord>>,
}

/// Derives the [`ServeError::Busy`] pacing hint from a base and the
/// published pressure percentage: `base` at zero pressure, scaling
/// linearly to `4 × base` at 100%. Monotone in pressure — a more loaded
/// service never suggests a *shorter* wait — so clients back off harder
/// exactly when the runtime is drowning.
pub fn busy_hint(base: Duration, pressure_pct: u64) -> Duration {
    let pct = u32::try_from(pressure_pct.min(100)).unwrap_or(100);
    base.saturating_add(base.saturating_mul(3).saturating_mul(pct) / 100)
}

/// The service state behind the one lock every client call takes.
struct State {
    /// The running runtime; `None` once the service has shut down or a
    /// runtime failure ended it.
    serving: Option<Serving>,
    sessions: Sessions,
    next_session: u64,
    /// The runtime failure that ended the service, for
    /// [`Service::shutdown`] to return.
    failure: Option<FreewayError>,
}

/// Locks the service state. A panic under the lock leaves it unusable,
/// which clients see as the service being gone.
fn lock(shared: &Mutex<State>) -> Result<MutexGuard<'_, State>, ServeError> {
    shared.lock().map_err(|_| ServeError::Disconnected)
}

/// Runs `op`, turning a panic inside it into
/// [`FreewayError::WorkerPanicked`] with the panic's message.
fn unwound<T>(op: impl FnOnce() -> Result<T, FreewayError>) -> Result<T, FreewayError> {
    catch_unwind(AssertUnwindSafe(op))
        .unwrap_or_else(|payload| Err(FreewayError::WorkerPanicked(panic_message(payload))))
}

impl State {
    /// Runs `op` on the live runtime. A runtime failure ends the service
    /// as a crashed server would: the pipeline is dropped (its workers
    /// see their queues close), the first failure is kept for
    /// [`Service::shutdown`], and every parked session wakes to find the
    /// service gone. A panic in `op` is such a failure: it never unwinds
    /// through the caller or poisons the lock. (A journal replay that
    /// crashes again does not panic here: it runs on the replacement
    /// worker, so it is an ordinary worker crash.)
    fn serve<T>(
        &mut self,
        op: impl FnOnce(&mut Serving, &mut Sessions) -> Result<T, FreewayError>,
    ) -> Result<T, ServeError> {
        let serving = self.serving.as_mut().ok_or(ServeError::Disconnected)?;
        let sessions = &mut self.sessions;
        unwound(|| op(serving, sessions)).map_err(|failure| {
            self.serving = None;
            self.failure.get_or_insert(failure);
            self.sessions.wake_all();
            ServeError::Disconnected
        })
    }

    /// `session`'s next output: one already routed to it, or else one of
    /// the outputs the shards have finished since.
    fn next_output(&mut self, session: u64) -> Option<SessionOutput> {
        if let Some(out) = self.sessions.take(session) {
            return Some(out);
        }
        let _ = self.serve(Serving::settle);
        self.sessions.take(session)
    }

    /// Takes the runtime out, runs the shutdown drain, and wakes every
    /// parked session to find the service gone. A panic in the drain
    /// comes back as [`FreewayError::WorkerPanicked`].
    fn close(&mut self, budget: Option<Duration>) -> Result<Serving, FreewayError> {
        let Some(mut serving) = self.serving.take() else {
            return Err(self.failure.take().unwrap_or(FreewayError::WorkerUnavailable));
        };
        let drained = unwound(|| serving.barrier(&mut self.sessions, budget));
        self.sessions.wake_all();
        drained.map(|()| serving)
    }

    /// Takes `me` off `bell` as it leaves [`ClientSession::recv_output`].
    /// A ring that took it off first asked it to drain, so it drains now:
    /// the output that rang may be another session's.
    fn leave(&mut self, bell: Option<&Doorbell>, me: &Thread) {
        if bell.is_some_and(|bell| !bell.dequeue(me)) {
            let _ = self.serve(Serving::settle);
        }
    }
}

/// Cloneable entry point: one per client thread. Open sessions with
/// [`Self::open_session`]; dropping the [`Service`] without calling
/// [`Service::shutdown`] shuts it down the same way.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Mutex<State>>,
}

impl ServiceHandle {
    /// Opens a keyed session. All of the session's submissions route to
    /// the shard `key` hashes to, and only this session receives their
    /// outputs.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] when the service has shut down.
    pub fn open_session(&self, key: u64) -> Result<ClientSession, ServeError> {
        let mut state = lock(&self.shared)?;
        let session = state.next_session;
        state.serve(|serving, sessions| {
            let fresh =
                SessionState { outputs: VecDeque::new(), parked: None, awaiting: VecDeque::new() };
            sessions.0.insert(session, fresh);
            serving.stats.sessions_opened += 1;
            serving.sessions_gauge.set(sessions.0.len() as f64);
            Ok(())
        })?;
        state.next_session += 1;
        Ok(ClientSession {
            shared: Arc::clone(&self.shared),
            session,
            key,
            next_client_seq: 0,
            in_flight: 0,
        })
    }

    /// Injects `fault` into one shard's worker under live client traffic
    /// ([`crate::ShardedPipeline::inject`]), on the caller's thread. Never
    /// waits: a panic or stall that meets a full queue comes back as
    /// [`ServeError::Busy`].
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the shard's queue is full (retry after
    /// the hint); [`ServeError::Runtime`] with
    /// [`FreewayError::InvalidConfig`] when `shard` is out of range, which
    /// leaves the service running; [`ServeError::Disconnected`] when the
    /// service has shut down, or when delivering the fault hit a runtime
    /// failure, which ends it.
    pub fn inject(&self, shard: usize, fault: Fault) -> Result<(), ServeError> {
        lock(&self.shared)?.serve(|serving, sessions| {
            let queued = match serving.pipeline.inject(shard, fault) {
                Err(FreewayError::QueueFull) => false,
                // The caller's mistake, not a runtime failure.
                Err(invalid @ FreewayError::InvalidConfig(_)) => {
                    return Ok(Err(ServeError::Runtime(invalid)))
                }
                injected => injected.map(|()| true)?,
            };
            serving.settle(sessions)?;
            Ok(if queued { Ok(()) } else { Err(serving.busy()) })
        })?
    }
}

/// One client's keyed stream into the service. Not `Clone`: the session
/// is the unit of answer routing, so each concurrent submitter opens its
/// own.
pub struct ClientSession {
    shared: Arc<Mutex<State>>,
    session: u64,
    key: u64,
    next_client_seq: u64,
    in_flight: u64,
}

impl ClientSession {
    /// This session's service-unique id.
    pub fn id(&self) -> u64 {
        self.session
    }

    /// This session's routing key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Submissions accepted but not yet resolved by a received output.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Submits an unlabeled batch for inference. Never waits for queue
    /// space: a batch the session's shard cannot take right now is handed
    /// back with [`ServeError::Busy`]. It does wait for the service lock
    /// (see [`crate::serve`]). Returns the session-local sequence
    /// number the answer will carry.
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the shard's queue is full (retry after
    /// the hint); [`ServeError::Disconnected`] when the service is gone.
    pub fn submit(&mut self, x: freeway_linalg::Matrix) -> Result<u64, (Batch, ServeError)> {
        let batch = Batch::unlabeled(x, self.next_client_seq, freeway_streams::DriftPhase::Stable);
        self.submit_batch(batch, false)
    }

    /// Submits a labeled batch prequentially (test-then-train): the
    /// answer is an [`InferenceReport`] *and* the batch updates the
    /// model. Failure semantics as [`Self::submit`].
    ///
    /// # Errors
    /// As [`Self::submit`].
    ///
    /// # Panics
    /// When `labels.len() != x.rows()` (the [`Batch::labeled`] contract).
    pub fn submit_labeled(
        &mut self,
        x: freeway_linalg::Matrix,
        labels: Vec<usize>,
    ) -> Result<u64, (Batch, ServeError)> {
        let batch =
            Batch::labeled(x, labels, self.next_client_seq, freeway_streams::DriftPhase::Stable);
        self.submit_batch(batch, true)
    }

    /// Submits a labeled batch for training only (no inference report;
    /// the session receives [`SubmitOutcome::Trained`]). This is how
    /// late-arriving labels re-enter the stream. Failure semantics as
    /// [`Self::submit`].
    ///
    /// # Errors
    /// As [`Self::submit`].
    ///
    /// # Panics
    /// When `labels.len() != x.rows()` (the [`Batch::labeled`] contract).
    pub fn submit_train(
        &mut self,
        x: freeway_linalg::Matrix,
        labels: Vec<usize>,
    ) -> Result<u64, (Batch, ServeError)> {
        let batch =
            Batch::labeled(x, labels, self.next_client_seq, freeway_streams::DriftPhase::Stable);
        self.submit_batch(batch, false)
    }

    /// Lowest-level submit: takes a prepared batch (e.g. one handed back
    /// by a failed submit) and the prequential flag. The batch's `seq` is
    /// restamped with this session's next local sequence number, and with
    /// the global one once its shard takes it; a batch handed back
    /// consumes neither. Admission runs on the caller's thread.
    ///
    /// A runtime failure while feeding the batch ends the service: the
    /// submission counts as accepted, and [`Self::recv_output`] reports
    /// [`ServeError::Disconnected`] instead of its verdict.
    ///
    /// # Errors
    /// As [`Self::submit`].
    pub fn submit_batch(
        &mut self,
        mut batch: Batch,
        prequential: bool,
    ) -> Result<u64, (Batch, ServeError)> {
        let client_seq = self.next_client_seq;
        batch.seq = client_seq;
        let mut state = match lock(&self.shared) {
            Ok(state) if state.serving.is_some() => state,
            Ok(_) => return Err((batch, ServeError::Disconnected)),
            Err(e) => return Err((batch, e)),
        };
        let (session, key) = (self.session, self.key);
        let submitted = state
            .serve(|serving, sessions| serving.submit(sessions, session, key, batch, prequential));
        if let Ok(Err(busy)) = submitted {
            return Err(busy);
        }
        self.next_client_seq += 1;
        self.in_flight += 1;
        Ok(client_seq)
    }

    /// Receives this session's next output without waiting: `None` when
    /// nothing is ready, when another call holds the service lock, and
    /// when the service has shut down — use [`Self::recv_output`] to
    /// distinguish.
    pub fn try_output(&mut self) -> Option<SessionOutput> {
        let out = self.shared.try_lock().ok()?.next_output(self.session)?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Some(out)
    }

    /// Receives this session's next output, blocking until one arrives:
    /// parks until a ring from the session's shard worker wakes it (or
    /// another session hands its answer over), then drains the finished
    /// outputs on this thread and routes each to its session.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] when the service has shut down and
    /// every buffered output has been drained.
    pub fn recv_output(&mut self) -> Result<SessionOutput, ServeError> {
        let me = std::thread::current();
        let mut bell: Option<Doorbell> = None;
        loop {
            let mut state = lock(&self.shared)?;
            // Queued before `next_output` takes its last look at the
            // shard, so the shard's next ring cannot be lost. A ring that
            // took this thread off the queue since asked it to drain.
            let awaits = state.sessions.awaits(self.session);
            let rung = match &bell {
                Some(bell) => bell.enqueue(&me, awaits),
                None => {
                    bell =
                        state.serving.as_mut().and_then(|serving| serving.doorbell_for(self.key));
                    if let Some(bell) = &bell {
                        bell.enqueue(&me, awaits);
                    }
                    false
                }
            };
            if rung {
                let _ = state.serve(Serving::settle);
            }
            let received = match state.next_output(self.session) {
                Some(out) => Ok(out),
                None if state.serving.is_none() => Err(ServeError::Disconnected),
                None => {
                    state.sessions.park(self.session, me.clone());
                    drop(state);
                    std::thread::park();
                    continue;
                }
            };
            state.leave(bell.as_ref(), &me);
            if received.is_ok() {
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            return received;
        }
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        // Outputs still owed to this session are dropped on arrival.
        let Ok(mut state) = lock(&self.shared) else { return };
        state.sessions.0.remove(&self.session);
        let open = state.sessions.0.len() as f64;
        if let Some(serving) = state.serving.as_ref() {
            serving.sessions_gauge.set(open);
        }
    }
}

/// A running serving facade; owns the maintenance thread. Construct via
/// [`crate::PipelineBuilder::build_service`], hand out
/// [`ServiceHandle`]s, then call [`Self::shutdown`].
pub struct Service {
    handle: ServiceHandle,
    drain_budget: Option<Duration>,
    maintenance: Option<JoinHandle<()>>,
}

impl Service {
    /// Puts a built sharded pipeline behind the service lock and spawns
    /// the maintenance thread.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `config` fails
    /// [`ServiceConfig::check`]; [`FreewayError::Io`] when the
    /// maintenance thread cannot be spawned.
    pub fn start(
        mut pipeline: ShardedPipeline,
        config: ServiceConfig,
    ) -> Result<Self, FreewayError> {
        config.check().map_err(FreewayError::InvalidConfig)?;
        let liveness_tick =
            pipeline.min_stall_deadline().map(|deadline| deadline / LIVENESS_TICKS_PER_DEADLINE);
        let shared = Arc::new(Mutex::new(State {
            serving: Some(Serving::new(pipeline, config.record_admitted)),
            sessions: Sessions::default(),
            next_session: 0,
            failure: None,
        }));
        let maintenance = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("freeway-serve".to_owned())
                .spawn(move || maintain(&shared, liveness_tick))?
        };
        // Installed before any handle exists, so no crash goes unrung.
        if let Ok(mut state) = shared.lock() {
            if let Some(serving) = state.serving.as_mut() {
                for shard in 0..serving.pipeline.num_shards() {
                    let supervisor = serving.pipeline.shard(shard).supervisor();
                    supervisor.doorbell().install_exit(maintenance.thread().clone());
                    supervisor.inject_waits = false;
                }
            }
        }
        Ok(Self {
            handle: ServiceHandle { shared },
            drain_budget: config.drain_budget,
            maintenance: Some(maintenance),
        })
    }

    /// A cloneable client entry point.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops accepting new work, runs the shard barrier so every
    /// in-flight batch is answered, delivers the remaining outputs, and
    /// returns the finished report.
    ///
    /// # Errors
    /// The runtime failure that ended the service early, if one did;
    /// [`FreewayError::DrainTimeout`] when the drain budget ran out;
    /// [`FreewayError::WorkerPanicked`] if a serving call panicked while
    /// holding the service lock.
    pub fn shutdown(mut self) -> Result<ServiceReport, FreewayError> {
        self.stop()
    }

    /// Drains on the caller's thread, then stops the maintenance thread:
    /// the state is gone, so it returns as soon as it wakes.
    fn stop(&mut self) -> Result<ServiceReport, FreewayError> {
        let closed = match self.handle.shared.lock() {
            Ok(mut state) => state.close(self.drain_budget),
            Err(_) => Err(FreewayError::WorkerPanicked(
                "a serving call panicked while holding the service lock".to_owned(),
            )),
        };
        if let Some(maintenance) = self.maintenance.take() {
            maintenance.thread().unpark();
            maintenance
                .join()
                .map_err(|payload| FreewayError::WorkerPanicked(panic_message(payload)))?;
        }
        let Serving { pipeline, stats, admitted_order, sessions_gauge, .. } = closed?;
        sessions_gauge.set(0.0);
        Ok(ServiceReport { run: pipeline.finish()?, stats, admitted_order })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.maintenance.is_some() {
            let _ = self.stop();
        }
    }
}

/// Maintenance-thread wake-ups per smallest shard stall deadline: the
/// watchdog detects a wedged worker within its deadline plus one tick.
const LIVENESS_TICKS_PER_DEADLINE: u32 = 16;

/// The maintenance thread, off the serving path. It parks until a shard
/// worker exits (its exit ring) or, with a stall deadline, for one
/// watchdog tick, then settles under the lock: every shard receive of the
/// drain restarts a crashed worker and polls the watchdog, which a wedged
/// worker, ringing nothing, needs the timed wake for. With no stall
/// deadline it has no timer at all. Returns once the service is gone.
fn maintain(shared: &Mutex<State>, liveness_tick: Option<Duration>) {
    loop {
        match liveness_tick {
            None => std::thread::park(),
            Some(tick) => std::thread::park_timeout(tick),
        }
        let Ok(mut state) = lock(shared) else { return };
        if state.serve(Serving::settle).is_err() {
            return;
        }
    }
}

/// Every open session's delivery state, by session id.
#[derive(Default)]
struct Sessions(HashMap<u64, SessionState>);

struct SessionState {
    /// Outputs routed to the session but not yet received, oldest first.
    outputs: VecDeque<SessionOutput>,
    /// The session's thread while it is parked in
    /// [`ClientSession::recv_output`]; a delivery unparks it.
    parked: Option<Thread>,
    /// Global seqs of the submissions a shard holds, oldest first: the
    /// outputs the session is waiting for.
    awaiting: VecDeque<u64>,
}

impl Sessions {
    /// Queues `output` for `session` and wakes its thread if parked. A
    /// session that has closed no longer wants the answer; that is not an
    /// error.
    fn deliver(&mut self, session: u64, output: SessionOutput) {
        let Some(state) = self.0.get_mut(&session) else { return };
        state.awaiting.retain(|&seq| seq != output.global_seq);
        state.outputs.push_back(output);
        if let Some(thread) = state.parked.take() {
            thread.unpark();
        }
    }

    /// The global seq of the oldest output `session` waits for.
    fn awaits(&self, session: u64) -> Option<u64> {
        self.0.get(&session)?.awaiting.front().copied()
    }

    /// The session's oldest undelivered output; its thread is awake.
    fn take(&mut self, session: u64) -> Option<SessionOutput> {
        let state = self.0.get_mut(&session)?;
        state.parked = None;
        state.outputs.pop_front()
    }

    /// Records that `thread` is about to park for `session`'s next output.
    fn park(&mut self, session: u64, thread: Thread) {
        if let Some(state) = self.0.get_mut(&session) {
            state.parked = Some(thread);
        }
    }

    /// Wakes every parked session.
    fn wake_all(&mut self) {
        for thread in self.0.values_mut().filter_map(|state| state.parked.take()) {
            thread.unpark();
        }
    }
}

struct PendingEntry {
    session: u64,
    client_seq: u64,
    shard: usize,
}

/// The serving runtime: owns the sharded pipeline, stamps global
/// sequence numbers, and routes outputs back by session. Whichever thread
/// holds the service lock drives it.
struct Serving {
    pipeline: ShardedPipeline,
    /// global_seq → owning submission, for every batch handed to a shard
    /// whose verdict has not yet come back.
    ledger: HashMap<u64, PendingEntry>,
    next_seq: u64,
    stats: ServiceStats,
    admitted_order: Option<Vec<AdmittedRecord>>,
    /// Fenced-shard count already reconciled against the ledger; growth
    /// triggers a stranded-entry sweep ([`Self::reconcile_fences`]).
    fenced_seen: usize,
    /// Measured runtime pressure in `[0, 100]` behind the `Busy` hint.
    pressure_pct: u64,
    sessions_gauge: Gauge,
    submitted_counter: Counter,
    pressure_gauge: Gauge,
}

impl Serving {
    fn new(mut pipeline: ShardedPipeline, record_admitted: bool) -> Self {
        let telemetry = pipeline.telemetry().clone();
        // A service restarted over a journal continues the global
        // sequence above everything recovered, so new records never land
        // below old ones and checkpoint replay floors only move forward.
        let next_seq = pipeline.recovered_seq().map_or(0, |seq| seq + 1);
        Self {
            pipeline,
            ledger: HashMap::new(),
            next_seq,
            stats: ServiceStats::default(),
            admitted_order: record_admitted.then(Vec::new),
            fenced_seen: 0,
            pressure_pct: 0,
            sessions_gauge: telemetry.gauge("freeway_serve_sessions_active"),
            submitted_counter: telemetry.counter("freeway_serve_submitted_total"),
            pressure_gauge: telemetry.gauge("freeway_serve_pressure_pct"),
        }
    }

    /// The pressure-scaled [`ServeError::Busy`] a call the shards cannot
    /// take right now hands back.
    fn busy(&self) -> ServeError {
        ServeError::Busy { retry_after_hint: busy_hint(RETRY_AFTER_HINT, self.pressure_pct) }
    }

    /// The bell of the shard `key` routes to (`None` when every shard is
    /// fenced).
    fn doorbell_for(&mut self, key: u64) -> Option<Doorbell> {
        let shard = self.pipeline.route_for_key(key).ok()?;
        Some(self.pipeline.doorbell(shard).clone())
    }

    /// Publishes the pressure estimate behind the `Busy` hints: the worst
    /// unfenced shard's worker queue occupancy, folded with its
    /// degradation-ladder level (each rung pinning a floor of
    /// 25/50/75%), clamped to `[0, 100]`.
    fn publish_pressure(&mut self) {
        let mut pct = 0u64;
        for shard in 0..self.pipeline.num_shards() {
            if self.pipeline.is_fenced(shard) {
                continue;
            }
            let state = self.pipeline.shard(shard);
            let occupancy = (state.occupancy() * 100.0).round();
            let floor = match state.degradation_level() {
                DegradationLevel::Full => 0,
                DegradationLevel::ShortOnly => 25,
                DegradationLevel::InferenceOnly => 50,
                DegradationLevel::Shed => 75,
            };
            pct = pct.max(occupancy as u64).max(floor);
        }
        self.pressure_pct = pct.min(100);
        self.pressure_gauge.set(self.pressure_pct as f64);
    }

    /// Offers one submission to its shard. A batch the shard cannot take
    /// right now (blocking admission over a full worker queue) comes back
    /// as `Ok(Err(..))`, restamped with its client seq, with the
    /// pressure-scaled [`ServeError::Busy`]; it consumes no sequence
    /// number.
    fn submit(
        &mut self,
        sessions: &mut Sessions,
        session: u64,
        key: u64,
        mut batch: Batch,
        prequential: bool,
    ) -> Result<Result<(), (Batch, ServeError)>, FreewayError> {
        // Route what the workers already finished: it frees queue and
        // output space ahead of the offer.
        self.drain_outputs(sessions)?;
        let client_seq = batch.seq;
        let global_seq = self.next_seq;
        batch.seq = global_seq;
        let labeled = batch.labels.is_some();
        let (shard, outcome) =
            match self.pipeline.route(KeyedBatch { key, batch }, prequential, false)? {
                (shard, Ok(outcome)) => (shard, outcome),
                (_, Err(mut batch)) => {
                    batch.seq = client_seq;
                    self.publish_pressure();
                    return Ok(Err((batch, self.busy())));
                }
            };
        self.next_seq += 1;
        self.stats.submitted += 1;
        self.submitted_counter.inc();
        let verdict = match outcome {
            AdmissionOutcome::Admitted => {
                self.ledger.insert(global_seq, PendingEntry { session, client_seq, shard });
                if let Some(state) = sessions.0.get_mut(&session) {
                    state.awaiting.push_back(global_seq);
                }
                if let Some(order) = self.admitted_order.as_mut() {
                    order.push(AdmittedRecord {
                        session,
                        key,
                        client_seq,
                        global_seq,
                        shard,
                        prequential,
                        labeled,
                    });
                }
                None
            }
            AdmissionOutcome::Quarantined(fault) => {
                self.stats.quarantined += 1;
                Some(SubmitOutcome::Quarantined(fault.tag()))
            }
            AdmissionOutcome::Shed(reason) => {
                self.stats.shed += 1;
                Some(SubmitOutcome::Shed(reason.tag()))
            }
        };
        // A feed can fence its shard (restart budget exhausted),
        // stranding older ledger entries the dead worker will never
        // answer; their verdicts go out before this one so the session
        // hears them in submission order.
        self.reconcile_fences(sessions)?;
        if let Some(outcome) = verdict {
            sessions.deliver(session, SessionOutput { client_seq, global_seq, shard, outcome });
        }
        self.publish_pressure();
        Ok(Ok(()))
    }

    /// Routes every output the shards have ready.
    fn drain_outputs(&mut self, sessions: &mut Sessions) -> Result<(), FreewayError> {
        while let Some((shard, out)) = self.pipeline.try_recv()? {
            self.deliver(sessions, shard, out);
        }
        Ok(())
    }

    /// What every wake-up runs: routes the ready outputs, reconciles the
    /// fences the drain raised (it fences a shard whose crash exhausted
    /// its budget), and publishes pressure.
    fn settle(&mut self, sessions: &mut Sessions) -> Result<(), FreewayError> {
        self.drain_outputs(sessions)?;
        self.reconcile_fences(sessions)?;
        self.publish_pressure();
        Ok(())
    }

    /// The shutdown drain: the shard barrier (bounded by `budget` when
    /// set), with every answer routed to its session. A timed-out drain
    /// still routes what the healthy shards answered before reporting.
    fn barrier(
        &mut self,
        sessions: &mut Sessions,
        budget: Option<Duration>,
    ) -> Result<(), FreewayError> {
        let outputs = match self.pipeline.drain(budget) {
            Err(timeout @ FreewayError::DrainTimeout { .. }) => {
                // The timed-out drain stashed what the healthy shards
                // answered; their sessions get it before the error.
                self.drain_outputs(sessions)?;
                self.reconcile_fences(sessions)?;
                return Err(timeout);
            }
            outputs => outputs?,
        };
        for (shard, out) in outputs {
            self.deliver(sessions, shard, out);
        }
        self.reconcile_fences(sessions)
    }

    /// Routes one pipeline output back to the session that owns it.
    fn deliver(
        &mut self,
        sessions: &mut Sessions,
        shard: usize,
        out: crate::pipeline::PipelineOutput,
    ) {
        let Some(entry) = self.ledger.remove(&out.seq) else {
            // Only reachable if a future pipeline emits outputs for
            // batches it was never fed; dropping is the safe response.
            return;
        };
        debug_assert_eq!(entry.shard, shard, "output arrived from an unexpected shard");
        let outcome = match out.report {
            Some(report) => {
                self.stats.answered += 1;
                SubmitOutcome::Answered(report)
            }
            None => {
                self.stats.trained += 1;
                SubmitOutcome::Trained
            }
        };
        sessions.deliver(
            entry.session,
            SessionOutput { client_seq: entry.client_seq, global_seq: out.seq, shard, outcome },
        );
    }

    /// Sweeps the ledger after a fence: batches on a shard that exhausted
    /// its restart budget were lost in flight (handed to the worker that
    /// died), and no output will ever surface for them. Their sessions
    /// receive a typed, retryable [`SubmitOutcome::Shed`]`("fenced")`
    /// verdict instead of waiting forever, in ascending sequence order.
    /// Answers the worker produced *before* dying are delivered first, so
    /// nothing answerable is misreported as lost.
    fn reconcile_fences(&mut self, sessions: &mut Sessions) -> Result<(), FreewayError> {
        if self.pipeline.fenced_shards().len() == self.fenced_seen {
            return Ok(());
        }
        self.fenced_seen = self.pipeline.fenced_shards().len();
        self.drain_outputs(sessions)?;
        let mut stranded: Vec<u64> = self
            .ledger
            .iter()
            .filter(|(_, entry)| self.pipeline.is_fenced(entry.shard))
            .map(|(seq, _)| *seq)
            .collect();
        stranded.sort_unstable();
        for seq in stranded {
            if let Some(entry) = self.ledger.remove(&seq) {
                self.stats.shed += 1;
                if let Some(order) = self.admitted_order.as_mut() {
                    order.retain(|rec| rec.global_seq != seq);
                }
                sessions.deliver(
                    entry.session,
                    SessionOutput {
                        client_seq: entry.client_seq,
                        global_seq: seq,
                        shard: entry.shard,
                        outcome: SubmitOutcome::Shed("fenced"),
                    },
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_the_field() {
        let bad = ServiceConfig { drain_budget: Some(Duration::ZERO), ..Default::default() };
        assert!(bad.check().unwrap_err().contains("drain budget"));
        assert!(ServiceConfig::default().check().is_ok());
    }

    #[test]
    fn a_panic_under_the_lock_ends_the_service_with_its_message() {
        let service = crate::PipelineBuilder::new(freeway_ml::ModelSpec::lr(4, 2))
            .build_service()
            .expect("valid service");
        let handle = service.handle();
        let mut session = handle.open_session(1).expect("service running");
        let served = lock(&handle.shared)
            .expect("unpoisoned")
            .serve(|_, _| -> Result<(), FreewayError> { panic!("replay crashed again") });
        assert!(matches!(served, Err(ServeError::Disconnected)), "{served:?}");
        // The lock is not poisoned: every call returns at once.
        assert!(matches!(session.recv_output(), Err(ServeError::Disconnected)));
        let batch = Batch::unlabeled(
            freeway_linalg::Matrix::zeros(2, 4),
            0,
            freeway_streams::DriftPhase::Stable,
        );
        assert!(matches!(session.submit_batch(batch, false), Err((_, ServeError::Disconnected))));
        drop(session);
        match service.shutdown() {
            Err(FreewayError::WorkerPanicked(message)) => {
                assert!(message.contains("replay crashed again"), "{message}");
            }
            other => panic!("shutdown must report the panic, got {:?}", other.err()),
        }
    }

    #[test]
    fn busy_hint_is_monotone_in_pressure() {
        let base = Duration::from_micros(200);
        let mut last = Duration::ZERO;
        for pct in 0..=100 {
            let hint = busy_hint(base, pct);
            assert!(hint >= last, "hint shrank at {pct}%: {hint:?} < {last:?}");
            last = hint;
        }
        assert_eq!(busy_hint(base, 0), base, "unloaded hint must equal the configured base");
        assert_eq!(busy_hint(base, 100), base * 4, "saturated hint caps at 4x the base");
        // Out-of-range pressure clamps instead of extrapolating.
        assert_eq!(busy_hint(base, u64::MAX), busy_hint(base, 100));
    }

    #[test]
    fn busy_hint_scales_with_backlog_occupancy() {
        // The service derives pressure from occupancy; a fuller backlog
        // must never yield a shorter suggested wait.
        let base = Duration::from_millis(1);
        for capacity in [1usize, 7, 64] {
            let mut last = Duration::ZERO;
            for used in 0..=capacity {
                #[allow(clippy::cast_precision_loss)]
                let occupancy = used as f64 / capacity as f64;
                let pct = (occupancy * 100.0).round() as u64;
                let hint = busy_hint(base, pct);
                assert!(
                    hint >= last,
                    "hint shrank as backlog filled ({used}/{capacity}): {hint:?} < {last:?}"
                );
                last = hint;
            }
        }
    }

    #[test]
    fn freeway_to_serve_round_trip_is_lossless() {
        // QueueFull and WorkerUnavailable must stay distinguishable
        // through the facade — the exact regression this guards.
        let cases: Vec<FreewayError> = vec![
            FreewayError::InvalidConfig("field".into()),
            FreewayError::WorkerUnavailable,
            FreewayError::QueueFull,
            FreewayError::WorkerPanicked("boom".into()),
            FreewayError::RestartsExhausted { attempts: 3, last_panic: "boom".into() },
            FreewayError::PoisonBatch { seq: 7, fault: crate::guard::BatchFault::Empty },
            FreewayError::Checkpoint(crate::error::CheckpointError::Malformed("bad".into())),
            FreewayError::Io(std::io::Error::other("disk")),
        ];
        for original in cases {
            let tag = std::mem::discriminant(&original);
            let via: ServeError = original.into();
            // The two backpressure variants normalize onto the facade's
            // own taxonomy, never into the Runtime catch-all.
            match &via {
                ServeError::Busy { .. } | ServeError::Disconnected => {}
                ServeError::Runtime(inner) => {
                    assert!(
                        !matches!(inner, FreewayError::QueueFull | FreewayError::WorkerUnavailable),
                        "Runtime must never absorb the normalized variants"
                    );
                }
            }
            let back: FreewayError = via.into();
            assert_eq!(std::mem::discriminant(&back), tag, "round trip changed the variant");
        }
    }

    #[test]
    fn serve_to_freeway_round_trip_keeps_busy_and_disconnected_apart() {
        let busy = ServeError::Busy { retry_after_hint: Duration::from_micros(200) };
        let back: ServeError = FreewayError::from(busy).into();
        assert!(matches!(back, ServeError::Busy { .. }), "Busy collapsed: {back:?}");

        let gone: ServeError = FreewayError::from(ServeError::Disconnected).into();
        assert!(matches!(gone, ServeError::Disconnected), "Disconnected collapsed: {gone:?}");

        let runtime = ServeError::Runtime(FreewayError::InvalidConfig("x".into()));
        let back: ServeError = FreewayError::from(runtime).into();
        assert!(matches!(back, ServeError::Runtime(FreewayError::InvalidConfig(_))));
    }
}
