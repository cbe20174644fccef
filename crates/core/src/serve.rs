//! Multi-client serving facade over the sharded runtime.
//!
//! The sharded pipeline ([`crate::ShardedPipeline`]) is a single-producer
//! API: one thread routes keyed batches and drains outputs. Production
//! serving is many concurrent clients, each with its own stream identity
//! and its own view of "my answers". [`Service`] closes that gap with a
//! dedicated **router thread** that owns the sharded pipeline:
//!
//! * clients clone a [`ServiceHandle`] and open keyed
//!   [`ClientSession`]s; every session's submissions route to the shard
//!   its key hashes to, so per-session answer order is total;
//! * [`ClientSession::submit`]/[`ClientSession::submit_labeled`] are
//!   non-blocking, mirroring [`crate::Pipeline::try_feed`]: a full
//!   submit queue surfaces as the typed, retryable
//!   [`ServeError::Busy`] (with a pacing hint) instead of a blocking
//!   send, and [`ClientSession::submit_timeout`] mirrors
//!   [`crate::Pipeline::feed_timeout`] by spending a bounded latency
//!   budget first;
//! * the router stamps every accepted submission with a globally
//!   monotone sequence number (the ingest guard's contract) and keeps a
//!   **per-session ledger** mapping those sequence numbers back to the
//!   owning session, so each client receives exactly its own
//!   [`SessionOutput`]s — including shed and quarantine verdicts — and
//!   never another tenant's predictions;
//! * shutdown ([`Service::shutdown`]) drains the submit queue, runs the
//!   deterministic [`crate::ShardedPipeline::barrier`], delivers every
//!   remaining answer, and hands back the finished [`ServiceReport`].
//!
//! Backpressure composes in two layers: the bounded submit queue bounds
//! how far clients can run ahead of the router, and the admission
//! controller configured on the builder governs what the router does
//! when a shard's worker queue is full (block, shed, deadline — see
//! [`crate::AdmissionPolicy`]). With the blocking policy nothing is ever
//! dropped and client-side `Busy` is the only overload signal; with
//! shedding policies dropped batches come back to their session as
//! [`SubmitOutcome::Shed`].
//!
//! The router never sleep-polls. Once its submit queue and every shard's
//! output are drained it parks, and whatever hands it work rings a
//! doorbell that unparks it: sessions and handles after each request they
//! enqueue (open, submit, close, chaos injections), [`Service::shutdown`]
//! and `Drop` after the shutdown notice, and every shard worker after each
//! message it sends and once as its thread exits, panics included, so a
//! crash is noticed without a timer. A ring that lands before the router
//! parks is kept as its park token, so none is lost. With no stall
//! deadline the router has no timer at all; with one it parks for at most
//! a sixteenth of the smallest shard deadline and pumps the watchdog on
//! that tick, busy or idle. On a 2-vCPU host this cut a closed-loop
//! 1-shard round trip from ~216 µs (two waits on the former 50 µs sleep,
//! which timer slack stretched to ~105 µs each) to ~50 µs, against ~30 µs
//! for the same batches through a bare [`crate::ShardedPipeline`]; the
//! rest is the router hop's two futex wake-ups.
//!
//! Construct via [`crate::PipelineBuilder::service`] +
//! [`crate::PipelineBuilder::build_service`].

use crate::admission::AdmissionOutcome;
use crate::degrade::DegradationLevel;
use crate::error::{panic_message, FreewayError};
use crate::learner::InferenceReport;
use crate::shard::{ShardedPipeline, ShardedRun};
use crate::supervisor::Doorbell;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use freeway_streams::keyed::KeyedBatch;
use freeway_streams::Batch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-facade knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Capacity of the shared client→router submit queue. Bounds how far
    /// clients can run ahead of the router; a full queue surfaces as
    /// [`ServeError::Busy`].
    pub submit_queue_depth: usize,
    /// *Base* pacing hint handed back inside [`ServeError::Busy`]: the
    /// wait suggested when the runtime is unloaded. The actual hint
    /// scales with measured pressure — queue/backlog occupancy and the
    /// degradation ladder — up to 4× this base (see [`busy_hint`]).
    /// Advisory, not enforced.
    pub retry_after_hint: Duration,
    /// Wall-clock budget for the shutdown drain. `None` (the default)
    /// drains unboundedly via [`crate::ShardedPipeline::barrier`]; with a
    /// budget, shutdown uses
    /// [`crate::ShardedPipeline::barrier_deadline`] and surfaces the
    /// typed [`FreewayError::DrainTimeout`] naming the unresponsive
    /// shards instead of hanging on a wedged worker.
    pub drain_budget: Option<Duration>,
    /// When set, the router records the exact order in which submissions
    /// were fed to the shards ([`ServiceReport::admitted_order`]), so a
    /// serialized oracle can replay the run deterministically.
    pub record_admitted: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            submit_queue_depth: 64,
            retry_after_hint: Duration::from_micros(200),
            drain_budget: None,
            record_admitted: false,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// A message naming the offending field, in the builder's
    /// `InvalidConfig` style.
    pub fn check(&self) -> Result<(), String> {
        if self.submit_queue_depth == 0 {
            return Err("service submit queue depth must be positive".to_owned());
        }
        if self.retry_after_hint.is_zero() {
            return Err("service retry-after hint must be positive".to_owned());
        }
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
/// the hint), [`Self::Disconnected`] is permanent (the router or its
/// workers are gone). [`From`] impls in both directions round-trip
/// [`FreewayError::QueueFull`] and [`FreewayError::WorkerUnavailable`]
/// losslessly onto them.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The submit queue is at capacity: transient backpressure. Retry
    /// after roughly `retry_after_hint`; the batch is handed back.
    Busy {
        /// Suggested client-side pause before the next attempt.
        retry_after_hint: Duration,
    },
    /// The service's router thread is gone (shutdown or crash). A retry
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
            FreewayError::QueueFull => {
                Self::Busy { retry_after_hint: ServiceConfig::default().retry_after_hint }
            }
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
    /// The globally monotone sequence number the router stamped.
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
    /// Submissions the router accepted off the submit queue.
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
    /// Global sequence number the router stamped.
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
    /// Batches later shed from a backlog are removed, so the record is
    /// exactly what the workers processed.
    pub admitted_order: Option<Vec<AdmittedRecord>>,
}

enum Request {
    Open { session: u64, reply: Sender<SessionOutput> },
    Submit { session: u64, key: u64, client_seq: u64, batch: Batch, prequential: bool },
    Close { session: u64 },
    InjectPanic { shard: usize },
    InjectStall { shard: usize, duration: Duration, livelock: bool },
    Shutdown,
}

struct ServiceShared {
    next_session: AtomicU64,
    retry_after_hint: Duration,
    /// Wakes the parked router; rung after every enqueued request.
    doorbell: Doorbell,
    /// Measured runtime pressure in `[0, 100]`, published by the router
    /// every loop: the worst shard's queue/backlog occupancy folded with
    /// its degradation-ladder level. Read lock-free by every session to
    /// derive the [`ServeError::Busy`] pacing hint.
    pressure_pct: AtomicU64,
}

/// Derives the [`ServeError::Busy`] pacing hint from the configured base
/// and the router-published pressure percentage: `base` at zero pressure,
/// scaling linearly to `4 × base` at 100%. Monotone in pressure — a more
/// loaded service never suggests a *shorter* wait — so clients back off
/// harder exactly when the runtime is drowning.
pub fn busy_hint(base: Duration, pressure_pct: u64) -> Duration {
    let pct = u32::try_from(pressure_pct.min(100)).unwrap_or(100);
    base.saturating_add(base.saturating_mul(3).saturating_mul(pct) / 100)
}

/// Cloneable entry point: one per client thread. Open sessions with
/// [`Self::open_session`]; dropping every handle (and session) without
/// calling [`Service::shutdown`] also shuts the router down cleanly.
#[derive(Clone)]
pub struct ServiceHandle {
    tx: Sender<Request>,
    shared: Arc<ServiceShared>,
}

impl ServiceHandle {
    /// Opens a keyed session. All of the session's submissions route to
    /// the shard `key` hashes to, and only this session receives their
    /// outputs.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] when the service has shut down.
    pub fn open_session(&self, key: u64) -> Result<ClientSession, ServeError> {
        let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = unbounded();
        self.send(Request::Open { session, reply: reply_tx })?;
        Ok(ClientSession {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
            session,
            key,
            next_client_seq: 0,
            in_flight: 0,
            reply: reply_rx,
        })
    }

    /// The router-published pressure estimate in `[0, 100]` (worst-shard
    /// occupancy folded with degradation level). This is the input to
    /// every session's [`ServeError::Busy`] hint ([`busy_hint`]).
    pub fn pressure_pct(&self) -> u64 {
        self.shared.pressure_pct.load(Ordering::Relaxed)
    }

    /// Chaos hook: makes one shard's worker panic on its next command,
    /// exercising the crash-restart (and, past the budget, fencing) path
    /// under live client traffic.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] when the service has shut down.
    pub fn inject_worker_panic(&self, shard: usize) -> Result<(), ServeError> {
        self.send(Request::InjectPanic { shard })
    }

    /// Chaos hook: schedules a stall (sleep or livelock) of `duration` on
    /// one shard's worker, exercising the watchdog detect → force-restart
    /// path under live client traffic.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] when the service has shut down.
    pub fn inject_worker_stall(
        &self,
        shard: usize,
        duration: Duration,
        livelock: bool,
    ) -> Result<(), ServeError> {
        self.send(Request::InjectStall { shard, duration, livelock })
    }

    /// Enqueues a control request (blocking while the queue is full) and
    /// wakes the router.
    fn send(&self, req: Request) -> Result<(), ServeError> {
        self.tx.send(req).map_err(|_| ServeError::Disconnected)?;
        self.shared.doorbell.ring();
        Ok(())
    }
}

/// One client's keyed stream into the service. Not `Clone`: the session
/// is the unit of answer routing, so each concurrent submitter opens its
/// own.
pub struct ClientSession {
    tx: Sender<Request>,
    shared: Arc<ServiceShared>,
    session: u64,
    key: u64,
    next_client_seq: u64,
    in_flight: u64,
    reply: Receiver<SessionOutput>,
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

    /// Submissions enqueued but not yet resolved by a received output.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Submits an unlabeled batch for inference. Non-blocking: a full
    /// submit queue hands the batch back with [`ServeError::Busy`].
    /// Returns the session-local sequence number the answer will carry.
    ///
    /// # Errors
    /// [`ServeError::Busy`] on a full queue (retry after the hint);
    /// [`ServeError::Disconnected`] when the service is gone.
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
    /// restamped with this session's next local sequence number; the
    /// router restamps it again with the global one.
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
        let req = Request::Submit {
            session: self.session,
            key: self.key,
            client_seq,
            batch,
            prequential,
        };
        match self.tx.try_send(req) {
            Ok(()) => {
                self.shared.doorbell.ring();
                self.next_client_seq += 1;
                self.in_flight += 1;
                Ok(client_seq)
            }
            Err(TrySendError::Full(req)) => Err((
                request_batch(req),
                ServeError::Busy {
                    retry_after_hint: busy_hint(
                        self.shared.retry_after_hint,
                        self.shared.pressure_pct.load(Ordering::Relaxed),
                    ),
                },
            )),
            Err(TrySendError::Disconnected(req)) => {
                Err((request_batch(req), ServeError::Disconnected))
            }
        }
    }

    /// Bounded-latency submit, mirroring [`crate::Pipeline::feed_timeout`]:
    /// retries [`Self::submit_batch`] until `budget` elapses, then hands
    /// the batch back with [`ServeError::Busy`]. The vendored channel has
    /// no timed send, so this polls with a short sleep.
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the deadline expired with the queue
    /// still full; [`ServeError::Disconnected`] when the service is gone
    /// (returned immediately, the budget is not spent).
    pub fn submit_timeout(
        &mut self,
        batch: Batch,
        prequential: bool,
        budget: Duration,
    ) -> Result<u64, (Batch, ServeError)> {
        let deadline = Instant::now() + budget;
        let mut batch = batch;
        loop {
            match self.submit_batch(batch, prequential) {
                Ok(seq) => return Ok(seq),
                Err((returned, ServeError::Busy { retry_after_hint })) => {
                    if Instant::now() >= deadline {
                        return Err((returned, ServeError::Busy { retry_after_hint }));
                    }
                    batch = returned;
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Receives this session's next output without blocking (`None` both
    /// when nothing is ready and when the service has shut down — use
    /// [`Self::recv_output`] to distinguish).
    pub fn try_output(&mut self) -> Option<SessionOutput> {
        match self.reply.try_recv() {
            Ok(out) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                Some(out)
            }
            Err(_) => None,
        }
    }

    /// Receives this session's next output, blocking until one arrives.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] when the service has shut down and
    /// every buffered output has been drained.
    pub fn recv_output(&mut self) -> Result<SessionOutput, ServeError> {
        match self.reply.recv() {
            Ok(out) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                Ok(out)
            }
            Err(_) => Err(ServeError::Disconnected),
        }
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        // Best-effort: a full queue or a dead router both mean the close
        // notice does not matter (the router drops unroutable outputs).
        if self.tx.try_send(Request::Close { session: self.session }).is_ok() {
            self.shared.doorbell.ring();
        }
    }
}

fn request_batch(req: Request) -> Batch {
    match req {
        Request::Submit { batch, .. } => batch,
        // submit_batch only ever hands back the request it constructed.
        _ => unreachable!("only Submit requests carry a batch"),
    }
}

/// A running serving facade; owns the router thread. Construct via
/// [`crate::PipelineBuilder::build_service`], hand out
/// [`ServiceHandle`]s, then call [`Self::shutdown`].
pub struct Service {
    handle: ServiceHandle,
    router: Option<JoinHandle<Result<ServiceReport, FreewayError>>>,
}

impl Service {
    /// Spawns the router thread around a built sharded pipeline.
    ///
    /// # Errors
    /// [`FreewayError::InvalidConfig`] when `config` fails
    /// [`ServiceConfig::check`].
    pub fn start(pipeline: ShardedPipeline, config: ServiceConfig) -> Result<Self, FreewayError> {
        config.check().map_err(FreewayError::InvalidConfig)?;
        let (tx, rx) = bounded::<Request>(config.submit_queue_depth);
        let shared = Arc::new(ServiceShared {
            next_session: AtomicU64::new(0),
            retry_after_hint: config.retry_after_hint,
            doorbell: Doorbell::default(),
            pressure_pct: AtomicU64::new(0),
        });
        let record = config.record_admitted;
        let drain_budget = config.drain_budget;
        let router_shared = Arc::clone(&shared);
        let router = std::thread::spawn(move || {
            Router::new(pipeline, rx, record, router_shared, drain_budget).run()
        });
        // Installed before any handle exists, so no request can ring an
        // empty bell.
        shared.doorbell.install(router.thread().clone());
        Ok(Self { handle: ServiceHandle { tx, shared }, router: Some(router) })
    }

    /// A cloneable client entry point.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops accepting new work, drains every queued submission, runs
    /// the shard barrier so every in-flight batch is answered, delivers
    /// the remaining outputs, and returns the finished report.
    ///
    /// # Errors
    /// Any runtime error the router hit while serving (the first one
    /// aborts the run), or [`FreewayError::WorkerPanicked`] if the
    /// router thread itself died.
    pub fn shutdown(mut self) -> Result<ServiceReport, FreewayError> {
        let _ = self.handle.send(Request::Shutdown);
        let Some(router) = self.router.take() else {
            return Err(FreewayError::WorkerUnavailable);
        };
        match router.join() {
            Ok(report) => report,
            Err(payload) => Err(FreewayError::WorkerPanicked(panic_message(payload))),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.handle.send(Request::Shutdown);
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
    }
}

struct SessionState {
    reply: Sender<SessionOutput>,
    in_flight_gauge: freeway_telemetry::Gauge,
    in_flight: u64,
}

struct PendingEntry {
    session: u64,
    client_seq: u64,
    shard: usize,
}

/// The router: owns the sharded pipeline, serializes all feeds, stamps
/// global sequence numbers, and fans outputs back out by session.
struct Router {
    pipeline: ShardedPipeline,
    rx: Receiver<Request>,
    sessions: HashMap<u64, SessionState>,
    /// global_seq → owning submission, for every batch handed to a shard
    /// whose verdict has not yet come back.
    ledger: HashMap<u64, PendingEntry>,
    next_seq: u64,
    stats: ServiceStats,
    admitted_order: Option<Vec<AdmittedRecord>>,
    /// Per-shard shed-buffer totals already reconciled against the
    /// ledger; growth beyond the watermark triggers a scan.
    shed_watermarks: Vec<u64>,
    /// Fenced-shard count already reconciled against the ledger; growth
    /// triggers a stranded-entry sweep ([`Self::reconcile_fences`]).
    fenced_seen: usize,
    /// Watchdog cadence: the router's park timeout, a fixed fraction of
    /// the smallest shard stall deadline. `None` (no deadline) means the
    /// router parks with no timer and wakes only on doorbell rings.
    liveness_tick: Option<Duration>,
    shared: Arc<ServiceShared>,
    drain_budget: Option<Duration>,
    sessions_gauge: freeway_telemetry::Gauge,
    submitted_counter: freeway_telemetry::Counter,
    pressure_gauge: freeway_telemetry::Gauge,
}

/// Router wake-ups per smallest shard stall deadline: the watchdog
/// detects a wedged worker within its deadline plus one such tick.
const LIVENESS_TICKS_PER_DEADLINE: u32 = 16;

impl Router {
    /// Runs on the router thread: installs that thread as every shard
    /// worker's doorbell target.
    fn new(
        mut pipeline: ShardedPipeline,
        rx: Receiver<Request>,
        record_admitted: bool,
        shared: Arc<ServiceShared>,
        drain_budget: Option<Duration>,
    ) -> Self {
        pipeline.install_doorbell(&std::thread::current());
        let telemetry = pipeline.telemetry().clone();
        let shed_watermarks = vec![0; pipeline.num_shards()];
        // A service restarted over a journal continues the global
        // sequence above everything recovered, so new records never land
        // below old ones and checkpoint replay floors only move forward.
        let next_seq = pipeline.recovered_seq().map_or(0, |seq| seq + 1);
        let liveness_tick =
            pipeline.min_stall_deadline().map(|deadline| deadline / LIVENESS_TICKS_PER_DEADLINE);
        Self {
            pipeline,
            rx,
            sessions: HashMap::new(),
            ledger: HashMap::new(),
            next_seq,
            stats: ServiceStats::default(),
            admitted_order: record_admitted.then(Vec::new),
            shed_watermarks,
            fenced_seen: 0,
            liveness_tick,
            shared,
            drain_budget,
            sessions_gauge: telemetry.gauge("freeway_serve_sessions_active"),
            submitted_counter: telemetry.counter("freeway_serve_submitted_total"),
            pressure_gauge: telemetry.gauge("freeway_serve_pressure_pct"),
        }
    }

    /// Publishes the pressure estimate clients read for their `Busy`
    /// hints: the worst unfenced shard's queue/backlog occupancy, folded
    /// with its degradation-ladder level (each rung pinning a floor of
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
        let pct = pct.min(100);
        self.shared.pressure_pct.store(pct, Ordering::Relaxed);
        self.pressure_gauge.set(pct as f64);
    }

    fn run(mut self) -> Result<ServiceReport, FreewayError> {
        let mut next_liveness = Instant::now();
        'serve: loop {
            let mut worked = false;
            loop {
                match self.rx.try_recv() {
                    Ok(Request::Shutdown) => break 'serve,
                    Ok(req) => {
                        worked = true;
                        self.handle_request(req)?;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'serve,
                }
            }
            while let Some((shard, out)) = self.pipeline.try_recv()? {
                worked = true;
                self.deliver(shard, out);
            }
            // The drain fences a shard whose crash exhausted its budget.
            self.reconcile_fences()?;
            self.publish_pressure();
            let Some(tick) = self.liveness_tick else {
                if !worked {
                    std::thread::park();
                }
                continue;
            };
            // A wedged worker rings nothing: pump the watchdog on the
            // timed wake, busy or idle, then reconcile any fence it raised.
            let now = Instant::now();
            if now >= next_liveness {
                if self.pipeline.check_liveness()? > 0 {
                    worked = true;
                }
                self.reconcile_fences()?;
                next_liveness = now + tick;
            }
            if !worked {
                std::thread::park_timeout(next_liveness.saturating_duration_since(now));
            }
        }
        // Submissions enqueued before the shutdown notice were accepted
        // for service: drain and process them before the barrier.
        loop {
            match self.rx.try_recv() {
                Ok(Request::Shutdown) => {}
                Ok(req) => self.handle_request(req)?,
                Err(_) => break,
            }
        }
        let outputs = match self.drain_budget {
            Some(budget) => self.pipeline.barrier_deadline(budget)?,
            None => self.pipeline.barrier()?,
        };
        for (shard, out) in outputs {
            self.deliver(shard, out);
        }
        self.reconcile_sheds();
        self.reconcile_fences()?;
        let Router { pipeline, stats, admitted_order, sessions_gauge, .. } = self;
        sessions_gauge.set(0.0);
        let run = pipeline.finish()?;
        Ok(ServiceReport { run, stats, admitted_order })
    }

    fn handle_request(&mut self, req: Request) -> Result<(), FreewayError> {
        match req {
            Request::Open { session, reply } => {
                let gauge = self
                    .pipeline
                    .telemetry()
                    .gauge(&format!("freeway_serve_session_{session}_in_flight"));
                self.sessions
                    .insert(session, SessionState { reply, in_flight_gauge: gauge, in_flight: 0 });
                self.stats.sessions_opened += 1;
                self.sessions_gauge.set(self.sessions.len() as f64);
            }
            Request::Close { session } => {
                self.sessions.remove(&session);
                self.sessions_gauge.set(self.sessions.len() as f64);
            }
            Request::Submit { session, key, client_seq, mut batch, prequential } => {
                self.stats.submitted += 1;
                self.submitted_counter.inc();
                if let Some(state) = self.sessions.get_mut(&session) {
                    state.in_flight += 1;
                    state.in_flight_gauge.set(state.in_flight as f64);
                }
                // Keep output space ahead of a potentially blocking feed:
                // with everything pumped, a Block-policy feed can wait on
                // at most one worker step before a queue slot frees.
                while let Some((shard, out)) = self.pipeline.try_recv()? {
                    self.deliver(shard, out);
                }
                let global_seq = self.next_seq;
                self.next_seq += 1;
                batch.seq = global_seq;
                let labeled = batch.labels.is_some();
                let keyed = KeyedBatch { key, batch };
                let (shard, outcome) = if prequential {
                    self.pipeline.feed_prequential(keyed)?
                } else {
                    self.pipeline.feed(keyed)?
                };
                match outcome {
                    AdmissionOutcome::Admitted | AdmissionOutcome::Backlogged => {
                        self.ledger.insert(global_seq, PendingEntry { session, client_seq, shard });
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
                    }
                    AdmissionOutcome::Quarantined(fault) => {
                        self.stats.quarantined += 1;
                        self.send_to(
                            session,
                            SessionOutput {
                                client_seq,
                                global_seq,
                                shard,
                                outcome: SubmitOutcome::Quarantined(fault.tag()),
                            },
                        );
                    }
                    AdmissionOutcome::Shed(reason) => {
                        self.stats.shed += 1;
                        self.send_to(
                            session,
                            SessionOutput {
                                client_seq,
                                global_seq,
                                shard,
                                outcome: SubmitOutcome::Shed(reason.tag()),
                            },
                        );
                    }
                }
                // A backlogged batch can be the shed victim of a *later*
                // feed (shedding-oldest); reconcile after every feed so
                // its session still hears the verdict. A feed can also
                // fence its shard (restart budget exhausted), stranding
                // ledger entries the dead worker will never answer.
                self.reconcile_sheds();
                self.reconcile_fences()?;
            }
            Request::InjectPanic { shard } => {
                self.pipeline.inject_worker_panic(shard)?;
                self.reconcile_fences()?;
            }
            Request::InjectStall { shard, duration, livelock } => {
                self.pipeline.inject_worker_stall(shard, duration, livelock)?;
                self.reconcile_fences()?;
            }
            Request::Shutdown => {}
        }
        Ok(())
    }

    /// Routes one pipeline output back to the session that owns it.
    fn deliver(&mut self, shard: usize, out: crate::pipeline::PipelineOutput) {
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
        self.send_to(
            entry.session,
            SessionOutput { client_seq: entry.client_seq, global_seq: out.seq, shard, outcome },
        );
    }

    /// Scans shed buffers whose totals grew past the reconciled
    /// watermark and reports newly shed ledger entries back to their
    /// sessions.
    fn reconcile_sheds(&mut self) {
        for shard in 0..self.pipeline.num_shards() {
            let total = self.pipeline.shard(shard).shed().total();
            if total == self.shed_watermarks[shard] {
                continue;
            }
            self.shed_watermarks[shard] = total;
            let mut dropped = Vec::new();
            for entry in self.pipeline.shard(shard).shed().entries() {
                if self.ledger.contains_key(&entry.batch.seq) {
                    dropped.push((entry.batch.seq, entry.reason.tag()));
                }
            }
            for (seq, reason) in dropped {
                if let Some(entry) = self.ledger.remove(&seq) {
                    self.stats.shed += 1;
                    if let Some(order) = self.admitted_order.as_mut() {
                        order.retain(|rec| rec.global_seq != seq);
                    }
                    self.send_to(
                        entry.session,
                        SessionOutput {
                            client_seq: entry.client_seq,
                            global_seq: seq,
                            shard,
                            outcome: SubmitOutcome::Shed(reason),
                        },
                    );
                }
            }
        }
    }

    /// Sweeps the ledger after a fence: batches admitted to a shard that
    /// later exhausted its restart budget can be lost in flight (handed
    /// to the worker that died) — no output and no shed-buffer entry will
    /// ever surface for them. Their sessions receive a typed, retryable
    /// [`SubmitOutcome::Shed`]`("fenced")` verdict instead of waiting
    /// forever. Answers the worker produced *before* dying are delivered
    /// first, so nothing answerable is misreported as lost.
    fn reconcile_fences(&mut self) -> Result<(), FreewayError> {
        if self.pipeline.fenced_shards().len() == self.fenced_seen {
            return Ok(());
        }
        self.fenced_seen = self.pipeline.fenced_shards().len();
        while let Some((shard, out)) = self.pipeline.try_recv()? {
            self.deliver(shard, out);
        }
        self.reconcile_sheds();
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
                self.send_to(
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

    fn send_to(&mut self, session: u64, output: SessionOutput) {
        if let Some(state) = self.sessions.get_mut(&session) {
            state.in_flight = state.in_flight.saturating_sub(1);
            state.in_flight_gauge.set(state.in_flight as f64);
            // A session that dropped its receiver no longer wants the
            // answer; that is not an error.
            let _ = state.reply.send(output);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_the_field() {
        let bad = ServiceConfig { submit_queue_depth: 0, ..Default::default() };
        assert!(bad.check().unwrap_err().contains("queue depth"));
        let bad = ServiceConfig { retry_after_hint: Duration::ZERO, ..Default::default() };
        assert!(bad.check().unwrap_err().contains("retry-after"));
        assert!(ServiceConfig::default().check().is_ok());
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
        // The router derives pressure from occupancy; a fuller backlog
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
