//! Liveness acceptance: the stall watchdog detects hung and livelocked
//! workers (and only those — slow-but-progressing workers are never
//! killed), forced recovery rides the checkpoint-restore path, exhausted
//! shards fence instead of erroring the runtime, and failover routing is
//! a deterministic, stable function of the failed set. Every tier's one
//! fault entry point drives each `Fault` to its effect.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use freeway_core::liveness::WatchdogState;
use freeway_core::shard::failover_shard;
use freeway_core::telemetry::{EventKind, RecordingSink, TelemetryEvent, TelemetrySink};
use freeway_core::{
    shard_for, AdmissionConfig, AdmissionOutcome, AdmissionPolicy, ClientSession, Fault,
    FreewayConfig, FreewayError, JournalConfig, PipelineBuilder, ServiceHandle, ShardedPipeline,
    ShedReason, SubmitOutcome, SupervisedPipeline,
};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::keyed::KeyedBatch;
use freeway_streams::{Batch, DriftPhase};
use proptest::prelude::*;

const DIM: usize = 4;
const BATCH_SIZE: usize = 32;

fn config() -> FreewayConfig {
    FreewayConfig { pca_warmup_rows: 32, mini_batch: BATCH_SIZE, ..Default::default() }
}

fn lossless_admission() -> AdmissionConfig {
    AdmissionConfig { policy: AdmissionPolicy::Block, ladder: false }
}

/// Labeled batches from one stationary concept, stamped with the caller's
/// sequence counter.
struct Feed {
    concept: GmmConcept,
    rng: rand::rngs::StdRng,
    next_seq: u64,
}

impl Feed {
    fn new(seed: u64) -> Self {
        let mut rng = stream_rng(seed);
        let concept = GmmConcept::random(DIM, 2, 2, 3.0, 0.5, &mut rng);
        Self { concept, rng, next_seq: 0 }
    }

    fn batch(&mut self) -> Batch {
        let (x, y) = self.concept.sample_batch(BATCH_SIZE, &mut self.rng);
        let seq = self.next_seq;
        self.next_seq += 1;
        Batch::labeled(x, y, seq, DriftPhase::Stable)
    }

    fn keyed(&mut self, key: u64) -> KeyedBatch {
        KeyedBatch { key, batch: self.batch() }
    }
}

/// First key at/after `start` routing to `target` under `n` shards.
fn key_for_shard(target: usize, n: usize, start: u64) -> u64 {
    (start..start + 1024)
        .find(|k| shard_for(*k, n) == target)
        .expect("1024 consecutive keys cover every shard")
}

#[test]
fn watchdog_detects_and_recovers_both_stall_flavors() {
    for livelock in [false, true] {
        let (builder, sink) = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
            .with_config(config())
            .with_queue_depth(16)
            .with_stall_deadline(Duration::from_millis(40))
            .recording();
        let mut sup = builder.build_supervised().expect("valid configuration");
        let mut feed = Feed::new(7);
        for _ in 0..3 {
            sup.feed_prequential(feed.batch()).expect("healthy");
        }
        sup.inject(Fault::Stall { duration: Duration::from_secs(30), livelock })
            .expect("worker alive");
        // Fed behind the stall: deterministically pending work, so the
        // watchdog has something to declare stalled about.
        sup.feed_prequential(feed.batch()).expect("healthy");
        // Every receive polls the watchdog.
        while sup.stats().worker_stalls < 1 {
            sup.try_recv().expect("recovery within budget");
            std::thread::sleep(Duration::from_micros(200));
        }
        for _ in 0..3 {
            sup.feed_prequential(feed.batch()).expect("recovered worker serves");
        }
        let run = sup.finish().expect("clean finish");
        assert_eq!(run.stats.worker_stalls, 1, "livelock={livelock}");
        assert_eq!(run.stats.restarts, 1, "forced recovery spends the restart budget");
        let events = sink.events();
        let stalled: Vec<_> =
            events.iter().filter(|e| e.kind() == EventKind::WorkerStalled).collect();
        let recovered: Vec<_> =
            events.iter().filter(|e| e.kind() == EventKind::WorkerRecovered).collect();
        assert_eq!(stalled.len(), 1, "livelock={livelock}: {events:?}");
        assert_eq!(recovered.len(), 1, "livelock={livelock}");
        if let TelemetryEvent::WorkerStalled { stage, .. } = stalled[0] {
            assert_eq!(stage, &"chaos-stall");
        }
    }
}

#[test]
fn slow_but_progressing_worker_is_never_declared_stalled() {
    // Train and checkpoint-persist both slowed to a crawl — every step
    // still lands a heartbeat, so however far behind the worker falls,
    // the watchdog must stay quiet. This is the paper's slow-disk
    // checkpoint-cadence case: backoff, not a kill.
    let mut sup = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_queue_depth(16)
        .with_checkpoint_every(4)
        .with_stall_deadline(Duration::from_millis(120))
        .build_supervised()
        .expect("valid configuration");
    sup.inject(Fault::SlowTrain(Duration::from_millis(15))).expect("slow train");
    sup.inject(Fault::SlowDisk(Duration::from_millis(25))).expect("slow disk");
    let mut feed = Feed::new(11);
    let mut answered = 0;
    for _ in 0..12 {
        sup.feed_prequential(feed.batch()).expect("healthy");
        // Every receive polls the watchdog.
        while sup.try_recv().expect("no recovery needed").is_some() {
            answered += 1;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let run = sup.finish().expect("clean finish");
    assert_eq!(run.stats.worker_stalls, 0, "progressing worker was declared stalled");
    assert_eq!(run.stats.restarts, 0);
    assert_eq!(answered + run.outputs.len(), 12, "every batch answered");
}

#[test]
fn exhausted_shard_fences_and_keys_fail_over() {
    let mut pipeline = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_queue_depth(16)
        .with_max_restarts(0)
        .admission(lossless_admission())
        .shards(2)
        .build_sharded()
        .expect("valid configuration");
    let mut feed = Feed::new(23);
    let victim = 0usize;
    let victim_key = key_for_shard(victim, 2, 0);
    let survivor_key = key_for_shard(1, 2, 0);
    for _ in 0..2 {
        pipeline.feed_prequential(feed.keyed(victim_key)).expect("healthy");
        pipeline.feed_prequential(feed.keyed(survivor_key)).expect("healthy");
    }
    pipeline.barrier().expect("healthy shards");
    let shared_before = pipeline.shared().len();

    // Zero restart budget: the first panic exhausts it. The error must
    // not surface — the shard fences and the triggering batch comes back
    // as a typed, retryable shed.
    pipeline.inject(victim, Fault::Panic).expect("injection accepted");
    let mut fenced_seen = false;
    for _ in 0..400 {
        let (shard, outcome) =
            pipeline.feed_prequential(feed.keyed(victim_key)).expect("fence, not an error");
        let _ = pipeline.try_recv().expect("drain never errors");
        match outcome {
            AdmissionOutcome::Shed(ShedReason::Fenced) => {
                fenced_seen = true;
                break;
            }
            _ => {
                assert!(!pipeline.is_fenced(shard), "non-shed outcome on a fenced shard");
                // The panic command may still be queued; give the worker
                // a moment to die before probing again.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    assert!(fenced_seen, "restart exhaustion never surfaced as a fenced shed");
    assert!(pipeline.is_fenced(victim));
    assert_eq!(pipeline.fenced_shards(), vec![victim]);

    // The fenced shard's keys deterministically fail over to the
    // survivor; healthy-shard keys do not move.
    let rerouted = pipeline.route_for_key(victim_key).expect("survivor exists");
    assert_eq!(rerouted, 1, "victim key must land on the survivor");
    assert_eq!(pipeline.route_for_key(survivor_key).expect("survivor exists"), 1);
    let (shard, outcome) = pipeline.feed_prequential(feed.keyed(victim_key)).expect("rerouted");
    assert_eq!(shard, 1);
    assert!(
        matches!(outcome, AdmissionOutcome::Admitted),
        "rerouted key must be served: {outcome:?}"
    );

    // Fencing isolates the worker, not the knowledge: the shared
    // registry keeps every published entry readable for warm starts.
    assert_eq!(pipeline.shared().len(), shared_before, "fence must not clear the registry");

    pipeline.barrier().expect("surviving shard drains");
    let run = pipeline.finish().expect("fenced runtime still finishes");
    assert_eq!(run.shards.len(), 2);
}

#[test]
fn sharded_liveness_sweep_recovers_a_stalled_shard() {
    let mut pipeline = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_queue_depth(16)
        .with_stall_deadline(Duration::from_millis(40))
        .admission(lossless_admission())
        .shards(2)
        .build_sharded()
        .expect("valid configuration");
    let mut feed = Feed::new(31);
    let key0 = key_for_shard(0, 2, 0);
    let key1 = key_for_shard(1, 2, 0);
    for _ in 0..2 {
        pipeline.feed_prequential(feed.keyed(key0)).expect("healthy");
        pipeline.feed_prequential(feed.keyed(key1)).expect("healthy");
    }
    pipeline.barrier().expect("healthy shards");

    pipeline
        .inject(0, Fault::Stall { duration: Duration::from_secs(30), livelock: false })
        .expect("injection accepted");
    pipeline.feed_prequential(feed.keyed(key0)).expect("healthy");
    // Every shard receive polls that shard's watchdog.
    while pipeline.shard(0).supervisor().stats().worker_stalls == 0 {
        pipeline.try_recv().expect("recovery within budget");
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(pipeline.fenced_shards().is_empty(), "recovery within budget must not fence");

    pipeline.barrier().expect("both shards quiescent");
    let run = pipeline.finish().expect("clean finish");
    assert_eq!(run.shards[0].run.stats.worker_stalls, 1);
    assert_eq!(run.shards[1].run.stats.worker_stalls, 0);
}

#[test]
fn barrier_with_a_stall_deadline_returns_exactly_the_fed_batch() {
    // The barrier's receives poll the watchdog as they take worker output
    // in; that output must surface in the same barrier, not one barrier
    // late behind a shard that looks quiescent.
    let mut pipeline = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_stall_deadline(Duration::from_secs(10))
        .admission(lossless_admission())
        .shards(1)
        .build_sharded()
        .expect("valid configuration");
    let mut feed = Feed::new(53);
    for round in 0..300 {
        let batch = feed.keyed(0);
        let seq = batch.batch.seq;
        pipeline.feed_prequential(batch).expect("healthy");
        let seqs: Vec<u64> =
            pipeline.barrier().expect("healthy shard").iter().map(|(_, out)| out.seq).collect();
        assert_eq!(seqs, vec![seq], "round {round}: the barrier returned {seqs:?}");
    }
    let run = pipeline.finish().expect("clean finish");
    assert_eq!(run.shards[0].run.stats.worker_stalls, 0);
}

#[test]
fn barrier_deadline_names_the_wedged_shard_and_loses_nothing() {
    // No watchdog here: the drain itself must stay bounded and report
    // exactly which shard is wedged.
    let mut pipeline = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_queue_depth(16)
        .admission(lossless_admission())
        .shards(2)
        .build_sharded()
        .expect("valid configuration");
    let mut feed = Feed::new(43);
    let key0 = key_for_shard(0, 2, 0);
    let key1 = key_for_shard(1, 2, 0);
    pipeline.feed_prequential(feed.keyed(key0)).expect("healthy");
    pipeline.feed_prequential(feed.keyed(key1)).expect("healthy");
    pipeline.barrier().expect("healthy shards");

    pipeline
        .inject(0, Fault::Stall { duration: Duration::from_millis(400), livelock: false })
        .expect("accepted");
    let stalled = feed.keyed(key0);
    let stalled_seq = stalled.batch.seq;
    pipeline.feed_prequential(stalled).expect("healthy");

    let err = pipeline.barrier_deadline(Duration::from_millis(50));
    match err {
        Err(FreewayError::DrainTimeout { shards }) => {
            assert_eq!(shards, vec![0], "exactly the wedged shard is named")
        }
        other => panic!("expected DrainTimeout, got {other:?}"),
    }

    // The stall is finite; once it ends, a plain barrier must deliver
    // the delayed answer — a timed-out drain loses nothing.
    std::thread::sleep(Duration::from_millis(450));
    let outputs = pipeline.barrier().expect("stall over");
    assert!(
        outputs.iter().any(|(shard, out)| *shard == 0 && out.seq == stalled_seq),
        "the batch wedged behind the stall must still be answered: {outputs:?}"
    );
    pipeline.finish().expect("clean finish");
}

/// One runtime tier as [`drive_every_fault`] and [`drive_stranded_answers`]
/// see it: its one fault entry point, a feed that does not wait for the
/// answer, the tier's own drain, and a closed-loop step that feeds one
/// batch and waits for its answer.
trait Tier {
    fn inject(&mut self, fault: Fault);
    fn feed(&mut self, batch: Batch);
    /// Everything the tier answers until it calls itself idle: the seqs
    /// (session-local ones for a service) in delivery order.
    fn drain(&mut self) -> Vec<u64>;
    fn step(&mut self, batch: Batch);
}

/// How long a drain may take before the test calls the answer lost.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

impl Tier for SupervisedPipeline {
    fn inject(&mut self, fault: Fault) {
        SupervisedPipeline::inject(self, fault).expect("fault delivered");
    }

    fn feed(&mut self, batch: Batch) {
        self.feed_prequential(batch).expect("healthy");
    }

    /// Drains the way a barrier does: until nothing is ready and nothing
    /// is in flight.
    fn drain(&mut self) -> Vec<u64> {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut seqs = Vec::new();
        loop {
            match self.try_recv().expect("recovery within budget") {
                Some(out) => seqs.push(out.seq),
                None if self.in_flight() == 0 => return seqs,
                None => {
                    assert!(Instant::now() < deadline, "in flight forever, drained {seqs:?}");
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    fn step(&mut self, batch: Batch) {
        let seq = batch.seq;
        self.feed_prequential(batch).expect("healthy");
        assert_eq!(self.recv().expect("answered").seq, seq);
    }
}

impl Tier for ShardedPipeline {
    fn inject(&mut self, fault: Fault) {
        ShardedPipeline::inject(self, 0, fault).expect("fault delivered");
    }

    fn feed(&mut self, batch: Batch) {
        self.feed_prequential(KeyedBatch { key: 0, batch }).expect("healthy");
    }

    fn drain(&mut self) -> Vec<u64> {
        self.barrier().expect("drained").iter().map(|(_, out)| out.seq).collect()
    }

    fn step(&mut self, batch: Batch) {
        let seq = batch.seq;
        Tier::feed(self, batch);
        assert_eq!(self.drain(), [seq]);
    }
}

/// One session of a 1-shard service.
struct Served {
    handle: ServiceHandle,
    session: ClientSession,
}

impl Tier for Served {
    fn inject(&mut self, fault: Fault) {
        self.handle.inject(0, fault).expect("fault delivered");
    }

    fn feed(&mut self, batch: Batch) {
        self.session.submit_batch(batch, true).expect("admitted");
    }

    /// Polls `try_output` against a deadline, so an answer that never
    /// comes fails the test instead of hanging it.
    fn drain(&mut self) -> Vec<u64> {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut seqs = Vec::new();
        while self.session.in_flight() > 0 {
            match self.session.try_output() {
                Some(out) => seqs.push(out.client_seq),
                None => {
                    assert!(Instant::now() < deadline, "in flight forever, drained {seqs:?}");
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
        seqs
    }

    fn step(&mut self, batch: Batch) {
        self.session.submit_batch(batch, true).expect("admitted");
        let out = self.session.recv_output().expect("answered");
        assert!(matches!(out.outcome, SubmitOutcome::Answered(_)), "{out:?}");
    }
}

/// How long each slow-down lasts: a third of the tiers' stall deadline,
/// so a slowed step is never mistaken for a stall.
const SLOW: Duration = Duration::from_millis(100);

/// A journaling tier (so the slow disk has fsyncs to slow), with the
/// given stall deadline, recording its events.
fn faulted_builder(
    tag: &str,
    stall_deadline: Option<Duration>,
) -> (PipelineBuilder, Arc<RecordingSink>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("freeway-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .journal(JournalConfig::new(dir.join("ingest.wal")))
        .admission(lossless_admission());
    if let Some(deadline) = stall_deadline {
        builder = builder.with_stall_deadline(deadline);
    }
    let (builder, sink) = builder.recording();
    (builder, sink, dir)
}

fn timed_step(tier: &mut impl Tier, feed: &mut Feed) -> Duration {
    let started = Instant::now();
    tier.step(feed.batch());
    started.elapsed()
}

/// Drives every [`Fault`] through `tier`'s one entry point to its effect:
/// a panic restarts the worker, the watchdog recovers a stall in stage
/// `chaos-stall`, and each slow-down slows a step until a zero duration
/// clears it.
fn drive_every_fault(tier: &mut impl Tier, sink: &RecordingSink) {
    let mut feed = Feed::new(61);
    let count = |kind| sink.events().iter().filter(|e| e.kind() == kind).count();
    let synced = || {
        let events = sink.events();
        events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::JournalAppended { synced: true, .. }))
            .count()
    };
    tier.step(feed.batch());
    tier.inject(Fault::Panic);
    tier.step(feed.batch());
    assert_eq!(count(EventKind::WorkerRestarted), 1, "the panic restarts the worker");

    tier.inject(Fault::Stall { duration: Duration::from_secs(30), livelock: false });
    tier.step(feed.batch());
    let stalled: Vec<&str> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::WorkerStalled { stage, .. } => Some(*stage),
            _ => None,
        })
        .collect();
    assert_eq!(stalled, ["chaos-stall"], "the watchdog recovers the stall");

    tier.inject(Fault::SlowTrain(SLOW));
    assert!(timed_step(tier, &mut feed) >= SLOW, "a slow train stage slows the step");
    tier.inject(Fault::SlowTrain(Duration::ZERO));
    assert!(timed_step(tier, &mut feed) < SLOW, "a zero duration clears it");

    // The journal fsyncs every eighth append, so one of eight steps waits
    // on the slow disk. That slow sync doubles the cadence: the next
    // sixteen steps sync again, on the cleared disk.
    tier.inject(Fault::SlowDisk(SLOW));
    let slowest = (0..8).map(|_| timed_step(tier, &mut feed)).max();
    assert!(slowest >= Some(SLOW), "a slow disk slows the synced step: {slowest:?}");
    tier.inject(Fault::SlowDisk(Duration::ZERO));
    let before = synced();
    let slowest = (0..16).map(|_| timed_step(tier, &mut feed)).max();
    assert!(slowest < Some(SLOW), "a zero duration clears it: {slowest:?}");
    assert!(synced() > before, "a sync ran on the cleared disk");
}

#[test]
fn every_fault_reaches_the_supervised_worker() {
    let (builder, sink, dir) = faulted_builder("supervised", Some(3 * SLOW));
    let mut sup = builder.build_supervised().expect("valid configuration");
    drive_every_fault(&mut sup, &sink);
    sup.finish().expect("clean finish");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_fault_reaches_a_shards_worker() {
    let (builder, sink, dir) = faulted_builder("sharded", Some(3 * SLOW));
    let mut pipeline = builder.shards(1).build_sharded().expect("valid configuration");
    drive_every_fault(&mut pipeline, &sink);
    pipeline.finish().expect("clean finish");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_fault_reaches_a_served_shard() {
    let (builder, sink, dir) = faulted_builder("served", Some(3 * SLOW));
    let service = builder.build_service().expect("valid configuration");
    let handle = service.handle();
    let session = handle.open_session(0).expect("service running");
    let mut served = Served { handle, session };
    drive_every_fault(&mut served, &sink);
    drop(served);
    service.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The two ways a journaled crash leaves one answer for the tier's drain.
/// Each is fed behind a 50 ms stall, so the order is deterministic:
/// - a batch queued behind the panic dies with the worker, and the
///   replacement replays it: its answer is owed by a worker that has
///   only just been spawned when the crash is found;
/// - a batch answered just before the panic: the same receive takes its
///   answer in and finds the worker dead, and nothing is in flight after
///   the restart.
///
/// Either way the drain must return exactly that batch.
fn drive_stranded_answers(tier: &mut impl Tier) {
    let mut feed = Feed::new(67);
    let stall = Fault::Stall { duration: Duration::from_millis(50), livelock: false };
    tier.inject(stall);
    tier.inject(Fault::Panic);
    let replayed = feed.batch();
    let seq = replayed.seq;
    tier.feed(replayed);
    assert_eq!(tier.drain(), [seq], "the replayed answer reaches the drain");

    tier.inject(stall);
    let answered = feed.batch();
    let seq = answered.seq;
    tier.feed(answered);
    tier.inject(Fault::Panic);
    // Past the stall, the answer and the crash are both waiting for the
    // first receive of the drain.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(tier.drain(), [seq], "the answer taken in with the crash reaches the drain");
}

#[test]
fn a_journaled_crash_leaves_no_answer_behind_the_supervised_drain() {
    let (builder, sink, dir) = faulted_builder("stranded-supervised", None);
    let mut sup = builder.build_supervised().expect("valid configuration");
    drive_stranded_answers(&mut sup);
    let run = sup.finish().expect("clean finish");
    assert_eq!(run.stats.restarts, 2, "{:?}", run.stats);
    assert_eq!(run.stats.lost_in_flight, 0, "{:?}", run.stats);
    assert_eq!(sink.events().iter().filter(|e| e.kind() == EventKind::WorkerRestarted).count(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journaled_crash_leaves_no_answer_behind_the_sharded_barrier() {
    let (builder, _sink, dir) = faulted_builder("stranded-sharded", None);
    let mut pipeline = builder.shards(1).build_sharded().expect("valid configuration");
    drive_stranded_answers(&mut pipeline);
    let run = pipeline.finish().expect("clean finish");
    assert_eq!(run.shards[0].run.stats.restarts, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journaled_crash_leaves_no_answer_behind_a_served_session() {
    let (builder, _sink, dir) = faulted_builder("stranded-served", None);
    let service = builder.build_service().expect("valid configuration");
    let handle = service.handle();
    let session = handle.open_session(0).expect("service running");
    let mut served = Served { handle, session };
    drive_stranded_answers(&mut served);
    drop(served);
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.run.shards[0].run.stats.restarts, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_round_trips_under_a_stall_deadline_all_return() {
    // The answer a `recv` waits for may land at any point of the receive
    // step, and a step that takes it in must report it: a wait that
    // missed it would wait for a message that never comes, and with
    // nothing owed the watchdog never fires. Two rounds in three pause
    // 0-49 us between feed and recv, which moves the answer's arrival
    // across the receive; every third round sleeps 1 ms, so the answer
    // is already there when the receive begins. The rounds run on a
    // helper thread, so a hang fails the test instead of hanging it.
    const ROUNDS: u64 = 2_000;
    let rounds = std::thread::spawn(|| {
        let mut sup = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
            .with_config(config())
            .with_stall_deadline(Duration::from_secs(10))
            .build_supervised()
            .expect("valid configuration");
        let mut feed = Feed::new(83);
        for round in 0..ROUNDS {
            let batch = feed.batch();
            let seq = batch.seq;
            sup.feed_prequential(batch).expect("healthy");
            if round % 3 == 2 {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                let pause = Instant::now() + Duration::from_micros(round % 50);
                while Instant::now() < pause {
                    std::hint::spin_loop();
                }
            }
            assert_eq!(sup.recv().expect("answered").seq, seq, "round {round}");
        }
        sup.finish().expect("clean finish").stats
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    while !rounds.is_finished() {
        assert!(Instant::now() < deadline, "a closed-loop round trip never returned");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = rounds.join().expect("every round answered");
    assert_eq!(stats.accepted, ROUNDS);
    assert_eq!(stats.worker_stalls, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The watchdog false-positive property: a worker that keeps making
    /// progress — however slow its steps and however sparse the polling —
    /// is never declared stalled, across randomized deadlines.
    #[test]
    fn progressing_worker_never_declared_stalled(
        service in 1u64..50,
        poll in 1u64..20,
        slack in 0u64..100,
        ticks in 200u64..1500,
    ) {
        // A progress observation can lag a completion by one poll; any
        // deadline beyond service + poll is safe. Randomize the slack on
        // top to cover the whole safe region, not one lucky point.
        let deadline = service + 2 * poll + 1 + slack;
        let mut watchdog = WatchdogState::new(deadline);
        let mut epoch = 0u64;
        let mut step = 0u64;
        for now in 0..ticks {
            step += 1;
            if step >= service {
                step = 0;
                epoch += 1;
            }
            if now % poll == 0 {
                prop_assert!(
                    !watchdog.observe(now, epoch, 1),
                    "false positive at tick {now} (service {service}, poll {poll}, \
                     deadline {deadline})"
                );
            }
        }
    }

    /// The complement: pending work with a frozen heartbeat is declared
    /// stalled within one poll period past the deadline — detection
    /// latency is bounded, not best-effort.
    #[test]
    fn frozen_worker_is_declared_within_deadline_plus_poll(
        deadline in 1u64..200,
        poll in 1u64..20,
    ) {
        let mut watchdog = WatchdogState::new(deadline);
        prop_assert!(!watchdog.observe(0, 0, 1), "priming observation never fires");
        let mut fired_at = None;
        let mut now = poll;
        while now <= deadline + 2 * poll {
            if watchdog.observe(now, 0, 1) {
                fired_at = Some(now);
                break;
            }
            now += poll;
        }
        let fired = fired_at.expect("a frozen worker must be declared stalled");
        prop_assert!(fired >= deadline, "fired early at {fired} (deadline {deadline})");
        prop_assert!(fired <= deadline + poll, "fired late at {fired} (deadline {deadline})");
    }

    /// Failover routing is a pure, deterministic function of
    /// `(key, failed set)`: same inputs, same shard; the result is always
    /// a survivor; a healthy primary is never moved.
    #[test]
    fn failover_routing_is_deterministic_and_lands_on_survivors(
        key in 0u64..u64::MAX,
        fenced in prop::collection::vec((0u32..2).prop_map(|b| b == 1), 1..16),
    ) {
        let a = failover_shard(key, &fenced);
        let b = failover_shard(key, &fenced);
        prop_assert_eq!(a, b, "same failed set must give the same route");
        match a {
            Some(shard) => {
                prop_assert!(!fenced[shard], "routed to a fenced shard");
                let primary = shard_for(key, fenced.len());
                if !fenced[primary] {
                    prop_assert_eq!(shard, primary, "healthy-shard keys must never move");
                }
            }
            None => prop_assert!(
                fenced.iter().all(|&f| f),
                "None is only legal when every shard is fenced"
            ),
        }
    }

    /// Fencing additional shards never disturbs keys whose primary is
    /// still healthy — reroute churn is confined to the failed shards.
    #[test]
    fn healthy_primary_keys_are_stable_under_growing_failure(
        key in 0u64..u64::MAX,
        n in 1usize..16,
        extra_fences in prop::collection::vec((0u32..2).prop_map(|b| b == 1), 16usize),
    ) {
        let primary = shard_for(key, n);
        let healthy = vec![false; n];
        prop_assert_eq!(failover_shard(key, &healthy), Some(primary));
        // Keep the primary healthy, fence an arbitrary subset of others.
        let mut grown: Vec<bool> = extra_fences.iter().copied().take(n).collect();
        grown[primary] = false;
        prop_assert_eq!(
            failover_shard(key, &grown),
            Some(primary),
            "a healthy primary moved when other shards fenced"
        );
    }
}
