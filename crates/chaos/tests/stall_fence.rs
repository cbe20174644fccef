//! Liveness acceptance drills (ISSUE §liveness):
//!
//! * A wedged worker (hang or livelock) is detected by the watchdog,
//!   forcibly recovered through checkpoint-restore + journal-replay, and
//!   with a journal the delivered transcript is byte-identical to a
//!   fault-free run — forced recovery is effectively-once too.
//! * The virtual-time stall simulation is deterministic and never fires
//!   on a progressing worker.
//! * At the serving facade, a shard that exhausts its restart budget is
//!   fenced, its clients get typed retryable `Shed("fenced")` notices for
//!   stranded work, and fresh traffic on the same keys fails over to a
//!   surviving shard without tearing the service down.

use std::time::Duration;

use freeway_chaos::{
    paired_accuracy, run_stall_prequential, simulate_stall, SimStallConfig, StallSpec,
};
use freeway_core::admission::{AdmissionConfig, AdmissionPolicy};
use freeway_core::supervisor::SupervisorConfig;
use freeway_core::telemetry::{EventKind, TelemetryEvent};
use freeway_core::{
    shard_for, FreewayConfig, JournalConfig, Learner, PipelineBuilder, SubmitOutcome,
};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::datasets::electricity;
use freeway_streams::{Batch, DriftPhase, StreamGenerator};

const STREAM_SEED: u64 = 0x57A1;
const BATCH_SIZE: usize = 128;

fn learner(stream: &dyn StreamGenerator) -> Learner {
    let (builder, _sink) =
        PipelineBuilder::new(ModelSpec::lr(stream.num_features(), stream.num_classes()))
            .recording();
    builder
        .with_config(FreewayConfig {
            pca_warmup_rows: 256,
            mini_batch: BATCH_SIZE,
            ..Default::default()
        })
        .build_learner()
        .expect("valid configuration")
}

fn count_kind(events: &[TelemetryEvent], kind: EventKind) -> usize {
    events.iter().filter(|e| e.kind() == kind).count()
}

/// Hang and livelock drills share everything but the stall flavor: the
/// watchdog fires on missing progress, recovery replays the journaled
/// in-flight batch, and the transcript matches fault-free exactly.
fn stall_drill(livelock: bool) {
    let kind = if livelock { "livelock" } else { "hang" };
    let dir =
        std::env::temp_dir().join(format!("freeway-stall-journal-{}-{kind}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Fault-free reference on the identical stream seed — no stalls, no
    // watchdog, no journal.
    let mut clean = electricity(STREAM_SEED);
    let clean_learner = learner(&clean);
    let base = SupervisorConfig { checkpoint_every_n_batches: 4, ..Default::default() };
    let reference =
        run_stall_prequential(&mut clean, clean_learner, base.clone(), 60, BATCH_SIZE, &[])
            .expect("fault-free run");
    assert_eq!(reference.stats.worker_stalls, 0);
    assert_eq!(reference.stats.restarts, 0);

    // Stalled run: the worker wedges at batch 24 for far longer than the
    // deadline; only the watchdog can end it.
    let mut stream = electricity(STREAM_SEED);
    let lrn = learner(&stream);
    let config = SupervisorConfig {
        stall_deadline: Some(Duration::from_millis(60)),
        journal: Some(JournalConfig::new(dir.join("ingest.wal"))),
        ..base
    };
    let stalls = [StallSpec { at: 24, duration: Duration::from_secs(30), livelock }];
    let report = run_stall_prequential(&mut stream, lrn, config, 60, BATCH_SIZE, &stalls)
        .expect("stalls are survivable, not fatal");

    assert_eq!(report.stats.worker_stalls, 1, "{kind}: {:?}", report.stats);
    assert_eq!(report.stats.restarts, 1, "{kind}: forced recovery uses the restart budget");
    assert_eq!(report.stats.lost_in_flight, 0, "{kind}: journal replay recovers the in-flight");
    assert!(report.stats.checkpoints_taken >= 1);
    assert_eq!(count_kind(&report.events, EventKind::WorkerStalled), 1, "{kind}");
    assert_eq!(count_kind(&report.events, EventKind::WorkerRecovered), 1, "{kind}");

    // Effectively-once under forced recovery: same seqs, byte-identical
    // predictions, no duplicates.
    assert_eq!(report.transcript.len(), 60, "{kind}");
    assert_eq!(report.transcript, reference.transcript, "{kind}: transcripts diverged");
    let (stalled, fault_free) = paired_accuracy(&report, &reference);
    assert!(
        (stalled - fault_free).abs() <= 0.02,
        "{kind}: stalled accuracy {stalled:.4} drifted from fault-free {fault_free:.4}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_hang_drill_matches_fault_free_transcript() {
    stall_drill(false);
}

#[test]
fn journaled_livelock_drill_matches_fault_free_transcript() {
    stall_drill(true);
}

#[test]
fn stall_simulation_is_deterministic_with_no_false_positives() {
    let config = SimStallConfig {
        ticks: 3_000,
        arrival_every: 4,
        service_ticks: 6,
        poll_every: 5,
        deadline_ticks: 40,
        stalls: vec![(300, 400), (1_200, 350), (2_100, 500)],
    };
    let a = simulate_stall(&config);
    let b = simulate_stall(&config);
    assert_eq!(a.deterministic_json(), b.deterministic_json(), "virtual time is replayable");

    assert_eq!(a.false_positives, 0, "no stall ⇒ no firing: {:?}", a.detections);
    assert_eq!(a.recovered, 3, "every window is caught: {:?}", a.detections);
    assert_eq!(a.detections.len(), 3);
    for (i, det) in a.detections.iter().enumerate() {
        assert_eq!(det.stall, Some(i), "detections land in scheduled order");
    }
    // Latency is bounded by deadline + poll granularity + one in-flight
    // service interval — sparse polling costs latency, never correctness.
    let bound = config.deadline_ticks + 2 * config.poll_every + config.service_ticks;
    assert!(
        a.max_detection_latency <= bound,
        "latency {} exceeds bound {bound}",
        a.max_detection_latency
    );
    assert!(a.processed > 0, "the modeled worker still makes progress between stalls");
}

const DIM: usize = 6;
const CLASSES: usize = 2;
const ROWS: usize = 32;

fn service_batches(seed: u64, key: u64, count: usize) -> Vec<Batch> {
    let mut rng = stream_rng(seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let concept = GmmConcept::random(DIM, CLASSES, 2, 4.0, 0.6, &mut rng);
    (0..count)
        .map(|i| {
            let (x, y) = concept.sample_batch(ROWS, &mut rng);
            Batch::labeled(x, y, i as u64, DriftPhase::Stable)
        })
        .collect()
}

fn key_for_shard(target: usize, shards: usize, start: u64) -> u64 {
    (start..).find(|k| shard_for(*k, shards) == target).expect("some key maps to the shard")
}

#[test]
fn service_fences_dead_shard_and_fails_traffic_over() {
    let service = PipelineBuilder::new(ModelSpec::lr(DIM, CLASSES))
        .with_config(FreewayConfig {
            pca_warmup_rows: 64,
            mini_batch: ROWS,
            enable_knowledge: false,
            ..Default::default()
        })
        .shards(2)
        .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ..Default::default() })
        .with_max_restarts(0)
        .build_service()
        .expect("valid service");
    let handle = service.handle();

    let victim_key = key_for_shard(0, 2, 100);
    let survivor_key = key_for_shard(1, 2, 100);
    let mut victim = handle.open_session(victim_key).expect("service running");
    let mut survivor = handle.open_session(survivor_key).expect("service running");

    // Warm both shards so the fence demonstrably strands *some* state.
    for b in service_batches(7, victim_key, 3) {
        victim.submit_batch(b, true).expect("admitted");
    }
    for b in service_batches(7, survivor_key, 3) {
        survivor.submit_batch(b, true).expect("admitted");
    }
    for _ in 0..3 {
        let out = victim.recv_output().expect("output delivered");
        assert!(matches!(out.outcome, SubmitOutcome::Answered(_)));
        let out = survivor.recv_output().expect("output delivered");
        assert!(matches!(out.outcome, SubmitOutcome::Answered(_)));
    }

    // Kill shard 0's worker with a probe stranded in its queue: a stall
    // holds the worker while the panic and then the probe queue up behind
    // it, so the probe is admitted to the worker that dies. With a zero
    // restart budget the crash exhausts it, the service fences the shard,
    // and the stranded probe comes back as a typed retryable
    // `Shed("fenced")` notice.
    handle.inject_worker_stall(0, Duration::from_millis(200), false).expect("service running");
    handle.inject_worker_panic(0).expect("service running");
    let probe = service_batches(8, victim_key, 1).remove(0);
    victim.submit_batch(probe, true).expect("submission accepted while service lives");
    let out = victim.recv_output().expect("every submission gets a verdict");
    assert!(
        matches!(out.outcome, SubmitOutcome::Shed("fenced")),
        "restart exhaustion must surface as a typed fenced shed, got {:?}",
        out.outcome
    );

    // Failover: fresh traffic on the victim key lands on the survivor.
    for b in service_batches(9, victim_key, 3) {
        victim.submit_batch(b, true).expect("admitted after failover");
        let out = victim.recv_output().expect("output delivered");
        assert!(
            matches!(out.outcome, SubmitOutcome::Answered(_)),
            "rerouted traffic is answered, got {:?}",
            out.outcome
        );
    }

    // The healthy shard never noticed.
    for b in service_batches(10, survivor_key, 2) {
        survivor.submit_batch(b, true).expect("admitted");
        let out = survivor.recv_output().expect("output delivered");
        assert!(matches!(out.outcome, SubmitOutcome::Answered(_)));
    }

    assert_eq!(victim.in_flight(), 0);
    assert_eq!(survivor.in_flight(), 0);
    let report = service.shutdown().expect("a fenced shard does not break shutdown");
    assert!(report.stats.shed >= 1, "stranded work was shed with a verdict: {:?}", report.stats);
}
