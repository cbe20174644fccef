//! Serving-facade acceptance tests (ISSUE §serving):
//!
//! * Session semantics: each keyed session receives exactly its own
//!   outputs, in submission order, with both sequence spaces intact.
//! * Shutdown semantics: submitting into a shut-down service surfaces
//!   [`ServeError::Disconnected`] and hands the batch back.
//! * The concurrency oracle (proptest): M free-running session threads
//!   interleave nondeterministically, yet replaying the recorded
//!   admitted order serially through an identically built pipeline
//!   reproduces every per-key transcript exactly. Concurrency changes
//!   *interleaving*, never *answers*.
//! * Wake-ups: with no stall deadline the router parks with no timer, so
//!   every path that hands it work must wake it; a missed wake-up hangs
//!   and fails the wall-clock budget.
//! * Restarts: a service restarted over its journal numbers new
//!   submissions above everything it recovered.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use freeway_core::admission::{AdmissionConfig, AdmissionPolicy};
use freeway_core::telemetry::{MetricsSnapshot, Telemetry};
use freeway_core::{
    shard_for, ClientSession, FreewayConfig, JournalConfig, PipelineBuilder, ServeError,
    ServiceConfig, SubmitOutcome,
};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::{Batch, DriftPhase, KeyedBatch};
use proptest::prelude::*;

const DIM: usize = 6;
const CLASSES: usize = 2;
const ROWS: usize = 32;

fn config() -> FreewayConfig {
    FreewayConfig {
        pca_warmup_rows: 64,
        mini_batch: ROWS,
        // The cross-shard registry's reads are timing-dependent by
        // design; the oracle needs per-shard determinism, so the drills
        // here run without it.
        enable_knowledge: false,
        ..Default::default()
    }
}

fn builder(shards: usize) -> PipelineBuilder {
    PipelineBuilder::new(ModelSpec::lr(DIM, CLASSES))
        .with_config(config())
        .shards(shards)
        .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ..Default::default() })
}

/// Deterministic per-key batch stream: same `(seed, key, count)` always
/// yields the same batches, so the oracle can regenerate a session's
/// submissions without sharing state with the session thread.
fn session_batches(seed: u64, key: u64, count: usize) -> Vec<Batch> {
    let mut rng = stream_rng(seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let concept = GmmConcept::random(DIM, CLASSES, 2, 4.0, 0.6, &mut rng);
    (0..count)
        .map(|i| {
            let (x, y) = concept.sample_batch(ROWS, &mut rng);
            Batch::labeled(x, y, i as u64, DriftPhase::Stable)
        })
        .collect()
}

#[test]
fn sessions_receive_only_their_own_outputs_in_order() {
    let service = builder(2).build_service().expect("valid service");
    let handle = service.handle();
    let mut a = handle.open_session(11).expect("service running");
    let mut b = handle.open_session(12).expect("service running");
    let batches_a = session_batches(1, 11, 6);
    let batches_b = session_batches(1, 12, 6);

    // Interleave submissions from one thread; answers must still come
    // back strictly segregated and in per-session order.
    for (ba, bb) in batches_a.iter().zip(&batches_b) {
        a.submit_batch(ba.clone(), true).expect("admitted");
        b.submit_batch(bb.clone(), true).expect("admitted");
    }
    for expect_seq in 0..6u64 {
        for session in [&mut a, &mut b] {
            let out = session.recv_output().expect("output delivered");
            assert_eq!(out.client_seq, expect_seq, "per-session order is submission order");
            assert!(
                matches!(out.outcome, SubmitOutcome::Answered(_)),
                "prequential submissions are answered"
            );
        }
    }
    assert_eq!(a.in_flight(), 0);
    assert_eq!(b.in_flight(), 0);

    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.sessions_opened, 2);
    assert_eq!(report.stats.submitted, 12);
    assert_eq!(report.stats.answered, 12);
}

#[test]
fn training_only_submissions_complete_without_reports() {
    let service = builder(1).build_service().expect("valid service");
    let mut session = service.handle().open_session(5).expect("service running");
    let batches = session_batches(3, 5, 4);
    for b in &batches {
        session
            .submit_train(b.x.clone(), b.labels.clone().expect("labeled source"))
            .expect("admitted");
    }
    for _ in 0..4 {
        let out = session.recv_output().expect("output delivered");
        assert!(matches!(out.outcome, SubmitOutcome::Trained), "train-only yields no report");
    }
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.trained, 4);
    assert_eq!(report.stats.answered, 0);
}

#[test]
fn submitting_after_shutdown_is_disconnected_and_returns_the_batch() {
    let service = builder(1).build_service().expect("valid service");
    let handle = service.handle();
    let mut session = handle.open_session(9).expect("service running");
    let _ = service.shutdown().expect("clean shutdown");

    let batch = session_batches(4, 9, 1).pop().expect("one batch");
    let (returned, err) = session.submit_batch(batch.clone(), true).expect_err("service gone");
    assert!(matches!(err, ServeError::Disconnected), "got {err:?}");
    assert_eq!(returned.x.as_slice(), batch.x.as_slice(), "the batch comes back intact");

    match handle.open_session(10) {
        Err(ServeError::Disconnected) => {}
        Err(err) => panic!("expected Disconnected, got {err:?}"),
        Ok(_) => panic!("the service is gone; opening a session must fail"),
    }
}

#[test]
fn submit_timeout_gives_up_busy_after_the_budget() {
    // A zero budget degrades to try-once; on an idle service that must
    // still admit immediately (the budget bounds waiting, not success).
    let service = builder(1).build_service().expect("valid service");
    let mut session = service.handle().open_session(2).expect("service running");
    let batch = session_batches(5, 2, 1).pop().expect("one batch");
    session
        .submit_timeout(batch, true, Duration::from_millis(50))
        .expect("idle service admits within the budget");
    let out = session.recv_output().expect("output delivered");
    assert!(matches!(out.outcome, SubmitOutcome::Answered(_)));
    let _ = service.shutdown().expect("clean shutdown");
}

/// Runs `scenario` on its own thread and fails unless it finishes within
/// `budget`: a router that misses a wake-up parks forever, and this turns
/// that hang into a test failure.
fn within_budget(budget: Duration, scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(budget) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = runner.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("scenario still running after {budget:?}: the router missed a wake-up")
        }
    }
}

/// Polls `telemetry` until `done` holds for its metrics. Nothing but the
/// router acts on the service meanwhile, so reaching the state proves the
/// router woke up for it.
fn await_metrics(telemetry: &Telemetry, done: impl Fn(&MetricsSnapshot) -> bool) {
    while !done(&telemetry.metrics()) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One closed-loop exchange that must come back answered; returns the
/// global seq and the predictions.
fn answer(session: &mut ClientSession, batch: Batch) -> (u64, Vec<usize>) {
    let client_seq = session.submit_batch(batch, true).expect("admitted");
    let out = session.recv_output().expect("output delivered");
    assert_eq!(out.client_seq, client_seq, "closed loop: the answer is for this submission");
    match out.outcome {
        SubmitOutcome::Answered(report) => (out.global_seq, report.predictions),
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn router_without_a_timer_wakes_on_every_path() {
    within_budget(Duration::from_secs(30), || {
        // No stall deadline: the router parks with no timer at all.
        let (telemetry, _sink) = Telemetry::recording();
        let service =
            builder(2).with_telemetry(telemetry.clone()).build_service().expect("valid service");
        let handle = service.handle();
        let (key_a, key_b) = (21, 22);
        let mut a = handle.open_session(key_a).expect("service running");
        let mut b = handle.open_session(key_b).expect("service running");

        // Submit rings, and every worker output rings.
        let batches_a = session_batches(6, key_a, 101);
        let batches_b = session_batches(6, key_b, 100);
        for (ba, bb) in batches_a.iter().zip(&batches_b) {
            answer(&mut a, ba.clone());
            answer(&mut b, bb.clone());
        }

        // Dropping a session rings with its close notice.
        drop(b);
        await_metrics(&telemetry, |m| m.gauges.get("freeway_serve_sessions_active") == Some(&1.0));

        // The injection rings; the crash is noticed only through the
        // ring the dying worker sends as its thread exits.
        handle.inject_worker_panic(shard_for(key_a, 2)).expect("service running");
        await_metrics(&telemetry, |m| m.counters.get("freeway_worker_restarts_total") == Some(&1));
        // The respawned worker rings too.
        answer(&mut a, batches_a[100].clone());

        // Shutdown rings.
        drop(a);
        let report = service.shutdown().expect("clean shutdown");
        assert_eq!(report.stats.submitted, 201);
        assert_eq!(report.stats.answered, 201);
        let restarts: Vec<usize> =
            report.run.shards.iter().map(|shard| shard.run.stats.restarts).collect();
        assert_eq!(restarts.iter().sum::<usize>(), 1, "exactly one restart: {restarts:?}");
    });
}

#[test]
fn router_pumps_the_watchdog_on_its_timed_wake() {
    within_budget(Duration::from_secs(30), || {
        // A wedged worker rings nothing: only the router's timed wake can
        // notice it. The stall outlasts the budget, so the answer below
        // can only come from forced recovery replaying the journal.
        let dir = std::env::temp_dir().join(format!("freeway-serve-tick-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let service = builder(1)
            .journal(JournalConfig::new(dir.join("ingest.wal")))
            .with_stall_deadline(Duration::from_millis(100))
            .build_service()
            .expect("valid service");
        let handle = service.handle();
        let mut session = handle.open_session(3).expect("service running");
        let batches = session_batches(9, 3, 3);
        answer(&mut session, batches[0].clone());
        handle.inject_worker_stall(0, Duration::from_secs(60), false).expect("service running");
        answer(&mut session, batches[1].clone());
        answer(&mut session, batches[2].clone());
        drop(session);
        let report = service.shutdown().expect("clean shutdown");
        let stats = report.run.shards[0].run.stats;
        assert_eq!(stats.worker_stalls, 1, "{stats:?}");
        assert_eq!(stats.lost_in_flight, 0, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Serves `batches` closed-loop through one session of a 1-shard service
/// journaling into `dir`, injecting a worker panic just before batch
/// `panic_before` when set. Returns each answer's global seq and
/// predictions.
fn journaled_answers(
    dir: &Path,
    batches: &[Batch],
    panic_before: Option<usize>,
) -> Vec<(u64, Vec<usize>)> {
    let service = builder(1)
        .journal(JournalConfig::new(dir.join("ingest.wal")))
        .build_service()
        .expect("valid service");
    let handle = service.handle();
    let mut session = handle.open_session(5).expect("service running");
    let mut answers = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        if panic_before == Some(i) {
            handle.inject_worker_panic(0).expect("service running");
        }
        answers.push(answer(&mut session, batch.clone()));
    }
    drop(session);
    let report = service.shutdown().expect("clean shutdown");
    let stats = report.run.shards[0].run.stats;
    assert_eq!(stats.restarts, usize::from(panic_before.is_some()), "{stats:?}");
    assert_eq!(stats.lost_in_flight, 0, "journal replay recovers the crash: {stats:?}");
    answers
}

fn copy_flat_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("twin dir");
    for entry in std::fs::read_dir(from).expect("journal dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy journal file");
    }
}

#[test]
fn restarted_service_numbers_above_its_recovered_journal() {
    within_budget(Duration::from_secs(30), || {
        let root =
            std::env::temp_dir().join(format!("freeway-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (faulted_dir, twin_dir) = (root.join("faulted"), root.join("twin"));
        std::fs::create_dir_all(&faulted_dir).expect("temp dir");

        // First incarnation: its journal is what the restarts recover.
        let first = journaled_answers(&faulted_dir, &session_batches(7, 5, 10), None);
        let first_max = first.iter().map(|(seq, _)| *seq).max().expect("answers");
        copy_flat_dir(&faulted_dir, &twin_dir);

        // Second incarnation, twice over identical journals: fault-free,
        // and with a worker panic mid-stream.
        let second = session_batches(8, 5, 10);
        let twin = journaled_answers(&twin_dir, &second, None);
        for (seq, _) in &twin {
            assert!(*seq > first_max, "restart restamped seq {seq} at or below {first_max}");
        }
        let faulted = journaled_answers(&faulted_dir, &second, Some(6));
        assert_eq!(faulted, twin, "a crash after the restart replays to the fault-free answers");

        let _ = std::fs::remove_dir_all(&root);
    });
}

/// Service-side run: M session threads submit concurrently, each
/// retrying on Busy, and collect their own transcripts.
fn concurrent_transcripts(
    seed: u64,
    counts: &[usize],
) -> (HashMap<u64, Vec<Vec<usize>>>, Vec<freeway_core::AdmittedRecord>) {
    let service = builder(2)
        .service(ServiceConfig { record_admitted: true, ..Default::default() })
        .build_service()
        .expect("valid service");
    let handle = service.handle();

    let mut threads = Vec::new();
    for (k, &count) in counts.iter().enumerate() {
        let key = k as u64;
        let handle = handle.clone();
        let batches = session_batches(seed, key, count);
        threads.push(std::thread::spawn(move || {
            let mut session = handle.open_session(key).expect("service running");
            let mut transcript = Vec::with_capacity(count);
            for batch in batches {
                let mut pending = batch;
                loop {
                    match session.submit_batch(pending, true) {
                        Ok(_) => break,
                        Err((back, ServeError::Busy { retry_after_hint })) => {
                            std::thread::sleep(retry_after_hint);
                            pending = back;
                        }
                        Err((_, err)) => panic!("unexpected submit failure: {err:?}"),
                    }
                }
            }
            for _ in 0..count {
                let out = session.recv_output().expect("output delivered");
                assert_eq!(
                    out.client_seq,
                    transcript.len() as u64,
                    "outputs arrive in submission order"
                );
                match out.outcome {
                    SubmitOutcome::Answered(report) => transcript.push(report.predictions),
                    other => panic!("expected an answer, got {other:?}"),
                }
            }
            (key, transcript)
        }));
    }
    let mut by_key = HashMap::new();
    for t in threads {
        let (key, transcript) = t.join().expect("session thread completed");
        by_key.insert(key, transcript);
    }
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.shed, 0, "Block admission never sheds");
    assert_eq!(report.stats.quarantined, 0, "clean batches never quarantine");
    (by_key, report.admitted_order.expect("record_admitted was set"))
}

/// Oracle: replay the recorded admitted order serially through an
/// identically built (non-serving) sharded pipeline.
fn oracle_transcripts(
    seed: u64,
    counts: &[usize],
    admitted: &[freeway_core::AdmittedRecord],
) -> HashMap<u64, Vec<Vec<usize>>> {
    let mut pipeline = builder(2).build_sharded().expect("valid pipeline");
    let batches: HashMap<u64, Vec<Batch>> = counts
        .iter()
        .enumerate()
        .map(|(k, &count)| (k as u64, session_batches(seed, k as u64, count)))
        .collect();
    let mut owner: HashMap<u64, (u64, u64)> = HashMap::new();
    for rec in admitted {
        let mut batch = batches[&rec.key][rec.client_seq as usize].clone();
        batch.seq = rec.global_seq;
        owner.insert(rec.global_seq, (rec.key, rec.client_seq));
        pipeline
            .feed_prequential(KeyedBatch { key: rec.key, batch })
            .expect("oracle feed admitted");
    }
    let mut transcripts: HashMap<u64, Vec<(u64, Vec<usize>)>> = HashMap::new();
    for (_, out) in pipeline.barrier().expect("oracle barrier") {
        let (key, client_seq) = owner[&out.seq];
        let report = out.report.expect("prequential reports");
        transcripts.entry(key).or_default().push((client_seq, report.predictions));
    }
    let _ = pipeline.finish().expect("clean oracle shutdown");
    transcripts
        .into_iter()
        .map(|(key, mut entries)| {
            entries.sort_by_key(|(client_seq, _)| *client_seq);
            (key, entries.into_iter().map(|(_, p)| p).collect())
        })
        .collect()
}

proptest! {
    // Each case spins up a service (2 shards + router) plus an oracle
    // pipeline; a handful of cases is plenty, and keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_sessions_match_the_serialized_oracle(
        seed in 0u64..u64::MAX,
        counts in prop::collection::vec(3usize..9, 2..5),
    ) {
        let (served, admitted) = concurrent_transcripts(seed, &counts);
        prop_assert_eq!(
            admitted.len(),
            counts.iter().sum::<usize>(),
            "every submission was admitted exactly once"
        );
        let oracle = oracle_transcripts(seed, &counts, &admitted);
        prop_assert_eq!(
            served, oracle,
            "concurrent interleaving must not change any per-key transcript"
        );
    }
}
