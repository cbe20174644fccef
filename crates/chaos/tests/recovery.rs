//! The acceptance drill for the fault-tolerant runtime (ISSUE §chaos):
//! ~10% poison batches plus a mid-stream worker panic must produce zero
//! process panics, quarantine every poison batch, recover from the last
//! checkpoint, and land within two accuracy points of a fault-free run on
//! the same stream seed.

use freeway_chaos::{paired_accuracy, run_supervised_prequential, ChaosConfig, ChaosStream};
use freeway_core::supervisor::SupervisorConfig;
use freeway_core::telemetry::{EventKind, TelemetryEvent};
use freeway_core::{FreewayConfig, Learner, PipelineBuilder};
use freeway_ml::ModelSpec;
use freeway_streams::datasets::electricity;
use freeway_streams::StreamGenerator;

const STREAM_SEED: u64 = 1717;
const CHAOS_SEED: u64 = 42;
const BATCHES: usize = 128;
const BATCH_SIZE: usize = 128;

/// Chaos runs are observed through the event stream: the builder attaches
/// a recording sink so the assertions below read telemetry, not
/// supervisor internals.
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

fn supervisor() -> SupervisorConfig {
    SupervisorConfig { checkpoint_every_n_batches: 4, ..Default::default() }
}

#[test]
fn chaos_drill_quarantines_poison_and_stays_close_to_fault_free() {
    // Fault-free reference run on the identical stream seed.
    let mut clean = electricity(STREAM_SEED);
    let clean_learner = learner(&clean);
    let reference = run_supervised_prequential(
        &mut clean,
        clean_learner,
        supervisor(),
        BATCHES,
        BATCH_SIZE,
        &[],
    )
    .expect("fault-free run");
    assert_eq!(reference.stats.restarts, 0);
    assert_eq!(reference.stats.quarantined, 0);

    // Chaotic run: ~10% poison plus one worker panic at batch 32.
    let mut chaotic =
        ChaosStream::new(electricity(STREAM_SEED), ChaosConfig::standard(CHAOS_SEED, 0.10));
    let lrn = learner(&chaotic);
    let report =
        run_supervised_prequential(&mut chaotic, lrn, supervisor(), BATCHES, BATCH_SIZE, &[32])
            .expect("faults are survivable, not fatal");

    // The drill itself finishing is the zero-process-panics claim; the
    // only worker panic must be the scheduled one.
    assert_eq!(report.stats.restarts, 1, "{:?}", report.stats);
    assert_eq!(report.stats.worker_panics, 1, "{:?}", report.stats);
    assert!(report.stats.checkpoints_taken >= 1, "recovery had a checkpoint");

    // Every poison batch the injector logged must be in quarantine, and
    // nothing else (clean + dropped-label batches all flow through).
    let expected = chaotic.expected_quarantines_within(BATCHES) as u64;
    assert!(expected > 0, "a 10% rate over 64 batches must inject poison");
    assert_eq!(report.stats.quarantined, expected, "log: {:?}", chaotic.log());
    assert_eq!(report.stats.quarantined, expected);
    assert_eq!(
        report.stats.accepted + report.stats.quarantined,
        BATCHES as u64,
        "every emitted batch is either accepted or quarantined"
    );

    // The event stream tells the same story as the counters: one
    // quarantine event per poison batch, at least one checkpoint, the
    // restore, and exactly one restart — asserted on telemetry, not by
    // reaching into supervisor state.
    assert_eq!(
        count_kind(&report.events, EventKind::BatchQuarantined) as u64,
        expected,
        "one BatchQuarantined event per poison batch"
    );
    assert!(count_kind(&report.events, EventKind::CheckpointWritten) >= 1);
    assert_eq!(count_kind(&report.events, EventKind::WorkerRestarted), 1);
    assert_eq!(count_kind(&report.events, EventKind::CheckpointRestored), 1);
    let quarantined_seqs: Vec<u64> = report
        .events
        .iter()
        .filter(|e| e.kind() == EventKind::BatchQuarantined)
        .filter_map(TelemetryEvent::seq)
        .collect();
    for rec in chaotic.log().iter().filter(|r| r.expect_quarantine && r.emit_index < BATCHES) {
        assert!(
            quarantined_seqs.contains(&rec.seq),
            "poison seq {} ({}) missing from the event stream",
            rec.seq,
            rec.kind
        );
    }

    // Accuracy stays within two points of the fault-free run over the
    // sequence numbers both runs scored.
    let (faulted, fault_free) = paired_accuracy(&report, &reference);
    println!(
        "chaos drill: faulted {faulted:.4} vs fault-free {fault_free:.4} \
         ({} scored / {} quarantined / {} lost in flight)",
        report.scored, report.stats.quarantined, report.stats.lost_in_flight
    );
    assert!(fault_free > 0.5, "reference must beat chance, got {fault_free:.3}");
    assert!(
        (faulted - fault_free).abs() <= 0.02,
        "faulted accuracy {faulted:.4} drifted more than 2 points from fault-free {fault_free:.4}"
    );
}

#[test]
fn journaled_crash_drill_transcript_is_identical_to_fault_free() {
    use freeway_core::JournalConfig;

    let dir = std::env::temp_dir().join(format!("freeway-recovery-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Fault-free reference: same stream, no panic, no journal.
    let mut clean = electricity(STREAM_SEED ^ 0xD1CE);
    let clean_learner = learner(&clean);
    let reference =
        run_supervised_prequential(&mut clean, clean_learner, supervisor(), 60, BATCH_SIZE, &[])
            .expect("fault-free run");

    // Journaled run with two worker panics: each takes the batch fed
    // behind it down with the worker, and replay recovers both.
    let mut stream = electricity(STREAM_SEED ^ 0xD1CE);
    let lrn = learner(&stream);
    let journaled = SupervisorConfig {
        journal: Some(JournalConfig::new(dir.join("ingest.wal"))),
        ..supervisor()
    };
    let report = run_supervised_prequential(&mut stream, lrn, journaled, 60, BATCH_SIZE, &[20, 40])
        .expect("journaled crashes are survivable");

    assert_eq!(report.stats.restarts, 2, "{:?}", report.stats);
    assert_eq!(report.stats.lost_in_flight, 0, "replay recovers all in-flight: {:?}", report.stats);
    assert!(report.stats.replayed > 0, "{:?}", report.stats);
    let journal = report.journal.expect("journal stats present");
    assert_eq!(journal.appended, 60, "every accepted batch journaled");

    // Effectively-once: the crashed run delivered exactly the outputs of
    // the fault-free run — same seqs, byte-identical predictions, no
    // duplicates (a replayed-twice batch would differ or double up).
    assert_eq!(report.transcript.len(), 60);
    assert_eq!(report.transcript, reference.transcript, "transcripts diverged");
    assert_eq!(report.per_seq, reference.per_seq);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_recovery_restores_tail_accuracy_after_panic() {
    let mut stream = electricity(STREAM_SEED ^ 0xBEEF);
    let lrn = learner(&stream);
    let report = run_supervised_prequential(&mut stream, lrn, supervisor(), 60, BATCH_SIZE, &[30])
        .expect("panic mid-stream is survivable");
    assert_eq!(report.stats.restarts, 1);
    // Restart observability: the event stream carries the restart and the
    // checkpoint restore that preceded it.
    assert_eq!(count_kind(&report.events, EventKind::WorkerRestarted), 1);
    assert_eq!(count_kind(&report.events, EventKind::CheckpointRestored), 1);
    let tail = report.tail_accuracy(35);
    println!("recovery: overall {:.4}, tail-after-restart {tail:.4}", report.accuracy());
    assert!(
        tail > 0.8,
        "checkpoint-restored pipeline should keep scoring, tail accuracy was {tail:.4}"
    );
}
