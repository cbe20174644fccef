//! Fault-injection drill for the supervised runtime.
//!
//! Wraps the simulated Electricity stream in a seeded chaos injector
//! (~10% poison: NaN bursts, width corruption, bad labels, duplicates,
//! reorders, dropped labels), schedules a worker panic mid-stream, and
//! drives the checkpointed supervisor over it. Prints the fault log, the
//! recovery counters, the fault-handling event timeline (quarantines,
//! checkpoints, the restart), and the accuracy cost of the chaos versus a
//! fault-free run on the same stream seed.
//!
//! ```sh
//! cargo run --release --example chaos_drill
//! ```
//!
//! With `--journal`, the drill instead exercises the durable ingest
//! journal: the same chaotic stream is run fault-free and with two
//! worker crashes under journaled replay, a 2-shard keyed run takes a
//! single-shard crash, and the deterministic effectively-once evidence
//! (zero lost batches, byte-identical transcripts) is written to
//! `results/JOURNAL_drill.json`:
//!
//! ```sh
//! cargo run --release --example chaos_drill -- --journal
//! ```

use freewayml::chaos::{paired_accuracy, run_supervised_prequential, ChaosConfig, ChaosStream};
use freewayml::core::supervisor::SupervisorConfig;
use freewayml::prelude::*;
use freewayml::streams::datasets::electricity;

fn main() {
    if std::env::args().any(|arg| arg == "--journal") {
        journal_drill();
        return;
    }
    let (stream_seed, chaos_seed) = (1717, 42);
    let (batches, batch_size) = (96, 128);
    let supervisor = SupervisorConfig { checkpoint_every_n_batches: 4, ..Default::default() };
    let learner = |f: usize, c: usize| {
        // The builder attaches a recording sink, so the chaos report comes
        // back with the full fault-handling event stream.
        let (builder, _sink) = PipelineBuilder::new(ModelSpec::lr(f, c)).recording();
        builder
            .with_config(FreewayConfig {
                pca_warmup_rows: 256,
                mini_batch: batch_size,
                ..Default::default()
            })
            .build_learner()
            .expect("valid configuration")
    };

    // Reference: the same stream with no faults and no panic.
    let mut clean = electricity(stream_seed);
    let (f, c) = (clean.num_features(), clean.num_classes());
    let reference = run_supervised_prequential(
        &mut clean,
        learner(f, c),
        supervisor.clone(),
        batches,
        batch_size,
        &[],
    )
    .expect("fault-free run");

    // The drill: ~10% poison plus a worker panic before batch 48.
    let mut chaotic =
        ChaosStream::new(electricity(stream_seed), ChaosConfig::standard(chaos_seed, 0.10));
    let report = run_supervised_prequential(
        &mut chaotic,
        learner(f, c),
        supervisor,
        batches,
        batch_size,
        &[48],
    )
    .expect("chaos is survivable");

    println!("injected faults:");
    for rec in chaotic.log() {
        println!(
            "  batch {:>3} (seq {:>3}): {:<18} -> {}",
            rec.emit_index,
            rec.seq,
            rec.kind.to_string(),
            if rec.expect_quarantine { "quarantined" } else { "flows through" }
        );
    }
    println!("\nfault-handling event timeline:");
    for event in &report.events {
        match event {
            TelemetryEvent::BatchQuarantined { seq, fault } => {
                println!("  seq {seq:>3}: quarantined ({fault})");
            }
            TelemetryEvent::CheckpointWritten { seq, persisted } if *persisted => {
                println!("  seq {seq:>3}: checkpoint persisted");
            }
            TelemetryEvent::CheckpointRestored { seq } => {
                println!("  seq {seq:>3}: checkpoint restored");
            }
            TelemetryEvent::WorkerRestarted { restarts, lost_in_flight } => {
                println!("           worker restart #{restarts} ({lost_in_flight} lost in flight)");
            }
            TelemetryEvent::InferenceDegraded { seq, strategy } => {
                println!("  seq {seq:>3}: degraded inference via {strategy}");
            }
            _ => {}
        }
    }

    let s = report.stats;
    println!(
        "\nsupervisor: {} accepted, {} quarantined, {} worker panic(s), {} restart(s)",
        s.accepted, s.quarantined, s.worker_panics, s.restarts
    );
    println!(
        "checkpoints: {} taken, {} batches lost in flight at crash",
        s.checkpoints_taken, s.lost_in_flight
    );
    let (faulted, fault_free) = paired_accuracy(&report, &reference);
    println!(
        "\nprequential accuracy on common batches: {faulted:.4} under chaos vs {fault_free:.4} fault-free (delta {:+.4})",
        faulted - fault_free
    );
}

/// The journaled crash drill: effectively-once evidence on the plain
/// supervised pipeline and on a 2-shard keyed run with a single-shard
/// panic, written deterministically to `results/JOURNAL_drill.json`.
fn journal_drill() {
    use freewayml::core::admission::{AdmissionConfig, AdmissionPolicy};
    use freewayml::streams::keyed::{InterleavedKeyed, KeyedBatch};
    use std::fmt::Write as _;

    let (stream_seed, chaos_seed) = (1717u64, 42u64);
    let (batches, batch_size) = (96usize, 128usize);
    let panic_at = [24usize, 48];
    let root = std::env::temp_dir().join(format!("freeway-journal-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("plain")).expect("journal dir");
    std::fs::create_dir_all(root.join("shard-clean")).expect("journal dir");
    std::fs::create_dir_all(root.join("shard-faulted")).expect("journal dir");

    let supervisor = SupervisorConfig { checkpoint_every_n_batches: 4, ..Default::default() };
    let learner = |f: usize, c: usize| {
        let (builder, _sink) = PipelineBuilder::new(ModelSpec::lr(f, c)).recording();
        builder
            .with_config(FreewayConfig {
                pca_warmup_rows: 256,
                mini_batch: batch_size,
                ..Default::default()
            })
            .build_learner()
            .expect("valid configuration")
    };

    // Act 1 — plain pipeline. The same chaotic stream twice: once
    // fault-free, once with two worker crashes under journaled replay.
    let mut clean =
        ChaosStream::new(electricity(stream_seed), ChaosConfig::standard(chaos_seed, 0.10));
    let (f, c) = (clean.num_features(), clean.num_classes());
    let reference = run_supervised_prequential(
        &mut clean,
        learner(f, c),
        supervisor.clone(),
        batches,
        batch_size,
        &[],
    )
    .expect("fault-free run");
    let mut chaotic =
        ChaosStream::new(electricity(stream_seed), ChaosConfig::standard(chaos_seed, 0.10));
    let journaled = SupervisorConfig {
        journal: Some(JournalConfig::new(root.join("plain").join("ingest.wal"))),
        ..supervisor
    };
    let report = run_supervised_prequential(
        &mut chaotic,
        learner(f, c),
        journaled,
        batches,
        batch_size,
        &panic_at,
    )
    .expect("journaled crashes are survivable");
    let transcript_match = report.transcript == reference.transcript;
    assert!(transcript_match, "journaled crash transcript diverged from fault-free");
    // Every accepted seq answered (the transcript holds only accepted
    // seqs), and no output delivered twice.
    let accepted = report.stats.accepted as usize;
    let delivered_exactly_once =
        report.transcript.len() == accepted && report.delivered == accepted;
    assert_eq!(report.stats.lost_in_flight, 0, "replay must recover all in-flight batches");
    let journal = report.journal.expect("journal stats");
    let (acc_faulted, acc_fault_free) = paired_accuracy(&report, &reference);
    println!(
        "plain: {} crashes, {} replayed ({} suppressed), {} lost, transcript match: {}",
        report.stats.worker_panics,
        report.stats.replayed,
        report.stats.replay_suppressed,
        report.stats.lost_in_flight,
        transcript_match
    );

    // Act 2 — 2-shard keyed run, single-shard panic. One batch in
    // flight at a time (barrier per batch) keeps it deterministic.
    let (rounds, panic_round) = (40usize, 20usize);
    let sharded_drill = |panic_shard: Option<usize>, dir: &std::path::Path| {
        let mut sharded = PipelineBuilder::new(ModelSpec::lr(6, 2))
            .with_config(FreewayConfig {
                pca_warmup_rows: 64,
                mini_batch: 64,
                ..Default::default()
            })
            .with_queue_depth(32)
            .with_checkpoint_every(4)
            .journal(JournalConfig::new(dir.join("ingest.wal")))
            .admission(AdmissionConfig {
                policy: AdmissionPolicy::Block,
                ladder: None,
                ..Default::default()
            })
            .shards(2)
            .build_sharded()
            .expect("valid configuration");
        let key0 = (0u64..1024).find(|k| shard_for(*k, 2) == 0).expect("shard 0 key");
        let key1 = (0u64..1024).find(|k| shard_for(*k, 2) == 1).expect("shard 1 key");
        let mut gen = InterleavedKeyed::uniform(6, 2, 2, 2024);
        let mut transcripts: Vec<Vec<(u64, Vec<usize>)>> = vec![Vec::new(), Vec::new()];
        for round in 0..rounds {
            for (tenant, &key) in [key0, key1].iter().enumerate() {
                let batch = gen.next_keyed(64).batch;
                if panic_shard == Some(tenant) && round == panic_round {
                    sharded.inject_worker_panic(tenant).expect("panic injection");
                }
                let (shard, _) =
                    sharded.feed_prequential(KeyedBatch { key, batch }).expect("router alive");
                assert_eq!(shard, tenant, "tenant keys pin their shards");
                for (s, out) in sharded.barrier().expect("shards recover") {
                    if let Some(rep) = out.report {
                        transcripts[s].push((out.seq, rep.predictions.clone()));
                    }
                }
            }
        }
        (transcripts, sharded)
    };
    let (shard_clean, _clean_pipe) = sharded_drill(None, &root.join("shard-clean"));
    let (shard_faulted, mut faulted_pipe) = sharded_drill(Some(0), &root.join("shard-faulted"));
    let stats0 = faulted_pipe.shard(0).supervisor().stats();
    let stats1 = faulted_pipe.shard(1).supervisor().stats();
    let victim_match = shard_clean[0] == shard_faulted[0];
    let healthy_match = shard_clean[1] == shard_faulted[1];
    assert!(victim_match, "victim shard transcript diverged under journaled replay");
    assert!(healthy_match, "healthy shard transcript diverged");
    assert_eq!(stats0.lost_in_flight + stats1.lost_in_flight, 0, "no shard lost a batch");
    let admitted = faulted_pipe.finish().expect("clean finish").admission().admitted;
    println!(
        "sharded: shard 0 crashed ({} replayed, {} lost), shard 1 untouched; \
         victim transcript match: {victim_match}, healthy: {healthy_match}",
        stats0.replayed, stats0.lost_in_flight
    );

    // Deterministic artifact: counters and match booleans only — sync
    // counts are wall-clock dependent (slow-sync backoff) and excluded.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"batches\": {batches},");
    let _ = writeln!(json, "  \"panic_at\": [{}, {}],", panic_at[0], panic_at[1]);
    let _ = writeln!(json, "  \"plain\": {{");
    let _ = writeln!(json, "    \"accepted\": {},", report.stats.accepted);
    let _ = writeln!(json, "    \"quarantined\": {},", report.stats.quarantined);
    let _ = writeln!(json, "    \"worker_panics\": {},", report.stats.worker_panics);
    let _ = writeln!(json, "    \"restarts\": {},", report.stats.restarts);
    // Exact replay counts race with dead-worker detection (the batch fed
    // into a crash dies in flight or reaches the restarted worker,
    // depending on scheduling), so the artifact records the invariants
    // that hold either way; exact counts are asserted in the
    // deterministic supervisor tests.
    let _ = writeln!(json, "    \"replay_exercised\": {},", report.stats.replayed > 0);
    let _ = writeln!(json, "    \"delivered_exactly_once\": {delivered_exactly_once},");
    let _ = writeln!(json, "    \"lost_in_flight\": {},", report.stats.lost_in_flight);
    let _ = writeln!(json, "    \"journal_appended\": {},", journal.appended);
    let _ = writeln!(json, "    \"journal_recovered_on_open\": {},", journal.recovered_records);
    let _ = writeln!(json, "    \"journal_truncated_segments\": {},", journal.truncated_segments);
    let _ = writeln!(json, "    \"transcript_len\": {},", report.transcript.len());
    let _ = writeln!(json, "    \"transcript_matches_fault_free\": {transcript_match},");
    let _ = writeln!(json, "    \"accuracy_faulted\": {acc_faulted:.6},");
    let _ = writeln!(json, "    \"accuracy_fault_free\": {acc_fault_free:.6}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sharded\": {{");
    let _ = writeln!(json, "    \"rounds\": {rounds},");
    let _ = writeln!(json, "    \"panic_shard\": 0,");
    let _ = writeln!(json, "    \"panic_round\": {panic_round},");
    let _ = writeln!(json, "    \"restarts\": [{}, {}],", stats0.restarts, stats1.restarts);
    // The victim's exact replay count races with dead-worker detection
    // (the batch fed into the crash may be journaled before or after the
    // restart is noticed), so the artifact records the invariant instead.
    let _ = writeln!(
        json,
        "    \"replay_confined_to_victim\": {},",
        stats0.replayed > 0 && stats1.replayed == 0
    );
    let _ = writeln!(
        json,
        "    \"lost_in_flight\": [{}, {}],",
        stats0.lost_in_flight, stats1.lost_in_flight
    );
    let _ = writeln!(json, "    \"victim_transcript_matches\": {victim_match},");
    let _ = writeln!(json, "    \"healthy_transcript_matches\": {healthy_match},");
    let _ = writeln!(json, "    \"admitted\": {admitted}");
    let _ = writeln!(json, "  }}");
    json.push('}');
    json.push('\n');

    let out = std::path::Path::new("results").join("JOURNAL_drill.json");
    std::fs::create_dir_all("results").expect("results directory");
    std::fs::write(&out, json).expect("write drill artifact");
    let _ = std::fs::remove_dir_all(&root);
    println!("\nwrote {}", out.display());
}
