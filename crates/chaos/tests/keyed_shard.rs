//! Sharded chaos drill (ISSUE §sharding + §journal): a worker panic on
//! one shard restarts only that shard — the other shards and the
//! cross-shard knowledge registry keep serving, the healthy shard's
//! transcript is byte-identical to a fault-free run of the same keyed
//! stream, and with the per-shard ingest journal enabled the *victim*
//! shard's transcript is too (replay recovers its in-flight batch).

use freeway_core::{
    shard_for, AdmissionConfig, AdmissionPolicy, Fault, FreewayConfig, JournalConfig,
    PipelineBuilder, ShardedPipeline,
};
use freeway_ml::ModelSpec;
use freeway_streams::keyed::{InterleavedKeyed, KeyedBatch};

const DIM: usize = 6;
const BATCH_SIZE: usize = 64;
const ROUNDS: usize = 40;
const PANIC_ROUND: usize = 20;

/// `(seq, predictions, strategy tag, severity bits)` rows per shard.
type Transcript = Vec<(u64, Vec<usize>, &'static str, u64)>;

fn build(journal_dir: &std::path::Path) -> ShardedPipeline {
    PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(FreewayConfig {
            pca_warmup_rows: 64,
            mini_batch: BATCH_SIZE,
            ..Default::default()
        })
        .with_queue_depth(32)
        .with_checkpoint_every(4)
        // Per-shard journals (`ingest.wal.shard{0,1}`): a crash on one
        // shard replays only that shard's admitted batches.
        .journal(JournalConfig::new(journal_dir.join("ingest.wal")))
        .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ladder: false })
        .shards(2)
        .build_sharded()
        .expect("valid configuration")
}

/// Keys guaranteed to land one tenant on each shard.
fn tenant_keys() -> [u64; 2] {
    let key0 = (0u64..1024).find(|k| shard_for(*k, 2) == 0).expect("keys cover shard 0");
    let key1 = (0u64..1024).find(|k| shard_for(*k, 2) == 1).expect("keys cover shard 1");
    [key0, key1]
}

/// Drives the same interleaved keyed stream through a 2-shard pipeline,
/// one batch in flight at a time (barrier per batch) so the run — and
/// the registry state every lookup observes — is fully deterministic.
/// `panic_shard` injects a worker panic before that shard's batch in
/// round [`PANIC_ROUND`].
fn drill(panic_shard: Option<usize>, label: &str) -> (Vec<Transcript>, ShardedPipeline) {
    let dir =
        std::env::temp_dir().join(format!("freeway-keyed-shard-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let keys = tenant_keys();
    let mut gen = InterleavedKeyed::uniform(DIM, 2, 2, 2024);
    let mut sharded = build(&dir);
    let mut transcripts: Vec<Transcript> = vec![Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        for (tenant, &key) in keys.iter().enumerate() {
            let batch = gen.next_keyed(BATCH_SIZE).batch;
            let kb = KeyedBatch { key, batch };
            if panic_shard == Some(tenant) && round == PANIC_ROUND {
                sharded.inject(tenant, Fault::Panic).expect("panic injection");
            }
            let (shard, _) = sharded.feed_prequential(kb).expect("router alive");
            assert_eq!(shard, tenant, "tenant keys pin their shards");
            for (s, out) in sharded.barrier().expect("shards recover") {
                if let Some(report) = out.report {
                    transcripts[s].push((
                        out.seq,
                        report.predictions.clone(),
                        report.strategy().tag(),
                        report.severity().to_bits(),
                    ));
                }
            }
        }
    }
    (transcripts, sharded)
}

#[test]
fn shard_panic_restarts_only_that_shard() {
    let (clean, clean_pipe) = drill(None, "clean");
    let (faulted, mut faulted_pipe) = drill(Some(0), "faulted");

    // Only shard 0 crashed and restarted; shard 1 never did — and only
    // shard 0's journal replayed.
    let stats0 = faulted_pipe.shard(0).supervisor().stats();
    let stats1 = faulted_pipe.shard(1).supervisor().stats();
    assert_eq!(stats0.worker_panics, 1, "injected panic fired");
    assert_eq!(stats0.restarts, 1, "victim shard restarted once");
    assert_eq!(stats1.worker_panics, 0, "healthy shard untouched");
    assert_eq!(stats1.restarts, 0, "healthy shard never restarted");
    assert!(stats0.replayed > 0, "victim shard recovered by replay: {stats0:?}");
    assert_eq!(stats1.replayed, 0, "healthy shard's journal never replayed");
    assert_eq!(stats0.lost_in_flight, 0, "replay recovered the in-flight batch: {stats0:?}");

    // The healthy shard's transcript is byte-identical to the fault-free
    // run: the blast radius of a shard crash is that shard alone.
    assert_eq!(clean[1], faulted[1], "healthy shard unaffected by the crash");
    assert_eq!(faulted[1].len(), ROUNDS, "healthy shard answered every batch");

    // Under journaled replay the *victim* shard's transcript is exact
    // too: the batch in flight at the crash is replayed, deduplicated by
    // seq, and scored identically — effectively-once, not at-most-once.
    assert_eq!(clean[0], faulted[0], "victim shard transcript identical under replay");
    assert_eq!(faulted[0].len(), ROUNDS, "victim shard answered every batch exactly once");
    assert!(faulted[0].iter().any(|(seq, ..)| *seq > (PANIC_ROUND as u64) * 2));

    // The registry survived: the healthy shard's published entries are
    // identical to the fault-free run's.
    let shard1_entries = |pipe: &ShardedPipeline| -> Vec<(u64, Vec<f64>)> {
        let (_, view) = pipe.shared().view();
        view.iter().filter(|e| e.shard == 1).map(|e| (e.seq, e.fingerprint.clone())).collect()
    };
    let clean_entries = shard1_entries(&clean_pipe);
    assert!(!clean_entries.is_empty(), "healthy shard published knowledge");
    assert_eq!(clean_entries, shard1_entries(&faulted_pipe), "registry unaffected by the crash");

    let run = faulted_pipe.finish().expect("clean finish after recovery");
    assert_eq!(run.admission().admitted, (ROUNDS * 2) as u64);
    drop(clean_pipe);
    for label in ["clean", "faulted"] {
        let _ = std::fs::remove_dir_all(
            std::env::temp_dir()
                .join(format!("freeway-keyed-shard-{}-{label}", std::process::id())),
        );
    }
}
