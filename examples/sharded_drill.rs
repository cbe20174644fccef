//! Sharded multi-tenant drill: keyed ingest, a shard crash, and
//! registry-driven cross-shard knowledge reuse.
//!
//! Three acts on a 2-shard [`ShardedPipeline`]:
//!
//! 1. **Warmup** — two tenants (hash-pinned to different shards) each
//!    learn their own concept; window completions publish into the
//!    cross-shard knowledge registry.
//! 2. **Crash** — shard 0's worker is made to panic mid-stream. Only
//!    that shard restarts (from its checkpoint); shard 1 and the
//!    registry never notice.
//! 3. **Jump** — shard 1's tenant lands on shard 0's concept, which it
//!    has never seen. Pattern-C lookup finds shard 0's published entry
//!    and serves the shift as knowledge reuse instead of relearning.
//!
//! A fleet pass then routes 1200 interleaved keyed streams through the
//! same runtime. Every batch runs to a barrier, so the drill — and the
//! report written to `results/SHARDED_drill.json` — is byte-identical
//! across runs on the same seed.
//!
//! ```sh
//! cargo run --release --example sharded_drill
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use freewayml::core::admission::AdmissionConfig;
use freewayml::core::knowledge::SharedEntry;
use freewayml::prelude::*;
use freewayml::streams::concept::{stream_rng, GmmConcept};

const DIM: usize = 6;
const BATCH_SIZE: usize = 64;
const WARM_ROUNDS: usize = 25;
const JUMP_ROUNDS: usize = 6;
const FLEET_KEYS: usize = 1200;

fn build(shards: usize) -> ShardedPipeline {
    PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(FreewayConfig {
            pca_warmup_rows: 64,
            mini_batch: BATCH_SIZE,
            asw_max_batches: 3,
            beta: 0.9,
            ..Default::default()
        })
        .with_queue_depth(32)
        .with_checkpoint_every(4)
        .admission(AdmissionConfig {
            policy: freewayml::core::admission::AdmissionPolicy::Block,
            ladder: false,
        })
        .shards(shards)
        .build_sharded()
        .expect("valid configuration")
}

/// First key at/after `start` routing to `target` under two shards.
fn key_for_shard(target: usize) -> u64 {
    (0u64..1024).find(|k| shard_for(*k, 2) == target).expect("keys cover both shards")
}

fn main() {
    let mut rng = stream_rng(12);
    let home = GmmConcept::random(DIM, 2, 2, 4.0, 0.6, &mut rng);
    let mut away = home.clone();
    away.translate(&[40.0; DIM]);

    let mut pipeline = build(2);
    let key_a = key_for_shard(0);
    let key_b = key_for_shard(1);
    println!("tenants: key {key_a} -> shard 0 (home), key {key_b} -> shard 1 (away)");

    // One batch in flight at a time: feed, then drain to the barrier.
    // That makes the whole drill — registry contents included — a pure
    // function of the feed order.
    let mut seq = 0u64;
    let mut jump_strategies: Vec<&'static str> = Vec::new();
    let mut feed = |pipeline: &mut ShardedPipeline,
                    key: u64,
                    concept: &GmmConcept,
                    rng: &mut rand::rngs::StdRng,
                    record: &mut Vec<&'static str>| {
        let (x, y) = concept.sample_batch(BATCH_SIZE, rng);
        let batch = Batch::labeled(x, y, seq, DriftPhase::Stable);
        seq += 1;
        pipeline.feed_prequential(KeyedBatch { key, batch }).expect("router alive");
        for (_, out) in pipeline.barrier().expect("shards recover") {
            if let Some(report) = out.report {
                record.push(report.strategy().tag());
            }
        }
    };

    // Act 1: warmup.
    let mut sink = Vec::new();
    for _ in 0..WARM_ROUNDS {
        feed(&mut pipeline, key_a, &home, &mut rng, &mut sink);
        feed(&mut pipeline, key_b, &away, &mut rng, &mut sink);
    }
    let published: Vec<(usize, u64)> = {
        let (_, view) = pipeline.shared().view();
        view.iter().map(|e: &SharedEntry| (e.shard, e.seq)).collect()
    };
    println!(
        "act 1: {} warm batches/tenant, registry holds {} entries {published:?}",
        WARM_ROUNDS,
        published.len()
    );

    // Act 2: crash shard 0 at a quiescent point (nothing in flight),
    // then spin until the supervisor has reaped the dead worker and
    // restarted it from the checkpoint — so the batches fed afterwards
    // always land on the restored learner, run after run.
    pipeline.inject(0, Fault::Panic).expect("panic injection");
    while pipeline.shard(0).supervisor().stats().restarts == 0 {
        pipeline.shard(0).try_recv().expect("restart within budget");
        std::thread::yield_now();
    }
    feed(&mut pipeline, key_a, &home, &mut rng, &mut sink);
    feed(&mut pipeline, key_a, &home, &mut rng, &mut sink);
    let stats0 = pipeline.shard(0).supervisor().stats();
    let stats1 = pipeline.shard(1).supervisor().stats();
    println!(
        "act 2: shard 0 panicked ({} restart(s), {} batch(es) lost); shard 1 untouched ({} restarts)",
        stats0.restarts, stats0.lost_in_flight, stats1.restarts
    );

    // Act 3: shard 1's tenant jumps onto shard 0's concept.
    for _ in 0..JUMP_ROUNDS {
        feed(&mut pipeline, key_b, &home, &mut rng, &mut jump_strategies);
    }
    let run = pipeline.finish().expect("clean finish");
    let hits = run.shards[1].learner().shared_hits();
    println!(
        "act 3: tenant B on shard 1 hit shard 0's knowledge {hits} time(s); \
         strategies {jump_strategies:?}"
    );

    // Fleet pass: 1200 interleaved keyed streams through a fresh router.
    let mut fleet = build(2);
    let mut gen = InterleavedKeyed::uniform(DIM, 2, FLEET_KEYS, 77);
    let mut per_shard = [0u64; 2];
    for _ in 0..FLEET_KEYS {
        let (shard, _) = fleet.feed_prequential(gen.next_keyed(32)).expect("router alive");
        per_shard[shard] += 1;
    }
    let fleet_outputs = fleet.barrier().expect("shards alive").len();
    let fleet_run = fleet.finish().expect("clean finish");
    println!(
        "fleet: {FLEET_KEYS} keyed streams -> shards {per_shard:?}, {} answered, {} admitted",
        fleet_outputs,
        fleet_run.admission().admitted
    );

    // Deterministic artifact: counters and ordering only, no wall-clock.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"shards\": 2,");
    let _ = writeln!(json, "  \"tenant_keys\": [{key_a}, {key_b}],");
    let _ = writeln!(json, "  \"warm_rounds\": {WARM_ROUNDS},");
    let published_json: Vec<String> =
        published.iter().map(|(shard, seq)| format!("[{shard}, {seq}]")).collect();
    let _ = writeln!(json, "  \"registry_entries\": [{}],", published_json.join(", "));
    let _ = writeln!(json, "  \"panic_shard\": 0,");
    let _ = writeln!(json, "  \"restarts\": [{}, {}],", stats0.restarts, stats1.restarts);
    let _ = writeln!(
        json,
        "  \"worker_panics\": [{}, {}],",
        stats0.worker_panics, stats1.worker_panics
    );
    let _ = writeln!(json, "  \"lost_in_flight\": {},", stats0.lost_in_flight);
    let _ = writeln!(json, "  \"cross_shard_hits\": {hits},");
    let strategies_json: Vec<String> = jump_strategies.iter().map(|s| format!("\"{s}\"")).collect();
    let _ = writeln!(json, "  \"jump_strategies\": [{}],", strategies_json.join(", "));
    let _ = writeln!(json, "  \"fleet_keys\": {FLEET_KEYS},");
    let _ = writeln!(json, "  \"fleet_per_shard\": [{}, {}],", per_shard[0], per_shard[1]);
    let _ = writeln!(json, "  \"fleet_answered\": {fleet_outputs},");
    let _ = writeln!(json, "  \"fleet_admitted\": {}", fleet_run.admission().admitted);
    json.push('}');
    json.push('\n');

    let out = Path::new("results").join("SHARDED_drill.json");
    fs::create_dir_all("results").expect("results directory");
    fs::write(&out, json).expect("write drill artifact");
    println!("\nwrote {}", out.display());
}
