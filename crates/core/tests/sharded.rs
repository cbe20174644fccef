//! Sharded-runtime acceptance: 1-shard parity oracle against the
//! supervised pipeline, cross-shard Pattern-C reuse through the shared registry,
//! thousand-key routing, and the shard/kernel thread-budget guard.

use freeway_core::{
    shard_for, AdmissionConfig, AdmissionPolicy, FreewayConfig, FreewayError, PipelineBuilder,
    Strategy,
};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::keyed::{InterleavedKeyed, KeyedBatch};
use freeway_streams::{Batch, DriftPhase};

const DIM: usize = 6;
const BATCH_SIZE: usize = 96;

fn config() -> FreewayConfig {
    FreewayConfig { pca_warmup_rows: 64, mini_batch: BATCH_SIZE, ..Default::default() }
}

/// Admission that can neither shed nor degrade: parity runs must train on
/// exactly the batches the supervised pipeline trains on.
fn lossless_admission() -> AdmissionConfig {
    AdmissionConfig { policy: AdmissionPolicy::Block, ladder: None, ..Default::default() }
}

/// First key at/after `start` routing to `target` under `n` shards.
fn key_for_shard(target: usize, n: usize, start: u64) -> u64 {
    (start..start + 1024)
        .find(|k| shard_for(*k, n) == target)
        .expect("1024 consecutive keys cover every shard")
}

#[test]
fn one_shard_run_is_output_identical_to_supervised_pipeline() {
    // The same interleaved keyed stream (with a severe mid-stream shift)
    // drives both runtimes; at 1 shard every key routes to shard 0 in
    // feed order, so the learner behind the sharded router and its
    // admission must see — and answer — byte-identically to the bare
    // supervised pipeline's learner.
    let make_feed = || {
        let mut gen = InterleavedKeyed::uniform(DIM, 2, 8, 4242);
        let mut feed = Vec::new();
        for i in 0..24 {
            if i == 14 {
                for key in 0..8 {
                    gen.concept_mut(key).translate(&[25.0; DIM]);
                }
                gen.set_phase(DriftPhase::Sudden);
            } else if i == 15 {
                gen.set_phase(DriftPhase::Stable);
            }
            feed.push(gen.next_keyed(BATCH_SIZE));
        }
        feed
    };

    let mut supervised = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_queue_depth(32)
        .build_supervised()
        .expect("valid configuration");
    for kb in make_feed() {
        supervised.feed_prequential(kb.batch).expect("worker alive");
    }
    let mut supervised_out: Vec<_> = (0..24)
        .map(|_| {
            let o = supervised.recv().expect("worker alive");
            let report = o.report.expect("prequential reports");
            (o.seq, report.predictions.clone(), report.strategy(), report.severity().to_bits())
        })
        .collect();
    supervised.finish().expect("clean shutdown");
    supervised_out.sort_by_key(|(seq, ..)| *seq);

    let mut sharded = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(config())
        .with_queue_depth(32)
        .admission(lossless_admission())
        .shards(1)
        .build_sharded()
        .expect("valid configuration");
    for kb in make_feed() {
        let (shard, _) = sharded.feed_prequential(kb).expect("worker alive");
        assert_eq!(shard, 0, "one shard takes every key");
    }
    let sharded_out: Vec<_> = sharded
        .barrier()
        .expect("healthy shards")
        .into_iter()
        .map(|(_, o)| {
            let report = o.report.expect("prequential reports");
            (o.seq, report.predictions.clone(), report.strategy(), report.severity().to_bits())
        })
        .collect();
    let run = sharded.finish().expect("clean finish");

    assert_eq!(
        supervised_out, sharded_out,
        "1-shard run must match the supervised pipeline exactly"
    );
    assert_eq!(run.admission().admitted, 24);
    assert_eq!(run.shared_hits(), 0, "a single shard can never hit foreign knowledge");
    assert!(run.shared.is_empty(), "a single shard publishes nothing");
}

#[test]
fn concept_preserved_on_one_shard_is_reused_on_another() {
    // Shard A's tenant lives on `home`; shard B's tenant lives far away
    // on `other`. After both have preserved knowledge, shard B's tenant
    // jumps ONTO `home` — a concept shard B has never seen but shard A
    // has published. The severe shift on shard B must resolve through
    // the shared registry as a Pattern-C style reuse (KnowledgeReuse
    // strategy, shared_hits > 0) instead of a cold CEC reconstruction.
    let mut rng = stream_rng(12);
    let home = GmmConcept::random(DIM, 2, 2, 4.0, 0.6, &mut rng);
    let mut other = home.clone();
    other.translate(&[40.0; DIM]);

    let cfg = FreewayConfig {
        pca_warmup_rows: 64,
        mini_batch: BATCH_SIZE,
        asw_max_batches: 3,
        beta: 0.9,
        ..Default::default()
    };
    let mut sharded = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(cfg)
        .with_queue_depth(32)
        .admission(lossless_admission())
        .shards(2)
        .build_sharded()
        .expect("valid configuration");

    let key_a = key_for_shard(0, 2, 0);
    let key_b = key_for_shard(1, 2, 0);
    let mut seq = 0u64;
    let mut feed = |sharded: &mut freeway_core::ShardedPipeline,
                    key: u64,
                    concept: &GmmConcept,
                    rng: &mut rand::rngs::StdRng,
                    phase: DriftPhase| {
        let (x, y) = concept.sample_batch(BATCH_SIZE, rng);
        let batch = Batch::labeled(x, y, seq, phase);
        seq += 1;
        sharded.feed_prequential(KeyedBatch { key, batch }).expect("worker alive")
    };

    // Phase 1: both tenants learn their own concepts; window completions
    // publish into the shared registry.
    for _ in 0..25 {
        feed(&mut sharded, key_a, &home, &mut rng, DriftPhase::Stable);
        feed(&mut sharded, key_b, &other, &mut rng, DriftPhase::Stable);
    }
    sharded.barrier().expect("healthy shards");
    let published = sharded.shared().len();
    assert!(published >= 2, "both shards published ({published} entries)");

    // Phase 2: shard B's tenant jumps onto shard A's concept.
    let mut hit_strategies = Vec::new();
    for _ in 0..6 {
        feed(&mut sharded, key_b, &home, &mut rng, DriftPhase::Sudden);
        for (shard, out) in sharded.barrier().expect("healthy shards") {
            if shard == 1 {
                if let Some(report) = out.report {
                    hit_strategies.push(report.strategy());
                }
            }
        }
    }
    let run = sharded.finish().expect("clean finish");
    assert!(
        run.shards[1].learner().shared_hits() >= 1,
        "shard B must reuse shard A's published concept (strategies: {hit_strategies:?})"
    );
    assert!(
        hit_strategies.contains(&Strategy::KnowledgeReuse),
        "a cross-shard hit serves inference as knowledge reuse: {hit_strategies:?}"
    );
}

#[test]
fn thousand_interleaved_keyed_streams_route_and_complete() {
    let keys = 1200usize;
    let mut gen = InterleavedKeyed::uniform(4, 2, keys, 7);
    let mut sharded = PipelineBuilder::new(ModelSpec::lr(4, 2))
        .with_config(FreewayConfig { pca_warmup_rows: 64, mini_batch: 16, ..Default::default() })
        .with_queue_depth(64)
        .admission(lossless_admission())
        .shards(2)
        .build_sharded()
        .expect("valid configuration");
    let mut per_shard = [0u64; 2];
    for _ in 0..keys {
        let kb = gen.next_keyed(16);
        let expected = shard_for(kb.key, 2);
        let (shard, _) = sharded.feed_prequential(kb).expect("worker alive");
        assert_eq!(shard, expected, "router matches shard_for");
        per_shard[shard] += 1;
    }
    let outputs = sharded.barrier().expect("healthy shards");
    assert_eq!(outputs.len(), keys, "every keyed batch produced an output");
    let run = sharded.finish().expect("clean finish");
    assert_eq!(run.admission().admitted, keys as u64);
    assert!(per_shard.iter().all(|&n| n > 0), "1200 keys land on both shards: {per_shard:?}");
}

#[test]
fn oversubscribed_shard_thread_split_is_rejected() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // 2 shards plus a kernel pool as wide as the host (at least 2) can
    // never fit `shards + kernel_threads <= cores`.
    let err = PipelineBuilder::new(ModelSpec::lr(4, 2))
        .with_config(FreewayConfig { num_threads: cores.max(2), ..Default::default() })
        .shards(2)
        .build_sharded()
        .err()
        .expect("oversubscribed split is invalid");
    assert!(matches!(err, FreewayError::InvalidConfig(_)), "got {err:?}");
    assert!(err.to_string().contains("oversubscribe"), "{err}");

    let err = PipelineBuilder::new(ModelSpec::lr(4, 2))
        .shards(0)
        .build_sharded()
        .err()
        .expect("zero shards is invalid");
    assert!(err.to_string().contains("shard count"), "{err}");
}
