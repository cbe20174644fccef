//! Shard-scaling throughput sweep for the sharded multi-tenant runtime.
//!
//! Drives thousands of interleaved keyed streams through
//! [`freeway_core::ShardedPipeline`] at each requested shard count and
//! reports items/second plus the speedup over the 1-shard baseline.
//! Each shard computes on its one worker thread, so the sweep measures
//! shard-worker scaling: near-linear per core up to the host's core
//! count, flat beyond it.

use freeway_core::{AdmissionConfig, AdmissionPolicy, FreewayConfig, PipelineBuilder};
use freeway_ml::ModelSpec;
use freeway_streams::keyed::InterleavedKeyed;
use serde::Serialize;

const DIM: usize = 10;
const CLASSES: usize = 2;

/// One shard-scaling measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ShardScalingPoint {
    /// Shard count the point was measured at.
    pub shards: usize,
    /// Interleaved keyed streams driven through the router.
    pub keys: usize,
    /// Rows per keyed batch.
    pub batch_size: usize,
    /// Keyed batches fed (across all keys).
    pub batches: usize,
    /// Measured throughput (items/second).
    pub items_per_sec: f64,
    /// Throughput relative to the 1-shard point of the same sweep
    /// (1.0 when this is the 1-shard point).
    pub speedup_vs_one_shard: f64,
}

/// Sweep parameters (defaults match the checked-in artifact).
#[derive(Clone, Copy, Debug)]
pub struct ShardSweep {
    /// Interleaved keyed streams (tenants).
    pub keys: usize,
    /// Keyed batches to feed per shard count.
    pub batches: usize,
    /// Rows per keyed batch.
    pub batch_size: usize,
    /// Stream seed.
    pub seed: u64,
}

impl Default for ShardSweep {
    fn default() -> Self {
        Self { keys: 1024, batches: 2048, batch_size: 64, seed: 1001 }
    }
}

/// Runs the sweep once per entry of `shard_counts`, 1-shard first so the
/// speedup column has its baseline.
pub fn run_shard_scaling(shard_counts: &[usize], sweep: &ShardSweep) -> Vec<ShardScalingPoint> {
    let mut counts: Vec<usize> = shard_counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    let mut points: Vec<ShardScalingPoint> = Vec::new();
    for &shards in &counts {
        let point = measure(shards, sweep);
        eprintln!("  shards={} -> {:.0} items/s", point.shards, point.items_per_sec);
        points.push(point);
    }
    let baseline = points.iter().find(|p| p.shards == 1).map_or(0.0, |p| p.items_per_sec);
    if baseline > 0.0 {
        for p in &mut points {
            p.speedup_vs_one_shard = p.items_per_sec / baseline;
        }
    }
    points
}

fn measure(shards: usize, sweep: &ShardSweep) -> ShardScalingPoint {
    // Built before the clock starts: one keyed batch costs about as much
    // to generate as a worker's LR step, so generating inside the timed
    // loop saturates the producer before a second shard can help.
    let mut gen = InterleavedKeyed::uniform(DIM, CLASSES, sweep.keys, sweep.seed);
    let batches: Vec<_> = (0..sweep.batches).map(|_| gen.next_keyed(sweep.batch_size)).collect();
    let mut pipeline = PipelineBuilder::new(ModelSpec::lr(DIM, CLASSES))
        .with_config(FreewayConfig {
            pca_warmup_rows: 256,
            mini_batch: sweep.batch_size,
            ..Default::default()
        })
        .with_queue_depth(64)
        .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ladder: false })
        .shards(shards)
        .build_sharded()
        .expect("valid sweep configuration");

    let start = std::time::Instant::now();
    let mut received = 0usize;
    for batch in batches {
        pipeline.feed_prequential(batch).expect("shards alive");
        while let Some(_out) = pipeline.try_recv().expect("shards alive") {
            received += 1;
        }
    }
    received += pipeline.barrier().expect("shards alive").len();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(received, sweep.batches, "every keyed batch answered");
    pipeline.finish().expect("clean finish");

    ShardScalingPoint {
        shards,
        keys: sweep.keys,
        batch_size: sweep.batch_size,
        batches: sweep.batches,
        items_per_sec: (sweep.batches * sweep.batch_size) as f64 / elapsed,
        speedup_vs_one_shard: 1.0,
    }
}
