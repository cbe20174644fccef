//! Many-clients serving throughput/latency sweep over the serving facade.
//!
//! Drives N closed-loop client threads through [`freeway_core::Service`]
//! (each submits one prequential batch, waits for its answer, repeats)
//! and reports aggregate items/second plus round-trip latency
//! percentiles per client count. Closed-loop clients keep at most one
//! batch in flight each, so the latency column measures the full
//! submit -> route -> infer+train -> deliver path under contention, not
//! queueing depth.

use std::time::{Duration, Instant};

use freeway_core::admission::{AdmissionConfig, AdmissionPolicy};
use freeway_core::{FreewayConfig, PipelineBuilder, SubmitOutcome};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::{Batch, DriftPhase};
use serde::Serialize;

const DIM: usize = 10;
const CLASSES: usize = 2;

/// One many-clients serving measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ServingPoint {
    /// Concurrent closed-loop client sessions.
    pub clients: usize,
    /// Shards behind the service.
    pub shards: usize,
    /// Rows per submitted batch.
    pub batch_size: usize,
    /// Prequential batches each client submits.
    pub batches_per_client: usize,
    /// Aggregate measured throughput (items/second).
    pub items_per_sec: f64,
    /// Median submit -> answer round trip (microseconds).
    pub p50_round_trip_us: f64,
    /// Tail submit -> answer round trip (microseconds).
    pub p99_round_trip_us: f64,
}

/// Sweep parameters (defaults match the checked-in artifact).
#[derive(Clone, Copy, Debug)]
pub struct ServingSweep {
    /// Shards behind the service.
    pub shards: usize,
    /// Prequential batches per client.
    pub batches_per_client: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// Stream seed.
    pub seed: u64,
}

impl Default for ServingSweep {
    fn default() -> Self {
        Self { shards: 2, batches_per_client: 48, batch_size: 64, seed: 9001 }
    }
}

/// Runs the sweep once per entry of `client_counts`.
pub fn run_serving(client_counts: &[usize], sweep: &ServingSweep) -> Vec<ServingPoint> {
    let mut counts: Vec<usize> = client_counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    let mut points = Vec::with_capacity(counts.len());
    for &clients in &counts {
        let point = measure(clients, sweep);
        eprintln!(
            "  clients={} -> {:.0} items/s (p99 round trip {:.0}us)",
            point.clients, point.items_per_sec, point.p99_round_trip_us
        );
        points.push(point);
    }
    points
}

/// Deterministic per-client batch stream, generated before the clock
/// starts so latency measures the service, not the generator.
fn client_batches(sweep: &ServingSweep, key: u64) -> Vec<Batch> {
    let mut rng = stream_rng(sweep.seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let concept = GmmConcept::random(DIM, CLASSES, 2, 4.0, 0.6, &mut rng);
    (0..sweep.batches_per_client)
        .map(|i| {
            let (x, y) = concept.sample_batch(sweep.batch_size, &mut rng);
            Batch::labeled(x, y, i as u64, DriftPhase::Stable)
        })
        .collect()
}

fn percentile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e6
}

fn measure(clients: usize, sweep: &ServingSweep) -> ServingPoint {
    let service = PipelineBuilder::new(ModelSpec::lr(DIM, CLASSES))
        .with_config(FreewayConfig {
            pca_warmup_rows: 256,
            mini_batch: sweep.batch_size,
            ..Default::default()
        })
        .with_queue_depth(64)
        .admission(AdmissionConfig {
            policy: AdmissionPolicy::Block,
            ladder: None,
            ..Default::default()
        })
        .shards(sweep.shards)
        .build_service()
        .expect("valid sweep configuration");
    let handle = service.handle();

    let start = Instant::now();
    let mut threads = Vec::with_capacity(clients);
    for key in 0..clients as u64 {
        let handle = handle.clone();
        let batches = client_batches(sweep, key);
        threads.push(std::thread::spawn(move || {
            let mut session = handle.open_session(key).expect("service running");
            let mut trips = Vec::with_capacity(batches.len());
            for batch in batches {
                let t0 = Instant::now();
                session.submit_batch(batch, true).expect("Block admission admits");
                let out = session.recv_output().expect("answer delivered");
                trips.push(t0.elapsed());
                assert!(
                    matches!(out.outcome, SubmitOutcome::Answered(_)),
                    "prequential submissions are answered"
                );
            }
            trips
        }));
    }
    let mut trips: Vec<Duration> = Vec::with_capacity(clients * sweep.batches_per_client);
    for t in threads {
        trips.extend(t.join().expect("client thread completed"));
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.answered as usize, clients * sweep.batches_per_client);
    assert_eq!(report.stats.shed, 0, "Block admission never sheds");

    trips.sort_unstable();
    ServingPoint {
        clients,
        shards: sweep.shards,
        batch_size: sweep.batch_size,
        batches_per_client: sweep.batches_per_client,
        items_per_sec: (clients * sweep.batches_per_client * sweep.batch_size) as f64 / elapsed,
        p50_round_trip_us: percentile_us(&trips, 0.50),
        p99_round_trip_us: percentile_us(&trips, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_every_client_count() {
        let sweep = ServingSweep { batches_per_client: 4, batch_size: 16, ..Default::default() };
        let points = run_serving(&[2, 1, 2], &sweep);
        assert_eq!(points.len(), 2, "counts are deduped and sorted");
        assert_eq!(points[0].clients, 1);
        assert_eq!(points[1].clients, 2);
        for p in &points {
            assert!(p.items_per_sec > 0.0, "{p:?}");
            assert!(p.p50_round_trip_us > 0.0 && p.p50_round_trip_us <= p.p99_round_trip_us);
        }
    }
}
