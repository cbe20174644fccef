//! Liveness and failover drill: stall → recover → crash-loop → fence →
//! reroute, with knowledge-warm failover and a fault-free twin.
//!
//! Five acts on a 3-shard [`ShardedPipeline`] with a journal and a stall
//! watchdog armed:
//!
//! 1. **Warmup** — three tenants (hash-pinned to distinct shards) each
//!    learn their own concept; window completions publish into the
//!    cross-shard knowledge registry.
//! 2. **Stall** — shard 0's worker wedges mid-batch. The watchdog
//!    detects the missing heartbeat progress, forces a recovery through
//!    checkpoint-restore + journal-replay, and the in-flight batch is
//!    delivered anyway (zero lost).
//! 3. **Crash-loop** — shard 0's worker panics repeatedly until its
//!    restart budget is exhausted. Instead of erroring the router, the
//!    shard is **fenced**: healthy shards keep running, and the fenced
//!    shard's registry entries stay readable.
//! 4. **Reroute** — the fenced tenant's keys deterministically fail over
//!    to a surviving shard, whose learner meets an unseen concept and
//!    warm-starts from the fenced shard's published knowledge
//!    (Pattern-C reuse) instead of relearning.
//! 5. **Twin** — the identical batch schedule replayed fault-free; the
//!    drill passes only if faulted accuracy lands within three points of
//!    the twin on the surviving traffic.
//!
//! A virtual-time watchdog simulation (same decision logic, pure ticks)
//! rides along. Every batch runs feed → barrier lock-step, so the report
//! written to `results/FAILOVER_drill.json` is byte-identical across
//! runs on the same seed.
//!
//! ```sh
//! cargo run --release --example failover_drill
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Duration;

use freewayml::chaos::{simulate_stall, SimStallConfig};
use freewayml::core::admission::{AdmissionConfig, AdmissionPolicy};
use freewayml::core::failover_shard;
use freewayml::prelude::*;
use freewayml::streams::concept::{stream_rng, GmmConcept};

const SHARDS: usize = 3;
const DIM: usize = 6;
const BATCH_SIZE: usize = 64;
const WARM_ROUNDS: usize = 20;
const STALL_ROUNDS: usize = 4;
const REROUTE_ROUNDS: usize = 24;
const MAX_RESTARTS: usize = 2;

fn build(journal: Option<JournalConfig>) -> ShardedPipeline {
    let mut builder = PipelineBuilder::new(ModelSpec::lr(DIM, 2))
        .with_config(FreewayConfig {
            pca_warmup_rows: 64,
            mini_batch: BATCH_SIZE,
            asw_max_batches: 3,
            beta: 0.9,
            ..Default::default()
        })
        .with_queue_depth(32)
        .with_checkpoint_every(4)
        .with_max_restarts(MAX_RESTARTS)
        .with_stall_deadline(Duration::from_millis(60))
        .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ladder: false })
        .shards(SHARDS);
    if let Some(config) = journal {
        builder = builder.journal(config);
    }
    builder.build_sharded().expect("valid configuration")
}

/// First key at/after `start` routing to `target` under [`SHARDS`].
fn key_for_shard(target: usize, start: u64) -> u64 {
    (start..start + 4096).find(|k| shard_for(*k, SHARDS) == target).expect("keys cover shards")
}

/// The full batch schedule, generated up-front so the faulted run and
/// its fault-free twin consume byte-identical inputs in the same order.
struct Schedule {
    feeds: Vec<KeyedBatch>,
    labels: HashMap<u64, Vec<usize>>,
    /// Index of the single batch fed *behind* the injected stall.
    stall_at: usize,
    /// Feed index at which the crash-loop (act 3) happens.
    fence_at: usize,
}

fn schedule(keys: &[u64; SHARDS], reroute_partner: usize) -> Schedule {
    let mut rng = stream_rng(2026);
    let concepts: Vec<GmmConcept> = (0..SHARDS)
        .map(|i| {
            let mut c = GmmConcept::random(DIM, 2, 2, 4.0, 0.6, &mut rng);
            c.translate(&[40.0 * i as f64; DIM]);
            c
        })
        .collect();

    let mut feeds = Vec::new();
    let mut labels = HashMap::new();
    let mut seq = 0u64;
    let mut push = |tenant: usize,
                    feeds: &mut Vec<KeyedBatch>,
                    labels: &mut HashMap<u64, Vec<usize>>,
                    rng: &mut rand::rngs::StdRng| {
        let (x, y) = concepts[tenant].sample_batch(BATCH_SIZE, rng);
        labels.insert(seq, y.clone());
        feeds.push(KeyedBatch {
            key: keys[tenant],
            batch: Batch::labeled(x, y, seq, DriftPhase::Stable),
        });
        seq += 1;
    };

    // Act 1: warmup, all tenants in lock-step.
    for _ in 0..WARM_ROUNDS {
        for tenant in 0..SHARDS {
            push(tenant, &mut feeds, &mut labels, &mut rng);
        }
    }
    // Act 2: one tenant-0 batch is fed behind the stall, then a few
    // post-recovery rounds prove the shard is healthy again.
    let stall_at = feeds.len();
    push(0, &mut feeds, &mut labels, &mut rng);
    for _ in 0..STALL_ROUNDS {
        for tenant in 0..SHARDS {
            push(tenant, &mut feeds, &mut labels, &mut rng);
        }
    }
    // Act 3 feeds nothing (the crash-loop runs at a quiescent point).
    let fence_at = feeds.len();
    // Act 4: the fenced tenant keeps emitting concept 0 (now rerouted);
    // the surviving tenant that does NOT own the failover shard runs
    // alongside, so the failover shard sees exactly one new concept.
    for _ in 0..REROUTE_ROUNDS {
        push(0, &mut feeds, &mut labels, &mut rng);
        push(reroute_partner, &mut feeds, &mut labels, &mut rng);
    }
    Schedule { feeds, labels, stall_at, fence_at }
}

/// Prequential accuracy ledger: score every delivered output against the
/// schedule's labels.
#[derive(Default)]
struct Ledger {
    per_seq: HashMap<u64, (usize, usize)>,
}

impl Ledger {
    fn score(&mut self, outputs: &[(usize, freewayml::core::PipelineOutput)], schedule: &Schedule) {
        for (_, out) in outputs {
            let (Some(report), Some(labels)) = (&out.report, schedule.labels.get(&out.seq)) else {
                continue;
            };
            let correct = report.predictions.iter().zip(labels).filter(|(p, y)| p == y).count();
            self.per_seq.insert(out.seq, (correct, labels.len()));
        }
    }
}

fn main() {
    let keys: [u64; SHARDS] = [key_for_shard(0, 0), key_for_shard(1, 0), key_for_shard(2, 0)];
    let mut fenced_mask = [false; SHARDS];
    fenced_mask[0] = true;
    let failover_target = failover_shard(keys[0], &fenced_mask).expect("two shards survive");
    // The surviving tenant that does not own the failover shard.
    let reroute_partner = (1..SHARDS).find(|s| *s != failover_target).expect("three shards");
    println!(
        "tenants: keys {keys:?}; on fence, key {} fails over shard 0 -> {failover_target}",
        keys[0]
    );

    let plan = schedule(&keys, reroute_partner);

    // ---- Faulted run -------------------------------------------------
    let dir = std::env::temp_dir().join(format!("freeway-failover-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    let mut pipeline = build(Some(JournalConfig::new(dir.join("ingest.wal"))));
    let mut faulted = Ledger::default();

    // Act 1: warmup.
    let mut idx = 0;
    while idx < plan.stall_at {
        pipeline.feed_prequential(plan.feeds[idx].clone()).expect("router alive");
        faulted.score(&pipeline.barrier().expect("shards alive"), &plan);
        idx += 1;
    }
    let registry_before: usize = {
        let (_, view) = pipeline.shared().view();
        view.len()
    };
    println!("act 1: {WARM_ROUNDS} warm rounds/tenant, registry holds {registry_before} entries");

    // Act 2: wedge shard 0's worker for far longer than the deadline and
    // feed one batch behind the stall; the barrier's liveness sweep
    // detects the frozen heartbeat and forces a recovery, and the
    // journal replays the in-flight batch.
    pipeline
        .inject(0, Fault::Stall { duration: Duration::from_secs(30), livelock: false })
        .expect("stall injection");
    pipeline.feed_prequential(plan.feeds[idx].clone()).expect("router alive");
    faulted.score(&pipeline.barrier().expect("watchdog recovers the stall"), &plan);
    idx += 1;
    let stalls_seen = pipeline.shard(0).supervisor().stats().worker_stalls;
    let restarts_after_stall = pipeline.shard(0).supervisor().stats().restarts;
    while idx < plan.fence_at {
        pipeline.feed_prequential(plan.feeds[idx].clone()).expect("router alive");
        faulted.score(&pipeline.barrier().expect("shards alive"), &plan);
        idx += 1;
    }
    println!(
        "act 2: watchdog fired {stalls_seen} time(s); forced recovery used restart \
         {restarts_after_stall}/{MAX_RESTARTS}; stalled batch delivered"
    );

    // Act 3: crash-loop shard 0 at quiescent points until the restart
    // budget is exhausted and the router fences it.
    let mut panics = 0usize;
    while !pipeline.is_fenced(0) {
        pipeline.inject(0, Fault::Panic).expect("panic injection survivable");
        panics += 1;
        let mut spins = 0u32;
        while !pipeline.is_fenced(0) {
            let restarts = pipeline.shard(0).supervisor().stats().restarts;
            pipeline.try_recv().expect("router alive");
            if !pipeline.is_fenced(0) && pipeline.shard(0).supervisor().stats().restarts > restarts
            {
                break; // restarted within budget; panic again
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
    }
    let stats: Vec<_> = (0..SHARDS).map(|i| pipeline.shard(i).supervisor().stats()).collect();
    let fenced_list = pipeline.fenced_shards();
    let registry_after: usize = {
        let (_, view) = pipeline.shared().view();
        view.len()
    };
    println!(
        "act 3: {panics} panic(s) exhausted the budget; fenced shards {:?}; \
         registry still readable with {registry_after} entries",
        pipeline.fenced_shards()
    );

    // Act 4: the fenced tenant's traffic reroutes; the failover shard
    // meets concept 0 cold and warm-starts from shard 0's registry entry.
    let routed = pipeline.route_for_key(keys[0]).expect("survivors remain");
    assert_eq!(routed, failover_target, "live routing matches the pure failover function");
    let mut reroute_strategies: Vec<&'static str> = Vec::new();
    while idx < plan.feeds.len() {
        pipeline.feed_prequential(plan.feeds[idx].clone()).expect("router alive");
        let outputs = pipeline.barrier().expect("survivors alive");
        for (_, out) in &outputs {
            if let Some(report) = &out.report {
                if plan.feeds[idx].key == keys[0] {
                    reroute_strategies.push(report.strategy().tag());
                }
            }
        }
        faulted.score(&outputs, &plan);
        idx += 1;
    }
    let run = pipeline.finish().expect("a fenced shard does not break finish");
    let hits = run.shards[failover_target].learner().shared_hits();
    println!(
        "act 4: key {} rerouted to shard {failover_target}, {hits} knowledge hit(s), \
         strategies {reroute_strategies:?}",
        keys[0]
    );

    // ---- Fault-free twin ---------------------------------------------
    let mut twin = build(None);
    let mut clean = Ledger::default();
    for feed in &plan.feeds {
        twin.feed_prequential(feed.clone()).expect("router alive");
        clean.score(&twin.barrier().expect("shards alive"), &plan);
    }
    twin.finish().expect("clean finish");

    // Paired accuracy over the seqs both runs scored, split into the
    // *surviving* traffic (batches whose routing the fence never
    // touched: every tenant pre-fence, healthy tenants throughout) and
    // the *rerouted* traffic (the fenced tenant's post-fence batches,
    // answered by the failover shard's knowledge-warmed learner).
    let rerouted_seq =
        |seq: u64| seq >= plan.fence_at as u64 && plan.feeds[seq as usize].key == keys[0];
    let (mut fc, mut ft, mut cc, mut ct) = (0usize, 0usize, 0usize, 0usize);
    let (mut rc, mut rt, mut rcc, mut rct) = (0usize, 0usize, 0usize, 0usize);
    let mut paired = 0usize;
    for (seq, (correct, total)) in &faulted.per_seq {
        if let Some((c2, t2)) = clean.per_seq.get(seq) {
            paired += 1;
            if rerouted_seq(*seq) {
                rc += correct;
                rt += total;
                rcc += c2;
                rct += t2;
            } else {
                fc += correct;
                ft += total;
                cc += c2;
                ct += t2;
            }
        }
    }
    if std::env::var("FAILOVER_DEBUG").is_ok() {
        let missing: Vec<u64> =
            clean.per_seq.keys().filter(|s| !faulted.per_seq.contains_key(s)).copied().collect();
        let missing_f: Vec<u64> =
            faulted.per_seq.keys().filter(|s| !clean.per_seq.contains_key(s)).copied().collect();
        println!(
            "debug: faulted scored {} seqs, clean {} seqs; clean-only {missing:?}, faulted-only {missing_f:?}",
            faulted.per_seq.len(),
            clean.per_seq.len()
        );
        for seq in plan.fence_at as u64..plan.feeds.len() as u64 {
            let f = faulted.per_seq.get(&seq);
            let c = clean.per_seq.get(&seq);
            println!(
                "debug: seq {seq} key {} faulted {f:?} clean {c:?}",
                plan.feeds[seq as usize].key
            );
        }
    }
    let acc = |c: usize, t: usize| if t == 0 { 0.0 } else { c as f64 / t as f64 };
    let (faulted_acc, clean_acc) = (acc(fc, ft), acc(cc, ct));
    let gap = (clean_acc - faulted_acc).abs();
    let (rerouted_acc, rerouted_clean_acc) = (acc(rc, rt), acc(rcc, rct));
    println!(
        "twin: surviving traffic {faulted_acc:.4} vs fault-free {clean_acc:.4} over {paired} \
         paired seqs (gap {gap:.4}); rerouted traffic {rerouted_acc:.4} vs {rerouted_clean_acc:.4} \
         had the fenced shard lived"
    );
    assert!(gap <= 0.03, "surviving-traffic accuracy drifted more than 3 points: {gap:.4}");
    assert!(stats.iter().all(|s| s.lost_in_flight == 0), "journal replay loses nothing");

    // ---- Virtual-time watchdog simulation ----------------------------
    let sim_config = SimStallConfig {
        ticks: 3_000,
        arrival_every: 4,
        service_ticks: 6,
        poll_every: 5,
        deadline_ticks: 40,
        stalls: vec![(300, 400), (1_200, 350), (2_100, 500)],
    };
    let sim = simulate_stall(&sim_config);
    println!(
        "sim: {} batches, {} detections, {} false positives, worst latency {} ticks",
        sim.processed,
        sim.detections.len(),
        sim.false_positives,
        sim.max_detection_latency
    );

    // ---- Deterministic artifact --------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"tenant_keys\": [{}, {}, {}],", keys[0], keys[1], keys[2]);
    let _ = writeln!(json, "  \"warm_rounds\": {WARM_ROUNDS},");
    let _ = writeln!(json, "  \"stall_batch_seq\": {},", plan.stall_at);
    let _ = writeln!(json, "  \"worker_stalls\": {stalls_seen},");
    let _ = writeln!(json, "  \"restarts_after_stall\": {restarts_after_stall},");
    let _ = writeln!(json, "  \"crash_loop_panics\": {panics},");
    let restarts: Vec<String> = stats.iter().map(|s| s.restarts.to_string()).collect();
    let _ = writeln!(json, "  \"restarts\": [{}],", restarts.join(", "));
    let lost: Vec<String> = stats.iter().map(|s| s.lost_in_flight.to_string()).collect();
    let _ = writeln!(json, "  \"lost_in_flight\": [{}],", lost.join(", "));
    let fenced: Vec<String> = fenced_list.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(json, "  \"fenced_shards\": [{}],", fenced.join(", "));
    let _ = writeln!(json, "  \"failover_target\": {failover_target},");
    let _ = writeln!(json, "  \"registry_entries_before_fence\": {registry_before},");
    let _ = writeln!(json, "  \"registry_entries_after_fence\": {registry_after},");
    let _ = writeln!(json, "  \"cross_shard_hits\": {hits},");
    let strategies: Vec<String> = reroute_strategies.iter().map(|s| format!("\"{s}\"")).collect();
    let _ = writeln!(json, "  \"reroute_strategies\": [{}],", strategies.join(", "));
    let _ = writeln!(json, "  \"paired_seqs\": {paired},");
    let _ = writeln!(json, "  \"surviving_accuracy\": {faulted_acc:.4},");
    let _ = writeln!(json, "  \"surviving_fault_free_accuracy\": {clean_acc:.4},");
    let _ = writeln!(json, "  \"surviving_accuracy_gap\": {gap:.4},");
    let _ = writeln!(json, "  \"rerouted_accuracy\": {rerouted_acc:.4},");
    let _ = writeln!(json, "  \"rerouted_fault_free_accuracy\": {rerouted_clean_acc:.4},");
    let trajectory: Vec<String> = (plan.fence_at as u64..plan.feeds.len() as u64)
        .filter(|seq| rerouted_seq(*seq))
        .filter_map(|seq| faulted.per_seq.get(&seq))
        .map(|(c, t)| format!("{:.4}", acc(*c, *t)))
        .collect();
    let _ = writeln!(json, "  \"rerouted_trajectory\": [{}],", trajectory.join(", "));
    let _ = writeln!(json, "  \"simulation\": {{");
    let _ = writeln!(json, "    \"ticks\": {},", sim_config.ticks);
    let _ = writeln!(json, "    \"deadline_ticks\": {},", sim_config.deadline_ticks);
    let _ = writeln!(json, "    \"poll_every\": {},", sim_config.poll_every);
    let _ = writeln!(json, "    \"processed\": {},", sim.processed);
    let detections: Vec<String> = sim
        .detections
        .iter()
        .map(|d| format!("[{}, {}]", d.tick, d.stall.map_or(-1, |s| s as i64)))
        .collect();
    let _ = writeln!(json, "    \"detections\": [{}],", detections.join(", "));
    let _ = writeln!(json, "    \"false_positives\": {},", sim.false_positives);
    let _ = writeln!(json, "    \"recovered\": {},", sim.recovered);
    let _ = writeln!(json, "    \"max_detection_latency\": {}", sim.max_detection_latency);
    let _ = writeln!(json, "  }}");
    json.push('}');
    json.push('\n');

    let out = Path::new("results").join("FAILOVER_drill.json");
    fs::create_dir_all("results").expect("results directory");
    fs::write(&out, json).expect("write drill artifact");
    println!("\nwrote {}", out.display());
    let _ = fs::remove_dir_all(&dir);
}
