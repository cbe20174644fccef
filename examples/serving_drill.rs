//! Multi-client serving drill: eight concurrent keyed sessions, each
//! under its own label-delivery regime, driving a 2-shard service.
//!
//! Every client runs on its own thread with a distinct routing key and a
//! distinct [`LabelSchedule`] — inline, delayed by 1/2/4 batches, or the
//! ISSUE regime (delay 4 **and** only 50% of labels surviving). A
//! turnstile keeps exactly one batch in flight globally, so the run —
//! cross-shard knowledge registry included — is a pure function of the
//! round-robin feed order, and `results/SERVING_drill.json` comes out
//! byte-identical across runs.
//!
//! Three acceptance checks run inline:
//!
//! 1. **Oracle** — replaying the service's recorded admitted order
//!    serially through an identically built (non-serving) pipeline must
//!    reproduce every client's transcript exactly.
//! 2. **Accuracy** — the regime-degraded run must land within 3 points
//!    of a fully-labeled run of the same streams (the learner's
//!    continuous pseudo-label mode carries the unlabeled batches).
//! 3. **Latency** — p99 submit latency stays bounded (printed, never
//!    written to the artifact: wall-clock would break byte-stability).
//!
//! ```sh
//! cargo run --release --example serving_drill
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use freewayml::chaos::LateLabels;
use freewayml::core::admission::{AdmissionConfig, AdmissionPolicy};
use freewayml::core::AdmittedRecord;
use freewayml::prelude::*;
use freewayml::streams::concept::{stream_rng, GmmConcept};

const DIM: usize = 6;
const CLASSES: usize = 2;
const ROWS: usize = 64;
const CLIENTS: usize = 8;
const BATCHES_PER_CLIENT: usize = 36;
const SHARDS: usize = 2;
/// Mild mid-stream translation — enough drift to exercise the strategy
/// selector without blowing the delayed-label accuracy budget.
const SHIFT_AT: usize = 18;

/// Per-client regimes: a spread of delays plus two clients on the ISSUE
/// acceptance regime (k = 4, 50% partial).
fn schedule_for(client: usize) -> LabelSchedule {
    let delays = [0u64, 1, 2, 4, 4, 2, 1, 0];
    let mut schedule = LabelSchedule::delayed(delays[client % delays.len()]);
    if client == 3 || client == 4 {
        schedule.keep_probability = 0.5;
        schedule.seed = 40 + client as u64;
    }
    schedule
}

/// Deterministic per-client stream: stationary GMM with one mild
/// translation mid-stream.
fn client_batches(key: u64) -> Vec<Batch> {
    let mut rng = stream_rng(9000 + key);
    let mut concept = GmmConcept::random(DIM, CLASSES, 2, 4.0, 0.6, &mut rng);
    (0..BATCHES_PER_CLIENT)
        .map(|i| {
            if i == SHIFT_AT {
                concept.translate(&[2.0; DIM]);
            }
            let (x, y) = concept.sample_batch(ROWS, &mut rng);
            Batch::labeled(x, y, i as u64, DriftPhase::Stable)
        })
        .collect()
}

fn builder() -> PipelineBuilder {
    PipelineBuilder::new(ModelSpec::lr(DIM, CLASSES))
        .with_config(FreewayConfig {
            pca_warmup_rows: 128,
            mini_batch: ROWS,
            enable_pseudo_labels: true,
            pseudo_label_min_purity: 0.7,
            ..Default::default()
        })
        .with_queue_depth(32)
        .admission(AdmissionConfig { policy: AdmissionPolicy::Block, ladder: false })
        .shards(SHARDS)
}

/// Round-robin turnstile: client `c` may act only on turns where
/// `turn % CLIENTS == c`, and each action (submit + await the answer)
/// completes before the turn advances — one batch in flight globally.
struct Turnstile {
    turn: Mutex<u64>,
    tick: Condvar,
}

impl Turnstile {
    fn new() -> Self {
        Self { turn: Mutex::new(0), tick: Condvar::new() }
    }

    fn wait_for(&self, expected: u64) {
        let mut turn = self.turn.lock().expect("turnstile healthy");
        while *turn != expected {
            turn = self.tick.wait(turn).expect("turnstile healthy");
        }
    }

    fn advance(&self) {
        *self.turn.lock().expect("turnstile healthy") += 1;
        self.tick.notify_all();
    }
}

/// Everything one client thread brings back.
struct ClientReport {
    key: u64,
    /// `(client_seq, predictions)` for every answered submission.
    transcript: Vec<(u64, Vec<usize>)>,
    /// The exact batches fed, by client seq — the oracle's replay input.
    submitted: Vec<Batch>,
    correct: usize,
    scored: usize,
    deferred: u64,
    arrived: u64,
    dropped: u64,
    max_lag: u64,
    submit_latencies: Vec<Duration>,
}

/// Submits one batch through the session, retrying on Busy, and waits
/// for its answer. Returns the predictions when the batch was answered.
fn submit_and_await(
    session: &mut ClientSession,
    batch: Batch,
    prequential: bool,
    latencies: &mut Vec<Duration>,
) -> Option<Vec<usize>> {
    let started = Instant::now();
    let mut pending = batch;
    loop {
        match session.submit_batch(pending, prequential) {
            Ok(_) => break,
            Err((back, ServeError::Busy { retry_after_hint })) => {
                std::thread::sleep(retry_after_hint);
                pending = back;
            }
            Err((_, err)) => panic!("submit failed: {err}"),
        }
    }
    latencies.push(started.elapsed());
    let out = session.recv_output().expect("service answers every submission");
    match out.outcome {
        SubmitOutcome::Answered(report) => Some(report.predictions),
        SubmitOutcome::Trained => None,
        SubmitOutcome::Shed(tag) => panic!("Block admission shed a batch: {tag}"),
        SubmitOutcome::Quarantined(tag) => panic!("clean batch quarantined: {tag}"),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

fn run_client(
    mut session: ClientSession,
    key: u64,
    client: usize,
    schedule: LabelSchedule,
    turnstile: Arc<Turnstile>,
) -> ClientReport {
    let batches = client_batches(key);
    let truth: Vec<Vec<usize>> =
        batches.iter().map(|b| b.labels.clone().expect("generated labeled")).collect();
    let mut scheduler = LabelScheduler::new(schedule).expect("valid schedule");
    let mut report = ClientReport {
        key,
        transcript: Vec::new(),
        submitted: Vec::new(),
        correct: 0,
        scored: 0,
        deferred: 0,
        arrived: 0,
        dropped: 0,
        max_lag: 0,
        submit_latencies: Vec::new(),
    };

    let feed_late = |late: Vec<LateLabels>,
                     session: &mut ClientSession,
                     report: &mut ClientReport| {
        for l in late {
            let batch = Batch::labeled(l.x, l.labels, 0, l.phase);
            report.submitted.push(batch.clone());
            let answered = submit_and_await(session, batch, false, &mut report.submit_latencies);
            assert!(answered.is_none(), "training-only submissions produce no report");
        }
    };

    // One extra turn at the end for the scheduler flush.
    for round in 0..=BATCHES_PER_CLIENT {
        turnstile.wait_for((round * CLIENTS + client) as u64);
        if round < BATCHES_PER_CLIENT {
            let step = scheduler.step(batches[round].clone());
            feed_late(step.released, &mut session, &mut report);
            let client_seq = report.submitted.len() as u64;
            report.submitted.push(step.batch.clone());
            let preds =
                submit_and_await(&mut session, step.batch, true, &mut report.submit_latencies)
                    .expect("prequential submissions are answered");
            report.correct += preds.iter().zip(&truth[round]).filter(|(p, t)| p == t).count();
            report.scored += truth[round].len();
            report.transcript.push((client_seq, preds));
        } else {
            feed_late(scheduler.flush(), &mut session, &mut report);
        }
        turnstile.advance();
    }

    report.deferred = scheduler.deferred();
    report.arrived = scheduler.arrived();
    report.dropped = scheduler.dropped();
    report.max_lag = scheduler.max_lag();
    report
}

/// Drives one full lockstep service run; `schedules[c]` is client `c`'s
/// label regime.
fn run_service(schedules: &[LabelSchedule]) -> (Vec<ClientReport>, ServiceReport) {
    let service = builder()
        .service(ServiceConfig { record_admitted: true, ..Default::default() })
        .build_service()
        .expect("valid service");
    let handle = service.handle();
    let turnstile = Arc::new(Turnstile::new());

    let mut threads = Vec::new();
    for (client, schedule) in schedules.iter().copied().enumerate() {
        let key = client as u64;
        let session = handle.open_session(key).expect("service running");
        let turnstile = Arc::clone(&turnstile);
        threads.push(std::thread::spawn(move || {
            run_client(session, key, client, schedule, turnstile)
        }));
    }
    let mut reports: Vec<ClientReport> =
        threads.into_iter().map(|t| t.join().expect("client thread completed")).collect();
    reports.sort_by_key(|r| r.key);
    let report = service.shutdown().expect("clean shutdown");
    (reports, report)
}

/// Replays the recorded admitted order serially (feed + barrier per
/// record, mirroring the lockstep run) and returns per-key transcripts.
fn oracle_replay(
    clients: &[ClientReport],
    admitted: &[AdmittedRecord],
) -> HashMap<u64, Vec<(u64, Vec<usize>)>> {
    let submitted: HashMap<u64, &Vec<Batch>> =
        clients.iter().map(|c| (c.key, &c.submitted)).collect();
    let mut pipeline = builder().build_sharded().expect("valid pipeline");
    let mut transcripts: HashMap<u64, Vec<(u64, Vec<usize>)>> = HashMap::new();
    for rec in admitted {
        let mut batch = submitted[&rec.key][rec.client_seq as usize].clone();
        batch.seq = rec.global_seq;
        let keyed = KeyedBatch { key: rec.key, batch };
        if rec.prequential {
            pipeline.feed_prequential(keyed).expect("oracle feed");
        } else {
            pipeline.feed(keyed).expect("oracle feed");
        }
        for (_, out) in pipeline.barrier().expect("oracle barrier") {
            if let Some(r) = out.report {
                transcripts.entry(rec.key).or_default().push((rec.client_seq, r.predictions));
            }
        }
    }
    let _ = pipeline.finish().expect("clean oracle shutdown");
    transcripts
}

fn accuracy(correct: usize, scored: usize) -> f64 {
    if scored == 0 {
        0.0
    } else {
        correct as f64 / scored as f64
    }
}

fn main() {
    // Act 1: the regime run — eight clients, mixed label schedules.
    let schedules: Vec<LabelSchedule> = (0..CLIENTS).map(schedule_for).collect();
    let (clients, service_report) = run_service(&schedules);

    let total_correct: usize = clients.iter().map(|c| c.correct).sum();
    let total_scored: usize = clients.iter().map(|c| c.scored).sum();
    let regime_accuracy = accuracy(total_correct, total_scored);
    let stats = service_report.stats;
    println!(
        "act 1: {CLIENTS} clients x {BATCHES_PER_CLIENT} batches -> \
         {} submitted, {} answered, {} trained, accuracy {:.4}",
        stats.submitted, stats.answered, stats.trained, regime_accuracy
    );

    let panics: Vec<u64> =
        service_report.run.shards.iter().map(|s| s.run.stats.worker_panics).collect();
    assert!(panics.iter().all(|&p| p == 0), "zero-panic drill saw {panics:?}");
    assert_eq!(stats.shed, 0, "Block admission never sheds");
    assert_eq!(stats.quarantined, 0, "clean batches never quarantine");

    // Act 2: oracle replay of the recorded admitted order.
    let admitted = service_report.admitted_order.as_deref().expect("record_admitted was set");
    let mut per_shard = vec![0u64; SHARDS];
    for rec in admitted {
        per_shard[rec.shard] += 1;
    }
    assert!(per_shard.iter().all(|&n| n > 0), "both shards served traffic: {per_shard:?}");
    let oracle = oracle_replay(&clients, admitted);
    for client in &clients {
        let oracle_transcript = &oracle[&client.key];
        assert_eq!(
            &client.transcript, oracle_transcript,
            "client {} diverged from the serialized oracle",
            client.key
        );
    }
    println!(
        "act 2: oracle replay of {} admitted records matches all {CLIENTS} transcripts \
         (shard split {per_shard:?})",
        admitted.len()
    );

    // Act 3: the same streams fully labeled — the accuracy reference.
    let (full_clients, _full_report) = run_service(&vec![LabelSchedule::full(); CLIENTS]);
    let full_correct: usize = full_clients.iter().map(|c| c.correct).sum();
    let full_scored: usize = full_clients.iter().map(|c| c.scored).sum();
    let full_accuracy = accuracy(full_correct, full_scored);
    let gap = full_accuracy - regime_accuracy;
    println!(
        "act 3: fully-labeled accuracy {full_accuracy:.4}, regime accuracy \
         {regime_accuracy:.4}, gap {gap:.4}"
    );
    assert!(gap <= 0.03, "label-regime accuracy gap {gap:.4} exceeds the 3-point budget");

    // Latency self-check: wall-clock stays out of the artifact.
    let mut latencies: Vec<Duration> =
        clients.iter().flat_map(|c| c.submit_latencies.iter().copied()).collect();
    latencies.sort_unstable();
    let p99 = latencies[latencies.len() * 99 / 100];
    println!("p99 submit latency: {p99:?} over {} submissions", latencies.len());
    assert!(
        p99 < Duration::from_millis(250),
        "p99 submit latency {p99:?} breached the 250ms bound"
    );

    // Deterministic artifact: counters, ordering, and 4-dp accuracies.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"batches_per_client\": {BATCHES_PER_CLIENT},");
    let _ = writeln!(json, "  \"batch_rows\": {ROWS},");
    let _ = writeln!(json, "  \"per_client\": [");
    for (i, (client, schedule)) in clients.iter().zip(&schedules).enumerate() {
        let comma = if i + 1 < clients.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"key\": {}, \"delay\": {}, \"keep\": {:.2}, \"submitted\": {}, \
             \"deferred\": {}, \"arrived\": {}, \"dropped\": {}, \"max_lag\": {}, \
             \"accuracy\": {:.4}}}{comma}",
            client.key,
            schedule.delay_batches,
            schedule.keep_probability,
            client.submitted.len(),
            client.deferred,
            client.arrived,
            client.dropped,
            client.max_lag,
            accuracy(client.correct, client.scored),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"submitted\": {},", stats.submitted);
    let _ = writeln!(json, "  \"answered\": {},", stats.answered);
    let _ = writeln!(json, "  \"trained\": {},", stats.trained);
    let _ = writeln!(json, "  \"shed\": {},", stats.shed);
    let _ = writeln!(json, "  \"quarantined\": {},", stats.quarantined);
    let per_shard_json: Vec<String> = per_shard.iter().map(u64::to_string).collect();
    let _ = writeln!(json, "  \"per_shard_admitted\": [{}],", per_shard_json.join(", "));
    let _ = writeln!(json, "  \"worker_panics\": [{}, {}],", panics[0], panics[1]);
    let _ = writeln!(json, "  \"oracle_records\": {},", admitted.len());
    let _ = writeln!(json, "  \"oracle_match\": true,");
    let _ = writeln!(json, "  \"regime_accuracy\": {regime_accuracy:.4},");
    let _ = writeln!(json, "  \"full_accuracy\": {full_accuracy:.4},");
    let _ = writeln!(json, "  \"accuracy_gap\": {gap:.4}");
    json.push('}');
    json.push('\n');

    let out = Path::new("results").join("SERVING_drill.json");
    fs::create_dir_all("results").expect("results directory");
    fs::write(&out, json).expect("write drill artifact");
    println!("\nwrote {}", out.display());
}
