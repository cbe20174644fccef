//! The per-layer suite of the traced run.
//!
//! Every number here comes from spans the benchmark records around its
//! own calls into each layer's public functions; nothing is instrumented
//! inside the program.
//!
//! * Learner: the learner-drift batches through `Learner::infer` and
//!   `Learner::train`, split by the strategy each batch dispatched to,
//!   and the same batches through bare instances of the public types the
//!   learner is built from (selector, granularity models, a model of the
//!   same spec, and CEC on the batches the selector calls severe) plus a
//!   matmul timing at the MLP's shapes. These should move learner-drift
//!   and, by at most the learner's share, serve-roundtrip.
//! * Tier ladder: the serve-roundtrip batches closed loop through
//!   `Learner`, `Pipeline`, `SupervisedPipeline`, `AdmittedPipeline`,
//!   a 1-shard `ShardedPipeline`, and `Service` (also with a telemetry
//!   sink, and the supervisor with the journal and with journal plus
//!   persisted checkpoints). The difference between adjacent tiers is that
//!   layer's cost; the admission and shard tiers have no blocking receive,
//!   so they poll, and their CPU includes the polling. These should move
//!   serve-roundtrip, not learner-drift.
//! * Durability: journal framing, appends, syncs and recovery scans,
//!   checkpoint capture, save and load, and durable serving traffic (a
//!   restart over a prefilled journal-and-checkpoint directory, then
//!   reads whose labels follow as writes) as the `serve_durable` tier. No
//!   end-to-end workload journals, so these move neither workload.

use crate::serving::{self, Durable, Live};
use crate::trace::{Span, Tracer};
use crate::{alloc, clock, learner_drift, metric, stats, Args, E2e, Failure, Metric};
use freeway_cluster::{CoherentExperience, ExperienceBuffer};
use freeway_core::granularity::MultiGranularity;
use freeway_core::{
    frame_batch, AdmissionOutcome, AdmittedPipeline, Checkpoint, CheckpointStore, FeedOutcome,
    FreewayError, InferenceReport, Journal, JournalConfig, Learner, Pipeline, PipelineOutput,
    ShardedPipeline, Strategy, StrategySelector, SupervisedPipeline,
};
use freeway_linalg::Matrix;
use freeway_ml::Trainer;
use freeway_streams::keyed::KeyedBatch;
use freeway_streams::{Batch, DriftPhase};
use freeway_telemetry::NoopSink;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Learner-drift segments the learner section drives (200 batches each).
const LEARNER_SEGMENTS: usize = 4;
/// Serve-roundtrip segments measured per ladder tier (250 batches each).
const LADDER_SEGMENTS: usize = 2;
/// Durable-traffic segments in the durability section (100 reads each).
const DURABLE_SEGMENTS: usize = 3;
/// Timed `Journal::sync` calls.
const SYNC_ROUNDS: u64 = 32;
/// Timed `Journal::open` scans of the prefilled log.
const OPEN_ROUNDS: usize = 5;
/// Timed checkpoint captures, saves and loads.
const PERSIST_ROUNDS: usize = 20;
/// Longest a polled tier may take to answer before the run fails.
const POLL_BUDGET: Duration = Duration::from_secs(10);
/// Routing key for the keyed tier.
const KEY: u64 = 7;

/// Runs the whole suite, appending its metrics to `out`; returns the
/// number of batches it submitted.
pub fn run(
    args: &Args,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<u64, Failure> {
    let mut attempted = learner(args.seed, tracer, out)?;
    attempted += ladder(args.seed, work, tracer, out)?;
    attempted += durability(args.seed, work, tracer, out)?;
    Ok(attempted)
}

fn walls(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::wall_us).collect()
}

fn cpus(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::cpu_us).collect()
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let open = tracer.begin(name, None, id);
    let value = f();
    tracer.end(open);
    value
}

fn io(err: impl std::fmt::Display) -> Failure {
    err.to_string()
}

/// Strategy slots, in metric-name order.
const STRATEGIES: [&str; 3] = ["ensemble", "clustering", "knowledge_reuse"];

/// Components the probe coverage sums: they are what the learner runs.
const LEARNER_PROBES: [&str; 4] =
    ["selector.observe", "granularity.predict", "granularity.train", "cluster.predict_scored"];

fn learner(seed: u64, tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<u64, Failure> {
    let inputs = learner_drift::inputs(seed, LEARNER_SEGMENTS);
    let mut learner = learner_drift::set_up(&inputs.warmup)?;
    let config = learner.config().clone();
    let spec = learner_drift::spec();
    let mut selector = StrategySelector::new(&config);
    let mut granularity = MultiGranularity::new(spec.clone(), &config);
    let mut experience =
        ExperienceBuffer::new(config.experience_points(), Some(config.exp_buffer as u64 * 4));
    let cec = CoherentExperience::with_recent(
        spec.classes() * config.cec_cluster_multiplier.max(1),
        config.mini_batch.max(1),
        config.cec_min_purity,
        config.seed ^ 0xCEC,
    );
    let mut model =
        Trainer::new(spec.build(config.seed), config.optimizer.build(config.learning_rate));
    let no_projection = vec![0.0; config.pca_components.min(spec.features())];
    // Warm the probes the way set-up warmed the learner.
    for batch in &inputs.warmup {
        if selector.is_ready() {
            break;
        }
        let _ = selector.observe(&batch.x);
        granularity.train(&batch.x, batch.labels(), &no_projection);
        experience.tick();
        experience.push_batch(&batch.x, batch.labels());
        model.train_step(&batch.x, batch.labels());
    }

    let first = tracer.spans().len();
    let mut counts = [0u64; 3];
    let mut infer_cpu: [Vec<f64>; 3] = Default::default();
    let (mut sudden, mut reoccurring, mut allocs) = (0u64, 0u64, 0u64);
    let mut proba = Matrix::zeros(0, 0);
    for (i, batch) in inputs.measured.iter().enumerate() {
        let (id, x, y) = (i as u64, &batch.x, batch.labels());
        let a0 = alloc::allocs();
        let open = tracer.begin("learner.infer", None, id);
        let report = learner.infer(x);
        let infer = tracer.end(open);
        timed(tracer, "learner.train", id, || learner.train(x, y));
        allocs += alloc::allocs() - a0;
        let slot = match report.strategy() {
            Strategy::Ensemble => 0,
            Strategy::Clustering => 1,
            _ => 2,
        };
        counts[slot] += 1;
        infer_cpu[slot].push(infer.cpu_us());
        match report.pattern().map(|p| p.tag()) {
            Some("sudden") => sudden += 1,
            Some("reoccurring") => reoccurring += 1,
            _ => {}
        }

        let decision = timed(tracer, "selector.observe", id, || selector.observe(x));
        let projected = decision
            .as_ref()
            .map_or_else(|| no_projection.clone(), |d| d.measurement.projected.clone());
        timed(tracer, "granularity.predict", id, || black_box(granularity.predict(x, &projected)));
        if decision.as_ref().is_some_and(|d| d.pattern.tag() != "slight") {
            timed(tracer, "cluster.predict_scored", id, || {
                black_box(cec.predict_scored(x, &experience))
            });
        }
        timed(tracer, "granularity.train", id, || granularity.train(x, y, &projected));
        experience.tick();
        experience.push_batch(x, y);
        timed(tracer, "ml.predict_proba", id, || model.predict_proba_into(x, &mut proba));
        timed(tracer, "ml.train", id, || model.train_step(x, y));
    }

    let spans = &tracer.spans()[first..];
    let n = inputs.measured.len() as f64;
    let train = cpus(spans, "learner.train");
    let learner_cpu: f64 = cpus(spans, "learner.infer").iter().chain(&train).sum();
    for (slot, name) in STRATEGIES.iter().enumerate() {
        out.push(metric(format!("learner.infer.{name}.count"), counts[slot] as f64, "count"));
        out.push(metric(
            format!("learner.infer.{name}.cpu_p50_us"),
            stats::median(&infer_cpu[slot]),
            "us",
        ));
    }
    out.push(metric("learner.train.cpu_p50_us", stats::median(&train), "us"));
    out.push(metric("learner.train.cpu_p99_us", stats::quantile(&train, 0.99), "us"));
    out.push(metric("learner.severe.count", (sudden + reoccurring) as f64, "count"));
    // Severe batches reach CEC unless knowledge reuse answered them: every
    // Sudden batch, and every Reoccurring one without matching knowledge.
    let reached_cec = (sudden + reoccurring).saturating_sub(counts[2]);
    out.push(metric(
        "learner.cec_accept_ratio",
        stats::ratio(counts[1] as f64, reached_cec as f64),
        "fraction",
    ));
    out.push(metric(
        "learner.reuse_accept_ratio",
        stats::ratio(counts[2] as f64, reoccurring as f64),
        "fraction",
    ));
    out.push(metric("knowledge.entries", learner.knowledge().len() as f64, "count"));
    out.push(metric("learner.allocs_per_batch", allocs as f64 / n, "allocs"));
    for name in LEARNER_PROBES.iter().chain(&["ml.predict_proba", "ml.train"]) {
        out.push(metric(format!("{name}.cpu_us"), stats::median(&cpus(spans, name)), "us"));
    }
    let probe_cpu: f64 = LEARNER_PROBES.iter().flat_map(|name| cpus(spans, name)).sum();
    out.push(metric("learner.probe_coverage", stats::ratio(probe_cpu, learner_cpu), "fraction"));
    out.push(metric("linalg.matmul.gflops", matmul_gflops(), "GFLOP/s"));
    Ok(inputs.measured.len() as u64)
}

/// Deterministic fill in `[-1, 1)`.
fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in m.as_mut_slice() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    }
    m
}

/// Matmul throughput at the learner-drift MLP's forward shapes, per
/// second of thread CPU time: a warm-up, then repeats until each shape has
/// run for 40 ms.
fn matmul_gflops() -> f64 {
    let rows = learner_drift::ROWS;
    let (mut flops, mut seconds) = (0.0, 0.0);
    for (m, k, n) in [(rows, 20, 32), (rows, 32, 5)] {
        let (a, b) = (filled(m, k, 1), filled(k, n, 2));
        let mut c = Matrix::zeros(0, 0);
        for _ in 0..3 {
            a.matmul_into(&b, &mut c);
        }
        let start = clock::thread_cpu();
        let mut reps = 0u64;
        while clock::thread_cpu() - start < Duration::from_millis(40) {
            for _ in 0..16 {
                a.matmul_into(black_box(&b), &mut c);
                black_box(&c);
            }
            reps += 16;
        }
        seconds += (clock::thread_cpu() - start).as_secs_f64();
        flops += 2.0 * (m * k * n) as f64 * reps as f64;
    }
    flops / seconds / 1e9
}

/// One rung of the tier ladder, driven closed loop with one prequential
/// batch in flight.
// One tier lives at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Tier {
    Learner(Learner),
    Pipeline(Pipeline),
    Supervisor(SupervisedPipeline),
    Admission(AdmittedPipeline),
    Shard(ShardedPipeline),
    Serve(Live),
}

/// Checkpoint counters a tier reports when it finishes.
#[derive(Default)]
struct Checkpoints {
    taken: u64,
    persisted: u64,
}

/// The ladder, bottom to top, then the variants with telemetry and
/// durability switched on.
const TIERS: [&str; 9] = [
    "learner",
    "pipeline",
    "supervisor",
    "admission",
    "shard",
    "serve",
    "serve_telemetry",
    "supervisor_journal",
    "supervisor_journal_ckpt",
];

fn build_tier(name: &str, work: &Path) -> Result<Tier, Failure> {
    let builder = serving::builder();
    let durable_dir = |sub: &str| {
        let dir = work.join(sub);
        std::fs::create_dir_all(&dir).map(|()| dir).map_err(io)
    };
    Ok(match name {
        "learner" => Tier::Learner(builder.build_learner().map_err(io)?),
        "pipeline" => Tier::Pipeline(builder.build().map_err(io)?),
        "supervisor" => Tier::Supervisor(builder.build_supervised().map_err(io)?),
        "admission" => Tier::Admission(builder.build_admitted().map_err(io)?),
        "shard" => Tier::Shard(builder.shards(1).build_sharded().map_err(io)?),
        "serve" => Tier::Serve(Live::start(builder)?),
        "serve_telemetry" => {
            Tier::Serve(Live::start(builder.with_telemetry_sink(Arc::new(NoopSink)))?)
        }
        "supervisor_journal" => {
            let dir = durable_dir("tier-journal")?;
            let journal = JournalConfig::new(dir.join("ingest.wal"));
            Tier::Supervisor(builder.journal(journal).build_supervised().map_err(io)?)
        }
        "supervisor_journal_ckpt" => {
            let dir = durable_dir("tier-journal-ckpt")?;
            Tier::Supervisor(serving::durable_builder(&dir).build_supervised().map_err(io)?)
        }
        other => return Err(format!("unknown tier {other}")),
    })
}

/// Polls a non-blocking receive until it yields, yielding the core
/// between attempts.
fn poll(
    mut try_recv: impl FnMut() -> Result<Option<PipelineOutput>, FreewayError>,
) -> Result<PipelineOutput, Failure> {
    let started = Instant::now();
    loop {
        if let Some(out) = try_recv().map_err(io)? {
            return Ok(out);
        }
        if started.elapsed() > POLL_BUDGET {
            return Err(format!("no output within {POLL_BUDGET:?}"));
        }
        std::thread::yield_now();
    }
}

fn admitted(outcome: AdmissionOutcome, seq: u64) -> Result<(), Failure> {
    match outcome {
        AdmissionOutcome::Admitted => Ok(()),
        other => Err(format!("batch {seq} was not admitted: {other:?}")),
    }
}

impl Tier {
    /// Sends one prequential batch and waits for its answer.
    fn exchange(
        &mut self,
        batch: Batch,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> Result<InferenceReport, Failure> {
        let seq = batch.seq;
        let out = match self {
            Tier::Learner(learner) => return Ok(learner.process(&batch)),
            Tier::Pipeline(pipeline) => {
                pipeline.feed_prequential(batch).map_err(io)?;
                pipeline.recv().map_err(io)?
            }
            Tier::Supervisor(pipeline) => {
                match pipeline.feed_prequential(batch).map_err(io)? {
                    FeedOutcome::Accepted => {}
                    other => return Err(format!("batch {seq}: {other:?}")),
                }
                pipeline.recv().map_err(io)?
            }
            Tier::Admission(pipeline) => {
                admitted(pipeline.feed_prequential(batch).map_err(io)?, seq)?;
                poll(|| pipeline.try_recv())?
            }
            Tier::Shard(pipeline) => {
                let (_, outcome) =
                    pipeline.feed_prequential(KeyedBatch { key: KEY, batch }).map_err(io)?;
                admitted(outcome, seq)?;
                poll(|| pipeline.try_recv().map(|out| out.map(|(_, out)| out)))?
            }
            Tier::Serve(live) => {
                let labels = batch.labels.ok_or("ladder batches carry labels")?;
                let x = batch.x;
                return live.answer(Some(tracer), parent, seq, |s| s.submit_labeled(x, labels));
            }
        };
        if out.seq != seq {
            return Err(format!("awaited batch {seq}, received {}", out.seq));
        }
        out.report.ok_or_else(|| format!("batch {seq} came back without a report"))
    }

    /// Stops the tier and checks that nothing was shed or quarantined.
    fn finish(self) -> Result<Checkpoints, Failure> {
        let (stats, shed) = match self {
            Tier::Learner(_) => return Ok(Checkpoints::default()),
            Tier::Pipeline(pipeline) => {
                pipeline.finish().map_err(io)?;
                return Ok(Checkpoints::default());
            }
            Tier::Serve(live) => {
                live.close()?;
                return Ok(Checkpoints::default());
            }
            Tier::Supervisor(pipeline) => (pipeline.finish().map_err(io)?.stats, 0),
            Tier::Admission(pipeline) => {
                let run = pipeline.finish().map_err(io)?;
                (run.run.stats, run.admission.shed)
            }
            Tier::Shard(pipeline) => {
                let run = pipeline.finish().map_err(io)?;
                let shed = run.admission().shed;
                let shard = run.shards.into_iter().next().ok_or("no shard")?;
                (shard.run.stats, shed)
            }
        };
        if stats.quarantined != 0 || shed != 0 {
            return Err(format!("{} quarantined and {shed} shed batches", stats.quarantined));
        }
        Ok(Checkpoints { taken: stats.checkpoints_taken, persisted: stats.checkpoints_persisted })
    }
}

fn ladder(
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<u64, Failure> {
    let inputs = serving::roundtrip_inputs(seed, LADDER_SEGMENTS);
    let reference = serving::reference(&inputs)?;
    let used = reference.warmup_used;
    let batches: Vec<&Batch> = inputs.warmup[..used].iter().chain(&inputs.measured).collect();
    let n = inputs.measured.len() as f64;
    for name in TIERS {
        let mut tier = build_tier(name, work)?;
        let mut first = tracer.spans().len();
        let (mut cpu, mut allocs) = (Duration::ZERO, 0);
        for (i, batch) in batches.iter().enumerate() {
            let mut batch = (*batch).clone();
            batch.seq = i as u64;
            let measured = i >= used;
            if i == used {
                first = tracer.spans().len();
            }
            let (p0, a0) = (clock::process_cpu(), alloc::allocs());
            let open = tracer.begin("tier.roundtrip", None, i as u64);
            let slot = if measured { tracer.reserve(&open) } else { None };
            let report = tier.exchange(batch, tracer, slot)?;
            if measured {
                tracer.close_reserved(slot, open);
                cpu += clock::process_cpu() - p0;
                allocs += alloc::allocs() - a0;
            }
            if report.predictions() != reference.answers[i].as_slice() {
                return Err(format!("tier {name}, batch {i}: predictions differ from the replay"));
            }
        }
        let checkpoints = tier.finish()?;
        let spans = &tracer.spans()[first..];
        let roundtrips = walls(spans, "tier.roundtrip");
        out.push(metric(format!("tier.{name}.rt_p50_us"), stats::median(&roundtrips), "us"));
        out.push(metric(
            format!("tier.{name}.cpu_us_per_batch"),
            cpu.as_secs_f64() * 1e6 / n,
            "us",
        ));
        out.push(metric(format!("tier.{name}.allocs_per_batch"), allocs as f64 / n, "allocs"));
        match name {
            "serve" => {
                let calls = walls(spans, "serve.submit");
                out.push(metric("serve.submit.call_p50_us", stats::median(&calls), "us"));
                // A `Busy` fails the run, so a printed run always reads 0.
                out.push(metric("serve.busy.count", 0.0, "count"));
            }
            "supervisor" => {
                out.push(metric("supervisor.checkpoints.count", checkpoints.taken as f64, "count"));
            }
            "supervisor_journal_ckpt" => out.push(metric(
                "persistence.persisted_ratio",
                stats::ratio(checkpoints.persisted as f64, checkpoints.taken as f64),
                "fraction",
            )),
            _ => {}
        }
    }
    Ok((TIERS.len() * inputs.measured.len()) as u64)
}

fn durability(
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<u64, Failure> {
    let mut durable = Durable::prepare(seed, &work.join("layers-durable"), DURABLE_SEGMENTS)?;
    let probe = work.join("layers-probe");
    std::fs::create_dir_all(&probe).map_err(io)?;
    let first = tracer.spans().len();

    let (mut journal, _) =
        Journal::open(JournalConfig::new(probe.join("probe.wal"))).map_err(io)?;
    let reads: Vec<Batch> = durable
        .inputs
        .measured
        .iter()
        .enumerate()
        .map(|(i, b)| Batch::unlabeled(b.x.clone(), i as u64, DriftPhase::Stable))
        .collect();
    let mut frame_bytes = 0;
    for read in &reads {
        let frame = timed(tracer, "journal.frame", read.seq, || frame_batch(read, false));
        frame_bytes += frame.len();
        timed(tracer, "journal.append", read.seq, || journal.append_frame(read.seq, &frame))
            .map_err(io)?;
    }
    for round in 0..SYNC_ROUNDS {
        let seq = reads.len() as u64 + round;
        let frame = frame_batch(&reads[round as usize % reads.len()], false);
        journal.append_frame(seq, &frame).map_err(io)?;
        timed(tracer, "journal.sync", seq, || journal.sync());
    }
    let journal_stats = journal.stats();
    drop(journal);

    let mut recovered = 0;
    for round in 0..OPEN_ROUNDS {
        let dir = durable.fresh_copy()?;
        let config = JournalConfig::new(serving::shard0_journal(&dir));
        let (journal, records) =
            timed(tracer, "journal.open", round as u64, || Journal::open(config)).map_err(io)?;
        recovered = records.len();
        drop(journal);
        std::fs::remove_dir_all(&dir).map_err(io)?;
    }

    let mut learner = serving::builder().build_learner().map_err(io)?;
    for batch in durable.inputs.warmup.iter().chain(&durable.inputs.measured) {
        learner.process(batch);
    }
    let store = CheckpointStore::new(probe.join("probe-ckpt.json"), 3);
    for round in 0..PERSIST_ROUNDS as u64 {
        let checkpoint =
            timed(tracer, "persistence.capture", round, || Checkpoint::capture(&learner));
        timed(tracer, "persistence.save", round, || store.save(&checkpoint)).map_err(io)?;
        timed(tracer, "persistence.load", round, || store.load_newest()).map_err(io)?;
    }
    let checkpoint_bytes = std::fs::metadata(store.generation_path(0)).map_err(io)?.len();
    std::fs::remove_dir_all(&probe).map_err(io)?;

    let spans = &tracer.spans()[first..];
    let median_wall = |name: &str| stats::median(&walls(spans, name));
    out.push(metric("journal.frame.cpu_us", stats::median(&cpus(spans, "journal.frame")), "us"));
    out.push(metric("journal.frame.bytes", frame_bytes as f64 / reads.len() as f64, "bytes"));
    out.push(metric("journal.append.cpu_us", stats::median(&cpus(spans, "journal.append")), "us"));
    out.push(metric("journal.sync.us", median_wall("journal.sync"), "us"));
    out.push(metric("journal.appends", journal_stats.appended as f64, "count"));
    out.push(metric("journal.syncs", journal_stats.synced as f64, "count"));
    out.push(metric("journal.open.ms", median_wall("journal.open") / 1e3, "ms"));
    out.push(metric("journal.replayed.count", recovered as f64, "count"));
    out.push(metric("persistence.capture.us", median_wall("persistence.capture"), "us"));
    out.push(metric("persistence.save.us", median_wall("persistence.save"), "us"));
    out.push(metric("persistence.bytes", checkpoint_bytes as f64, "bytes"));
    out.push(metric("persistence.load.us", median_wall("persistence.load"), "us"));

    // Durable serving traffic itself, as the top rung of the ladder.
    let first = tracer.spans().len();
    let mut result = E2e::default();
    durable.pass(Some(tracer), &mut result)?;
    let spans = &tracer.spans()[first..];
    let (reads_rt, writes_rt) = (walls(spans, "serve.infer"), walls(spans, "serve.train"));
    let steps = result.latency_us.len() as f64;
    let all: Vec<f64> = reads_rt.iter().chain(&writes_rt).copied().collect();
    out.push(metric("tier.serve_durable.rt_p50_us", stats::median(&all), "us"));
    out.push(metric("tier.serve_durable.cpu_us_per_batch", result.cpu_s * 1e6 / steps, "us"));
    out.push(metric("tier.serve_durable.allocs_per_batch", result.allocs as f64 / steps, "allocs"));
    out.push(metric("serve.infer.rt_p50_us", stats::median(&reads_rt), "us"));
    out.push(metric("serve.train.rt_p50_us", stats::median(&writes_rt), "us"));
    Ok(reads.len() as u64 + result.submitted)
}
