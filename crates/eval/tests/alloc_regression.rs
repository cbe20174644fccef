//! Zero-allocation regression gate for the warm training hot path.
//!
//! Builds the paper's StreamingMLP trainer, warms every scratch buffer,
//! then *proves* via the counting global allocator that a steady-state
//! infer + train loop over batch-1024 Hyperplane data performs zero heap
//! allocations on the hot thread. The learner itself is held to exact
//! budgets: a warm k-means fit allocates nothing and a warm CEC call only
//! its predictions, whatever the iteration count; a warm severe-shift
//! `Learner::infer` and a warm steady-state `Learner::process` allocate
//! a fixed count. Run with:
//!
//! ```text
//! cargo test -p freeway-eval --features alloc-metrics --test alloc_regression
//! ```
#![cfg(feature = "alloc-metrics")]

use std::sync::Arc;

use freeway_cluster::{CoherentExperience, ExperienceBuffer, KMeans, KMeansScratch};
use freeway_core::granularity::MultiGranularity;
use freeway_core::telemetry::{NoopSink, Stage, Telemetry, TelemetryEvent};
use freeway_core::{FreewayConfig, Learner, PipelineBuilder, Strategy};
use freeway_drift::ShiftPattern;
use freeway_eval::alloc_metrics;
use freeway_linalg::Matrix;
use freeway_ml::{ModelSpec, Sgd, Trainer, Workspace};
use freeway_streams::{Batch, BatchPool, Hyperplane, StreamGenerator};

const BATCH: usize = 1024;
const WARM_ITERS: usize = 3;
const MEASURED_ITERS: usize = 5;

fn warm_and_measure(trainer: Trainer) -> alloc_metrics::AllocSnapshot {
    warm_and_measure_with(trainer, &Telemetry::disabled())
}

/// Warm train/infer loop, instrumented the way `Learner::process` is:
/// batch marker, per-stage spans, a per-batch event, and the shift gauges.
/// The telemetry handle must never add an allocation to this loop —
/// disabled or sink-attached alike.
fn warm_and_measure_with(
    mut trainer: Trainer,
    telemetry: &Telemetry,
) -> alloc_metrics::AllocSnapshot {
    let mut generator = Hyperplane::new(10, 0.02, 0.05, 42);
    let batch = generator.next_batch(BATCH);
    let (x, y) = (&batch.x, batch.labels());
    let mut probs = Matrix::zeros(0, 0);

    let step = |trainer: &mut Trainer, probs: &mut Matrix, seq: u64| {
        telemetry.batch_started(seq);
        {
            let _span = telemetry.time(Stage::Infer);
            trainer.predict_proba_into(x, probs);
        }
        {
            let _span = telemetry.time(Stage::Train);
            trainer.train_batch(x, y);
        }
        telemetry.record_shift(0.5, 1.0);
        telemetry.emit(TelemetryEvent::StrategyDispatched {
            seq,
            strategy: "ensemble",
            pattern: "warmup",
        });
    };

    for i in 0..WARM_ITERS {
        step(&mut trainer, &mut probs, i as u64);
    }

    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    for i in 0..MEASURED_ITERS {
        step(&mut trainer, &mut probs, (WARM_ITERS + i) as u64);
    }
    alloc_metrics::since(&before).expect("alloc-metrics feature is on")
}

/// The headline gate: the serial StreamingMLP train + infer loop must not
/// touch the heap once its workspaces are warm.
#[test]
fn warm_mlp_loop_allocates_nothing() {
    let trainer = Trainer::new(ModelSpec::mlp(10, vec![32], 2).build(0), Box::new(Sgd::new(0.05)));
    let delta = warm_and_measure(trainer);
    assert_eq!(
        delta.allocs, 0,
        "warm MLP hot path allocated {} times ({} bytes) over {MEASURED_ITERS} iterations",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
}

/// Same gate for the logistic-regression family, which shares the
/// workspace machinery through the default trait plumbing.
#[test]
fn warm_lr_loop_allocates_nothing() {
    let trainer = Trainer::new(ModelSpec::lr(10, 2).build(0), Box::new(Sgd::new(0.05)));
    let delta = warm_and_measure(trainer);
    assert_eq!(
        delta.allocs, 0,
        "warm LR hot path allocated {} times ({} bytes) over {MEASURED_ITERS} iterations",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
}

/// The learner-drift model — NSL-KDD's 20 features and 5 classes on an
/// MLP-32 at 256 rows — whose 5-wide head runs `matmul_transa`'s column
/// remainder and `matmul_transb`'s short shared dimension. Three warm
/// steps must not touch the heap: a plain `train_step`; the learner's
/// cached step (an inference forward pass on a separate workspace, then
/// `train_step_from` back-propagating from it); and a weighted 4-subset
/// window step (`gradient_into` per subset, merged into a caller-owned
/// buffer, then `apply_gradient`).
#[test]
fn warm_learner_drift_mlp_steps_allocate_nothing() {
    let mut generator = freeway_streams::datasets::nslkdd(7);
    let batch = generator.next_batch(256);
    let (x, y) = (&batch.x, batch.labels());
    let weights: Vec<f64> = (0..x.rows()).map(|i| 0.5 + (i % 7) as f64 / 7.0).collect();
    let mut trainer =
        Trainer::new(ModelSpec::mlp(20, vec![32], 5).build(0), Box::new(Sgd::new(0.05)));
    let mut forward = Workspace::new();
    let (mut probs, mut sub_x) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut grad, mut merged) = (Vec::new(), vec![0.0; trainer.model().num_parameters()]);

    let mut step = |trainer: &mut Trainer| {
        trainer.train_step(x, y);
        trainer.model().predict_proba_into(x, &mut forward, &mut probs);
        assert!(trainer.train_step_from(x, y, &mut forward), "the MLP keeps its forward trace");
        merged.fill(0.0);
        let chunk = x.rows() / 4;
        for start in (0..x.rows()).step_by(chunk) {
            let end = start + chunk;
            x.copy_row_range_into(start, end, &mut sub_x);
            trainer.gradient_into(&sub_x, &y[start..end], Some(&weights[start..end]), &mut grad);
            let share: f64 = weights[start..end].iter().sum();
            for (m, g) in merged.iter_mut().zip(&grad) {
                *m += share * g;
            }
        }
        trainer.apply_gradient(&merged);
    };

    for _ in 0..WARM_ITERS {
        step(&mut trainer);
    }
    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    for _ in 0..MEASURED_ITERS {
        step(&mut trainer);
    }
    let delta = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
    assert_eq!(
        delta.allocs, 0,
        "warm learner-drift MLP steps allocated {} times ({} bytes) over {MEASURED_ITERS} iterations",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
}

/// The learner-drift model bank (MLP-32 on NSL-KDD's 20 features and 5
/// classes at 256 rows; two levels, a 4-batch window completing as 4
/// subsets x 2 epochs), driven the way `Learner` drives it: the ensemble
/// vote, then `train`. Returns the allocations of each `train` call.
fn bank_train_allocs(batches: usize) -> Vec<u64> {
    let mut generator = freeway_streams::datasets::nslkdd(7);
    let mut bank =
        MultiGranularity::new(ModelSpec::mlp(20, vec![32], 5), &FreewayConfig::default());
    let projected = [0.25, -0.5, 1.0];
    (0..batches)
        .map(|_| {
            let batch = generator.next_batch(256);
            std::hint::black_box(bank.predict_proba(&batch.x, &projected));
            alloc_metrics::reset();
            let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
            bank.train(&batch.x, batch.labels(), &projected);
            alloc_metrics::since(&before).expect("alloc-metrics feature is on").allocs
        })
        .collect()
}

/// Allocations of a warm `MultiGranularity::train` whose window does not
/// complete, whatever the window holds: the long level's shared copy of
/// the batch (its rows, their `Arc`, the labels' `Arc`) with its window
/// insert's projection copy. The short level's fingerprint is copied into
/// the vector it already holds, the probes of levels whose forward cache
/// missed run through their own workspaces on a row buffer the bank
/// keeps, and the insert ranks the held batches in buffers the window
/// keeps.
const BANK_STEP_ALLOCS: u64 = 4;

/// A warm completion: the per-batch allocations and the window mean.
/// Nothing else: the subsets are the window's own batches, read in place;
/// the per-row weights are a buffer the bank reuses; and the warm start,
/// the subset gradients and their merge run in the long level's trainer
/// scratch.
const BANK_COMPLETION_ALLOCS: u64 = BANK_STEP_ALLOCS + 1;

#[test]
fn warm_bank_train_allocates_a_fixed_count() {
    // Completions at batches 4, 7 and 10: after one, the reseeded window
    // holds one batch, so batches 8, 9 and 10 insert into windows of 1, 2
    // and 3 batches. The first completion warms the buffers.
    let allocs = bank_train_allocs(10);
    assert_eq!(allocs[7], BANK_STEP_ALLOCS, "step into a 1-batch window: {allocs:?}");
    assert_eq!(allocs[8], BANK_STEP_ALLOCS, "step into a 2-batch window: {allocs:?}");
    assert_eq!(allocs[9], BANK_COMPLETION_ALLOCS, "completion of a 3-batch window: {allocs:?}");
}

/// `t_matvec_into` makes one ascending pass over the rows into the
/// caller's buffer, so even a tall matrix must not touch the heap once
/// the output has held its columns.
#[test]
fn warm_tall_t_matvec_into_allocates_nothing() {
    let (rows, cols) = (300, 6);
    let m =
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| (i as f64 * 0.37).sin()).collect());
    let v: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.11).cos()).collect();
    let mut out = Vec::new();
    m.t_matvec_into(&v, &mut out);

    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    for _ in 0..MEASURED_ITERS {
        m.t_matvec_into(&v, &mut out);
    }
    let delta = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
    assert_eq!(
        delta.allocs, 0,
        "warm {rows}-row t_matvec_into allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
    assert_eq!(out, m.t_matvec(&v));
}

/// CEC's clustering inputs at NSL-KDD's shape: 256 guidance rows (the
/// previous batch) above 256 batch rows, 20 features.
fn cec_inputs(batches: usize) -> Vec<(Matrix, Matrix)> {
    let mut generator = freeway_streams::datasets::nslkdd(7);
    let xs: Vec<Matrix> = (0..=batches).map(|_| generator.next_batch(256).x).collect();
    xs.windows(2).map(|pair| (pair[0].clone(), pair[1].clone())).collect()
}

/// Two of `inputs` whose k-means fits converge after different numbers
/// of Lloyd iterations.
fn unequal_convergence(inputs: &[(Matrix, Matrix)], km: &KMeans) -> [(Matrix, Matrix); 2] {
    let iterations = |(guide, batch): &(Matrix, Matrix)| km.fit(&guide.vstack(batch)).iterations;
    let first = &inputs[0];
    let other = inputs
        .iter()
        .find(|input| iterations(input) != iterations(first))
        .expect("inputs with different iteration counts");
    [first.clone(), other.clone()]
}

/// Allocations made by one call of `work` (after one warm-up call).
fn allocs_of(mut work: impl FnMut()) -> u64 {
    work();
    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    work();
    alloc_metrics::since(&before).expect("alloc-metrics feature is on").allocs
}

/// Allocations of one k-means fit at CEC's NSL-KDD shape (512 x 20,
/// k = 20) on a scratch that has held a fit of that shape: none, whatever
/// the iteration count. Loading the points copies them into the lanes the
/// scratch keeps, and every buffer of the fit is resized in place.
const KMEANS_FIT_ALLOCS: u64 = 0;

#[test]
fn warm_kmeans_fit_allocates_a_fixed_count() {
    let km = KMeans::new(20, 7 ^ 0xCEC);
    let inputs = cec_inputs(12);
    let mut scratch = KMeansScratch::new();
    for (guide, batch) in unequal_convergence(&inputs, &km) {
        let data = guide.vstack(&batch);
        let allocs = allocs_of(|| {
            scratch.load(data.rows(), data.cols(), data.row_iter());
            std::hint::black_box(km.fit_in(&mut scratch).inertia);
        });
        let iterations = km.fit(&data).iterations;
        assert_eq!(
            allocs, KMEANS_FIT_ALLOCS,
            "a k-means fit of {iterations} iterations allocated {allocs} times"
        );
    }
}

/// Allocations of one warm `predict_scored` at the learner-drift CEC setup
/// (5 classes x 4 clusters, 256 guidance points, a 256-row batch): the
/// predictions it returns. The k-means fit, the guidance labels and the
/// vote tables live in the scratch the predictor keeps.
const PREDICT_SCORED_ALLOCS: u64 = 1;

#[test]
fn warm_cec_predict_scored_allocates_a_fixed_count() {
    let cec = CoherentExperience::with_recent(20, 256, 0.7, 7 ^ 0xCEC);
    let km = KMeans::new(20, 7 ^ 0xCEC);
    let inputs = cec_inputs(12);
    for (guide, batch) in unequal_convergence(&inputs, &km) {
        let mut buffer = ExperienceBuffer::new(512, None);
        let labels: Vec<usize> = (0..guide.rows()).map(|i| i % 5).collect();
        buffer.push_batch(&guide, &labels);
        let allocs = allocs_of(|| {
            std::hint::black_box(cec.predict_scored(&batch, &buffer));
        });
        assert_eq!(allocs, PREDICT_SCORED_ALLOCS, "predict_scored allocated {allocs} times");
    }
}

/// One processed batch of [`drive`]: what answered it, whether a window
/// completed in its training step, and the allocations of its inference
/// and of the whole `process` call.
#[derive(Debug)]
struct Step {
    pattern: Option<ShiftPattern>,
    strategy: Strategy,
    completed: bool,
    infer_allocs: u64,
    process_allocs: u64,
}

/// Runs `learner` prequentially over `batches` (infer, then train, as
/// `Learner::process` does), counting each step's allocations.
fn drive(learner: &mut Learner, batches: &[Batch]) -> Vec<Step> {
    let long_updates = |learner: &Learner| {
        let dim = learner.config().pca_components.min(learner.spec().features());
        let levels = learner.granularity().level_diagnostics(&vec![0.0; dim]);
        levels.iter().skip(1).map(|&(_, updates)| updates).sum::<usize>()
    };
    batches
        .iter()
        .map(|batch| {
            let updates = long_updates(learner);
            alloc_metrics::reset();
            let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
            let report = learner.infer(&batch.x);
            let inferred = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
            learner.train(&batch.x, batch.labels());
            let processed = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
            Step {
                pattern: report.pattern(),
                strategy: report.strategy(),
                completed: long_updates(learner) != updates,
                infer_allocs: inferred.allocs,
                process_allocs: processed.allocs,
            }
        })
        .collect()
}

/// `count` batches of `rows` rows from `stream`.
fn batches(mut stream: impl StreamGenerator, count: usize, rows: usize) -> Vec<Batch> {
    (0..count).map(|_| stream.next_batch(rows)).collect()
}

/// A learner-drift learner (MLP-32 on NSL-KDD's 20 features and 5
/// classes, 256-row batches) reporting to `telemetry`, trained until its
/// selector is ready.
fn learner_drift(telemetry: Telemetry) -> (Learner, Vec<Batch>) {
    let mut learner = PipelineBuilder::new(ModelSpec::mlp(20, vec![32], 5))
        .with_mini_batch(256)
        .with_telemetry(telemetry)
        .build_learner()
        .expect("valid learner-drift config");
    let stream = batches(freeway_streams::datasets::nslkdd(1), 240, 256);
    let mut rest = stream.as_slice();
    while !learner.selector().is_ready() {
        learner.train(&rest[0].x, rest[0].labels());
        rest = &rest[1..];
    }
    let rest = rest.to_vec();
    (learner, rest)
}

/// Allocations of a warm severe-shift `Learner::infer` at learner-drift's
/// shape answered by CEC or by knowledge reuse: the shift measurement's
/// projection and the predictions. A Reoccurring batch whose evidence
/// check fails into CEC loads the matched snapshot into the learner's kept
/// evidence model, scores it and the ensemble on the guidance slice 64
/// rows at a time in the bank's workspaces, and clusters in CEC's kept
/// scratch. When the ensemble wins the arbitration instead, CEC's
/// predictions are dropped for its own: one more.
const SEVERE_INFER_ALLOCS: u64 = 2;

#[test]
fn warm_severe_learner_infer_allocates_a_fixed_count() {
    let (mut learner, stream) = learner_drift(Telemetry::disabled());
    let steps = drive(&mut learner, &stream);
    let severe =
        |s: &&Step| matches!(s.pattern, Some(ShiftPattern::Sudden | ShiftPattern::Reoccurring));
    // The first severe batches warm the kept buffers.
    let warm: Vec<&Step> = steps.iter().filter(severe).skip(6).collect();
    assert!(
        warm.iter()
            .any(|s| s.pattern == Some(ShiftPattern::Reoccurring)
                && s.strategy == Strategy::Clustering),
        "no warm Reoccurring batch fell through to CEC: {warm:?}"
    );
    for step in &warm {
        let budget = SEVERE_INFER_ALLOCS + u64::from(step.strategy == Strategy::Ensemble);
        assert_eq!(step.infer_allocs, budget, "{step:?}");
    }
}

/// Allocations of a warm steady-state `Learner::process` whose batch is a
/// slight shift and completes no window: the shift measurement's
/// projection, the ensemble's predictions, and the long window's copy of
/// the batch ([`BANK_STEP_ALLOCS`]). The projection of the training batch
/// lands in buffers the learner keeps. A live telemetry handle on a no-op
/// sink adds none.
const PROCESS_ALLOCS: u64 = 2 + BANK_STEP_ALLOCS;

/// Checks [`PROCESS_ALLOCS`] on every slight batch that completed no
/// window, once the shift history is full, of a learner and stream from
/// `build`: once with telemetry disabled, once with a live handle on a
/// no-op sink.
fn assert_steady_process(build: impl Fn(Telemetry) -> (Learner, Vec<Batch>), what: &str) {
    for (telemetry, how) in [
        (Telemetry::disabled(), "telemetry disabled"),
        (Telemetry::attached(Arc::new(NoopSink)), "no-op sink"),
    ] {
        let live = telemetry.enabled();
        let (mut learner, stream) = build(telemetry);
        assert_eq!(learner.telemetry().enabled(), live, "{what}, {how}: handle not attached");
        let steps = drive(&mut learner, &stream);
        let steady: Vec<&Step> = steps
            .iter()
            .skip(60)
            .filter(|s| s.pattern == Some(ShiftPattern::Slight) && !s.completed)
            .collect();
        assert!(steady.len() > 20, "{what}, {how}: too few steady batches ({})", steady.len());
        for step in steady {
            assert_eq!(step.process_allocs, PROCESS_ALLOCS, "{what}, {how}: {step:?}");
        }
    }
}

#[test]
fn warm_lr_learner_process_allocates_a_fixed_count() {
    // The serve-roundtrip learner: LR on Electricity's 8 features, 64 rows.
    let lr = |telemetry| {
        let learner = PipelineBuilder::new(ModelSpec::lr(8, 2))
            .with_mini_batch(64)
            .with_telemetry(telemetry)
            .build_learner()
            .expect("valid LR config");
        (learner, batches(freeway_streams::datasets::electricity(1), 200, 64))
    };
    assert_steady_process(lr, "LR@64");
}

#[test]
fn warm_mlp_learner_process_allocates_a_fixed_count() {
    assert_steady_process(learner_drift, "MLP-32@256");
}

/// A disabled telemetry handle is the documented zero-cost path: the
/// fully instrumented warm loop (spans, events, gauges) must still make
/// zero heap allocations.
#[test]
fn warm_loop_with_disabled_telemetry_allocates_nothing() {
    let trainer = Trainer::new(ModelSpec::mlp(10, vec![32], 2).build(0), Box::new(Sgd::new(0.05)));
    let delta = warm_and_measure_with(trainer, &Telemetry::disabled());
    assert_eq!(
        delta.allocs, 0,
        "disabled telemetry added {} allocations ({} bytes) to the warm hot path",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
}

/// Even a *live* handle must stay off the heap on the hot path: metric
/// updates are atomics against pre-registered handles, events are `Copy`,
/// and the no-op sink retains nothing.
#[test]
fn warm_loop_with_live_noop_sink_allocates_nothing() {
    let trainer = Trainer::new(ModelSpec::mlp(10, vec![32], 2).build(0), Box::new(Sgd::new(0.05)));
    let telemetry = Telemetry::attached(Arc::new(NoopSink));
    let delta = warm_and_measure_with(trainer, &telemetry);
    assert_eq!(
        delta.allocs, 0,
        "live telemetry (noop sink) added {} allocations ({} bytes) to the warm hot path",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
    // The instrumentation genuinely ran: counters saw the measured loop.
    let metrics = telemetry.metrics();
    assert_eq!(metrics.counters["freeway_batches_total"], (WARM_ITERS + MEASURED_ITERS) as u64);
}

/// The pool itself must reach zero-allocation steady state: once one
/// buffer pair is in circulation, acquire → fill → recycle cycles (with
/// reshapes smaller than the high-water mark) never touch the heap.
#[test]
fn warm_batch_pool_cycle_allocates_nothing() {
    let mut pool = BatchPool::new();
    // Warm at the largest shape so later reshapes fit in place.
    let (x, labels) = pool.acquire(BATCH, 10);
    pool.recycle(freeway_streams::Batch::labeled(
        x,
        {
            let mut l = labels;
            l.resize(BATCH, 0);
            l
        },
        0,
        freeway_streams::DriftPhase::Stable,
    ));

    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    for (round, rows) in [BATCH, BATCH / 2, BATCH, 64, BATCH].into_iter().enumerate() {
        let (x, mut labels) = pool.acquire(rows, 10);
        labels.resize(rows, round % 2);
        pool.recycle(freeway_streams::Batch::labeled(
            x,
            labels,
            round as u64 + 1,
            freeway_streams::DriftPhase::Stable,
        ));
    }
    let delta = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
    assert_eq!(
        delta.allocs, 0,
        "warm BatchPool cycle allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
    assert_eq!(pool.reused(), 5, "every measured acquire reuses the warm buffer");
}

/// End-to-end ingest gate: the pooled generator → infer → train →
/// recycle loop (the shape `run_prequential` executes) must be
/// allocation-free once generator buffers and trainer workspaces are
/// warm. This is the loop the 2.65 → ~0.2 allocs/item reduction pays
/// for; regressing it shows up here before it shows up in the bench.
#[test]
fn warm_pooled_ingest_train_loop_allocates_nothing() {
    let mut generator = Hyperplane::new(10, 0.02, 0.05, 42);
    let mut pool = BatchPool::new();
    let mut trainer = Trainer::new(ModelSpec::lr(10, 2).build(0), Box::new(Sgd::new(0.05)));
    let mut probs = Matrix::zeros(0, 0);

    let step = |generator: &mut Hyperplane,
                pool: &mut BatchPool,
                trainer: &mut Trainer,
                probs: &mut Matrix| {
        let batch = generator.next_batch_pooled(BATCH, pool);
        trainer.predict_proba_into(&batch.x, probs);
        trainer.train_batch(&batch.x, batch.labels());
        pool.recycle(batch);
    };

    for _ in 0..WARM_ITERS {
        step(&mut generator, &mut pool, &mut trainer, &mut probs);
    }

    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    for _ in 0..MEASURED_ITERS {
        step(&mut generator, &mut pool, &mut trainer, &mut probs);
    }
    let delta = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
    assert_eq!(
        delta.allocs, 0,
        "warm pooled ingest->train loop allocated {} times ({} bytes) over {MEASURED_ITERS} loops",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.bytes, 0);
    assert_eq!(
        pool.reused() + 1,
        pool.acquired(),
        "only the very first acquire may allocate a buffer pair"
    );
}

/// The counters themselves must observe ordinary allocations — guards
/// against the gate silently passing because counting broke.
#[test]
fn counter_sees_allocations() {
    alloc_metrics::reset();
    let before = alloc_metrics::snapshot().expect("alloc-metrics feature is on");
    let v: Vec<u8> = Vec::with_capacity(4096);
    let delta = alloc_metrics::since(&before).expect("alloc-metrics feature is on");
    drop(v);
    assert!(delta.allocs >= 1, "Vec::with_capacity must be counted");
    assert!(delta.bytes >= 4096, "bytes must cover the requested capacity");
}
