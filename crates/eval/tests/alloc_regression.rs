//! Zero-allocation regression gate for the warm training hot path.
//!
//! Builds the paper's StreamingMLP trainer, warms every scratch buffer,
//! then *proves* via the counting global allocator that a steady-state
//! infer + train loop over batch-1024 Hyperplane data performs zero heap
//! allocations on the hot thread. Run with:
//!
//! ```text
//! cargo test -p freeway-eval --features alloc-metrics --test alloc_regression
//! ```
#![cfg(feature = "alloc-metrics")]

use std::sync::Arc;

use freeway_core::telemetry::{NoopSink, Stage, Telemetry, TelemetryEvent};
use freeway_eval::alloc_metrics;
use freeway_linalg::Matrix;
use freeway_ml::{ModelSpec, Sgd, Trainer, Workspace};
use freeway_streams::{BatchPool, Hyperplane, StreamGenerator};

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
    freeway_linalg::pool::configure(1);
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
    freeway_linalg::pool::configure(1);
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
    freeway_linalg::pool::configure(1);
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

/// A disabled telemetry handle is the documented zero-cost path: the
/// fully instrumented warm loop (spans, events, gauges) must still make
/// zero heap allocations.
#[test]
fn warm_loop_with_disabled_telemetry_allocates_nothing() {
    freeway_linalg::pool::configure(1);
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
    freeway_linalg::pool::configure(1);
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
    freeway_linalg::pool::configure(1);
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
