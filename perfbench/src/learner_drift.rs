//! `learner-drift`: the paper's learner alone on a drifting stream.
//!
//! NSL-KDD simulator (20 features, 5 classes) whose concept switches
//! every 8 batches, alternating new and revisited concepts, in six
//! independently seeded segments per pass (see `crate::segmented`); an
//! MLP with 32 hidden units on 256-row batches; `Learner::infer` then
//! `Learner::train` on one thread, with no runtime involved. All of the
//! work is the learner's: kernels, the PCA shift graph, window updates,
//! CEC k-means and knowledge reuse. Runtime changes must not move it.

use crate::trace::Tracer;
use crate::{alloc, clock, Args, E2e, Failure, Outcome};
use freeway_core::{Learner, PipelineBuilder};
use freeway_eval::metrics::batch_accuracy;
use freeway_ml::ModelSpec;
use freeway_streams::{datasets, Batch};
use std::time::Instant;

/// Rows per batch.
pub const ROWS: usize = 256;
/// Concept palettes (independently seeded simulator segments) per pass.
const SEGMENTS: usize = 6;
/// Batches per segment: three cycles of the simulator's drift program.
/// Six segments give 1200 measured batches per pass, enough distinct
/// severe-shift and window-completion batches that a dozen lie beyond
/// p99 in every pass.
const SEGMENT_BATCHES: usize = 200;
/// Warm-up batches available to set-up (it stops once PCA is fitted).
const WARMUP: usize = 8;
/// Fresh set-ups per pass; the last one serves the pass.
const SETUPS_PER_PASS: usize = 5;

/// The learner-drift model: MLP, 20 features, 32 hidden units, 5 classes.
pub fn spec() -> ModelSpec {
    ModelSpec::mlp(20, vec![32], 5)
}

/// The learner-drift deployment description (serial kernels by default).
fn builder() -> PipelineBuilder {
    PipelineBuilder::new(spec()).with_mini_batch(ROWS)
}

/// Seeded learner-drift inputs.
pub struct Inputs {
    /// Train-only warm-up batches for set-up.
    pub warmup: Vec<Batch>,
    /// The measured stream.
    pub measured: Vec<Batch>,
}

/// Generates the warm-up and `segments` measured segments from `seed`.
pub fn inputs(seed: u64, segments: usize) -> Inputs {
    let mut warmup =
        crate::segmented(datasets::nslkdd, seed, segments, SEGMENT_BATCHES, WARMUP, ROWS);
    let measured = warmup.split_off(WARMUP);
    Inputs { warmup, measured }
}

/// Set-up: builds the learner and trains on warm-up batches until the
/// strategy selector is ready.
pub fn set_up(warmup: &[Batch]) -> Result<Learner, Failure> {
    let mut learner = builder().build_learner().map_err(|e| e.to_string())?;
    for batch in warmup {
        if learner.selector().is_ready() {
            break;
        }
        learner.train(&batch.x, batch.labels());
    }
    if !learner.selector().is_ready() {
        return Err(format!("selector not ready after {} warm-up batches", warmup.len()));
    }
    Ok(learner)
}

/// The serialized reference: a bare learner replaying the measured
/// stream through `Learner::process`.
fn reference(inputs: &Inputs) -> Result<Vec<Vec<usize>>, Failure> {
    let mut learner = set_up(&inputs.warmup)?;
    Ok(inputs.measured.iter().map(|batch| learner.process(batch).predictions).collect())
}

fn pass(
    learner: &mut Learner,
    inputs: &Inputs,
    reference: &[Vec<usize>],
    mut tracer: Option<&mut Tracer>,
    result: &mut E2e,
) -> Result<(), Failure> {
    for (i, batch) in inputs.measured.iter().enumerate() {
        let labels = batch.labels();
        let id = i as u64;
        let a0 = alloc::allocs();
        let (report, wall, cpu) = match tracer.as_deref_mut() {
            None => {
                let (w0, p0) = (Instant::now(), clock::process_cpu());
                let report = learner.infer(&batch.x);
                learner.train(&batch.x, labels);
                let p1 = clock::process_cpu();
                (report, w0.elapsed().as_secs_f64() * 1e6, p1 - p0)
            }
            Some(tracer) => {
                let p0 = clock::process_cpu();
                let open = tracer.begin("learner.batch", None, id);
                let slot = tracer.reserve(&open);
                let infer = tracer.begin("learner.infer", slot, id);
                let report = learner.infer(&batch.x);
                tracer.end(infer);
                let train = tracer.begin("learner.train", slot, id);
                learner.train(&batch.x, labels);
                tracer.end(train);
                let span = tracer.close_reserved(slot, open);
                (report, span.wall_us(), clock::process_cpu() - p0)
            }
        };
        let allocs = alloc::allocs() - a0;
        if report.predictions() != reference[i].as_slice() {
            return Err(format!(
                "batch {i}: predictions differ from the serialized Learner replay"
            ));
        }
        let accuracy = batch_accuracy(report.predictions(), labels);
        result.record(wall, wall / 1e6, cpu, allocs, ROWS, accuracy);
    }
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Outcome, Failure> {
    let inputs = inputs(args.seed, SEGMENTS);
    let reference = reference(&inputs)?;
    let n = inputs.measured.len();
    let (untraced, traced) = crate::alternate(args, tracer.is_some(), n, |trace_pass, result| {
        let mut learner = None;
        let mut baseline = 0;
        for _ in 0..SETUPS_PER_PASS {
            drop(learner.take());
            baseline = alloc::reset_peak();
            let t0 = Instant::now();
            learner = Some(set_up(&inputs.warmup)?);
            result.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut learner = learner.ok_or("no set-up ran")?;
        let pass_tracer = if trace_pass { tracer.as_deref_mut() } else { None };
        pass(&mut learner, &inputs, &reference, pass_tracer, result)?;
        result.heap_peak_mb.push(alloc::peak_mb_above(baseline));
        Ok(())
    })?;
    Ok(crate::outcome("learner-drift", untraced, traced))
}
