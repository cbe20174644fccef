//! Builder/direct-constructor parity: `with_learner` and the
//! [`PipelineBuilder`] must produce byte-identical experiment output for
//! the same description — the builder is a re-plumbing of construction,
//! never a behavior change.

use freeway_core::{FreewayConfig, Learner, PipelineBuilder, SupervisedPipeline, SupervisorConfig};
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::{Batch, DriftPhase};

const BATCHES: u64 = 24;
const BATCH_SIZE: usize = 96;

fn config() -> FreewayConfig {
    FreewayConfig { pca_warmup_rows: 64, mini_batch: BATCH_SIZE, ..Default::default() }
}

fn batches() -> Vec<Batch> {
    let mut rng = stream_rng(4242);
    let mut concept = GmmConcept::random(6, 2, 2, 4.0, 0.6, &mut rng);
    (0..BATCHES)
        .map(|i| {
            if i == 14 {
                concept.translate(&[25.0; 6]);
            }
            let (x, y) = concept.sample_batch(BATCH_SIZE, &mut rng);
            Batch::labeled(x, y, i, DriftPhase::Stable)
        })
        .collect()
}

/// Everything observable about one inference, hashed into a comparable
/// transcript row.
fn transcript(learner: &mut Learner, feed: &[Batch]) -> Vec<(u64, Vec<usize>, &'static str, u64)> {
    feed.iter()
        .map(|b| {
            let r = learner.process(b);
            (b.seq, r.predictions().to_vec(), r.strategy().tag(), r.severity().to_bits())
        })
        .collect()
}

#[test]
fn builder_learner_matches_legacy_learner_exactly() {
    let feed = batches();

    let mut legacy = Learner::new(ModelSpec::lr(6, 2), config());
    let legacy_out = transcript(&mut legacy, &feed);

    let mut built = PipelineBuilder::new(ModelSpec::lr(6, 2))
        .with_config(config())
        .build_learner()
        .expect("valid configuration");
    let built_out = transcript(&mut built, &feed);

    assert_eq!(legacy_out, built_out, "builder must not change learner behavior");
    assert_eq!(legacy.strategy_stats(), built.strategy_stats());
    assert_eq!(legacy.knowledge().len(), built.knowledge().len());
}

#[test]
fn builder_supervised_matches_direct_constructor_exactly() {
    let feed = batches();
    let sup_config = || SupervisorConfig {
        queue_depth: 16,
        checkpoint_every_n_batches: 4,
        ..Default::default()
    };

    let mut legacy =
        SupervisedPipeline::with_learner(Learner::new(ModelSpec::lr(6, 2), config()), sup_config())
            .expect("valid supervision config");
    let legacy_out = drive_supervised(&mut legacy, &feed);

    let mut built = PipelineBuilder::new(ModelSpec::lr(6, 2))
        .with_config(config())
        .with_supervisor_config(sup_config())
        .build_supervised()
        .expect("valid configuration");
    let built_out = drive_supervised(&mut built, &feed);

    assert_eq!(legacy_out, built_out, "builder supervised must match the direct constructor");
}

fn drive_supervised(sup: &mut SupervisedPipeline, feed: &[Batch]) -> Vec<(u64, Vec<usize>)> {
    let mut out = Vec::new();
    for b in feed {
        sup.feed_prequential(b.clone()).expect("healthy pipeline");
        while let Ok(Some(o)) = sup.try_recv() {
            out.push((o.seq, o.report.expect("prequential reports").predictions));
        }
    }
    let run = sup_finish(sup, feed.len(), &mut out);
    assert_eq!(run, feed.len(), "every batch produced an output");
    out
}

/// Drains the remaining outputs via `recv` (blocking) until all are seen.
fn sup_finish(
    sup: &mut SupervisedPipeline,
    total: usize,
    out: &mut Vec<(u64, Vec<usize>)>,
) -> usize {
    while out.len() < total {
        let o = sup.recv().expect("outputs outstanding");
        out.push((o.seq, o.report.expect("prequential reports").predictions));
    }
    out.len()
}
