//! Property-based robustness: arbitrarily corrupted batches pushed
//! through the guarded, supervised pipeline must never panic the process
//! and must never drive the learner's parameters non-finite; every poison
//! batch is counted and announced, and every clean one answered.

use freeway_core::supervisor::{SupervisedPipeline, SupervisorConfig};
use freeway_core::telemetry::{TelemetryEvent, TelemetrySink};
use freeway_core::{Checkpoint, FeedOutcome, FreewayConfig, Learner, PipelineBuilder};
use freeway_linalg::Matrix;
use freeway_ml::ModelSpec;
use freeway_streams::{Batch, DriftPhase};
use proptest::prelude::*;

const FEATURES: usize = 4;
const CLASSES: usize = 2;

/// One step of an adversarial stream: either a clean batch or a specific
/// corruption of one.
#[derive(Clone, Debug)]
enum Step {
    Clean,
    NanCell { row: usize, col: usize },
    InfCell { row: usize, col: usize },
    WrongWidth { wider: bool },
    LabelOutOfRange { row: usize, by: usize },
    LabelCountMismatch { extra: usize },
    NoLabels,
    RepeatSeq,
}

/// Maps a sampled `(kind, a, b)` triple to a step; `kind` is weighted so
/// roughly a third of the stream stays clean.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..10, 0usize..8, 1usize..4).prop_map(|(kind, a, b)| match kind {
        0..=2 => Step::Clean,
        3 => Step::NanCell { row: a, col: b % FEATURES },
        4 => Step::InfCell { row: a, col: b % FEATURES },
        5 => Step::WrongWidth { wider: a % 2 == 0 },
        6 => Step::LabelOutOfRange { row: a, by: b },
        7 => Step::LabelCountMismatch { extra: b },
        8 => Step::NoLabels,
        _ => Step::RepeatSeq,
    })
}

/// Deterministic, well-conditioned clean batch: class 0 rows cluster at
/// -1, class 1 rows at +1 with a small per-row wobble.
fn clean_batch(seq: u64, rows: usize) -> Batch {
    let mut data = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    for r in 0..rows {
        let class = r % CLASSES;
        let center = if class == 0 { -1.0 } else { 1.0 };
        let wobble = ((seq as usize * 31 + r * 7) % 13) as f64 / 26.0;
        data.push(vec![center + wobble; FEATURES]);
        labels.push(class);
    }
    Batch::labeled(Matrix::from_rows(&data), labels, seq, DriftPhase::Stable)
}

fn corrupt(step: &Step, seq: u64) -> Batch {
    let rows = 8;
    let mut batch = clean_batch(seq, rows);
    match step {
        Step::Clean => {}
        Step::NanCell { row, col } => batch.x.row_mut(row % rows)[col % FEATURES] = f64::NAN,
        Step::InfCell { row, col } => {
            batch.x.row_mut(row % rows)[col % FEATURES] = f64::NEG_INFINITY;
        }
        Step::WrongWidth { wider } => {
            let w = if *wider { FEATURES + 1 } else { FEATURES - 1 };
            batch.x = Matrix::zeros(rows, w);
        }
        Step::LabelOutOfRange { row, by } => {
            batch.labels.as_mut().expect("clean batch is labeled")[row % rows] = CLASSES - 1 + by;
        }
        Step::LabelCountMismatch { extra } => {
            let labels = batch.labels.as_mut().expect("clean batch is labeled");
            for _ in 0..*extra {
                labels.push(0);
            }
        }
        Step::NoLabels => batch.labels = None,
        Step::RepeatSeq => batch.seq = 0,
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn corrupted_streams_never_panic_and_parameters_stay_finite(
        steps in prop::collection::vec(step_strategy(), 1..24)
    ) {
        let learner = Learner::new(
            ModelSpec::lr(FEATURES, CLASSES),
            FreewayConfig { mini_batch: 8, pca_warmup_rows: 16, ..Default::default() },
        );
        let mut sup = SupervisedPipeline::with_learner(
            learner,
            SupervisorConfig { checkpoint_every_n_batches: 4, ..Default::default() },
        ).expect("valid supervisor config");
        // seq 0 is fed first so RepeatSeq steps always collide with it.
        let mut fed = 0u64;
        for (i, step) in steps.iter().enumerate() {
            let batch = corrupt(step, i as u64);
            let labeled = batch.labels.is_some();
            let outcome = if labeled {
                sup.feed_prequential(batch)
            } else {
                sup.feed(batch)
            };
            // No corruption is allowed to surface as an error, let alone
            // a panic: poison is quarantined, valid batches accepted.
            prop_assert!(outcome.is_ok(), "step {i} {step:?}: {:?}", outcome.err());
            fed += 1;
            while let Ok(Some(_)) = sup.try_recv() {}
        }
        let run = sup.finish().expect("supervised finish never fails on guarded input");
        prop_assert_eq!(run.stats.restarts, 0, "guard must stop poison before the worker");
        prop_assert_eq!(run.stats.accepted + run.stats.quarantined, fed);

        // Whatever mix of poison flowed past, the surviving learner's
        // parameters must all be finite.
        let snapshot = Checkpoint::capture(&run.learner);
        for (level, params) in snapshot.level_parameters.iter().enumerate() {
            prop_assert!(
                params.iter().all(|p| p.is_finite()),
                "level {level} contains non-finite parameters"
            );
        }
    }

    /// Poison is counted, not kept: every poison batch adds one to
    /// `stats.quarantined` and is announced exactly once as
    /// `BatchQuarantined`, and every clean batch around it is answered.
    #[test]
    fn poison_is_counted_and_announced_and_clean_batches_answered(
        steps in prop::collection::vec(step_strategy(), 1..40)
    ) {
        let (builder, sink) = PipelineBuilder::new(ModelSpec::lr(FEATURES, CLASSES))
            .with_config(FreewayConfig { mini_batch: 8, pca_warmup_rows: 16, ..Default::default() })
            .recording();
        let mut sup = builder.build_supervised().expect("valid supervisor config");
        let (mut poison, mut clean, mut answered) = (Vec::new(), Vec::new(), Vec::new());
        for (i, step) in steps.iter().enumerate() {
            let batch = corrupt(step, i as u64);
            let seq = batch.seq;
            // A repeated seq 0 is clean only before any batch is accepted.
            let valid = matches!(step, Step::Clean | Step::NoLabels)
                || (matches!(step, Step::RepeatSeq) && clean.is_empty());
            if valid { clean.push(seq) } else { poison.push(seq) }
            let outcome = if batch.labels.is_some() {
                sup.feed_prequential(batch)
            } else {
                sup.feed(batch)
            };
            let quarantined = matches!(outcome, Ok(FeedOutcome::Quarantined(_)));
            prop_assert_eq!(quarantined, !valid, "step {} {:?}: {:?}", i, step, outcome);
            while let Ok(Some(out)) = sup.try_recv() {
                answered.push(out.seq);
            }
        }
        let run = sup.finish().expect("supervised finish never fails on guarded input");
        answered.extend(run.outputs.iter().map(|out| out.seq));
        prop_assert_eq!(run.stats.quarantined, poison.len() as u64);
        let announced: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::BatchQuarantined { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        prop_assert_eq!(announced, poison, "each poison batch announced once, in order");
        prop_assert_eq!(answered, clean, "every clean batch answered, in order");
    }
}
