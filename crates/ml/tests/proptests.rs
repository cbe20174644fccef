//! Property-based tests for the ML substrate.

use freeway_linalg::Matrix;
use freeway_ml::{ModelSpec, Optimizer, PrecomputeAccumulator, Sgd, Workspace};
use proptest::prelude::*;

/// The per-row loop `loss::softmax_rows` stands for: each entry less the
/// row's max (by `f64::max`) through libm's `exp`, summed in column order
/// from `0.0`, then each times `1.0 / sum`.
fn reference_softmax(logits: &mut Matrix) {
    let cols = logits.cols();
    for row in logits.as_mut_slice().chunks_exact_mut(cols) {
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// A logit of a kind the softmax kernel treats apart: signed zeros, ties
/// at a shared value, entries more than 512 below the row's max (their
/// lanes take libm's `exp`), wide and ordinary values.
fn logit((kind, v): (u32, f64)) -> f64 {
    match kind {
        0 => -0.0,
        1 => 0.0,
        2 => 4.0,
        3 => v - 700.0,
        4 => v * 40.0,
        _ => v,
    }
}

fn batch(rows: usize, cols: usize, classes: usize) -> impl Strategy<Value = (Matrix, Vec<usize>)> {
    (prop::collection::vec(-3.0..3.0f64, rows * cols), prop::collection::vec(0..classes, rows))
        .prop_map(move |(data, labels)| (Matrix::from_vec(rows, cols, data), labels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn probabilities_always_normalised((x, _) in batch(8, 4, 3)) {
        for spec in [
            ModelSpec::lr(4, 3),
            ModelSpec::mlp(4, vec![6], 3),
        ] {
            let model = spec.build(1);
            let probs = model.predict_proba(&x);
            for row in probs.row_iter() {
                let s: f64 = row.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9, "{spec:?} row sums to {s}");
                prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn gradient_step_reduces_loss_on_fixed_batch((x, y) in batch(16, 4, 3)) {
        // For a small enough step, loss must not increase (first-order).
        let mut model = ModelSpec::lr(4, 3).build(2);
        let before = model.loss(&x, &y);
        let grad = model.gradient(&x, &y, None);
        let delta: Vec<f64> = grad.iter().map(|g| -1e-3 * g).collect();
        model.apply_update(&delta);
        let after = model.loss(&x, &y);
        prop_assert!(after <= before + 1e-9, "loss rose: {before} -> {after}");
    }

    #[test]
    fn parameter_roundtrip_is_identity((x, _) in batch(4, 5, 2), seed in 0u64..100) {
        for spec in [
            ModelSpec::lr(5, 2),
            ModelSpec::mlp(5, vec![4], 2),
            ModelSpec::cnn(5, 3, 2, 2),
        ] {
            let a = spec.build(seed);
            let mut b = spec.build(seed.wrapping_add(1));
            b.set_parameters(&a.parameters());
            prop_assert_eq!(a.parameters(), b.parameters());
            prop_assert_eq!(a.predict(&x), b.predict(&x));
        }
    }

    #[test]
    fn uniform_weights_equal_unweighted((x, y) in batch(10, 3, 2), w in 0.1..5.0f64) {
        let model = ModelSpec::lr(3, 2).build(3);
        let unweighted = model.gradient(&x, &y, None);
        let weights = vec![w; 10];
        let weighted = model.gradient(&x, &y, Some(&weights));
        for (a, b) in unweighted.iter().zip(&weighted) {
            prop_assert!((a - b).abs() < 1e-9, "constant weights must cancel");
        }
    }

    #[test]
    fn precompute_merge_equals_full_gradient(split in 1usize..9, (x, y) in batch(10, 3, 2)) {
        let model = ModelSpec::lr(3, 2).build(4);
        let full = model.gradient(&x, &y, None);
        let mut acc = PrecomputeAccumulator::new();
        let first: Vec<usize> = (0..split).collect();
        let second: Vec<usize> = (split..10).collect();
        for idx in [first, second] {
            if idx.is_empty() {
                continue;
            }
            let sub_x = x.select_rows(&idx);
            let sub_y: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            let g = model.gradient(&sub_x, &sub_y, None);
            acc.add_subset(&g, idx.len() as f64);
        }
        let merged = acc.take_merged().unwrap();
        for (a, b) in full.iter().zip(&merged) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sgd_delta_is_linear_in_lr(lr in 0.001..1.0f64, g in prop::collection::vec(-2.0..2.0f64, 6)) {
        let params = vec![0.0; 6];
        let mut opt1 = Sgd::new(lr);
        let mut opt2 = Sgd::new(lr * 2.0);
        let d1 = opt1.step(&params, &g);
        let d2 = opt2.step(&params, &g);
        for (a, b) in d1.iter().zip(&d2) {
            prop_assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_batch_sizes(
        // One Workspace carried across batches that grow and shrink must
        // give results `==` to fresh allocating calls: stale contents or
        // stale dimensions in reused scratch may never leak through.
        sizes in prop::collection::vec(1usize..24, 2..6),
        seed in 0u64..64,
    ) {
        let fill = |i: usize| ((i as f64 + seed as f64) * 0.31).sin() * 2.0;
        for spec in [
            ModelSpec::lr(4, 3),
            ModelSpec::mlp(4, vec![5], 3),
            ModelSpec::cnn(4, 3, 2, 3),
        ] {
            let model = spec.build(seed);
            let mut ws = Workspace::new();
            let mut probs = Matrix::zeros(0, 0);
            let mut grad = Vec::new();
            let mut probs_grad = Vec::new();
            let mut params = Vec::new();
            for (step, &n) in sizes.iter().enumerate() {
                let x = Matrix::from_vec(n, 4, (0..n * 4).map(|i| fill(i + step)).collect());
                let y: Vec<usize> = (0..n).map(|i| (i + step) % 3).collect();
                model.predict_proba_into(&x, &mut ws, &mut probs);
                prop_assert_eq!(&probs, &model.predict_proba(&x), "{:?} step {}", &spec, step);
                model.gradient_into(&x, &y, None, &mut ws, &mut grad);
                prop_assert_eq!(&grad, &model.gradient(&x, &y, None), "{:?} step {}", &spec, step);
                let loss = model.gradient_loss_into(&x, &y, None, &mut ws, &mut probs_grad);
                prop_assert_eq!(&probs_grad, &grad, "{:?} step {}", &spec, step);
                prop_assert_eq!(loss, model.loss(&x, &y), "{:?} step {}", &spec, step);
                model.parameters_into(&mut params);
                prop_assert_eq!(&params, &model.parameters());
            }
        }
    }

    #[test]
    fn snapshot_bytes_roundtrip(seed in 0u64..50) {
        let spec = ModelSpec::mlp(4, vec![3], 2);
        let model = spec.build(seed);
        let snap = freeway_ml::ModelSnapshot::capture(spec, model.as_ref());
        let decoded = freeway_ml::ModelSnapshot::from_bytes(snap.to_bytes()).unwrap();
        prop_assert_eq!(decoded, snap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn softmax_rows_is_bit_identical_to_the_scalar_loop(
        rows in 1usize..41,
        cols in 1usize..21,
        values in prop::collection::vec((0u32..12, -30.0..30.0f64), 800),
        (at, special) in (0usize..800, 0usize..4),
    ) {
        let mut data: Vec<f64> = values.into_iter().take(rows * cols).map(logit).collect();
        // Most cases also put a NaN or an infinity in one row.
        if let Some(&x) = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].get(special) {
            data[at % (rows * cols)] = x;
        }
        let mut got = Matrix::from_vec(rows, cols, data);
        let mut want = got.clone();
        freeway_ml::loss::softmax_rows(&mut got);
        reference_softmax(&mut want);
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let (r, c) = (i / cols, i % cols);
            prop_assert!(g.to_bits() == w.to_bits(), "{rows}x{cols} at ({r}, {c}): {g:e} vs {w:e}");
        }
    }
}
