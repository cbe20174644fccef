//! Numerically stable softmax and cross-entropy, and their shared output
//! gradient. The softmax and the gradient run on lane kernels from
//! [`freeway_linalg::lanes`] (eight rows to a register for the softmax, a
//! row to a register for the gradient) that return the per-row loops'
//! bits.

use freeway_linalg::Matrix;

/// In-place row-wise softmax with the log-sum-exp shift for stability.
///
/// Runs [`freeway_linalg::lanes::softmax_rows`]: eight rows at a time on
/// AVX-512, with an `exp` that returns `f64::exp`'s bits, so every row is
/// bit-identical to the per-row loop (max, `(x - max).exp()` summed in
/// column order, times `1.0 / sum`) that the tests keep as the reference.
pub fn softmax_rows(logits: &mut Matrix) {
    let cols = logits.cols();
    freeway_linalg::lanes::softmax_rows(logits.as_mut_slice(), cols);
}

/// Mean cross-entropy of predicted class probabilities against integer
/// labels, clamped away from `log(0)`.
///
/// # Panics
/// Panics if `labels.len() != probs.rows()` or a label is out of range.
pub fn cross_entropy(probs: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(probs.rows(), labels.len(), "cross_entropy length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (row, &y) in probs.row_iter().zip(labels) {
        assert!(y < probs.cols(), "label {y} out of range for {} classes", probs.cols());
        total -= row[y].max(1e-12).ln();
    }
    total / labels.len() as f64
}

/// Writes `probs - onehot(labels)` scaled by per-sample weights into a new
/// matrix: the shared softmax + cross-entropy output gradient.
///
/// `weights` of `None` means uniform `1/n`; otherwise each row is scaled by
/// `w_i / Σw`, so the result is always an *average* gradient regardless of
/// the weighting (this is what makes ASW-decayed batches and plain batches
/// interchangeable downstream).
///
/// # Panics
/// Panics on any length mismatch or out-of-range label.
pub fn softmax_grad(probs: &Matrix, labels: &[usize], weights: Option<&[f64]>) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    softmax_grad_into(probs, labels, weights, &mut out);
    out
}

/// [`softmax_grad`] writing into `out` (re-shaped in place, reusing its
/// allocation). Bit-identical to the allocating path.
///
/// Runs [`freeway_linalg::lanes::softmax_grad_rows`]: a row of up to eight
/// classes is one register less its label's one-hot register, times the
/// row's weight, with the weights divided eight at a time — per row the
/// per-row loop's operations (`p - 1.0` at the label, then each entry
/// times `w_i / Σw`), so the bits are that loop's.
///
/// # Panics
/// Panics on any length mismatch or out-of-range label.
pub fn softmax_grad_into(
    probs: &Matrix,
    labels: &[usize],
    weights: Option<&[f64]>,
    out: &mut Matrix,
) {
    assert_eq!(probs.rows(), labels.len(), "softmax_grad length mismatch");
    let n = labels.len();
    if n == 0 {
        out.copy_from(probs);
        return;
    }
    let total_weight = match weights {
        Some(w) => {
            assert_eq!(w.len(), n, "weights length mismatch");
            let s: f64 = w.iter().sum();
            if s.abs() < f64::EPSILON {
                // All-zero weights contribute no gradient.
                out.copy_from(probs);
                out.scale(0.0);
                return;
            }
            s
        }
        None => n as f64,
    };
    let cols = probs.cols();
    out.resize(n, cols);
    freeway_linalg::lanes::softmax_grad_rows(
        probs.as_slice(),
        cols,
        labels,
        weights,
        total_weight,
        out.as_mut_slice(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        softmax_rows(&mut m);
        for row in m.row_iter() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable_at_extremes() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let mut b = Matrix::from_rows(&[vec![1001.0, 1002.0]]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        assert!((a[(0, 0)] - b[(0, 0)]).abs() < 1e-12);
        assert!(b.is_finite());
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_near_zero() {
        let probs = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(cross_entropy(&probs, &[0, 1]) < 1e-9);
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_c() {
        let probs = Matrix::from_rows(&[vec![0.25; 4]]);
        assert!((cross_entropy(&probs, &[2]) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_clamps_zero_probability() {
        let probs = Matrix::from_rows(&[vec![0.0, 1.0]]);
        assert!(cross_entropy(&probs, &[0]).is_finite());
    }

    #[test]
    fn softmax_grad_rows_sum_to_zero_uniform_weighting() {
        let probs = Matrix::from_rows(&[vec![0.3, 0.7], vec![0.6, 0.4]]);
        let g = softmax_grad(&probs, &[1, 0], None);
        for row in g.row_iter() {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12, "each (p - onehot) row sums to zero");
        }
        // Row 0: (0.3, 0.7-1) / 2
        assert!((g[(0, 0)] - 0.15).abs() < 1e-12);
        assert!((g[(0, 1)] + 0.15).abs() < 1e-12);
    }

    #[test]
    fn softmax_grad_respects_sample_weights() {
        let probs = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        let g = softmax_grad(&probs, &[0, 0], Some(&[3.0, 1.0]));
        // First row weighted 3/4, second 1/4.
        assert!((g[(0, 0)] - (-0.5 * 0.75)).abs() < 1e-12);
        assert!((g[(1, 0)] - (-0.5 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn softmax_grad_zero_weights_yield_zero_gradient() {
        let probs = Matrix::from_rows(&[vec![0.9, 0.1]]);
        let g = softmax_grad(&probs, &[0], Some(&[0.0]));
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }
}
