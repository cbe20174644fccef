//! Gradient plumbing: the pre-computing window of §V-B.
//!
//! The paper splits a window's data into `n` subsets so that each
//! subset's gradient can be computed while the window is still filling,
//! leaving only the last one for the update itself. This crate's learner
//! does not do that ahead of time: a long-granularity update first
//! warm-starts the long model from the short model's parameters, which
//! exist only at the window's completion, so every subset gradient is
//! computed then, against those parameters, one subset after another.
//! [`PrecomputeAccumulator`] merges the per-subset average gradients into
//! one weighted-average gradient keyed by sample weights, which equals
//! one gradient over the concatenated data up to float rounding (the
//! merge reassociates the sums).

use freeway_linalg::vector;

/// Accumulates per-subset average gradients into one weighted average.
#[derive(Clone, Debug, Default)]
pub struct PrecomputeAccumulator {
    sum: Vec<f64>,
    total_weight: f64,
    subsets: usize,
}

impl PrecomputeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one subset's *average* gradient with its total sample weight
    /// (for an unweighted subset, the sample count).
    ///
    /// # Panics
    /// Panics if the gradient length differs from previous subsets, or if
    /// `weight` is not positive.
    pub fn add_subset(&mut self, avg_gradient: &[f64], weight: f64) {
        assert!(weight > 0.0, "subset weight must be positive");
        if self.subsets == 0 {
            // A fresh window: the sum buffer keeps its allocation.
            self.sum.clear();
            self.sum.resize(avg_gradient.len(), 0.0);
        }
        assert_eq!(self.sum.len(), avg_gradient.len(), "gradient length changed mid-window");
        vector::axpy(&mut self.sum, weight, avg_gradient);
        self.total_weight += weight;
        self.subsets += 1;
    }

    /// Number of subsets accumulated so far.
    pub fn subsets(&self) -> usize {
        self.subsets
    }

    /// Total accumulated sample weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// True if nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.subsets == 0
    }

    /// Weighted-average gradient over all subsets, or `None` when empty.
    pub fn merged(&self) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        let inv = 1.0 / self.total_weight;
        Some(self.sum.iter().map(|x| x * inv).collect())
    }

    /// Consumes the accumulated state, returning the merged gradient and
    /// resetting the accumulator for the next window.
    pub fn take_merged(&mut self) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        self.take_merged_into(&mut out).then_some(out)
    }

    /// [`Self::take_merged`] writing the merged gradient into `out`
    /// (cleared and refilled, reusing its allocation): returns `false`,
    /// leaving `out` untouched, when nothing was accumulated. Neither this
    /// nor the next window's [`Self::add_subset`] calls allocate once the
    /// buffers have held one gradient.
    pub fn take_merged_into(&mut self, out: &mut Vec<f64>) -> bool {
        if self.is_empty() {
            return false;
        }
        let inv = 1.0 / self.total_weight;
        out.clear();
        out.extend(self.sum.iter().map(|x| x * inv));
        self.total_weight = 0.0;
        self.subsets = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::SoftmaxRegression;
    use crate::model::Model;
    use freeway_linalg::Matrix;

    #[test]
    fn empty_accumulator_yields_none() {
        let mut acc = PrecomputeAccumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.merged(), None);
        assert_eq!(acc.take_merged(), None);
    }

    #[test]
    fn single_subset_is_identity() {
        let mut acc = PrecomputeAccumulator::new();
        acc.add_subset(&[1.0, -2.0], 5.0);
        assert_eq!(acc.merged(), Some(vec![1.0, -2.0]));
    }

    #[test]
    fn merged_matches_full_batch_gradient() {
        // Gradient over the whole batch must equal the count-weighted merge
        // of per-subset gradients.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![-1.0, 0.5],
            vec![0.3, -0.7],
        ]);
        let y = vec![0, 1, 0, 1, 0];
        let model = SoftmaxRegression::with_seed(2, 2, 9);
        let full = model.gradient(&x, &y, None);

        let mut acc = PrecomputeAccumulator::new();
        let g1 = model.gradient(&x.select_rows(&[0, 1]), &y[0..2], None);
        acc.add_subset(&g1, 2.0);
        let g2 = model.gradient(&x.select_rows(&[2, 3, 4]), &y[2..5], None);
        acc.add_subset(&g2, 3.0);

        let merged = acc.take_merged().expect("two subsets accumulated");
        for (a, b) in full.iter().zip(&merged) {
            assert!((a - b).abs() < 1e-12, "merge must equal full-batch gradient");
        }
        assert!(acc.is_empty(), "take_merged resets the window");
    }

    #[test]
    fn weights_bias_the_merge() {
        let mut acc = PrecomputeAccumulator::new();
        acc.add_subset(&[0.0], 1.0);
        acc.add_subset(&[10.0], 3.0);
        let m = acc.merged().unwrap();
        assert!((m[0] - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length changed")]
    fn rejects_inconsistent_lengths() {
        let mut acc = PrecomputeAccumulator::new();
        acc.add_subset(&[1.0], 1.0);
        acc.add_subset(&[1.0, 2.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        PrecomputeAccumulator::new().add_subset(&[1.0], 0.0);
    }
}
