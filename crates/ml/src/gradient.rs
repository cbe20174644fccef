//! Gradient plumbing: the pre-computing window of §V-B.
//!
//! FreewayML reduces update latency by splitting a window's data into `n`
//! subsets and computing each subset's gradient *while waiting for more
//! data*; when the update finally fires, only the last subset's gradient
//! must still be computed before aggregation. [`PrecomputeAccumulator`]
//! implements exactly that accumulation: per-subset average gradients are
//! merged into a single weighted-average gradient keyed by sample counts,
//! so the result is identical (up to float associativity) to one gradient
//! over the concatenated data.

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
        if self.sum.is_empty() {
            self.sum = vec![0.0; avg_gradient.len()];
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
        let out = self.merged();
        self.sum.clear();
        self.total_weight = 0.0;
        self.subsets = 0;
        out
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
