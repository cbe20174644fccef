//! Streaming (softmax / multinomial) logistic regression.

use crate::loss;
use crate::model::Model;
use crate::workspace::Workspace;
use freeway_linalg::{Epilogue, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Multinomial logistic regression: `logits = x W + b`.
///
/// Flat parameter layout: `W` row-major (`features x classes`), then `b`
/// (`classes`). This is the "StreamingLR" model of the paper's evaluation.
#[derive(Clone, Debug)]
pub struct SoftmaxRegression {
    weights: Matrix, // features x classes
    bias: Vec<f64>,  // classes
}

impl SoftmaxRegression {
    /// Builds a zero-initialised model. Zero init is the convention for
    /// convex linear models — no symmetry to break.
    pub fn new(features: usize, classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        Self { weights: Matrix::zeros(features, classes), bias: vec![0.0; classes] }
    }

    /// Builds a model with small random weights (used when a seeded,
    /// symmetric-free start is preferred, e.g. cloned baselines).
    pub fn with_seed(features: usize, classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (1.0 / features.max(1) as f64).sqrt() * 0.01;
        Self {
            weights: Matrix::random_uniform(features, classes, limit, &mut rng),
            bias: vec![0.0; classes],
        }
    }

    /// Forward pass: class probabilities in `ws.acts[0]`.
    fn forward_into(&self, x: &Matrix, ws: &mut Workspace) {
        ws.ensure_acts(1);
        self.logits_into(x, &mut ws.acts[0]);
        loss::softmax_rows(&mut ws.acts[0]);
    }

    /// `x W + b`, the bias added by the product's register tiles as they
    /// store.
    fn logits_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_epilogue_into(&self.weights, Epilogue::Bias(&self.bias), out);
    }
}

impl Model for SoftmaxRegression {
    fn num_features(&self) -> usize {
        self.weights.rows()
    }

    fn num_classes(&self) -> usize {
        self.weights.cols()
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = Matrix::zeros(0, 0);
        self.logits_into(x, &mut logits);
        loss::softmax_rows(&mut logits);
        logits
    }

    fn predict_proba_into(&self, x: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        // The probabilities stay in `ws.acts[0]` too: they are all the
        // backward pass reads besides `x`.
        self.forward_into(x, ws);
        out.copy_from(&ws.acts[0]);
    }

    fn gradient(&self, x: &Matrix, y: &[usize], weights: Option<&[f64]>) -> Vec<f64> {
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        self.gradient_into(x, y, weights, &mut ws, &mut out);
        out
    }

    fn gradient_into(
        &self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        self.forward_into(x, ws);
        self.backward_into(x, y, weights, ws, out);
    }

    fn backward_into(
        &self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) -> bool {
        // delta = d(CE)/d(logits), n x classes, from the probabilities in
        // `ws.acts[0]`; grad_W = x^T delta ; grad_b = column sums of delta.
        loss::softmax_grad_into(&ws.acts[0], y, weights, &mut ws.delta_a);
        x.matmul_transa_into(&ws.delta_a, &mut ws.grad_w);
        let nw = self.weights.rows() * self.weights.cols();
        out.clear();
        out.resize(nw + self.bias.len(), 0.0);
        out[..nw].copy_from_slice(ws.grad_w.as_slice());
        ws.delta_a.column_sums_into(&mut out[nw..]);
        true
    }

    fn gradient_loss_into(
        &self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) -> f64 {
        // `gradient_into` leaves the probabilities in `acts[0]` (the
        // backward pass never touches them), so the loss comes free from
        // the gradient's own forward pass.
        self.gradient_into(x, y, weights, ws, out);
        loss::cross_entropy(&ws.acts[0], y)
    }

    fn parameters_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    fn apply_update(&mut self, delta: &[f64]) {
        assert_eq!(delta.len(), self.num_parameters(), "update size mismatch");
        let nw = self.weights.rows() * self.weights.cols();
        for (w, &d) in self.weights.as_mut_slice().iter_mut().zip(&delta[..nw]) {
            *w += d;
        }
        for (b, &d) in self.bias.iter_mut().zip(&delta[nw..]) {
            *b += d;
        }
    }

    fn parameters(&self) -> Vec<f64> {
        let mut p = self.weights.as_slice().to_vec();
        p.extend_from_slice(&self.bias);
        p
    }

    fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_parameters(), "parameter size mismatch");
        let nw = self.weights.rows() * self.weights.cols();
        self.weights.as_mut_slice().copy_from_slice(&params[..nw]);
        self.bias.copy_from_slice(&params[nw..]);
    }

    fn num_parameters(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::accuracy;
    use freeway_linalg::vector;

    /// Two well-separated Gaussian-ish blobs along the first axis.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let jitter = (i as f64 * 0.37).sin() * 0.3;
            if i % 2 == 0 {
                rows.push(vec![2.0 + jitter, 0.5]);
                labels.push(0);
            } else {
                rows.push(vec![-2.0 + jitter, -0.5]);
                labels.push(1);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let (x, y) = blobs();
        let mut model = SoftmaxRegression::new(2, 2);
        for _ in 0..200 {
            let g = model.gradient(&x, &y, None);
            let delta: Vec<f64> = g.iter().map(|v| -0.5 * v).collect();
            model.apply_update(&delta);
        }
        assert!(accuracy(&model, &x, &y) > 0.99);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0], vec![1.5, 0.3], vec![-0.2, 0.8]]);
        let y = vec![0, 1, 2];
        let mut model = SoftmaxRegression::new(2, 3);
        model.set_parameters(&[0.1, -0.2, 0.3, 0.05, 0.4, -0.1, 0.0, 0.2, -0.3]);
        let analytic = model.gradient(&x, &y, None);
        let params = model.parameters();
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut plus = params.clone();
            plus[i] += eps;
            let mut minus = params.clone();
            minus[i] -= eps;
            let mut m = model.clone();
            m.set_parameters(&plus);
            let lp = m.loss(&x, &y);
            m.set_parameters(&minus);
            let lm = m.loss(&x, &y);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 1e-5,
                "param {i}: analytic {} vs numeric {numeric}",
                analytic[i]
            );
        }
    }

    #[test]
    fn weighted_gradient_ignores_zero_weight_samples() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let y = vec![0, 1];
        let model = SoftmaxRegression::with_seed(2, 2, 3);
        let only_first = model.gradient(&x.select_rows(&[0]), &y[..1], None);
        let weighted = model.gradient(&x, &y, Some(&[1.0, 0.0]));
        assert!(
            vector::euclidean_distance(&only_first, &weighted) < 1e-12,
            "zero-weight sample must not contribute"
        );
    }

    #[test]
    fn parameter_roundtrip_preserves_predictions() {
        let (x, y) = blobs();
        let mut a = SoftmaxRegression::with_seed(2, 2, 11);
        let g = a.gradient(&x, &y, None);
        a.apply_update(&g.iter().map(|v| -0.1 * v).collect::<Vec<_>>());
        let mut b = SoftmaxRegression::new(2, 2);
        b.set_parameters(&a.parameters());
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn num_parameters_counts_weights_and_bias() {
        let m = SoftmaxRegression::new(5, 3);
        assert_eq!(m.num_parameters(), 5 * 3 + 3);
        assert_eq!(m.parameters().len(), 18);
    }

    #[test]
    fn clone_model_is_independent() {
        let mut a = SoftmaxRegression::new(2, 2);
        let b = a.clone_model();
        a.apply_update(&vec![1.0; a.num_parameters()]);
        assert_ne!(a.parameters(), b.parameters());
    }
}
