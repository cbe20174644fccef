//! Streaming 1-D convolutional network.
//!
//! The paper's appendix evaluates a small "StreamingCNN": a convolutional
//! layer (32 kernels of size 3), a max-pooling layer (window 2), and a
//! fully connected classification head. Tabular benchmark rows and the
//! simulated VGG image features are both 1-D signals, so a 1-D CNN covers
//! every CNN experiment (Table V/VI, Figure 12); the substitution is noted
//! in DESIGN.md.

use crate::loss;
use crate::model::Model;
use crate::workspace::Workspace;
use freeway_linalg::{Epilogue, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Conv1d (valid padding) + ReLU + MaxPool1d(2) + dense softmax head.
///
/// Flat parameter layout: conv filters row-major (`filters x kernel`),
/// conv bias (`filters`), dense weights row-major
/// (`filters * pooled_len x classes`), dense bias (`classes`).
#[derive(Clone, Debug)]
pub struct Cnn1d {
    filters: Matrix, // filters x kernel
    conv_bias: Vec<f64>,
    dense: Matrix, // (filters * pooled_len) x classes
    dense_bias: Vec<f64>,
    features: usize,
    kernel: usize,
    classes: usize,
}

impl Cnn1d {
    /// Builds a CNN with `num_filters` kernels of width `kernel`,
    /// Xavier-initialised from `seed`.
    ///
    /// # Panics
    /// Panics unless `features >= kernel + 1` (so at least one pooled
    /// position exists) and `classes >= 2`.
    pub fn new(
        features: usize,
        num_filters: usize,
        kernel: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(kernel >= 1 && num_filters >= 1, "kernel and filter count must be positive");
        assert!(features > kernel, "features ({features}) must exceed the kernel width ({kernel})");
        let conv_len = features - kernel + 1;
        let pooled = conv_len / 2;
        assert!(pooled >= 1, "input too short for pooling");
        let mut rng = StdRng::seed_from_u64(seed);
        let conv_limit = (6.0 / (kernel + num_filters) as f64).sqrt();
        let dense_in = num_filters * pooled;
        let dense_limit = (6.0 / (dense_in + classes) as f64).sqrt();
        Self {
            filters: Matrix::random_uniform(num_filters, kernel, conv_limit, &mut rng),
            conv_bias: vec![0.0; num_filters],
            dense: Matrix::random_uniform(dense_in, classes, dense_limit, &mut rng),
            dense_bias: vec![0.0; classes],
            features,
            kernel,
            classes,
        }
    }

    fn conv_len(&self) -> usize {
        self.features - self.kernel + 1
    }

    fn pooled_len(&self) -> usize {
        self.conv_len() / 2
    }

    fn num_filters(&self) -> usize {
        self.filters.rows()
    }

    /// Forward pass for one sample, written into caller-owned slices:
    /// relu'd conv activations (`filters x conv_len` flattened), pooled
    /// features, and pool argmax indices into the conv activations.
    /// Every element of each slice is overwritten.
    fn forward_sample_into(
        &self,
        x: &[f64],
        conv: &mut [f64],
        pooled: &mut [f64],
        arg: &mut [usize],
    ) {
        let k = self.num_filters();
        let cl = self.conv_len();
        let pl = self.pooled_len();
        for f in 0..k {
            let w = self.filters.row(f);
            let b = self.conv_bias[f];
            for t in 0..cl {
                let mut s = b;
                for (j, &wj) in w.iter().enumerate() {
                    s += wj * x[t + j];
                }
                conv[f * cl + t] = s.max(0.0); // ReLU fused into the conv output
            }
        }
        for f in 0..k {
            for u in 0..pl {
                let i0 = f * cl + 2 * u;
                let (best_i, best_v) =
                    if conv[i0] >= conv[i0 + 1] { (i0, conv[i0]) } else { (i0 + 1, conv[i0 + 1]) };
                pooled[f * pl + u] = best_v;
                arg[f * pl + u] = best_i;
            }
        }
    }

    /// Forward-traces the whole batch into workspace buffers: conv
    /// activations per row in `ws.conv`, argmax indices in `ws.argmax`,
    /// pooled features in `ws.acts[0]`.
    fn trace_batch_into(&self, x: &Matrix, ws: &mut Workspace) {
        let n = x.rows();
        let k = self.num_filters();
        let cl = self.conv_len();
        let pl = self.pooled_len();
        ws.ensure_acts(1);
        ws.conv.resize(n, k * cl);
        ws.argmax.resize(n * k * pl, 0);
        let pooled = &mut ws.acts[0];
        pooled.resize(n, k * pl);
        for r in 0..n {
            self.forward_sample_into(
                x.row(r),
                ws.conv.row_mut(r),
                pooled.row_mut(r),
                &mut ws.argmax[r * k * pl..(r + 1) * k * pl],
            );
        }
    }

    /// Forward pass with traces: conv activations in `ws.conv`, argmax
    /// indices in `ws.argmax`, pooled features in `ws.acts[0]`, class
    /// probabilities in `ws.acts[1]`.
    fn forward_into(&self, x: &Matrix, ws: &mut Workspace) {
        assert_eq!(x.cols(), self.features, "feature dimension mismatch");
        ws.ensure_acts(2);
        self.trace_batch_into(x, ws);
        let (head, tail) = ws.acts.split_at_mut(1);
        let (pooled, logits) = (&head[0], &mut tail[0]);
        pooled.matmul_epilogue_into(&self.dense, Epilogue::Bias(&self.dense_bias), logits);
        loss::softmax_rows(logits);
    }

    fn pooled_batch(&self, x: &Matrix) -> Matrix {
        let pl = self.pooled_len();
        let k = self.num_filters();
        let cl = self.conv_len();
        let mut out = Matrix::zeros(x.rows(), k * pl);
        // Per-call (not per-row) scratch: the conv/argmax traces are
        // discarded, only the pooled features survive.
        let mut conv = vec![0.0; k * cl];
        let mut arg = vec![0usize; k * pl];
        for r in 0..x.rows() {
            self.forward_sample_into(x.row(r), &mut conv, out.row_mut(r), &mut arg);
        }
        out
    }
}

impl Model for Cnn1d {
    fn num_features(&self) -> usize {
        self.features
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.features, "feature dimension mismatch");
        let pooled = self.pooled_batch(x);
        let mut logits = Matrix::zeros(0, 0);
        pooled.matmul_epilogue_into(&self.dense, Epilogue::Bias(&self.dense_bias), &mut logits);
        loss::softmax_rows(&mut logits);
        logits
    }

    fn predict_proba_into(&self, x: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        // The whole forward trace stays in `ws` for `backward_into`.
        self.forward_into(x, ws);
        out.copy_from(&ws.acts[1]);
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
        let n = x.rows();
        let k = self.num_filters();
        let cl = self.conv_len();
        let pl = self.pooled_len();
        loss::softmax_grad_into(&ws.acts[1], y, weights, &mut ws.delta_a); // n x classes

        let nf = k * self.kernel;
        let nd = self.dense.rows() * self.dense.cols();
        out.clear();
        out.resize(self.num_parameters(), 0.0);

        // Dense grads, written straight into their flat-layout slots.
        ws.acts[0].matmul_transa_into(&ws.delta_a, &mut ws.grad_w);
        out[nf + k..nf + k + nd].copy_from_slice(ws.grad_w.as_slice());
        ws.delta_a.column_sums_into(&mut out[nf + k + nd..]);

        // Back through pooling + ReLU + conv, accumulating into the flat
        // filter/conv-bias slots directly.
        ws.delta_a.matmul_transb_into(&self.dense, &mut ws.delta_b); // n x (k*pl)
        let (head, _) = out.split_at_mut(nf + k);
        let (gf_flat, grad_conv_bias) = head.split_at_mut(nf);
        for r in 0..n {
            let dp = ws.delta_b.row(r);
            let conv = ws.conv.row(r);
            let arg = &ws.argmax[r * k * pl..(r + 1) * k * pl];
            let xrow = x.row(r);
            for f in 0..k {
                let gf = &mut gf_flat[f * self.kernel..(f + 1) * self.kernel];
                for u in 0..pl {
                    let d = dp[f * pl + u];
                    if d == 0.0 {
                        continue;
                    }
                    let ci = arg[f * pl + u];
                    // ReLU gate: the stored conv value is post-ReLU.
                    if conv[ci] <= 0.0 {
                        continue;
                    }
                    let t = ci - f * cl;
                    for (j, g) in gf.iter_mut().enumerate() {
                        *g += d * xrow[t + j];
                    }
                    grad_conv_bias[f] += d;
                }
            }
        }
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
        // The probabilities sit in `acts[1]` after the backward pass
        // (which only reads them), so the loss reuses the gradient's
        // forward pass.
        self.gradient_into(x, y, weights, ws, out);
        loss::cross_entropy(&ws.acts[1], y)
    }

    fn parameters_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.filters.as_slice());
        out.extend_from_slice(&self.conv_bias);
        out.extend_from_slice(self.dense.as_slice());
        out.extend_from_slice(&self.dense_bias);
    }

    fn apply_update(&mut self, delta: &[f64]) {
        assert_eq!(delta.len(), self.num_parameters(), "update size mismatch");
        let mut off = 0;
        let nf = self.filters.rows() * self.filters.cols();
        for (w, &d) in self.filters.as_mut_slice().iter_mut().zip(&delta[off..off + nf]) {
            *w += d;
        }
        off += nf;
        let nb = self.conv_bias.len();
        for (b, &d) in self.conv_bias.iter_mut().zip(&delta[off..off + nb]) {
            *b += d;
        }
        off += nb;
        let nd = self.dense.rows() * self.dense.cols();
        for (w, &d) in self.dense.as_mut_slice().iter_mut().zip(&delta[off..off + nd]) {
            *w += d;
        }
        off += nd;
        for (b, &d) in self.dense_bias.iter_mut().zip(&delta[off..]) {
            *b += d;
        }
    }

    fn parameters(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.num_parameters());
        p.extend_from_slice(self.filters.as_slice());
        p.extend_from_slice(&self.conv_bias);
        p.extend_from_slice(self.dense.as_slice());
        p.extend_from_slice(&self.dense_bias);
        p
    }

    fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_parameters(), "parameter size mismatch");
        let mut off = 0;
        let nf = self.filters.rows() * self.filters.cols();
        self.filters.as_mut_slice().copy_from_slice(&params[off..off + nf]);
        off += nf;
        let nb = self.conv_bias.len();
        self.conv_bias.copy_from_slice(&params[off..off + nb]);
        off += nb;
        let nd = self.dense.rows() * self.dense.cols();
        self.dense.as_mut_slice().copy_from_slice(&params[off..off + nd]);
        off += nd;
        self.dense_bias.copy_from_slice(&params[off..]);
    }

    fn num_parameters(&self) -> usize {
        self.filters.rows() * self.filters.cols()
            + self.conv_bias.len()
            + self.dense.rows() * self.dense.cols()
            + self.dense_bias.len()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::accuracy;

    /// Classes distinguished by where a bump sits in the signal.
    fn bump_batch() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let noise = ((i * 17) % 11) as f64 * 0.01;
            let mut signal = vec![noise; 12];
            if i % 2 == 0 {
                signal[2] = 2.0;
                signal[3] = 2.0;
                labels.push(0);
            } else {
                signal[8] = 2.0;
                signal[9] = 2.0;
                labels.push(1);
            }
            rows.push(signal);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_positional_bumps() {
        let (x, y) = bump_batch();
        let mut model = Cnn1d::new(12, 8, 3, 2, 42);
        for _ in 0..300 {
            let g = model.gradient(&x, &y, None);
            model.apply_update(&g.iter().map(|v| -0.3 * v).collect::<Vec<_>>());
        }
        assert!(accuracy(&model, &x, &y) > 0.95, "CNN must separate bump positions");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = Matrix::from_rows(&[
            vec![0.5, -1.0, 0.3, 0.8, -0.2, 0.1, 0.9, -0.4],
            vec![1.5, 0.3, -0.7, 0.2, 0.6, -0.1, 0.0, 0.4],
        ]);
        let y = vec![0, 1];
        let model = Cnn1d::new(8, 3, 3, 2, 7);
        let analytic = model.gradient(&x, &y, None);
        let params = model.parameters();
        let eps = 1e-6;
        for i in (0..params.len()).step_by(5) {
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
                (analytic[i] - numeric).abs() < 1e-4,
                "param {i}: analytic {} vs numeric {numeric}",
                analytic[i]
            );
        }
    }

    #[test]
    fn probabilities_normalised_and_finite() {
        let model = Cnn1d::new(10, 4, 3, 3, 0);
        let x = Matrix::from_rows(&[vec![100.0; 10], vec![-100.0; 10]]);
        let p = model.predict_proba(&x);
        assert!(p.is_finite());
        for row in p.row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parameter_roundtrip() {
        let a = Cnn1d::new(10, 4, 3, 2, 1);
        let mut b = Cnn1d::new(10, 4, 3, 2, 2);
        b.set_parameters(&a.parameters());
        assert_eq!(a.parameters(), b.parameters());
    }

    #[test]
    #[should_panic(expected = "features")]
    fn rejects_too_short_input() {
        Cnn1d::new(3, 4, 3, 2, 0);
    }

    #[test]
    fn num_parameters_accounts_all_layers() {
        let m = Cnn1d::new(12, 8, 3, 2, 0);
        // conv: 8*3 + 8; dense: 8 * ((12-3+1)/2) * 2 + 2 = 8*5*2 + 2
        assert_eq!(m.num_parameters(), 24 + 8 + 80 + 2);
    }
}
