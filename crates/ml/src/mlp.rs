//! Streaming multi-layer perceptron (ReLU hidden layers, softmax output).

use crate::loss;
use crate::model::Model;
use crate::workspace::Workspace;
use freeway_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One dense layer: `out = act(x W + b)`.
#[derive(Clone, Debug)]
struct Dense {
    weights: Matrix, // in x out
    bias: Vec<f64>,  // out
}

impl Dense {
    fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weights, out);
        for r in 0..out.rows() {
            for (v, &b) in out.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
    }

    fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

/// A feed-forward network with ReLU hidden activations and a softmax head —
/// the "StreamingMLP" of the paper's evaluation.
///
/// Flat parameter layout: layers in order, each as row-major `W` then `b`.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    features: usize,
    classes: usize,
}

impl Mlp {
    /// Builds an MLP with the given hidden widths, Xavier-uniform
    /// initialised from `seed`.
    ///
    /// # Panics
    /// Panics if `classes < 2` or any width is zero.
    pub fn new(features: usize, hidden: &[usize], classes: usize, seed: u64) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(features > 0, "need at least one feature");
        assert!(hidden.iter().all(|&h| h > 0), "hidden widths must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![features];
        dims.extend_from_slice(hidden);
        dims.push(classes);
        let layers = dims
            .windows(2)
            .map(|w| {
                let (fan_in, fan_out) = (w[0], w[1]);
                let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
                Dense {
                    weights: Matrix::random_uniform(fan_in, fan_out, limit, &mut rng),
                    bias: vec![0.0; fan_out],
                }
            })
            .collect();
        Self { layers, features, classes }
    }

    /// Forward pass writing every layer's *post-activation* output into
    /// `acts[i]`. The input batch is borrowed, never copied — layer 0
    /// reads `x` directly, layer `i > 0` reads `acts[i - 1]`.
    fn forward_layers_into(&self, x: &Matrix, acts: &mut Vec<Matrix>) {
        if acts.len() < self.layers.len() {
            acts.resize_with(self.layers.len(), || Matrix::zeros(0, 0));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(i);
            let input: &Matrix = if i == 0 { x } else { &prev[i - 1] };
            let z = &mut rest[0];
            layer.forward_into(input, z);
            if i + 1 == self.layers.len() {
                loss::softmax_rows(z);
            } else {
                for v in z.as_mut_slice() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
    }
}

impl Model for Mlp {
    fn num_features(&self) -> usize {
        self.features
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut acts = Vec::new();
        self.forward_layers_into(x, &mut acts);
        acts.pop().expect("at least one layer")
    }

    fn predict_proba_into(&self, x: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        ws.ensure_acts(self.layers.len());
        self.forward_layers_into(x, &mut ws.acts);
        out.copy_from(&ws.acts[self.layers.len() - 1]);
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
        ws.ensure_acts(self.layers.len());
        self.forward_layers_into(x, &mut ws.acts);
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
        // `ws.acts` holds every layer's post-activation output (the
        // inference path keeps them all). delta starts as the
        // (weighted-average) softmax+CE gradient and is back-propagated
        // layer by layer, ping-ponging between the two workspace delta
        // buffers.
        loss::softmax_grad_into(&ws.acts[self.layers.len() - 1], y, weights, &mut ws.delta_a);

        let total = self.num_parameters();
        out.clear();
        out.resize(total, 0.0);
        let mut off = total;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let nw = layer.weights.rows() * layer.weights.cols();
            let nb = layer.bias.len();
            off -= nw + nb;
            let input: &Matrix = if i == 0 { x } else { &ws.acts[i - 1] };
            // grad_W = input^T delta, written straight into the layer's
            // slice of the flat layout; grad_b = column sums of delta.
            input.matmul_transa_into(&ws.delta_a, &mut ws.grad_w);
            out[off..off + nw].copy_from_slice(ws.grad_w.as_slice());
            ws.delta_a.column_sums_into(&mut out[off + nw..off + nw + nb]);
            if i > 0 {
                ws.delta_a.matmul_transb_into(&layer.weights, &mut ws.delta_b);
                // ReLU mask from the *post-activation* values of layer
                // i-1 — which is exactly this layer's input.
                for (d, &a) in ws.delta_b.as_mut_slice().iter_mut().zip(input.as_slice()) {
                    if a <= 0.0 {
                        *d = 0.0;
                    }
                }
                std::mem::swap(&mut ws.delta_a, &mut ws.delta_b);
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
        // The final activations (probabilities) survive the backward pass
        // untouched, so the loss reuses the gradient's forward pass.
        self.gradient_into(x, y, weights, ws, out);
        loss::cross_entropy(&ws.acts[self.layers.len() - 1], y)
    }

    fn parameters_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.bias);
        }
    }

    fn apply_update(&mut self, delta: &[f64]) {
        assert_eq!(delta.len(), self.num_parameters(), "update size mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let nw = layer.weights.rows() * layer.weights.cols();
            for (w, &d) in layer.weights.as_mut_slice().iter_mut().zip(&delta[offset..offset + nw])
            {
                *w += d;
            }
            offset += nw;
            let nb = layer.bias.len();
            for (b, &d) in layer.bias.iter_mut().zip(&delta[offset..offset + nb]) {
                *b += d;
            }
            offset += nb;
        }
    }

    fn parameters(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.num_parameters());
        for layer in &self.layers {
            p.extend_from_slice(layer.weights.as_slice());
            p.extend_from_slice(&layer.bias);
        }
        p
    }

    fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_parameters(), "parameter size mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let nw = layer.weights.rows() * layer.weights.cols();
            layer.weights.as_mut_slice().copy_from_slice(&params[offset..offset + nw]);
            offset += nw;
            let nb = layer.bias.len();
            layer.bias.copy_from_slice(&params[offset..offset + nb]);
            offset += nb;
        }
    }

    fn num_parameters(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::accuracy;

    /// XOR-ish dataset that a linear model cannot fit.
    fn xor_batch() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let jx = ((i * 13) % 7) as f64 * 0.02;
            let jy = ((i * 29) % 5) as f64 * 0.02;
            let (a, b) = match i % 4 {
                0 => (0.0, 0.0),
                1 => (0.0, 1.0),
                2 => (1.0, 0.0),
                _ => (1.0, 1.0),
            };
            rows.push(vec![a + jx, b + jy]);
            labels.push(((a as i32) ^ (b as i32)) as usize);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_batch();
        let mut model = Mlp::new(2, &[16], 2, 42);
        for _ in 0..800 {
            let g = model.gradient(&x, &y, None);
            model.apply_update(&g.iter().map(|v| -0.8 * v).collect::<Vec<_>>());
        }
        assert!(accuracy(&model, &x, &y) > 0.95, "MLP must solve XOR");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0], vec![1.5, 0.3], vec![-0.7, 0.9]]);
        let y = vec![0, 1, 0];
        let model = Mlp::new(2, &[4], 2, 7);
        let analytic = model.gradient(&x, &y, None);
        let params = model.parameters();
        let eps = 1e-6;
        for i in (0..params.len()).step_by(3) {
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
    fn deep_network_gradient_matches_finite_differences() {
        let x = Matrix::from_rows(&[vec![0.2, -0.4, 0.9], vec![-1.1, 0.5, 0.1]]);
        let y = vec![2, 0];
        let model = Mlp::new(3, &[5, 4], 3, 99);
        let analytic = model.gradient(&x, &y, None);
        let params = model.parameters();
        let eps = 1e-6;
        for i in (0..params.len()).step_by(7) {
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
    fn same_seed_same_model() {
        let a = Mlp::new(4, &[8], 3, 5);
        let b = Mlp::new(4, &[8], 3, 5);
        assert_eq!(a.parameters(), b.parameters());
        let c = Mlp::new(4, &[8], 3, 6);
        assert_ne!(a.parameters(), c.parameters());
    }

    #[test]
    fn parameter_roundtrip() {
        let a = Mlp::new(3, &[6, 4], 2, 1);
        let mut b = Mlp::new(3, &[6, 4], 2, 2);
        b.set_parameters(&a.parameters());
        assert_eq!(a.parameters(), b.parameters());
        let x = Matrix::from_rows(&[vec![1.0, -2.0, 0.5]]);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn probabilities_are_normalised() {
        let model = Mlp::new(3, &[5], 4, 0);
        let x = Matrix::from_rows(&[vec![10.0, -3.0, 0.0], vec![0.0, 0.0, 0.0]]);
        let p = model.predict_proba(&x);
        for row in p.row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_gradient_interpolates() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let y = vec![0, 1];
        let model = Mlp::new(2, &[3], 2, 4);
        let g_uniform = model.gradient(&x, &y, None);
        let g_equal = model.gradient(&x, &y, Some(&[2.0, 2.0]));
        for (a, b) in g_uniform.iter().zip(&g_equal) {
            assert!((a - b).abs() < 1e-12, "equal weights must equal uniform");
        }
    }
}
