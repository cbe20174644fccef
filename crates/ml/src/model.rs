//! The object-safe model trait shared by FreewayML and every baseline.

use crate::workspace::Workspace;
use freeway_linalg::Matrix;

/// A streaming classification model trained by mini-batch gradient steps.
///
/// Gradients and parameters use a single *flat* layout (defined per model,
/// stable across calls), which lets optimizer state, A-GEM projection,
/// pre-computing-window accumulation, and knowledge snapshots operate on
/// plain `&[f64]` without knowing the architecture. Models are plain
/// parameter containers, so the trait requires `Send + Sync` — shared
/// read-only access from shard threads is safe by construction.
pub trait Model: Send + Sync {
    /// Input feature dimension.
    fn num_features(&self) -> usize;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Class-probability matrix (`n x classes`) for a batch of inputs.
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// [`Model::predict_proba`] writing into `out` (re-shaped in place),
    /// with intermediates drawn from `ws`. Bit-identical to the
    /// allocating path. The default delegates to `predict_proba`, so
    /// existing `Box<dyn Model>` implementors are untouched; the hot
    /// models override this to be allocation-free once the workspace is
    /// warm.
    fn predict_proba_into(&self, x: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        let _ = ws;
        *out = self.predict_proba(x);
    }

    /// Hard class predictions via argmax over probabilities.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let probs = self.predict_proba(x);
        probs.row_iter().map(|row| freeway_linalg::vector::argmax(row).unwrap_or(0)).collect()
    }

    /// Mean cross-entropy of this model on a labeled batch.
    fn loss(&self, x: &Matrix, y: &[usize]) -> f64 {
        crate::loss::cross_entropy(&self.predict_proba(x), y)
    }

    /// Average gradient of the loss over a labeled batch, flattened in
    /// parameter order. `weights` (when given) re-weights samples, which is
    /// how ASW decay influences the long-granularity model update.
    fn gradient(&self, x: &Matrix, y: &[usize], weights: Option<&[f64]>) -> Vec<f64>;

    /// [`Model::gradient`] writing the flat gradient into `out` (cleared
    /// and re-sized in place), with intermediates drawn from `ws`.
    /// Bit-identical to the allocating path; the default delegates to
    /// `gradient`.
    fn gradient_into(
        &self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        let _ = ws;
        let grad = self.gradient(x, y, weights);
        out.clear();
        out.extend_from_slice(&grad);
    }

    /// The backward half of [`Model::gradient_into`]: writes the flat
    /// gradient of a labeled batch into `out` from the forward pass of
    /// `x` that `ws` already holds — left there by
    /// [`Model::predict_proba_into`] or `gradient_into` on `x` at this
    /// model's current parameters, which the caller guarantees. Under
    /// that precondition the result is bit-identical to `gradient_into`:
    /// same activations, same backward arithmetic. Returns `false`,
    /// leaving `ws` and `out` untouched, when this model's inference path
    /// does not keep what its backward pass reads; the caller then runs
    /// `gradient_into`. The default returns `false`; the built-in models
    /// implement `gradient_into` as their forward pass plus this.
    fn backward_into(
        &self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) -> bool {
        let _ = (x, y, weights, ws, out);
        false
    }

    /// [`Model::gradient_into`] that also returns the pre-update mean
    /// cross-entropy, computed from the *same* forward pass the gradient
    /// already performs — the probabilities are identical floats either
    /// way, so this is bit-identical to `loss` followed by
    /// `gradient_into` while skipping a whole forward pass. The default
    /// runs the two-pass form; the built-in models override it.
    fn gradient_loss_into(
        &self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) -> f64 {
        let loss = self.loss(x, y);
        self.gradient_into(x, y, weights, ws, out);
        loss
    }

    /// Adds `delta` to the flat parameter vector (optimizers produce the
    /// delta, including its sign).
    ///
    /// # Panics
    /// Panics if `delta.len() != self.num_parameters()`.
    fn apply_update(&mut self, delta: &[f64]);

    /// Flat copy of all parameters.
    fn parameters(&self) -> Vec<f64>;

    /// [`Model::parameters`] writing into `out`, reusing its allocation.
    /// The default delegates to `parameters`.
    fn parameters_into(&self, out: &mut Vec<f64>) {
        let params = self.parameters();
        out.clear();
        out.extend_from_slice(&params);
    }

    /// Overwrites all parameters from a flat vector (used by historical
    /// knowledge reuse to restore a snapshot).
    ///
    /// # Panics
    /// Panics if `params.len() != self.num_parameters()`.
    fn set_parameters(&mut self, params: &[f64]);

    /// Total flat parameter count.
    fn num_parameters(&self) -> usize;

    /// Deep copy behind a fresh box (object-safe clone).
    fn clone_model(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Fraction of correct hard predictions on a labeled batch — the paper's
/// real-time accuracy `acc` (Equation 1).
///
/// # Panics
/// Panics if `y.len() != x.rows()`.
pub fn accuracy(model: &dyn Model, x: &Matrix, y: &[usize]) -> f64 {
    assert_eq!(x.rows(), y.len(), "accuracy label mismatch");
    if y.is_empty() {
        return 0.0;
    }
    let preds = model.predict(x);
    let correct = preds.iter().zip(y).filter(|(p, t)| p == t).count();
    correct as f64 / y.len() as f64
}
