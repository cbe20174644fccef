//! Model + optimizer pairing: one incremental training step per batch.

use crate::gradient::PrecomputeAccumulator;
use crate::model::Model;
use crate::optim::Optimizer;
use crate::workspace::Workspace;
use freeway_linalg::Matrix;

/// Couples a model with an optimizer and performs mini-batch updates —
/// the incremental-update loop every SML framework in the paper shares.
///
/// The trainer owns all per-step scratch (a model [`Workspace`] and the
/// gradient/parameter/delta buffers), so a warm steady-state
/// `train_batch` performs no heap allocation while producing
/// bit-identical results to the allocating path.
pub struct Trainer {
    model: Box<dyn Model>,
    optimizer: Box<dyn Optimizer>,
    ws: Workspace,
    grad: Vec<f64>,
    params: Vec<f64>,
    delta: Vec<f64>,
}

impl Trainer {
    /// Creates a trainer owning the model and optimizer.
    pub fn new(model: Box<dyn Model>, optimizer: Box<dyn Optimizer>) -> Self {
        Self {
            model,
            optimizer,
            ws: Workspace::new(),
            grad: Vec::new(),
            params: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// One mini-batch SGD step; returns the pre-update loss.
    pub fn train_batch(&mut self, x: &Matrix, y: &[usize]) -> f64 {
        self.train_weighted(x, y, None)
    }

    /// One weighted mini-batch step (weights come from ASW decay).
    pub fn train_weighted(&mut self, x: &Matrix, y: &[usize], weights: Option<&[f64]>) -> f64 {
        // Single forward pass: the loss comes from the probabilities the
        // gradient computes anyway (bit-identical to predicting first —
        // same weights, same arithmetic).
        let loss = self.model.gradient_loss_into(x, y, weights, &mut self.ws, &mut self.grad);
        self.model.parameters_into(&mut self.params);
        self.optimizer.step_into(&self.params, &self.grad, &mut self.delta);
        self.model.apply_update(&self.delta);
        loss
    }

    /// One mini-batch SGD step that skips the pre-update loss. The
    /// parameter update is bit-identical to [`Self::train_batch`] — same
    /// gradient, same optimizer step — but the streaming hot path discards
    /// the loss, and computing it costs a `ln` per (row, class).
    pub fn train_step(&mut self, x: &Matrix, y: &[usize]) {
        self.train_weighted_step(x, y, None);
    }

    /// [`Self::train_weighted`] without the pre-update loss; see
    /// [`Self::train_step`].
    pub fn train_weighted_step(&mut self, x: &Matrix, y: &[usize], weights: Option<&[f64]>) {
        self.model.gradient_into(x, y, weights, &mut self.ws, &mut self.grad);
        self.model.parameters_into(&mut self.params);
        self.optimizer.step_into(&self.params, &self.grad, &mut self.delta);
        self.model.apply_update(&self.delta);
    }

    /// [`Self::train_step`] back-propagating from the forward pass of `x`
    /// that `forward` already holds — left there by
    /// `self.model().predict_proba_into(x, forward, _)` at the model's
    /// current parameters, which the caller guarantees — instead of
    /// running it again. Under that precondition the update is
    /// bit-identical to `train_step`: same activations, same backward
    /// pass, same optimizer step. The backward runs on this trainer's
    /// own scratch (the forward trace is borrowed by buffer swap, not
    /// copied), so a warm call allocates nothing.
    ///
    /// Returns `false`, touching nothing, when the pass cannot be reused:
    /// a model may not keep what its backward reads (see
    /// [`Model::backward_into`]). The caller then runs `train_step`.
    pub fn train_step_from(&mut self, x: &Matrix, y: &[usize], forward: &mut Workspace) -> bool {
        self.ws.swap_forward(forward);
        let done = self.model.backward_into(x, y, None, &mut self.ws, &mut self.grad);
        self.ws.swap_forward(forward);
        if done {
            let grad = std::mem::take(&mut self.grad);
            self.apply_gradient(&grad);
            self.grad = grad;
        }
        done
    }

    /// Writes the model's (optionally weighted) average batch gradient
    /// into `out` using this trainer's reusable workspace — the
    /// allocation-free building block of the pre-computing window.
    /// Bit-identical to `self.model().gradient(x, y, weights)`.
    pub fn gradient_into(
        &mut self,
        x: &Matrix,
        y: &[usize],
        weights: Option<&[f64]>,
        out: &mut Vec<f64>,
    ) {
        self.model.gradient_into(x, y, weights, &mut self.ws, out);
    }

    /// Applies a pre-computed (already merged) gradient — the final step of
    /// the pre-computing window.
    pub fn apply_gradient(&mut self, grad: &[f64]) {
        self.model.parameters_into(&mut self.params);
        self.optimizer.step_into(&self.params, grad, &mut self.delta);
        self.model.apply_update(&self.delta);
    }

    /// Adds one subset's weighted average gradient to `acc` with the
    /// subset's total sample weight `weight`: bit-identical to
    /// [`Self::gradient_into`] followed by
    /// [`PrecomputeAccumulator::add_subset`], computed in this trainer's
    /// own gradient scratch, so a warm call allocates nothing.
    pub fn accumulate_gradient(
        &mut self,
        x: &Matrix,
        y: &[usize],
        weights: &[f64],
        weight: f64,
        acc: &mut PrecomputeAccumulator,
    ) {
        self.model.gradient_into(x, y, Some(weights), &mut self.ws, &mut self.grad);
        acc.add_subset(&self.grad, weight);
    }

    /// Applies the merged gradient of the subsets `acc` holds and empties
    /// it; does nothing when `acc` is empty. Bit-identical to
    /// [`PrecomputeAccumulator::take_merged`] followed by
    /// [`Self::apply_gradient`], merging into this trainer's own gradient
    /// scratch, so a warm call allocates nothing.
    pub fn apply_merged(&mut self, acc: &mut PrecomputeAccumulator) {
        let mut merged = std::mem::take(&mut self.grad);
        if acc.take_merged_into(&mut merged) {
            self.apply_gradient(&merged);
        }
        self.grad = merged;
    }

    /// Overwrites the model's parameters with `src`'s, which must share its
    /// architecture, through this trainer's parameter scratch, so a warm
    /// call allocates nothing.
    pub fn copy_parameters_from(&mut self, src: &dyn Model) {
        src.parameters_into(&mut self.params);
        self.model.set_parameters(&self.params);
    }

    /// Class probabilities written into `out` using this trainer's
    /// workspace — the allocation-free inference path. Bit-identical to
    /// `self.model().predict_proba(x)`.
    pub fn predict_proba_into(&mut self, x: &Matrix, out: &mut Matrix) {
        self.model.predict_proba_into(x, &mut self.ws, out);
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Mutable access to the model (knowledge restore writes through this).
    pub fn model_mut(&mut self) -> &mut dyn Model {
        self.model.as_mut()
    }
}

impl Clone for Trainer {
    fn clone(&self) -> Self {
        // Scratch buffers are per-trainer working memory, not state: the
        // clone starts with fresh (empty) ones and warms them on first use.
        Self::new(self.model.clone_model(), self.optimizer.clone_optimizer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::accuracy;
    use crate::optim::Sgd;
    use crate::spec::ModelSpec;

    fn separable() -> (Matrix, Vec<usize>) {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![side * 2.0 + (i as f64 * 0.1).sin() * 0.2, side]
            })
            .collect();
        let labels = (0..40).map(|i| i % 2).collect();
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = separable();
        let mut t = Trainer::new(ModelSpec::lr(2, 2).build(0), Box::new(Sgd::new(0.5)));
        let first = t.train_batch(&x, &y);
        let mut last = first;
        for _ in 0..50 {
            last = t.train_batch(&x, &y);
        }
        assert!(last < first, "loss should drop: {first} -> {last}");
        assert!(accuracy(t.model(), &x, &y) > 0.95);
    }

    #[test]
    fn train_step_is_bit_identical_to_train_batch() {
        let (x, y) = separable();
        let mut a = Trainer::new(ModelSpec::mlp(2, vec![8], 2).build(3), Box::new(Sgd::new(0.1)));
        let mut b = a.clone();
        for _ in 0..5 {
            let _ = a.train_batch(&x, &y);
            b.train_step(&x, &y);
        }
        assert_eq!(a.model().parameters(), b.model().parameters());
        let w: Vec<f64> = (0..y.len()).map(|i| 0.5 + (i % 3) as f64 * 0.25).collect();
        let _ = a.train_weighted(&x, &y, Some(&w));
        b.train_weighted_step(&x, &y, Some(&w));
        assert_eq!(a.model().parameters(), b.model().parameters());
    }

    #[test]
    fn train_step_from_is_bit_identical_to_train_step() {
        // 8 features so the CNN's kernel fits; 3 classes for a remainder
        // tile. Each step's forward pass runs on a separate workspace, the
        // way the ensemble's inference scratch does.
        let rows: Vec<Vec<f64>> =
            (0..37).map(|i| (0..8).map(|j| ((i * 8 + j) as f64 * 0.37).sin()).collect()).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<usize> = (0..37).map(|i| i % 3).collect();
        for spec in
            [ModelSpec::lr(8, 3), ModelSpec::mlp(8, vec![6, 5], 3), ModelSpec::cnn(8, 4, 3, 3)]
        {
            let mut cached = Trainer::new(spec.build(5), Box::new(Sgd::new(0.3)));
            let mut plain = cached.clone();
            let (mut forward, mut probs) = (Workspace::new(), Matrix::zeros(0, 0));
            for _ in 0..4 {
                cached.model().predict_proba_into(&x, &mut forward, &mut probs);
                assert!(cached.train_step_from(&x, &y, &mut forward), "{spec:?}");
                plain.train_step(&x, &y);
                let bits = |t: &Trainer| -> Vec<u64> {
                    t.model().parameters().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&cached), bits(&plain), "{spec:?}");
            }
        }
    }

    #[test]
    fn apply_gradient_equals_train_batch_for_sgd() {
        let (x, y) = separable();
        let mut a = Trainer::new(ModelSpec::lr(2, 2).build(0), Box::new(Sgd::new(0.1)));
        let mut b = a.clone();
        a.train_batch(&x, &y);
        let grad = b.model().gradient(&x, &y, None);
        b.apply_gradient(&grad);
        assert_eq!(a.model().parameters(), b.model().parameters());
    }

    #[test]
    fn clone_is_deep() {
        let (x, y) = separable();
        let mut a = Trainer::new(ModelSpec::lr(2, 2).build(0), Box::new(Sgd::new(0.1)));
        let b = a.clone();
        a.train_batch(&x, &y);
        assert_ne!(a.model().parameters(), b.model().parameters());
    }
}
