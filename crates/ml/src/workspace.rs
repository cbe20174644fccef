//! Reusable scratch buffers for allocation-free forward/backward passes.
//!
//! A [`Workspace`] owns every intermediate buffer a model needs for one
//! training step: per-layer activations, ping-pong backprop deltas, a
//! weight-gradient staging matrix, and the CNN's convolution/argmax
//! traces. Buffers are lazily re-shaped on batch-size or architecture
//! change via [`freeway_linalg::Matrix::resize`], which retains the
//! backing allocation — so once a workspace has seen its largest batch,
//! the `*_into` paths through it perform **zero** heap allocations (the
//! steady-state invariant gated by the `alloc-metrics` regression test
//! in `freeway-eval`).
//!
//! The buffers are plain scratch: their contents between calls are
//! meaningless, and a single workspace can be shared across models of
//! different shapes (each call re-sizes what it touches). All workspace
//! paths are bit-identical to their allocating counterparts.

use freeway_linalg::Matrix;

/// Scratch buffers backing the `*_into` methods of [`crate::Model`].
#[derive(Debug)]
pub struct Workspace {
    /// Per-layer post-activation outputs. The MLP uses one slot per
    /// dense layer; the CNN uses `[pooled, probs]`; logistic regression
    /// uses `[probs]`. The *input* batch is always borrowed from the
    /// caller, never copied here.
    pub(crate) acts: Vec<Matrix>,
    /// Backprop delta for the layer currently being differentiated.
    pub(crate) delta_a: Matrix,
    /// Ping-pong partner of `delta_a` (the next layer's delta is written
    /// here, then the two are swapped).
    pub(crate) delta_b: Matrix,
    /// Per-layer weight-gradient staging buffer (copied into the flat
    /// gradient at the layer's parameter offset).
    pub(crate) grad_w: Matrix,
    /// CNN convolution trace: one row per sample, `filters * conv_len`
    /// post-ReLU activations.
    pub(crate) conv: Matrix,
    /// CNN max-pool argmax trace, `samples * filters * pooled_len`
    /// indices into the convolution trace.
    pub(crate) argmax: Vec<usize>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            acts: Vec::new(),
            delta_a: Matrix::zeros(0, 0),
            delta_b: Matrix::zeros(0, 0),
            grad_w: Matrix::zeros(0, 0),
            conv: Matrix::zeros(0, 0),
            argmax: Vec::new(),
        }
    }

    /// Exchanges the forward-pass trace — activations, and the CNN's
    /// convolution and argmax traces — with `other`, leaving each
    /// workspace's backward scratch (deltas, weight-gradient staging) in
    /// place. Swaps buffers, not contents, so it neither copies nor
    /// allocates.
    pub(crate) fn swap_forward(&mut self, other: &mut Workspace) {
        std::mem::swap(&mut self.acts, &mut other.acts);
        std::mem::swap(&mut self.conv, &mut other.conv);
        std::mem::swap(&mut self.argmax, &mut other.argmax);
    }

    /// Ensures at least `n` activation slots exist (never shrinks, so a
    /// workspace shared across models keeps every slot's allocation).
    pub(crate) fn ensure_acts(&mut self, n: usize) {
        if self.acts.len() < n {
            self.acts.resize_with(n, || Matrix::zeros(0, 0));
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}
