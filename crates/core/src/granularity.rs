//! Multi-time-granularity models and the distance ensemble (§IV-B).
//!
//! Level 0 is the *short*-granularity model: it trains on every incoming
//! batch. Levels ≥ 1 are *long*-granularity models, each fed by its own
//! [`AdaptiveStreamingWindow`]; level `i`'s window is `i` times the base
//! size, so `model_num > 2` yields a spectrum of granularities without
//! extra implementation effort, exactly as the paper promises.
//!
//! Inference blends all levels with Gaussian-kernel weights over the
//! model–data distance `D` (Equations 12–14): level 0 uses
//! `D = ‖ȳ_n − ȳ_{n−1}‖` (distance to its last training batch) and long
//! levels use `D = ‖ȳ_n − ȳ_ASW‖`.

use crate::asw::{AdaptiveStreamingWindow, AswParams};
use crate::config::FreewayConfig;
use crate::error::CheckpointError;
use freeway_linalg::{pool, vector, Matrix};
use freeway_ml::{Model, ModelSpec, PrecomputeAccumulator, Trainer, Workspace};
use parking_lot::Mutex;
use std::sync::Arc;

/// Rows scored by the per-level prequential probe in [`MultiGranularity::train`].
const PROBE_ROWS: usize = 64;

/// A level's inference scratch, kept as its forward cache.
///
/// `ws` holds every activation of the level's most recent
/// `predict_proba` forward pass and `probs` its output; `valid` says that
/// pass ran on the bank's tagged batch (see
/// [`MultiGranularity::forward_tag`]) at the level's current parameters.
/// Every mutation of the level's model clears it. Under the prequential
/// test-then-train contract the training batch is the batch just
/// inferred, so `train` takes the probe's predictions from `probs` and
/// back-propagates the short level from `ws` instead of running the same
/// forward pass again. A hit needs `valid` and a tag bitwise equal to
/// the training batch; a forward pass is a deterministic function of
/// parameters and batch, so results are bit-identical whether the cache
/// hits or misses.
struct ForwardCache {
    ws: Workspace,
    probs: Matrix,
    valid: bool,
}

/// One granularity level.
struct Level {
    trainer: Trainer,
    /// `None` for the short level (trains every batch), the window
    /// otherwise.
    window: Option<AdaptiveStreamingWindow>,
    /// Completed updates; a level that has never trained must not vote.
    updates: usize,
    /// Distribution fingerprint of the data this level was *trained on*
    /// (the short level's last batch, a long level's window mean at its
    /// most recent completion). The ensemble distance `D` is measured
    /// against this — the model's competence region — not against the
    /// window's still-accumulating contents.
    trained_projection: Option<Vec<f64>>,
    /// Cleared when a severe shift invalidates this level's training
    /// data; restored at its next (clean) window completion. Untrusted
    /// levels do not vote in the ensemble.
    trusted: bool,
    /// Exponentially weighted moving average of this level's *pre-update*
    /// accuracy on incoming labeled batches (prequential quality). Breaks
    /// distance ties in the ensemble toward the stronger model.
    ewma_acc: f64,
    /// Reusable inference scratch, shared across `predict_proba` calls so
    /// the warm ensemble forward pass allocates nothing, and kept as the
    /// level's [`ForwardCache`]. Behind a mutex because prediction takes
    /// `&self` and the parallel path evaluates levels on pool threads.
    forward: Mutex<ForwardCache>,
}

impl Level {
    /// Drops the cached forward pass; must be called after every mutation
    /// of this level's model (the cache's validity contract).
    fn invalidate_forward(&mut self) {
        self.forward.get_mut().valid = false;
    }

    /// One unweighted step on `x`, back-propagating from the cached
    /// forward pass when `cached` says the level's [`ForwardCache`] holds
    /// `x` at the current parameters, and recomputing it otherwise.
    fn train_step(&mut self, x: &Matrix, labels: &[usize], cached: bool) {
        let forward = self.forward.get_mut();
        if !(cached && self.trainer.train_step_from(x, labels, &mut forward.ws)) {
            self.trainer.train_step(x, labels);
        }
        self.invalidate_forward();
    }
}

/// The multi-granularity model bank.
pub struct MultiGranularity {
    levels: Vec<Level>,
    spec: ModelSpec,
    sigma: f64,
    precompute_subsets: usize,
    update_epochs: usize,
    /// Projection of the short model's most recent training batch
    /// (`ȳ_{n−1}` in Equation 12).
    last_trained_projection: Option<Vec<f64>>,
    /// Disorder of the most recently completed window (knowledge
    /// preservation reads this).
    last_completed_disorder: Option<f64>,
    /// Bitwise copy of the batch the most recent `predict_proba` ran its
    /// forward passes on — the one tag every level's [`ForwardCache`]
    /// refers to.
    forward_tag: Mutex<Matrix>,
}

impl MultiGranularity {
    /// Builds `config.model_num` levels of the given spec.
    pub fn new(spec: ModelSpec, config: &FreewayConfig) -> Self {
        let levels = (0..config.model_num.max(1))
            .map(|i| {
                // All levels start from the *same* initialisation: they are
                // the same model observed at different time granularities,
                // so an identical starting point keeps the early ensemble
                // coherent.
                let trainer = Trainer::new(
                    spec.build(config.seed),
                    config.optimizer.build(config.learning_rate),
                );
                let window = (i > 0).then(|| {
                    AdaptiveStreamingWindow::new(AswParams {
                        max_batches: config.asw_max_batches * i,
                        max_items: config.asw_max_items * i,
                        base_decay: config.asw_base_decay,
                        rank_decay: config.asw_rank_decay,
                        disorder_boost: config.asw_disorder_boost,
                        min_weight: config.asw_min_weight,
                    })
                });
                let mut trainer = trainer;
                trainer.set_parallel_gradient(config.parallel_gradient);
                Level {
                    trainer,
                    window,
                    updates: 0,
                    trained_projection: None,
                    trusted: true,
                    ewma_acc: 0.5,
                    forward: Mutex::new(ForwardCache {
                        ws: Workspace::new(),
                        probs: Matrix::zeros(0, 0),
                        valid: false,
                    }),
                }
            })
            .collect();
        Self {
            levels,
            spec,
            sigma: config.ensemble_sigma,
            precompute_subsets: config.precompute_subsets.max(1),
            update_epochs: config.asw_update_epochs.max(1),
            last_trained_projection: None,
            last_completed_disorder: None,
            forward_tag: Mutex::new(Matrix::zeros(0, 0)),
        }
    }

    /// Attaches an observability handle to every level's streaming window
    /// (labeled with its level index).
    pub fn attach_telemetry(&mut self, telemetry: &freeway_telemetry::Telemetry) {
        for (i, level) in self.levels.iter_mut().enumerate() {
            if let Some(window) = level.window.as_mut() {
                window.attach_telemetry(telemetry.clone(), i);
            }
        }
    }

    /// Number of granularity levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The architecture spec shared by all levels.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The short-granularity model (level 0).
    pub fn short_model(&self) -> &dyn Model {
        self.levels[0].trainer.model()
    }

    /// The slowest (longest-granularity) model, or the short model when
    /// `model_num == 1`.
    pub fn long_model(&self) -> &dyn Model {
        // Audited: the constructor clamps `model_num` to at least 1, so
        // `levels` is never empty.
        #[allow(clippy::expect_used)]
        self.levels.last().expect("at least one level").trainer.model()
    }

    /// Disorder of the most recently *completed* window, consumed by the
    /// knowledge-preservation policy; `take` semantics so each completion
    /// is only preserved once.
    pub fn take_completed_disorder(&mut self) -> Option<f64> {
        self.last_completed_disorder.take()
    }

    /// Reacts to a detected severe shift (§III Pattern B/C): window
    /// contents straddle the old and new distributions, so they are
    /// flushed, and long levels stop voting until their next *clean*
    /// window completes. The short level keeps adapting batch-by-batch.
    pub fn handle_severe_shift(&mut self) {
        for level in &mut self.levels {
            if let Some(window) = level.window.as_mut() {
                window.clear();
                level.trusted = false;
            }
        }
    }

    /// Rate-aware adjuster hook: boost window decay under pressure.
    pub fn set_decay_multiplier(&mut self, multiplier: f64) {
        for level in &mut self.levels {
            if let Some(w) = level.window.as_mut() {
                w.set_decay_multiplier(multiplier);
            }
        }
    }

    /// Trains all levels on a labeled batch (short every call, long via
    /// window completion). `projected` is the batch's shift-graph
    /// projection, used for window decay and ensemble distances.
    pub fn train(&mut self, x: &Matrix, labels: &[usize], projected: &[f64]) {
        let tagged = same_bits(self.forward_tag.get_mut(), x);
        // Captured once: long levels warm-start from the short model's
        // parameters at their window completions.
        let mut short_params: Option<Vec<f64>> = None;
        // Long levels share one `Arc`'d copy of the incoming batch
        // instead of deep-cloning it once per window.
        let mut shared_batch: Option<(Arc<Matrix>, Arc<[usize]>)> = None;
        for level in &mut self.levels {
            // The level's forward cache holds this batch at its current
            // parameters: it voted on this same batch (the prequential
            // test-then-train contract) and has not changed since.
            let cached = tagged && level.forward.get_mut().valid;
            // Prequential quality: score the level on (a deterministic
            // slice of) this batch before any update touches it. 64 rows
            // estimate batch accuracy to within a few points, which the
            // EWMA smooths — paying a full CNN forward here would double
            // training cost for no extra signal. A cached forward pass
            // already holds these rows' probabilities; forward passes are
            // row-independent (every model here processes each sample
            // row identically regardless of its neighbours), so their
            // argmax is bitwise what `accuracy` on the slice recomputes.
            if level.updates > 0 {
                let n = PROBE_ROWS.min(x.rows());
                let probe_labels = &labels[..n];
                let acc = if n > 0 && cached {
                    let probs = &level.forward.get_mut().probs;
                    let hit = probs
                        .row_iter()
                        .zip(probe_labels)
                        .filter(|&(row, &t)| vector::argmax(row).unwrap_or(0) == t)
                        .count();
                    hit as f64 / n as f64
                } else if x.rows() > PROBE_ROWS {
                    let sub = x.slice_rows(0, PROBE_ROWS);
                    freeway_ml::model::accuracy(level.trainer.model(), &sub, probe_labels)
                } else {
                    freeway_ml::model::accuracy(level.trainer.model(), x, labels)
                };
                level.ewma_acc = 0.8 * level.ewma_acc + 0.2 * acc;
            }
            match level.window.as_mut() {
                None => {
                    level.train_step(x, labels, cached);
                    level.updates += 1;
                    level.trained_projection = Some(projected.to_vec());
                    short_params = Some(level.trainer.model().parameters());
                }
                Some(window) => {
                    let (sx, sy) = shared_batch
                        .get_or_insert_with(|| (Arc::new(x.clone()), Arc::from(labels)));
                    window.insert(Arc::clone(sx), Arc::clone(sy), projected.to_vec());
                    if window.is_full() {
                        let disorder = window.disorder();
                        let window_mean = window.projected_mean();
                        if let Some((wx, wy, ww)) = window.drain_for_update() {
                            // Warm-start from the short model, then smooth
                            // with a few weighted passes over the window.
                            // The short model supplies position (it has
                            // seen every batch); the window passes supply
                            // the low-variance average that makes this the
                            // *stable* granularity — at a fraction of the
                            // cost of training the long model from its own
                            // stale parameters.
                            if let Some(short_params) = short_params.as_ref() {
                                level.trainer.model_mut().set_parameters(short_params);
                            }
                            train_weighted_precomputed(
                                &mut level.trainer,
                                &wx,
                                &wy,
                                &ww,
                                self.precompute_subsets,
                                self.update_epochs,
                            );
                            level.invalidate_forward();
                            level.updates += 1;
                            level.trained_projection = window_mean;
                            level.trusted = true;
                            self.last_completed_disorder = Some(disorder);
                        }
                    }
                }
            }
        }
        self.last_trained_projection = Some(projected.to_vec());
    }

    /// Degraded-mode training (overload ladder level `short-only`): only
    /// the short model updates; long windows neither accumulate nor
    /// retrain, and the per-level EWMA probes are skipped. This is the
    /// cheapest update that still tracks the stream — the paper's
    /// short-granularity model is precisely the "reacts to the newest
    /// data" end of the spectrum, so under overload it is the one worth
    /// paying for.
    pub fn train_short_only(&mut self, x: &Matrix, labels: &[usize], projected: &[f64]) {
        let tagged = same_bits(self.forward_tag.get_mut(), x);
        for level in &mut self.levels {
            if level.window.is_none() {
                let cached = tagged && level.forward.get_mut().valid;
                level.train_step(x, labels, cached);
                level.updates += 1;
                level.trained_projection = Some(projected.to_vec());
            }
        }
        self.last_trained_projection = Some(projected.to_vec());
    }

    /// Ensemble class probabilities for a batch whose projection is
    /// `current_projection` (Equations 12–14).
    ///
    /// The kernel width self-scales to the *closest* model's distance:
    /// `σ_eff = σ · min_i D_i`. Relative weights then depend only on
    /// distance ratios, which makes the blend invariant to the stream's
    /// feature scale and robust right after severe shifts (when absolute
    /// distances are all inflated).
    pub fn predict_proba(&self, x: &Matrix, current_projection: &[f64]) -> Matrix {
        let mut distances = Vec::with_capacity(self.levels.len());
        for level in &self.levels {
            // A level that has never trained must not vote (random
            // initialisation), nor one whose training data a severe shift
            // invalidated.
            if level.updates == 0 || !level.trusted {
                distances.push(None);
                continue;
            }
            let d = level
                .trained_projection
                .as_ref()
                .map_or(0.0, |p| vector::euclidean_distance(current_projection, p));
            distances.push(Some(d));
        }
        let min_d = distances.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
        let mut weights: Vec<f64> = if min_d.is_finite() && min_d > 1e-12 {
            let sigma = (self.sigma * min_d).max(1e-12);
            distances
                .iter()
                .zip(&self.levels)
                .map(|(d, level)| {
                    // Distance kernel (Eq. 14) modulated by prequential
                    // quality: at similar distances the historically more
                    // accurate level dominates.
                    d.map_or(0.0, |d| gaussian_kernel(d, sigma) * level.ewma_acc.powi(4))
                })
                .collect()
        } else if min_d.is_finite() {
            // The closest model sits exactly on the data: it wins outright.
            distances
                .iter()
                .map(|d| match d {
                    Some(d) if *d <= 1e-12 => 1.0,
                    _ => 0.0,
                })
                .collect()
        } else {
            // Nothing has trained yet: uniform vote so predictions exist.
            vec![1.0; self.levels.len()]
        };
        let total: f64 = weights.iter().sum();
        if total <= f64::EPSILON {
            weights.iter_mut().for_each(|w| *w = 1.0);
        }
        let total: f64 = weights.iter().sum();

        let mut blended = Matrix::zeros(x.rows(), self.spec.classes());
        // The paper's multi-process deployment evaluates the granularity
        // models concurrently, which is why its ensemble adds almost no
        // inference latency; reproduce that with jobs on the persistent
        // worker pool when the forward passes are expensive enough to
        // amortise the dispatch. Blending stays on this thread in level
        // order, so the result is bit-identical to serial inference.
        let work = x.rows() * self.spec.num_parameters();
        // A level whose kernel weight is negligible cannot change the
        // argmax; skipping it saves a full forward pass, which is the
        // common case on directional streams where the long model's
        // fingerprint lags behind the data.
        let voters: Vec<(usize, f64)> = weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.02 * total)
            .map(|(i, &w)| (i, w))
            .collect();
        let voting_total: f64 = voters.iter().map(|(_, w)| w).sum();
        // Every voter's forward pass now runs on `x`: tag it, and drop the
        // caches of levels that sit this batch out.
        self.forward_tag.lock().copy_from(x);
        for (i, level) in self.levels.iter().enumerate() {
            if !voters.iter().any(|&(v, _)| v == i) {
                level.forward.lock().valid = false;
            }
        }
        if voters.len() > 1 && work > 64 * 1024 && pool::configured_threads() > 1 {
            let tasks: Vec<pool::Task<'_>> = voters
                .iter()
                .map(|&(i, _)| {
                    let model = self.levels[i].trainer.model();
                    let forward = &self.levels[i].forward;
                    Box::new(move || {
                        let mut guard = forward.lock();
                        let cache = &mut *guard;
                        model.predict_proba_into(x, &mut cache.ws, &mut cache.probs);
                        cache.valid = true;
                    }) as pool::Task<'_>
                })
                .collect();
            pool::global().run(tasks);
            for &(i, w) in &voters {
                blended.axpy(w / voting_total, &self.levels[i].forward.lock().probs);
            }
        } else {
            for &(i, w) in &voters {
                let level = &self.levels[i];
                let mut guard = level.forward.lock();
                let cache = &mut *guard;
                level.trainer.model().predict_proba_into(x, &mut cache.ws, &mut cache.probs);
                cache.valid = true;
                blended.axpy(w / voting_total, &cache.probs);
            }
        }
        blended
    }

    /// Flat parameters of every level, short (level 0) first.
    pub fn level_parameters(&self) -> Vec<Vec<f64>> {
        self.levels.iter().map(|l| l.trainer.model().parameters()).collect()
    }

    /// Overwrites every level's parameters from a checkpoint. Levels are
    /// marked trained (they vote immediately) but keep no fingerprint —
    /// the first post-restore batches re-establish distances.
    ///
    /// # Errors
    /// [`CheckpointError::LevelCountMismatch`] when the level count
    /// differs from this bank's,
    /// [`CheckpointError::ParameterLengthMismatch`] when a level's flat
    /// vector does not fit the architecture. Both leave the bank
    /// untouched — a rejected checkpoint must not half-apply.
    pub fn set_level_parameters(&mut self, params: &[Vec<f64>]) -> Result<(), CheckpointError> {
        if params.len() != self.levels.len() {
            return Err(CheckpointError::LevelCountMismatch {
                found: params.len(),
                expected: self.levels.len(),
            });
        }
        let expected = self.spec.num_parameters();
        if let Some((level, p)) = params.iter().enumerate().find(|(_, p)| p.len() != expected) {
            return Err(CheckpointError::ParameterLengthMismatch {
                level,
                found: p.len(),
                expected,
            });
        }
        for (level, p) in self.levels.iter_mut().zip(params) {
            level.trainer.model_mut().set_parameters(p);
            level.invalidate_forward();
            level.updates = level.updates.max(1);
            level.trusted = true;
        }
        Ok(())
    }

    /// Smallest fingerprint distance among trusted, trained levels —
    /// "how close is the nearest live model to this data". Knowledge
    /// reuse must beat this to be worthwhile.
    pub fn nearest_live_distance(&self, current_projection: &[f64]) -> Option<f64> {
        self.levels
            .iter()
            .filter(|l| l.updates > 0 && l.trusted)
            .filter_map(|l| {
                l.trained_projection
                    .as_ref()
                    .map(|p| vector::euclidean_distance(current_projection, p))
            })
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Diagnostic: per-level (distance, update-count) against a
    /// projection, in level order. Distances are `None` for untrained
    /// levels.
    pub fn level_diagnostics(&self, current_projection: &[f64]) -> Vec<(Option<f64>, usize)> {
        self.levels
            .iter()
            .map(|level| {
                let d = (level.updates > 0).then(|| {
                    level
                        .trained_projection
                        .as_ref()
                        .map_or(0.0, |p| vector::euclidean_distance(current_projection, p))
                });
                (d, level.updates)
            })
            .collect()
    }

    /// Hard predictions via the ensemble.
    pub fn predict(&self, x: &Matrix, current_projection: &[f64]) -> Vec<usize> {
        let probs = self.predict_proba(x, current_projection);
        probs.row_iter().map(|row| vector::argmax(row).unwrap_or(0)).collect()
    }
}

/// Whether `a` and `b` have the same shape and bitwise-equal entries (a
/// stricter test than `==`, which equates `0.0` with `-0.0` and never
/// matches NaN).
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Gaussian kernel `K(D, σ) = exp(−D² / 2σ²)` (Equation 14).
pub fn gaussian_kernel(distance: f64, sigma: f64) -> f64 {
    (-(distance * distance) / (2.0 * sigma * sigma)).exp()
}

/// Runs `epochs` weighted passes, each splitting the window into
/// `subsets` chunks and merging per-chunk gradients — the pre-computing
/// window of §V-B. With `subsets == 1` each pass is a single weighted
/// batch step. The epoch loop lives here (not at the call site) so the
/// chunk matrix and gradient buffer warm once and are reused across
/// every subset of every epoch: a warm window update allocates only the
/// merged-gradient accumulator, while producing bit-identical parameters
/// to the old slice-and-allocate loop (same chunk contents, same
/// gradient arithmetic, same merge order).
fn train_weighted_precomputed(
    trainer: &mut Trainer,
    x: &Matrix,
    labels: &[usize],
    weights: &[f64],
    subsets: usize,
    epochs: usize,
) {
    let n = x.rows();
    if n == 0 {
        return;
    }
    if subsets <= 1 || n < subsets * 2 {
        for _ in 0..epochs {
            trainer.train_weighted_step(x, labels, Some(weights));
        }
        return;
    }
    let mut sub_x = Matrix::zeros(0, 0);
    let mut grad = Vec::new();
    for _ in 0..epochs {
        let mut acc = PrecomputeAccumulator::new();
        let chunk = n.div_ceil(subsets);
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let sub_y = &labels[start..end];
            let sub_w = &weights[start..end];
            let weight_sum: f64 = sub_w.iter().sum();
            if weight_sum > 0.0 {
                x.copy_row_range_into(start, end, &mut sub_x);
                trainer.gradient_into(&sub_x, sub_y, Some(sub_w), &mut grad);
                acc.add_subset(&grad, weight_sum);
            }
            start = end;
        }
        if let Some(merged) = acc.take_merged() {
            trainer.apply_gradient(&merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(model_num: usize) -> FreewayConfig {
        FreewayConfig {
            model_num,
            asw_max_batches: 3,
            asw_max_items: 10_000,
            learning_rate: 0.5,
            ..Default::default()
        }
    }

    /// Linearly separable batch shifted by `offset`.
    fn batch(offset: f64, n: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![side * 2.0 + offset, side + offset * 0.5]
            })
            .collect();
        let labels = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_rows(&rows);
        let projected = vec![offset, offset * 0.5];
        (x, labels, projected)
    }

    #[test]
    fn short_model_learns_immediately() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(2));
        let (x, y, p) = batch(0.0, 64);
        for _ in 0..30 {
            mg.train(&x, &y, &p);
        }
        let acc = freeway_ml::model::accuracy(mg.short_model(), &x, &y);
        assert!(acc > 0.95, "short model accuracy {acc}");
    }

    #[test]
    fn long_model_updates_only_on_window_completion() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(2));
        let before = mg.long_model().parameters();
        let (x, y, p) = batch(0.0, 32);
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p);
        assert_eq!(mg.long_model().parameters(), before, "window not yet full");
        mg.train(&x, &y, &p); // 3rd insert fills max_batches = 3
        assert_ne!(mg.long_model().parameters(), before, "window completion trains");
        assert!(mg.take_completed_disorder().is_some());
        assert!(mg.take_completed_disorder().is_none(), "take semantics");
    }

    #[test]
    fn ensemble_probabilities_are_normalised() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(3));
        let (x, y, p) = batch(0.0, 32);
        for _ in 0..5 {
            mg.train(&x, &y, &p);
        }
        let probs = mg.predict_proba(&x, &p);
        for row in probs.row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gaussian_kernel_properties() {
        assert_eq!(gaussian_kernel(0.0, 1.0), 1.0);
        assert!(gaussian_kernel(1.0, 1.0) < 1.0);
        assert!(gaussian_kernel(2.0, 1.0) < gaussian_kernel(1.0, 1.0));
        assert!(gaussian_kernel(1.0, 10.0) > gaussian_kernel(1.0, 1.0), "wider σ is flatter");
    }

    #[test]
    fn nearby_data_weights_short_model_higher() {
        // Train the bank, then move the query projection far from the
        // window mean but near the short model's last batch: predictions
        // should follow the short model.
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(2));
        let (x, y, p) = batch(0.0, 64);
        for _ in 0..10 {
            mg.train(&x, &y, &p);
        }
        // Query projected exactly at the short model's last batch.
        let short_pred = {
            let probs = mg.levels[0].trainer.model().predict_proba(&x);
            probs.row_iter().map(|r| vector::argmax(r).unwrap_or(0)).collect::<Vec<_>>()
        };
        let ens_pred = mg.predict(&x, &p);
        assert_eq!(short_pred, ens_pred, "at D_short = 0 the short model dominates enough");
    }

    #[test]
    fn single_level_config_works() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(1));
        assert_eq!(mg.num_levels(), 1);
        let (x, y, p) = batch(0.0, 16);
        mg.train(&x, &y, &p);
        let preds = mg.predict(&x, &p);
        assert_eq!(preds.len(), 16);
    }

    #[test]
    fn precompute_matches_single_step() {
        // Training with 1 subset vs 4 subsets must produce identical
        // parameters (same merged gradient, same SGD step).
        let cfg1 = FreewayConfig { precompute_subsets: 1, ..config(2) };
        let cfg4 = FreewayConfig { precompute_subsets: 4, ..config(2) };
        let mut a = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg1);
        let mut b = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg4);
        for i in 0..3 {
            let (x, y, p) = batch(i as f64 * 0.1, 32);
            a.train(&x, &y, &p);
            let (x, y, p) = batch(i as f64 * 0.1, 32);
            b.train(&x, &y, &p);
        }
        let pa = a.long_model().parameters();
        let pb = b.long_model().parameters();
        for (x, y) in pa.iter().zip(&pb) {
            assert!((x - y).abs() < 1e-10, "precompute must not change the update");
        }
    }
}

#[cfg(test)]
mod forward_cache_tests {
    use super::*;

    fn config() -> FreewayConfig {
        FreewayConfig {
            model_num: 3,
            asw_max_batches: 3,
            asw_max_items: 10_000,
            learning_rate: 0.5,
            ..Default::default()
        }
    }

    /// Every batch's projection: with all levels' fingerprints on it,
    /// each level sits at distance 0 and votes.
    const P: [f64; 2] = [0.0, 0.0];

    /// 96 rows (past the 64-row probe slice), two noisy classes, shifted
    /// by `offset`.
    fn batch(offset: f64) -> (Matrix, Vec<usize>) {
        let rows: Vec<Vec<f64>> = (0..96)
            .map(|i| {
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                let jitter = (i as f64 * 0.7).sin() * 0.8;
                vec![side + offset + jitter, side * 0.5 - jitter]
            })
            .collect();
        (Matrix::from_rows(&rows), (0..96).map(|i| i % 2).collect())
    }

    /// A three-level MLP bank whose levels have all trained (the long
    /// windows complete at 3 and 6 batches).
    fn warm_bank() -> MultiGranularity {
        let mut mg = MultiGranularity::new(ModelSpec::mlp(2, vec![8], 2), &config());
        for i in 0..6 {
            let (x, y) = batch(i as f64 * 0.1);
            mg.train(&x, &y, &P);
        }
        mg
    }

    /// Whether `level`'s forward cache holds `x` at its parameters.
    fn cached(mg: &mut MultiGranularity, level: usize, x: &Matrix) -> bool {
        same_bits(mg.forward_tag.get_mut(), x) && mg.levels[level].forward.get_mut().valid
    }

    /// Bits of every level's parameters, then of the ensemble's
    /// probabilities at an off-centre projection, where the kernel
    /// weights scale with each level's EWMA probe accuracy. Runs a
    /// forward pass, so it is read last.
    fn fingerprint(mg: &MultiGranularity, x: &Matrix) -> Vec<u64> {
        let mut bits: Vec<u64> =
            mg.level_parameters().iter().flatten().map(|v| v.to_bits()).collect();
        bits.extend(mg.predict_proba(x, &[0.37, -0.2]).as_slice().iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn hit_is_bit_identical_to_a_cold_cache() {
        let (x, y) = batch(0.7);
        let (other, _) = batch(-0.4);
        let mut hit = warm_bank();
        hit.predict(&x, &P);
        assert!((0..3).all(|level| cached(&mut hit, level, &x)), "every level voted on x");
        hit.train(&x, &y, &P);
        assert!(!cached(&mut hit, 0, &x), "the short level's step invalidates its cache");
        assert!(!cached(&mut hit, 1, &x), "level 1's window completed on x");
        assert!(cached(&mut hit, 2, &x), "level 2's window did not complete: it keeps its cache");

        let mut cold = warm_bank();
        cold.predict(&x, &P);
        cold.predict(&other, &P);
        assert!(!cached(&mut cold, 0, &x), "the tag follows the last voted batch");
        cold.train(&x, &y, &P);

        let mut unvoted = warm_bank();
        unvoted.train(&x, &y, &P);
        let expected = fingerprint(&unvoted, &x);
        assert_eq!(fingerprint(&hit, &x), expected);
        assert_eq!(fingerprint(&cold, &x), expected);
    }

    #[test]
    fn a_batch_differing_in_its_last_row_misses() {
        let (x, y) = batch(0.7);
        let mut changed = x.clone();
        changed.row_mut(95)[1] += 0.5;
        let mut voted = warm_bank();
        voted.predict(&x, &P);
        assert!(!cached(&mut voted, 0, &changed));
        voted.train(&changed, &y, &P);
        let mut unvoted = warm_bank();
        unvoted.train(&changed, &y, &P);
        assert_eq!(fingerprint(&voted, &x), fingerprint(&unvoted, &x));
    }

    #[test]
    fn a_level_that_sits_a_batch_out_misses() {
        // After one batch at `far`, the short level's fingerprint sits on
        // `far` and level 2's still on `P`: a query at either projection
        // is answered by that level alone.
        let far = [1.0, 0.0];
        let (x, y) = batch(0.7);
        let (other, other_y) = batch(-0.4);
        let mut voted = warm_bank();
        voted.train(&x, &y, &far);
        voted.predict(&x, &P);
        assert!(cached(&mut voted, 2, &x) && !cached(&mut voted, 0, &x));
        voted.predict(&other, &far);
        assert!(cached(&mut voted, 0, &other));
        assert!(!cached(&mut voted, 2, &other), "level 2 holds x's forward pass, not other's");
        voted.train(&other, &other_y, &far);
        let mut unvoted = warm_bank();
        unvoted.train(&x, &y, &far);
        unvoted.train(&other, &other_y, &far);
        assert_eq!(fingerprint(&voted, &x), fingerprint(&unvoted, &x));
    }

    #[test]
    fn mutations_between_predict_and_train_miss() {
        let (x, y) = batch(0.7);
        let restored: Vec<Vec<f64>> = warm_bank()
            .level_parameters()
            .into_iter()
            .map(|level| level.iter().map(|v| v * 0.5 + 0.01).collect())
            .collect();
        let mut voted = warm_bank();
        voted.predict(&x, &P);
        voted.set_level_parameters(&restored).expect("same architecture");
        assert!((0..3).all(|level| !cached(&mut voted, level, &x)));
        voted.train(&x, &y, &P);
        let mut unvoted = warm_bank();
        unvoted.set_level_parameters(&restored).expect("same architecture");
        unvoted.train(&x, &y, &P);
        assert_eq!(fingerprint(&voted, &x), fingerprint(&unvoted, &x));

        // `train_short_only` itself reuses the cache, then invalidates it
        // for the `train` that follows.
        let mut voted = warm_bank();
        voted.predict(&x, &P);
        voted.train_short_only(&x, &y, &P);
        assert!(!cached(&mut voted, 0, &x));
        voted.train(&x, &y, &P);
        let mut unvoted = warm_bank();
        unvoted.train_short_only(&x, &y, &P);
        unvoted.train(&x, &y, &P);
        assert_eq!(fingerprint(&voted, &x), fingerprint(&unvoted, &x));
    }
}

#[cfg(test)]
mod warmstart_tests {
    use super::*;
    use freeway_linalg::Matrix;

    fn cfg() -> FreewayConfig {
        FreewayConfig {
            model_num: 2,
            asw_max_batches: 2,
            asw_update_epochs: 1,
            learning_rate: 0.3,
            ..Default::default()
        }
    }

    fn batch(offset: f64, n: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![side * 2.0 + offset, side]
            })
            .collect();
        (Matrix::from_rows(&rows), (0..n).map(|i| i % 2).collect(), vec![offset, 0.0])
    }

    #[test]
    fn long_model_warm_starts_from_short() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg());
        let (x, y, p) = batch(0.0, 32);
        // Two inserts fill the window (max_batches = 2) and trigger the
        // warm-started long update.
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p);
        // The long model's parameters must now be near the short model's
        // (one refinement epoch of distance at most).
        let short = mg.short_model().parameters();
        let long = mg.long_model().parameters();
        let gap: f64 = short.iter().zip(&long).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        // Before the fix the long model sat at initialisation (far from
        // the trained short model); warm-start bounds the gap by one
        // window pass.
        assert!(gap < 1.0, "warm-started long model must track short: gap {gap}");
        assert_ne!(short, long, "the refinement pass must still differentiate them");
    }

    #[test]
    fn untrusted_levels_do_not_vote_after_severe_shift() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg());
        let (x, y, p) = batch(0.0, 32);
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p); // long trained + trusted
        mg.handle_severe_shift();
        // Only the short level votes now; predictions must equal its own.
        let short_preds = mg.short_model().predict(&x);
        let ens_preds = mg.predict(&x, &p);
        assert_eq!(short_preds, ens_preds);
        // One full window later the long level is trusted again.
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p);
        let diag = mg.level_diagnostics(&p);
        assert!(diag[1].0.is_some(), "long level votes again after a clean window");
    }
}
