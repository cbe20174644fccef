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

use crate::asw::{AdaptiveStreamingWindow, AswParams, WindowBatch};
use crate::config::FreewayConfig;
use crate::error::CheckpointError;
use freeway_linalg::{lanes, vector, Matrix};
use freeway_ml::{Model, ModelSpec, PrecomputeAccumulator, Trainer, Workspace};
use parking_lot::Mutex;
use std::sync::Arc;

/// Rows scored by the per-level prequential probe in
/// [`MultiGranularity::train`], and the rows a labeled-row scoring
/// ([`MultiGranularity::ensemble_hits`], [`MultiGranularity::model_hits`])
/// runs at a time.
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
    /// `&self`.
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
    /// Disorder of the most recently completed window (knowledge
    /// preservation reads this).
    last_completed_disorder: Option<f64>,
    /// Bitwise copy of the batch the most recent `predict_proba` ran its
    /// forward passes on — the one tag every level's [`ForwardCache`]
    /// refers to.
    forward_tag: Mutex<Matrix>,
    /// Scratch of the long levels' window completions.
    completion: Completion,
    /// The ensemble vote's per-level scratch, behind a mutex because
    /// prediction takes `&self`.
    vote: Mutex<Vote>,
    /// Up to [`PROBE_ROWS`] rows, with their labels, copied out of a batch
    /// or a labeled stream for a probe or a scoring.
    probe_rows: Matrix,
    probe_labels: Vec<usize>,
}

/// One ensemble vote: each level's distance to the batch and kernel
/// weight, and the voting levels with their share of the blend.
#[derive(Default)]
struct Vote {
    distances: Vec<Option<f64>>,
    weights: Vec<f64>,
    /// `(level, weight / voting total)` for each voter, in level order.
    voters: Vec<(usize, f64)>,
    /// Up to [`PROBE_ROWS`] blended rows, for the hard predictions.
    blended: Matrix,
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
            last_completed_disorder: None,
            forward_tag: Mutex::new(Matrix::zeros(0, 0)),
            completion: Completion::default(),
            vote: Mutex::new(Vote::default()),
            probe_rows: Matrix::zeros(0, 0),
            probe_labels: Vec::new(),
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
                // It cannot vote before its next completion, which
                // retrains it: its forward cache is spare until then
                // (`model_hits`, `model_predict`).
                level.invalidate_forward();
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
        let (subsets, epochs) = (self.precompute_subsets, self.update_epochs);
        // Long levels share one `Arc`'d copy of the incoming batch
        // instead of deep-cloning it once per window.
        let mut shared_batch: Option<(Arc<Matrix>, Arc<[usize]>)> = None;
        for i in 0..self.levels.len() {
            // `trained` holds the levels before this one: level 0, the
            // short model, has already taken its step on this batch.
            let (trained, rest) = self.levels.split_at_mut(i);
            let level = &mut rest[0];
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
            // argmax is bitwise what a forward pass over the slice alone
            // recomputes. A miss runs that pass in the level's own forward
            // workspace (the slice copied out of a longer batch into a row
            // buffer the bank keeps) and leaves the cache invalid.
            if level.updates > 0 {
                let n = PROBE_ROWS.min(x.rows());
                let probe_labels = &labels[..n];
                let forward = level.forward.get_mut();
                if n > 0 && !cached {
                    let rows = if x.rows() > PROBE_ROWS {
                        x.copy_row_range_into(0, PROBE_ROWS, &mut self.probe_rows);
                        &self.probe_rows
                    } else {
                        x
                    };
                    let model = level.trainer.model();
                    model.predict_proba_into(rows, &mut forward.ws, &mut forward.probs);
                    forward.valid = false;
                }
                let acc =
                    if n > 0 { hits(&forward.probs, probe_labels) as f64 / n as f64 } else { 0.0 };
                level.ewma_acc = 0.8 * level.ewma_acc + 0.2 * acc;
            }
            match level.window.as_mut() {
                None => {
                    level.train_step(x, labels, cached);
                    level.updates += 1;
                    keep_projection(&mut level.trained_projection, projected);
                }
                Some(window) => {
                    let (sx, sy) = shared_batch
                        .get_or_insert_with(|| (Arc::new(x.clone()), Arc::from(labels)));
                    window.insert(Arc::clone(sx), Arc::clone(sy), projected.to_vec());
                    if window.is_full() {
                        let disorder = window.disorder();
                        let window_mean = window.projected_mean();
                        // Warm-start from the short model, then smooth
                        // with a few weighted passes over the window. The
                        // short model supplies position (it has seen every
                        // batch); the window passes supply the
                        // low-variance average that makes this the
                        // *stable* granularity — at a fraction of the cost
                        // of training the long model from its own stale
                        // parameters. The short model's parameters are
                        // read here, at the completion, and only here.
                        if let Some(short) = trained.first() {
                            level.trainer.copy_parameters_from(short.trainer.model());
                        }
                        self.completion.train(
                            &mut level.trainer,
                            window.batches(),
                            subsets,
                            epochs,
                        );
                        window.reseed();
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
                keep_projection(&mut level.trained_projection, projected);
            }
        }
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
        let mut vote = self.vote.lock();
        self.vote(x, current_projection, &mut vote);
        let mut blended = Matrix::zeros(x.rows(), self.spec.classes());
        self.blend(&vote.voters, 0, &mut blended);
        blended
    }

    /// Weighs every level for a batch at `current_projection` and runs
    /// each voter's forward pass on `x` into its [`ForwardCache`], leaving
    /// the voters and their shares of the blend in `vote`.
    fn vote(&self, x: &Matrix, current_projection: &[f64], vote: &mut Vote) {
        let Vote { distances, weights, voters, .. } = vote;
        distances.clear();
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
        weights.clear();
        if min_d.is_finite() && min_d > 1e-12 {
            let sigma = (self.sigma * min_d).max(1e-12);
            weights.extend(distances.iter().zip(&self.levels).map(|(d, level)| {
                // Distance kernel (Eq. 14) modulated by prequential
                // quality: at similar distances the historically more
                // accurate level dominates.
                d.map_or(0.0, |d| gaussian_kernel(d, sigma) * level.ewma_acc.powi(4))
            }));
        } else if min_d.is_finite() {
            // The closest model sits exactly on the data: it wins outright.
            weights.extend(distances.iter().map(|d| match d {
                Some(d) if *d <= 1e-12 => 1.0,
                _ => 0.0,
            }));
        } else {
            // Nothing has trained yet: uniform vote so predictions exist.
            weights.resize(self.levels.len(), 1.0);
        }
        let total: f64 = weights.iter().sum();
        if total <= f64::EPSILON {
            weights.iter_mut().for_each(|w| *w = 1.0);
        }
        let total: f64 = weights.iter().sum();

        // A level whose kernel weight is negligible cannot change the
        // argmax; skipping it saves a full forward pass, which is the
        // common case on directional streams where the long model's
        // fingerprint lags behind the data.
        voters.clear();
        voters.extend(
            weights.iter().enumerate().filter(|(_, &w)| w > 0.02 * total).map(|(i, &w)| (i, w)),
        );
        let voting_total: f64 = voters.iter().map(|(_, w)| w).sum();
        // Every voter's forward pass now runs on `x`: tag it, and drop the
        // caches of levels that sit this batch out.
        self.forward_tag.lock().copy_from(x);
        for (i, level) in self.levels.iter().enumerate() {
            if !voters.iter().any(|&(v, _)| v == i) {
                level.forward.lock().valid = false;
            }
        }
        // The paper deploys the granularity models as separate processes
        // that infer concurrently; here the voters run one after the
        // other on the caller's thread, blended in level order.
        for (i, share) in voters.iter_mut() {
            let level = &self.levels[*i];
            let mut guard = level.forward.lock();
            let cache = &mut *guard;
            level.trainer.model().predict_proba_into(x, &mut cache.ws, &mut cache.probs);
            cache.valid = true;
            *share /= voting_total;
        }
    }

    /// The voters' probabilities for rows `start..start + out.rows()` of
    /// the batch they last ran on, blended in level order into `out`.
    fn blend(&self, voters: &[(usize, f64)], start: usize, out: &mut Matrix) {
        let span = start * out.cols()..(start + out.rows()) * out.cols();
        let out = out.as_mut_slice();
        out.fill(0.0);
        for &(i, share) in voters {
            vector::axpy(out, share, &self.levels[i].forward.lock().probs.as_slice()[span.clone()]);
        }
    }

    /// Calls `each(row, class)` with the ensemble's hard prediction for
    /// every row of `x`: the blend of [`Self::predict_proba`], taken
    /// [`PROBE_ROWS`] rows at a time into a buffer the bank keeps.
    fn each_prediction(
        &self,
        x: &Matrix,
        current_projection: &[f64],
        mut each: impl FnMut(usize, usize),
    ) {
        let mut guard = self.vote.lock();
        self.vote(x, current_projection, &mut guard);
        let Vote { voters, blended, .. } = &mut *guard;
        let mut classes = [0; PROBE_ROWS];
        for start in (0..x.rows()).step_by(PROBE_ROWS) {
            let classes = &mut classes[..PROBE_ROWS.min(x.rows() - start)];
            blended.resize(classes.len(), self.spec.classes());
            self.blend(voters, start, blended);
            lanes::argmax_rows(blended.as_slice(), blended.cols(), classes);
            for (r, &class) in classes.iter().enumerate() {
                each(start + r, class);
            }
        }
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
        let mut predictions = Vec::with_capacity(x.rows());
        self.each_prediction(x, current_projection, |_, class| predictions.push(class));
        predictions
    }

    /// The ensemble's correct predictions on labeled `rows` at
    /// `current_projection`, and how many rows there were. The rows are
    /// copied 64 at a time into a buffer the bank keeps and
    /// predicted as [`Self::predict`] would (a forward pass treats every
    /// row alike, whatever rows share its batch), so nothing is allocated
    /// once the buffer is warm. The bank is left tagged with the last
    /// chunk.
    pub(crate) fn ensemble_hits<'r>(
        &mut self,
        rows: impl IntoIterator<Item = (&'r [f64], usize)>,
        current_projection: &[f64],
    ) -> (usize, usize) {
        let mut rows = rows.into_iter();
        let (mut hit, mut count) = (0, 0);
        while self.fill_probe(&mut rows) {
            let (x, labels) = (&self.probe_rows, &self.probe_labels);
            self.each_prediction(x, current_projection, |r, class| {
                hit += usize::from(class == labels[r]);
            });
            count += labels.len();
        }
        (hit, count)
    }

    /// `model`'s correct predictions on labeled `rows`, and how many rows
    /// there were: [`Self::ensemble_hits`] for a model outside the bank
    /// (a knowledge snapshot under an evidence check). Its forward passes
    /// run in the longest level's forward workspace, whose cache a severe
    /// shift has already invalidated (the short level's, invalidated here,
    /// when it is the only one).
    pub(crate) fn model_hits<'r>(
        &mut self,
        model: &dyn Model,
        rows: impl IntoIterator<Item = (&'r [f64], usize)>,
    ) -> (usize, usize) {
        let mut rows = rows.into_iter();
        let (mut hit, mut count) = (0, 0);
        while self.fill_probe(&mut rows) {
            let forward = spare_forward(&mut self.levels);
            model.predict_proba_into(&self.probe_rows, &mut forward.ws, &mut forward.probs);
            hit += hits(&forward.probs, &self.probe_labels);
            count += self.probe_labels.len();
        }
        (hit, count)
    }

    /// `model`'s hard predictions for `x`, its forward pass run where
    /// [`Self::model_hits`] runs it.
    pub(crate) fn model_predict(&mut self, model: &dyn Model, x: &Matrix) -> Vec<usize> {
        let forward = spare_forward(&mut self.levels);
        model.predict_proba_into(x, &mut forward.ws, &mut forward.probs);
        let mut classes = vec![0; forward.probs.rows()];
        lanes::argmax_rows(forward.probs.as_slice(), forward.probs.cols(), &mut classes);
        classes
    }

    /// Copies the next [`PROBE_ROWS`] labeled rows into the probe buffers;
    /// false when none were left.
    fn fill_probe<'r>(&mut self, rows: &mut impl Iterator<Item = (&'r [f64], usize)>) -> bool {
        self.probe_labels.clear();
        for (r, (row, label)) in rows.take(PROBE_ROWS).enumerate() {
            if r == 0 {
                self.probe_rows.resize(PROBE_ROWS, row.len());
            }
            self.probe_rows.row_mut(r).copy_from_slice(row);
            self.probe_labels.push(label);
        }
        let cols = self.probe_rows.cols();
        self.probe_rows.resize(self.probe_labels.len(), cols);
        !self.probe_labels.is_empty()
    }
}

/// The forward cache models outside the bank run in: the longest level's,
/// invalidated.
fn spare_forward(levels: &mut [Level]) -> &mut ForwardCache {
    // Audited: the constructor clamps `model_num` to at least 1, so
    // `levels` is never empty.
    #[allow(clippy::expect_used)]
    let level = levels.last_mut().expect("at least one level");
    level.invalidate_forward();
    level.forward.get_mut()
}

/// How many rows of `probs` have their argmax at the matching label,
/// taken [`PROBE_ROWS`] rows at a time.
fn hits(probs: &Matrix, labels: &[usize]) -> usize {
    let cols = probs.cols();
    let labels = &labels[..labels.len().min(probs.rows())];
    let mut classes = [0; PROBE_ROWS];
    let mut hit = 0;
    for (start, labels) in (0..).step_by(PROBE_ROWS).zip(labels.chunks(PROBE_ROWS)) {
        let classes = &mut classes[..labels.len()];
        let rows = &probs.as_slice()[start * cols..(start + labels.len()) * cols];
        lanes::argmax_rows(rows, cols, classes);
        hit += classes.iter().zip(labels).filter(|(class, label)| class == label).count();
    }
    hit
}

/// Sets `slot` to a copy of `projected`, reusing the vector it holds.
fn keep_projection(slot: &mut Option<Vec<f64>>, projected: &[f64]) {
    let kept = slot.get_or_insert_with(Vec::new);
    kept.clear();
    kept.extend_from_slice(projected);
}

/// Whether `a` and `b` have the same shape and bitwise-equal entries (a
/// stricter test than `==`, which equates `0.0` with `-0.0` and never
/// matches NaN). Compares 64 entries at a time, an OR of the XORs of their
/// bits with no exit inside a chunk, so the compare runs in vector
/// registers.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    fn differing_bits(a: &[f64], b: &[f64]) -> u64 {
        a.iter().zip(b).fold(0, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits()))
    }
    if a.shape() != b.shape() {
        return false;
    }
    let (a_chunks, a_tail) = a.as_slice().as_chunks::<64>();
    let (b_chunks, b_tail) = b.as_slice().as_chunks::<64>();
    differing_bits(a_tail, b_tail) == 0
        && a_chunks.iter().zip(b_chunks).all(|(p, q)| differing_bits(p, q) == 0)
}

/// Gaussian kernel `K(D, σ) = exp(−D² / 2σ²)` (Equation 14).
pub fn gaussian_kernel(distance: f64, sigma: f64) -> f64 {
    (-(distance * distance) / (2.0 * sigma * sigma)).exp()
}

/// Buffers a window completion reuses from one completion to the next
/// (the gradients themselves live in the long level's trainer).
#[derive(Default)]
struct Completion {
    /// Per-row weights of the rows being trained on (each row carries its
    /// batch's decay weight), refilled for every subset.
    weights: Vec<f64>,
    /// The subsets of the current completion that carry weight.
    subsets: Vec<Subset>,
    /// Rows and labels of the subsets that are not exactly one window
    /// batch, gathered once per completion; slots are kept for reuse.
    gathered: Vec<(Matrix, Vec<usize>)>,
    acc: PrecomputeAccumulator,
}

/// Rows `start..end` of a window's batches stacked oldest first.
struct Subset {
    start: usize,
    end: usize,
    /// Sum of the rows' weights.
    weight: f64,
    rows: SubsetRows,
}

/// Where a [`Subset`]'s rows are read from.
enum SubsetRows {
    /// Exactly window batch `b`, read in place.
    Batch(usize),
    /// Slot `g` of [`Completion::gathered`].
    Gathered(usize),
}

impl Completion {
    /// Trains `trainer` on a completed window, read in place: `epochs`
    /// weighted passes, each splitting the window — its batches stacked
    /// oldest first, every row weighted by its batch's weight — into
    /// `subsets` chunks of `n.div_ceil(subsets)` rows and applying the
    /// weighted merge of the chunks' gradients (the pre-computing window
    /// of §V-B). With `subsets == 1`, or fewer than two rows per subset,
    /// each pass is one weighted step over the whole window. A chunk that
    /// is exactly one window batch is passed as-is; any other chunk (and
    /// a whole window of several batches) is gathered once per
    /// completion, not once per epoch.
    ///
    /// Bit-identical to stacking the window into one matrix and slicing
    /// each chunk out of it every epoch (the `reference_completion` the
    /// tests keep): the same rows, labels and weights reach the same
    /// gradient arithmetic in the same merge order.
    fn train(
        &mut self,
        trainer: &mut Trainer,
        batches: &[WindowBatch],
        subsets: usize,
        epochs: usize,
    ) {
        let n: usize = batches.iter().map(|b| b.x.rows()).sum();
        if n == 0 {
            return;
        }
        if subsets <= 1 || n < subsets * 2 {
            fill_weights(batches, 0, n, &mut self.weights);
            let (x, labels) = match batches {
                [only] => (&*only.x, &only.labels[..]),
                _ => {
                    self.gather(batches, 0, n, 0);
                    (&self.gathered[0].0, &self.gathered[0].1[..])
                }
            };
            for _ in 0..epochs {
                trainer.train_weighted_step(x, labels, Some(&self.weights));
            }
            return;
        }
        let chunk = n.div_ceil(subsets);
        self.subsets.clear();
        let mut slots = 0;
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            fill_weights(batches, start, end, &mut self.weights);
            let weight: f64 = self.weights.iter().sum();
            if weight > 0.0 {
                let mut pieces = pieces(batches, start, end);
                let rows = match (pieces.next(), pieces.next()) {
                    (Some((b, rows)), None) if rows.len() == batches[b].x.rows() => {
                        SubsetRows::Batch(b)
                    }
                    _ => {
                        self.gather(batches, start, end, slots);
                        slots += 1;
                        SubsetRows::Gathered(slots - 1)
                    }
                };
                self.subsets.push(Subset { start, end, weight, rows });
            }
            start = end;
        }
        for _ in 0..epochs {
            for subset in &self.subsets {
                let (x, labels) = match subset.rows {
                    SubsetRows::Batch(b) => (&*batches[b].x, &batches[b].labels[..]),
                    SubsetRows::Gathered(g) => (&self.gathered[g].0, &self.gathered[g].1[..]),
                };
                fill_weights(batches, subset.start, subset.end, &mut self.weights);
                trainer.accumulate_gradient(x, labels, &self.weights, subset.weight, &mut self.acc);
            }
            trainer.apply_merged(&mut self.acc);
        }
    }

    /// Copies rows `start..end` of the stacked window, with their labels,
    /// into gathered slot `slot`.
    fn gather(&mut self, batches: &[WindowBatch], start: usize, end: usize, slot: usize) {
        if self.gathered.len() <= slot {
            self.gathered.resize_with(slot + 1, || (Matrix::zeros(0, 0), Vec::new()));
        }
        let (x, labels) = &mut self.gathered[slot];
        let cols = batches[0].x.cols();
        x.resize(end - start, cols);
        labels.clear();
        for (b, rows) in pieces(batches, start, end) {
            let at = labels.len() * cols;
            let src = &batches[b].x.as_slice()[rows.start * cols..rows.end * cols];
            x.as_mut_slice()[at..at + src.len()].copy_from_slice(src);
            labels.extend_from_slice(&batches[b].labels[rows]);
        }
    }
}

/// The window batches that rows `start..end` of the stacked window touch,
/// oldest first, each with the range of its own rows they cover.
fn pieces(
    batches: &[WindowBatch],
    start: usize,
    end: usize,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
    let mut first = 0;
    batches.iter().enumerate().filter_map(move |(b, batch)| {
        let rows = batch.x.rows();
        let (lo, hi) = (start.max(first), end.min(first + rows));
        let piece = (lo < hi).then(|| (b, lo - first..hi - first));
        first += rows;
        piece
    })
}

/// Writes the weights of rows `start..end` of the stacked window into
/// `out`: each row carries its batch's decay weight.
fn fill_weights(batches: &[WindowBatch], start: usize, end: usize, out: &mut Vec<f64>) {
    out.clear();
    for (b, rows) in pieces(batches, start, end) {
        out.extend(std::iter::repeat_n(batches[b].weight, rows.len()));
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
    fn a_batch_differing_in_the_sign_of_one_zero_misses() {
        // `0.0 == -0.0`, so a compare by value would take this batch for
        // the voted one.
        let (mut x, y) = batch(0.7);
        x.row_mut(40)[0] = 0.0;
        let mut changed = x.clone();
        changed.row_mut(40)[0] = -0.0;
        let mut voted = warm_bank();
        voted.predict(&x, &P);
        assert!((0..3).all(|level| cached(&mut voted, level, &x)), "every level voted on x");
        assert!((0..3).all(|level| !cached(&mut voted, level, &changed)));
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

#[cfg(test)]
mod completion_tests {
    use super::*;
    use freeway_ml::Sgd;

    /// The stack-and-slice completion the in-place one replaced, kept
    /// verbatim as its oracle: the window stacked into one matrix by
    /// `drain_for_update`, then each subset copied out of it every epoch.
    fn reference_completion(
        trainer: &mut Trainer,
        window: &mut AdaptiveStreamingWindow,
        subsets: usize,
        epochs: usize,
    ) {
        if let Some((wx, wy, ww)) = window.drain_for_update() {
            train_weighted_precomputed(trainer, &wx, &wy, &ww, subsets, epochs);
        }
    }

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

    /// A `rows x features` batch of seeded values around `centre`, labels
    /// cycling through `classes`, and its projection.
    fn batch(
        rows: usize,
        features: usize,
        classes: usize,
        centre: f64,
    ) -> (Arc<Matrix>, Arc<[usize]>, Vec<f64>) {
        let value = |i: usize| centre + ((i as f64 + centre * 31.0) * 0.37).sin();
        let x = Matrix::from_vec(rows, features, (0..rows * features).map(value).collect());
        let labels: Arc<[usize]> = (0..rows).map(|i| (i * 7 + 3) % classes).collect();
        (Arc::new(x), labels, vec![centre, -centre])
    }

    fn bits(trainer: &Trainer) -> Vec<u64> {
        trainer.model().parameters().iter().map(|v| v.to_bits()).collect()
    }

    /// Fills a window with batches of `rows[i]` rows centred at `0.3 * i`
    /// until it is full, as the learner does, and checks, completion after
    /// completion, that the in-place completion and the reference leave
    /// bit-identical parameters and the same reseeded window. Returns the
    /// completion for inspection.
    fn assert_matches_reference(
        spec: ModelSpec,
        params: AswParams,
        rows: &[usize],
        subsets: usize,
        epochs: usize,
    ) -> Completion {
        let (features, classes) = (spec.features(), spec.classes());
        let mut window = AdaptiveStreamingWindow::new(params);
        let mut in_place = Trainer::new(spec.build(3), Box::new(Sgd::new(0.2)));
        let mut reference = Trainer::new(spec.build(3), Box::new(Sgd::new(0.2)));
        let mut completion = Completion::default();
        // Two completions on one `Completion`, so the second runs on
        // warm (and stale) buffers.
        for round in 0..2 {
            for (i, &n) in rows.iter().enumerate() {
                let (x, y, p) = batch(n, features, classes, 0.3 * i as f64 + round as f64);
                window.insert(x, y, p);
                if window.is_full() {
                    break;
                }
            }
            let mut copy = window.clone();
            completion.train(&mut in_place, window.batches(), subsets, epochs);
            window.reseed();
            reference_completion(&mut reference, &mut copy, subsets, epochs);
            assert_eq!(bits(&in_place), bits(&reference), "round {round}");
            let summary = |w: &AdaptiveStreamingWindow| -> Vec<(usize, u64)> {
                w.batches().iter().map(|b| (b.x.rows(), b.weight.to_bits())).collect()
            };
            assert_eq!(summary(&window), summary(&copy), "reseeded windows differ");
            assert_eq!(window.items(), copy.items());
        }
        completion
    }

    fn params(max_batches: usize) -> AswParams {
        AswParams { max_batches, ..Default::default() }
    }

    #[test]
    fn subsets_equal_to_batches_read_the_window_in_place() {
        // learner-drift: MLP-32 on 20 features and 5 classes, four 256-row
        // batches into four subsets, two epochs.
        let completion =
            assert_matches_reference(ModelSpec::mlp(20, vec![32], 5), params(4), &[256; 4], 4, 2);
        assert!(completion.gathered.is_empty(), "no subset needed a gather");
    }

    #[test]
    fn subsets_spanning_batches_are_gathered() {
        // Three batches into four subsets of 192 rows: every subset after
        // the first straddles a batch boundary.
        let completion =
            assert_matches_reference(ModelSpec::mlp(20, vec![32], 5), params(3), &[256; 3], 4, 2);
        assert_eq!(completion.gathered.len(), 4);
    }

    #[test]
    fn unequal_batches_after_an_eviction() {
        // Heavy decay evicts the oldest batches on the later inserts,
        // leaving batches of unequal row counts and weights.
        let evicting = AswParams {
            max_batches: 10,
            base_decay: 0.45,
            rank_decay: 0.3,
            disorder_boost: 0.0,
            min_weight: 0.3,
            ..Default::default()
        };
        let mut probe = AdaptiveStreamingWindow::new(evicting.clone());
        for (i, &n) in [100, 256, 37, 64, 90].iter().enumerate() {
            let (x, y, p) = batch(n, 6, 3, 0.3 * i as f64);
            probe.insert(x, y, p);
        }
        assert!(probe.len() < 5, "the decay must evict");
        assert_matches_reference(
            ModelSpec::mlp(6, vec![8], 3),
            evicting,
            &[100, 256, 37, 64, 90],
            4,
            2,
        );
    }

    #[test]
    fn zero_weight_subsets_are_skipped() {
        // Full decay without eviction: every batch but the newest holds
        // weight 0, so the subsets over them carry none.
        let zeroing = AswParams {
            max_batches: 10,
            base_decay: 1.0,
            rank_decay: 0.0,
            disorder_boost: 0.0,
            min_weight: 0.0,
            ..Default::default()
        };
        let completion =
            assert_matches_reference(ModelSpec::lr(6, 3), zeroing, &[64, 64, 64], 6, 2);
        assert!(completion.subsets.len() < 6, "zero-weight subsets are left out");
    }

    #[test]
    fn small_windows_take_the_single_step() {
        // n = 6 < 2 · 4 subsets: one weighted step over the whole window.
        assert_matches_reference(ModelSpec::mlp(6, vec![8], 3), params(3), &[2, 2, 2], 4, 2);
        // A one-batch window passes its batch as-is.
        assert_matches_reference(ModelSpec::mlp(6, vec![8], 3), params(1), &[5], 4, 2);
    }

    #[test]
    fn one_precompute_subset_steps_on_the_whole_window() {
        assert_matches_reference(ModelSpec::mlp(20, vec![32], 5), params(4), &[256; 4], 1, 2);
    }
}
