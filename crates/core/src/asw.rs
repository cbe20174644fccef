//! The adaptive streaming window (§IV-B, Algorithm 1).
//!
//! The ASW feeds the long-granularity model. Each stored batch carries a
//! weight that decays as newer batches arrive; the decay rate of a batch
//! depends on (a) its *distance rank* against the incoming batch — closer
//! batches decay less, keeping the window aligned with the current
//! distribution — and (b) the window's *disorder*: high disorder means the
//! stream is localized (updates are not urgent, decay faster to save
//! work); low disorder means a directional shift is underway (retain the
//! trajectory).

use freeway_drift::disorder::{distance_ranks, normalized_disorder};
use freeway_linalg::{vector, Matrix};
use freeway_telemetry::{Telemetry, TelemetryEvent};
use std::sync::Arc;

/// One batch held in the window.
///
/// Feature rows and labels sit behind `Arc` so that inserting the same
/// incoming batch into several granularity windows (and cloning windows
/// for snapshots) shares one copy instead of deep-cloning the data.
#[derive(Clone, Debug)]
pub struct WindowBatch {
    /// Feature rows (shared).
    pub x: Arc<Matrix>,
    /// Labels (shared).
    pub labels: Arc<[usize]>,
    /// Projected mean `ȳ` of the batch (shift-graph coordinates).
    pub projected: Vec<f64>,
    /// Current decay weight in `(0, 1]`.
    pub weight: f64,
}

/// Decay parameters of the window (a slice of [`crate::FreewayConfig`]).
#[derive(Clone, Debug)]
pub struct AswParams {
    /// Update fires when this many batches are held.
    pub max_batches: usize,
    /// Update fires when this many items are held.
    pub max_items: usize,
    /// Base decay applied to every batch per insertion.
    pub base_decay: f64,
    /// Extra decay for the farthest-ranked batch (linear in rank).
    pub rank_decay: f64,
    /// Multiplier on total decay at disorder 1.0.
    pub disorder_boost: f64,
    /// Batches below this weight are evicted.
    pub min_weight: f64,
}

impl Default for AswParams {
    fn default() -> Self {
        Self {
            max_batches: 8,
            max_items: 16_384,
            base_decay: 0.05,
            rank_decay: 0.15,
            disorder_boost: 1.0,
            min_weight: 0.05,
        }
    }
}

/// The adaptive streaming window.
///
/// ```
/// use freeway_core::asw::{AdaptiveStreamingWindow, AswParams};
/// use freeway_linalg::Matrix;
/// use std::sync::Arc;
///
/// let mut window = AdaptiveStreamingWindow::new(AswParams {
///     max_batches: 2,
///     ..Default::default()
/// });
/// window.insert(Arc::new(Matrix::filled(4, 2, 0.0)), vec![0; 4].into(), vec![0.0, 0.0]);
/// window.insert(Arc::new(Matrix::filled(4, 2, 1.0)), vec![1; 4].into(), vec![1.0, 0.0]);
/// assert!(window.is_full());
/// let (x, labels, weights) = window.drain_for_update().unwrap();
/// assert_eq!(x.rows(), 8);
/// assert_eq!(labels.len(), weights.len());
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveStreamingWindow {
    params: AswParams,
    batches: Vec<WindowBatch>,
    items: usize,
    last_disorder: f64,
    /// Runtime multiplier on decay, raised by the rate-aware adjuster
    /// under high flow rates (§V-B).
    decay_multiplier: f64,
    telemetry: Telemetry,
    /// Granularity level this window belongs to, for event labeling.
    level: usize,
    /// Scratch an insertion ranks the held batches in: their distances
    /// to the incoming batch, the distance order and the ranks. Kept
    /// here so a warm window inserts without allocating.
    distances: Vec<f64>,
    order: Vec<usize>,
    ranks: Vec<usize>,
}

impl AdaptiveStreamingWindow {
    /// Creates an empty window.
    pub fn new(params: AswParams) -> Self {
        assert!(params.max_batches >= 1, "max_batches must be at least 1");
        assert!(params.max_items >= 1, "max_items must be at least 1");
        Self {
            params,
            batches: Vec::new(),
            items: 0,
            last_disorder: 0.0,
            decay_multiplier: 1.0,
            telemetry: Telemetry::disabled(),
            level: 0,
            distances: Vec::new(),
            order: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// Attaches an observability handle: evictions emit
    /// [`TelemetryEvent::WindowEvicted`] labeled with `level`, and each
    /// insertion updates the disorder gauge.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry, level: usize) {
        self.telemetry = telemetry;
        self.level = level;
    }

    /// Number of batches currently held.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when no batches are held.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total items currently held.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Disorder of the most recent insertion's distance ranking, in
    /// `[0, 1]` (Equation 11, normalised).
    pub fn disorder(&self) -> f64 {
        self.last_disorder
    }

    /// Sets the runtime decay multiplier (rate-aware adjuster hook).
    pub fn set_decay_multiplier(&mut self, m: f64) {
        assert!(m >= 1.0, "multiplier only ever raises decay");
        self.decay_multiplier = m;
    }

    /// True when the window has reached either bound and the long model
    /// should update (Algorithm 1, line 3).
    pub fn is_full(&self) -> bool {
        self.batches.len() >= self.params.max_batches || self.items >= self.params.max_items
    }

    /// Inserts a batch, decaying existing batches first (Algorithm 1).
    /// The batch data is taken behind `Arc`, so several windows (one per
    /// granularity level) can hold the same incoming batch without
    /// copying it.
    ///
    /// Returns the disorder computed for this insertion.
    pub fn insert(&mut self, x: Arc<Matrix>, labels: Arc<[usize]>, projected: Vec<f64>) -> f64 {
        assert_eq!(x.rows(), labels.len(), "label count mismatch");
        if !self.batches.is_empty() {
            // Shift distances from the incoming batch to each held batch,
            // oldest first.
            self.distances.clear();
            self.distances.extend(
                self.batches.iter().map(|b| vector::euclidean_distance(&b.projected, &projected)),
            );
            distance_ranks(&self.distances, &mut self.order, &mut self.ranks);
            let disorder = normalized_disorder(&self.ranks);
            self.last_disorder = disorder;

            let n = self.batches.len() as f64;
            for (batch, &rank) in self.batches.iter_mut().zip(&self.ranks) {
                // rank 0 = farthest ⇒ most decay; nearest decays least.
                let rank_term = self.params.rank_decay * (n - rank as f64) / n.max(1.0);
                let decay = (self.params.base_decay + rank_term)
                    * (1.0 + self.params.disorder_boost * disorder)
                    * self.decay_multiplier;
                batch.weight *= (1.0 - decay).max(0.0);
            }
            // Evict fully decayed batches.
            let min_weight = self.params.min_weight;
            let mut removed_items = 0;
            let before = self.batches.len();
            self.batches.retain(|b| {
                if b.weight < min_weight {
                    removed_items += b.x.rows();
                    false
                } else {
                    true
                }
            });
            self.items -= removed_items;
            let evicted = before - self.batches.len();
            if evicted > 0 {
                self.telemetry.emit(TelemetryEvent::WindowEvicted {
                    seq: self.telemetry.seq(),
                    level: self.level,
                    evicted,
                    disorder,
                });
            }
            self.telemetry.record_disorder(disorder);
        }

        self.items += x.rows();
        self.batches.push(WindowBatch { x, labels, projected, weight: 1.0 });
        self.last_disorder
    }

    /// Weighted mean of the held batches' projections — the `ȳ_ASW` of
    /// Equation 13. `None` when empty.
    pub fn projected_mean(&self) -> Option<Vec<f64>> {
        if self.batches.is_empty() {
            return None;
        }
        let dim = self.batches[0].projected.len();
        let mut acc = vec![0.0; dim];
        let mut total = 0.0;
        for b in &self.batches {
            vector::axpy(&mut acc, b.weight, &b.projected);
            total += b.weight;
        }
        for a in &mut acc {
            *a /= total;
        }
        Some(acc)
    }

    /// Stacks all held data into one training set with per-sample weights
    /// (each sample inherits its batch weight) and clears the window,
    /// keeping the newest batch as the seed of the next window so the long
    /// model never loses continuity (see [`Self::reseed`]). The learner's
    /// own window completion reads [`Self::batches`] in place and calls
    /// `reseed` instead of copying the window out.
    ///
    /// Returns `None` when empty.
    pub fn drain_for_update(&mut self) -> Option<(Matrix, Vec<usize>, Vec<f64>)> {
        if self.batches.is_empty() {
            return None;
        }
        let total_rows: usize = self.batches.iter().map(|b| b.x.rows()).sum();
        let dim = self.batches[0].x.cols();
        let mut x = Matrix::zeros(total_rows, dim);
        let mut labels = Vec::with_capacity(total_rows);
        let mut weights = Vec::with_capacity(total_rows);
        let mut r = 0;
        for b in &self.batches {
            for row in b.x.row_iter() {
                x.row_mut(r).copy_from_slice(row);
                r += 1;
            }
            labels.extend_from_slice(&b.labels);
            weights.extend(std::iter::repeat_n(b.weight, b.x.rows()));
        }
        self.reseed();
        Some((x, labels, weights))
    }

    /// Ends an update: clears the window except its newest batch, which
    /// stays at full weight as the seed of the next window. Does nothing
    /// to an empty window.
    pub fn reseed(&mut self) {
        if let Some(newest) = self.batches.pop() {
            self.batches.clear();
            self.items = newest.x.rows();
            self.batches.push(WindowBatch { weight: 1.0, ..newest });
        }
    }

    /// Read-only view of held batches (oldest first).
    pub fn batches(&self) -> &[WindowBatch] {
        &self.batches
    }

    /// Discards all held batches (severe shifts invalidate window
    /// contents: training the long model on a mix of pre- and post-shift
    /// data produces a model that fits neither).
    pub fn clear(&mut self) {
        self.batches.clear();
        self.items = 0;
        self.last_disorder = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_at(mean: f64, rows: usize) -> (Arc<Matrix>, Arc<[usize]>, Vec<f64>) {
        let x = Arc::new(Matrix::filled(rows, 2, mean));
        let labels: Arc<[usize]> = vec![0; rows].into();
        (x, labels, vec![mean, mean])
    }

    fn window(max_batches: usize) -> AdaptiveStreamingWindow {
        AdaptiveStreamingWindow::new(AswParams { max_batches, ..Default::default() })
    }

    #[test]
    fn fills_and_reports_full() {
        let mut w = window(3);
        for i in 0..3 {
            let (x, y, p) = batch_at(i as f64, 4);
            w.insert(x, y, p);
        }
        assert!(w.is_full());
        assert_eq!(w.items(), 12);
    }

    #[test]
    fn item_bound_triggers_fullness() {
        let mut w = AdaptiveStreamingWindow::new(AswParams {
            max_batches: 100,
            max_items: 10,
            ..Default::default()
        });
        let (x, y, p) = batch_at(0.0, 12);
        w.insert(x, y, p);
        assert!(w.is_full());
    }

    #[test]
    fn closer_batches_decay_less() {
        let mut w = window(10);
        // Two held batches: one far (mean 10), one near (mean 1).
        let (x, y, p) = batch_at(10.0, 4);
        w.insert(x, y, p);
        let (x, y, p) = batch_at(1.0, 4);
        w.insert(x, y, p);
        // Incoming batch at mean 0: the batch at 10 is farther.
        let (x, y, p) = batch_at(0.0, 4);
        w.insert(x, y, p);
        let weights: Vec<f64> = w.batches().iter().map(|b| b.weight).collect();
        // Order: [10-batch, 1-batch, new]; far batch decayed more.
        assert!(weights[0] < weights[1], "far batch must decay more: {weights:?}");
        assert_eq!(weights[2], 1.0, "incoming batch starts at full weight");
    }

    #[test]
    fn directional_stream_has_low_disorder_localized_high() {
        // Directional: batch means march away from the future insert point.
        let mut w = window(20);
        for m in [8.0, 6.0, 4.0, 2.0] {
            let (x, y, p) = batch_at(m, 2);
            w.insert(x, y, p);
        }
        let (x, y, p) = batch_at(0.0, 2);
        let directional_disorder = w.insert(x, y, p);

        let mut w2 = window(20);
        for m in [2.0, 8.0, 1.0, 6.0] {
            let (x, y, p) = batch_at(m, 2);
            w2.insert(x, y, p);
        }
        let (x, y, p) = batch_at(0.0, 2);
        let localized_disorder = w2.insert(x, y, p);

        assert!(
            directional_disorder < localized_disorder,
            "directional {directional_disorder} must be below localized {localized_disorder}"
        );
        assert_eq!(directional_disorder, 0.0, "perfect march is perfectly ordered");
    }

    #[test]
    fn fully_decayed_batches_are_evicted() {
        let mut w = AdaptiveStreamingWindow::new(AswParams {
            max_batches: 100,
            max_items: 1_000_000,
            base_decay: 0.5,
            rank_decay: 0.4,
            disorder_boost: 0.0,
            min_weight: 0.3,
        });
        let (x, y, p) = batch_at(5.0, 4);
        w.insert(x, y, p);
        for i in 0..4 {
            let (x, y, p) = batch_at(i as f64 * 0.1, 4);
            w.insert(x, y, p);
        }
        assert!(
            w.batches().iter().all(|b| b.weight >= 0.3),
            "weights below min_weight must be gone"
        );
        assert!(w.len() < 5, "heavy decay must evict something");
        let items: usize = w.batches().iter().map(|b| b.x.rows()).sum();
        assert_eq!(items, w.items(), "item accounting stays consistent");
    }

    #[test]
    fn projected_mean_weights_by_decay() {
        let mut w = window(10);
        let (x, y, p) = batch_at(0.0, 2);
        w.insert(x, y, p);
        let (x, y, p) = batch_at(4.0, 2);
        w.insert(x, y, p);
        let mean = w.projected_mean().expect("non-empty");
        // Newest batch has weight 1.0, older decayed below 1 ⇒ mean pulls
        // toward 4.0 past the unweighted midpoint of 2.0.
        assert!(mean[0] > 2.0, "weighted mean {mean:?} should lean to the newer batch");
    }

    #[test]
    fn drain_produces_weighted_training_set_and_reseeds() {
        let mut w = window(10);
        let (x, y, p) = batch_at(1.0, 3);
        w.insert(x, y, p);
        let (x, y, p) = batch_at(2.0, 2);
        w.insert(x, y, p);
        let (x, labels, weights) = w.drain_for_update().expect("non-empty");
        assert_eq!(x.rows(), 5);
        assert_eq!(labels.len(), 5);
        assert_eq!(weights.len(), 5);
        // First three rows share the (decayed) older weight; last two are 1.
        assert!(weights[0] < 1.0);
        assert_eq!(weights[3], 1.0);
        // Window reseeded with the newest batch only.
        assert_eq!(w.len(), 1);
        assert_eq!(w.items(), 2);
        assert_eq!(w.batches()[0].weight, 1.0);
    }

    #[test]
    fn drain_on_empty_is_none() {
        let mut w = window(3);
        assert!(w.drain_for_update().is_none());
        assert!(w.projected_mean().is_none());
    }

    #[test]
    fn decay_multiplier_accelerates_decay() {
        let mut slow = window(10);
        let mut fast = window(10);
        fast.set_decay_multiplier(3.0);
        for m in [1.0, 2.0, 3.0] {
            let (x, y, p) = batch_at(m, 2);
            slow.insert(x.clone(), y.clone(), p.clone());
            let (x2, y2, p2) = batch_at(m, 2);
            fast.insert(x2, y2, p2);
        }
        let slow_w = slow.batches()[0].weight;
        let fast_w = fast.batches()[0].weight;
        assert!(fast_w < slow_w, "boosted decay {fast_w} must be below {slow_w}");
    }
}
