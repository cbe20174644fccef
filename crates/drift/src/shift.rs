//! Shift distance and severity tracking (Equations 6–10).

use crate::pca::{PcaReducer, PcaWarmup};
use freeway_linalg::{stats, vector, Matrix};
use freeway_telemetry::{Stage, Telemetry};
use std::collections::VecDeque;

/// Configuration for [`ShiftTracker`].
#[derive(Clone, Debug)]
pub struct ShiftTrackerConfig {
    /// Rows of warm-up data before PCA is fitted.
    pub warmup_rows: usize,
    /// PCA components retained.
    pub components: usize,
    /// How many previous shift distances enter the severity statistics
    /// (the `k` of Equations 8–9).
    pub history: usize,
    /// Per-step weight decay for older shifts (`w_i` in Equation 8).
    pub recency_decay: f64,
    /// How many projected batch means are remembered for the
    /// nearest-historical-distance `d_h` (Pattern C detection).
    pub distribution_memory: usize,
    /// Severe shift distances are winsorized to `μ_d + winsorize_z · σ_d`
    /// before entering the history: one jump must not inflate the
    /// statistics so much that it masks the next jump.
    pub winsorize_z: f64,
}

impl Default for ShiftTrackerConfig {
    fn default() -> Self {
        Self {
            warmup_rows: 256,
            components: 2,
            history: 20,
            recency_decay: 0.9,
            distribution_memory: 200,
            winsorize_z: 3.0,
        }
    }
}

/// One batch's shift measurement.
#[derive(Clone, Debug)]
pub struct ShiftMeasurement {
    /// Projected batch mean `ȳ_t`.
    pub projected: Vec<f64>,
    /// Shift distance `d_t = ‖ȳ_t − ȳ_{t−1}‖` (Equation 7).
    pub distance: f64,
    /// Severity z-score `M = (d_t − μ_d)/σ_d` (Equation 10); zero while
    /// history is too short to be meaningful.
    pub severity: f64,
    /// Nearest distance to any remembered historical distribution
    /// (`d_h`), excluding the immediately previous batch; `None` until
    /// history exists.
    pub nearest_historical: Option<f64>,
    /// Index (into the tracker's remembered distributions) of the nearest
    /// historical distribution, aligned with `nearest_historical`.
    pub nearest_index: Option<usize>,
    /// Weighted mean `μ_d` of the shift-distance history (Equation 8).
    pub history_mean: f64,
    /// Standard deviation `σ_d` of the shift-distance history (Equation 9).
    pub history_std: f64,
}

/// Tracks the data-shift graph of a stream.
///
/// Feed every batch in arrival order; the tracker warms up PCA first
/// (reporting `None` meanwhile), then emits a [`ShiftMeasurement`] per
/// batch.
///
/// ```
/// use freeway_drift::{ShiftTracker, ShiftTrackerConfig};
/// use freeway_linalg::Matrix;
///
/// let mut tracker = ShiftTracker::new(ShiftTrackerConfig {
///     warmup_rows: 8,
///     components: 2,
///     ..Default::default()
/// });
/// // Warm-up batch fits the PCA…
/// let warm = Matrix::from_rows(&(0..8).map(|i| vec![i as f64, -(i as f64)]).collect::<Vec<_>>());
/// assert!(tracker.observe(&warm).is_none());
/// // …after which every batch yields a measurement.
/// let m = tracker.observe(&Matrix::filled(4, 2, 3.0)).unwrap();
/// assert!(m.distance >= 0.0);
/// ```
///
/// Once the history is full a measurement allocates only the projection
/// it returns: the batch mean, its projection, the recency weights and
/// the remembered distributions live in buffers the tracker keeps.
#[derive(Clone, Debug)]
pub struct ShiftTracker {
    config: ShiftTrackerConfig,
    warmup: Option<PcaWarmup>,
    pca: Option<PcaReducer>,
    /// The previous batch's projected mean (empty until PCA is fitted).
    previous: Vec<f64>,
    shift_history: VecDeque<f64>,
    /// `stats::recency_weights` for the history's current length.
    weights: Vec<f64>,
    /// Remembered projected means, a ring of `distribution_memory` rows of
    /// the projection's width: `distribution_count` of them from row
    /// `distribution_head` on, oldest first.
    distributions: Vec<f64>,
    distribution_head: usize,
    distribution_count: usize,
    /// Per-batch scratch: the batch mean, its centred copy, its projection.
    mean: Vec<f64>,
    centered: Vec<f64>,
    projected: Vec<f64>,
    telemetry: Telemetry,
}

impl ShiftTracker {
    /// Creates a tracker with the given configuration.
    pub fn new(config: ShiftTrackerConfig) -> Self {
        assert!(config.history >= 2, "severity needs at least two history entries");
        assert!(config.components >= 1, "need at least one component");
        Self {
            warmup: Some(PcaWarmup::new(config.warmup_rows, config.components)),
            config,
            pca: None,
            previous: Vec::new(),
            shift_history: VecDeque::new(),
            weights: Vec::new(),
            distributions: Vec::new(),
            distribution_head: 0,
            distribution_count: 0,
            mean: Vec::new(),
            centered: Vec::new(),
            projected: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches an observability handle: projection and shift computation
    /// get timing spans, and each measurement updates the shift gauges.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Creates a tracker with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ShiftTrackerConfig::default())
    }

    /// True once PCA is fitted and measurements flow.
    pub fn is_ready(&self) -> bool {
        self.pca.is_some()
    }

    /// The fitted reducer, if warm-up completed.
    pub fn pca(&self) -> Option<&PcaReducer> {
        self.pca.as_ref()
    }

    /// Remembered historical distributions (projected means), oldest
    /// first. Index positions match [`ShiftMeasurement::nearest_index`].
    pub fn distributions(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        let (width, memory) = (self.previous.len(), self.config.distribution_memory);
        (0..self.distribution_count).map(move |i| {
            let row = (self.distribution_head + i) % memory;
            &self.distributions[row * width..(row + 1) * width]
        })
    }

    /// Current weighted mean and standard deviation of the shift-distance
    /// history (`μ_d`, `σ_d`); zeros while fewer than two shifts are
    /// recorded. Consumers use the mean as the stream's characteristic
    /// distance scale.
    pub fn history_stats(&self) -> (f64, f64) {
        if self.shift_history.len() < 2 {
            return (0.0, 0.0);
        }
        // `observe` keeps the history contiguous, so this is all of it.
        let (history, _) = self.shift_history.as_slices();
        let mu = stats::weighted_mean(history, &self.weights);
        (mu, stats::std_dev_around(history, mu))
    }

    /// Observes a batch; returns `None` during PCA warm-up.
    pub fn observe(&mut self, batch: &Matrix) -> Option<ShiftMeasurement> {
        let Some(pca) = self.pca.as_ref() else {
            let warmup = self.warmup.as_mut().expect("warmup present until PCA fitted");
            if let Some(fitted) = warmup.feed(batch) {
                // The warm-up tail also serves as the first reference point.
                batch.column_means_into(&mut self.mean);
                fitted.project_mean_into(&self.mean, &mut self.centered, &mut self.previous);
                self.distributions = vec![0.0; self.config.distribution_memory * fitted.k()];
                self.pca = Some(fitted);
                self.warmup = None;
            }
            return None;
        };

        {
            let _span = self.telemetry.time(Stage::PcaProject);
            batch.column_means_into(&mut self.mean);
            pca.project_mean_into(&self.mean, &mut self.centered, &mut self.projected);
        }

        let _shift_span = self.telemetry.time(Stage::Shift);
        let distance = vector::euclidean_distance(&self.projected, &self.previous);

        // Severity against weighted history (Equations 8–10).
        let mut recorded_distance = distance;
        let mut history_mean = distance;
        let mut history_std = 0.0;
        let severity = if self.shift_history.len() >= 2 {
            let (mu, sigma) = self.history_stats();
            history_mean = mu;
            history_std = sigma;
            if sigma > 1e-12 {
                let m = (distance - mu) / sigma;
                // Winsorize severe distances before they enter the
                // history, so one jump cannot mask the next.
                if m > self.config.winsorize_z {
                    recorded_distance = mu + self.config.winsorize_z * sigma;
                }
                m
            } else if distance > mu + 1e-12 {
                // Degenerate flat history: any real movement is severe.
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            0.0
        };

        // Nearest historical distribution (for Pattern C detection).
        let (nearest_historical, nearest_index) = nearest(&self.projected, self.distributions())
            .map_or((None, None), |(d, i)| (Some(d), Some(i)));

        // Update state.
        self.shift_history.push_back(recorded_distance);
        while self.shift_history.len() > self.config.history {
            self.shift_history.pop_front();
        }
        self.shift_history.make_contiguous();
        if self.weights.len() != self.shift_history.len() {
            // Constant once the history is full.
            self.weights =
                stats::recency_weights(self.shift_history.len(), self.config.recency_decay);
        }
        self.remember(self.previous.len());
        self.previous.copy_from_slice(&self.projected);

        self.telemetry.record_shift(if severity.is_finite() { severity } else { 1e9 }, distance);
        Some(ShiftMeasurement {
            projected: self.projected.clone(),
            distance,
            severity,
            nearest_historical,
            nearest_index,
            history_mean,
            history_std,
        })
    }

    /// Appends the previous batch's projection to the remembered
    /// distributions, dropping the oldest when the ring is full.
    fn remember(&mut self, width: usize) {
        let memory = self.config.distribution_memory;
        if memory == 0 {
            return;
        }
        let row = (self.distribution_head + self.distribution_count) % memory;
        self.distributions[row * width..(row + 1) * width].copy_from_slice(&self.previous);
        if self.distribution_count == memory {
            self.distribution_head = (self.distribution_head + 1) % memory;
        } else {
            self.distribution_count += 1;
        }
    }
}

/// The first of `distributions` nearest to `projected`, and its distance:
/// what a `min_by` over their `euclidean_distance`s returns (the first
/// strict minimum), panicking as that `partial_cmp(..).expect` does when
/// there are two or more and a distance is NaN. Each square is summed as
/// `euclidean_distance` sums it, but only a square below the nearest one's
/// so far takes a `sqrt`: `sqrt` is correctly rounded and so monotone, so
/// a square at or above it cannot have the smaller root, and one below it
/// wins only when its root is strictly smaller too (two squares one ulp
/// apart can share a root, and then the first stays).
fn nearest<'d>(
    projected: &[f64],
    distributions: impl Iterator<Item = &'d [f64]>,
) -> Option<(f64, usize)> {
    // The nearest's distance and index, and a square with that root.
    let mut best: Option<(f64, usize, f64)> = None;
    for (i, d) in distributions.enumerate() {
        let sq = vector::squared_distance(projected, d);
        match best {
            None => best = Some((sq.sqrt(), i, sq)),
            Some((dist, _, held)) => {
                assert!(!sq.is_nan() && !dist.is_nan(), "finite distances");
                if sq < held && sq.sqrt() < dist {
                    best = Some((sq.sqrt(), i, sq));
                }
            }
        }
    }
    best.map(|(dist, i, _)| (dist, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_streams::concept::stream_rng;
    use freeway_streams::concept::GmmConcept;

    fn config() -> ShiftTrackerConfig {
        ShiftTrackerConfig {
            warmup_rows: 64,
            components: 2,
            history: 10,
            recency_decay: 0.9,
            distribution_memory: 50,
            winsorize_z: 3.0,
        }
    }

    /// The `min_by` over `euclidean_distance`s that [`nearest`] stands for.
    fn min_by_distance(projected: &[f64], ds: &[Vec<f64>]) -> Option<(f64, usize)> {
        ds.iter()
            .enumerate()
            .map(|(i, d)| (vector::euclidean_distance(projected, d), i))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"))
    }

    fn nearest_of(projected: &[f64], ds: &[Vec<f64>]) -> Option<(f64, usize)> {
        nearest(projected, ds.iter().map(Vec::as_slice))
    }

    /// Two squares one ulp apart whose roots round alike, the larger one
    /// first: the first must win, as under `min_by`, though its square is
    /// not the least.
    #[test]
    fn nearest_keeps_the_first_of_squares_that_share_a_root() {
        let projected = [0.0, 0.0];
        let point = |j: usize| vec![1.5, j as f64 * 2f64.powi(-27)];
        let sq = |j: usize| vector::squared_distance(&projected, &point(j));
        let j = (1..64)
            .find(|&j| sq(j + 1) == sq(j).next_up() && sq(j + 1).sqrt() == sq(j).sqrt())
            .expect("adjacent squares sharing a root");
        let ds = vec![point(j + 1), point(j), point(j + 1)];
        assert_eq!(nearest_of(&projected, &ds), Some((sq(j).sqrt(), 0)));
        assert_eq!(nearest_of(&projected, &ds), min_by_distance(&projected, &ds));
        // A strictly smaller root later in the scan still wins.
        let ds = vec![point(j + 1), point(j), point(0)];
        assert_eq!(nearest_of(&projected, &ds), Some((1.5, 2)));
    }

    /// The scan against `min_by` on seeded near-ties, duplicates and
    /// infinities, at memory sizes from 0.
    #[test]
    fn nearest_matches_min_by_on_seeded_sets() {
        use rand::RngExt;
        let mut rng = stream_rng(0x5CA7);
        for case in 0..400 {
            let width = 1 + case % 3;
            let projected: Vec<f64> = (0..width).map(|_| rng.random_range(-2.0..2.0)).collect();
            let base: Vec<f64> = (0..width).map(|_| rng.random_range(-2.0..2.0)).collect();
            let ds: Vec<Vec<f64>> = (0..case % 40)
                .map(|_| match rng.random_range(0..6) {
                    0 => base.clone(),
                    1 => base.iter().map(|&x| x + rng.random_range(-4..4) as f64 * 1e-15).collect(),
                    2 => vec![f64::INFINITY; width],
                    _ => (0..width).map(|_| rng.random_range(-2.0..2.0)).collect(),
                })
                .collect();
            let got = nearest_of(&projected, &ds);
            let want = min_by_distance(&projected, &ds);
            assert_eq!(got.map(|(d, i)| (d.to_bits(), i)), want.map(|(d, i)| (d.to_bits(), i)));
        }
        assert_eq!(nearest_of(&[0.0], &[]), None);
        let lone_nan = nearest_of(&[0.0], &[vec![f64::NAN]]).expect("one entry");
        assert!(lone_nan.0.is_nan() && lone_nan.1 == 0);
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn nearest_panics_on_a_nan_distance_as_min_by_does() {
        nearest_of(&[0.0], &[vec![1.0], vec![f64::NAN], vec![2.0]]);
    }

    fn steady_concept(seed: u64) -> (GmmConcept, rand::rngs::StdRng) {
        let mut rng = stream_rng(seed);
        let c = GmmConcept::random(6, 2, 2, 3.0, 0.5, &mut rng);
        (c, rng)
    }

    #[test]
    fn warmup_then_measurements() {
        let (c, mut rng) = steady_concept(1);
        let mut tracker = ShiftTracker::new(config());
        let (b1, _) = c.sample_batch(32, &mut rng);
        assert!(tracker.observe(&b1).is_none(), "32 < 64 warm-up rows");
        let (b2, _) = c.sample_batch(32, &mut rng);
        assert!(tracker.observe(&b2).is_none(), "warm-up completes on this batch");
        assert!(tracker.is_ready());
        let (b3, _) = c.sample_batch(32, &mut rng);
        let m = tracker.observe(&b3).expect("ready");
        assert!(m.distance.is_finite());
        assert_eq!(m.projected.len(), 2);
    }

    #[test]
    fn stable_stream_has_low_severity() {
        let (c, mut rng) = steady_concept(2);
        let mut tracker = ShiftTracker::new(config());
        let mut severities = Vec::new();
        for _ in 0..30 {
            let (b, _) = c.sample_batch(128, &mut rng);
            if let Some(m) = tracker.observe(&b) {
                severities.push(m.severity);
            }
        }
        // Individual batches can spike by chance; the robust property of
        // a stable stream is that severe classifications stay rare.
        let tail = &severities[5..];
        let severe = tail.iter().filter(|&&m| m > 1.96).count();
        assert!(
            (severe as f64) < 0.35 * tail.len() as f64,
            "stable stream mostly below α: {severe}/{} severe",
            tail.len()
        );
        let mut sorted = tail.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(median < 1.96, "median severity {median} should be below α");
    }

    #[test]
    fn sudden_jump_spikes_severity() {
        let (mut c, mut rng) = steady_concept(3);
        let mut tracker = ShiftTracker::new(config());
        for _ in 0..20 {
            let (b, _) = c.sample_batch(128, &mut rng);
            let _ = tracker.observe(&b);
        }
        // Jump the whole distribution far away.
        c.translate(&[50.0, -50.0, 50.0, -50.0, 50.0, -50.0]);
        let (b, _) = c.sample_batch(128, &mut rng);
        let m = tracker.observe(&b).expect("ready");
        assert!(m.severity > 1.96, "jump must exceed α: M = {}", m.severity);
    }

    #[test]
    fn returning_to_old_distribution_yields_small_nearest_historical() {
        let (c, mut rng) = steady_concept(4);
        let mut tracker = ShiftTracker::new(config());
        // Phase 1: home distribution.
        for _ in 0..15 {
            let (b, _) = c.sample_batch(128, &mut rng);
            let _ = tracker.observe(&b);
        }
        // Phase 2: far-away distribution.
        let mut away = c.clone();
        away.translate(&[40.0; 6]);
        for _ in 0..10 {
            let (b, _) = away.sample_batch(128, &mut rng);
            let _ = tracker.observe(&b);
        }
        // Phase 3: return home.
        let (b, _) = c.sample_batch(128, &mut rng);
        let m = tracker.observe(&b).expect("ready");
        let dh = m.nearest_historical.expect("history exists");
        assert!(
            dh < m.distance,
            "returning home: nearest history {dh} must beat current shift {}",
            m.distance
        );
        assert!(m.severity > 1.96, "the return jump itself is severe");
    }

    #[test]
    fn history_is_bounded() {
        let (c, mut rng) = steady_concept(5);
        let mut cfg = config();
        cfg.distribution_memory = 5;
        cfg.history = 3;
        let mut tracker = ShiftTracker::new(cfg);
        for _ in 0..40 {
            let (b, _) = c.sample_batch(64, &mut rng);
            let _ = tracker.observe(&b);
        }
        assert!(tracker.distributions().len() <= 5);
        assert!(tracker.shift_history.len() <= 3);
    }
}
