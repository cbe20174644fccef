//! Coherent experience clustering (§IV-C).
//!
//! Hypothesis (from the paper): data continuous in time is continuous in
//! distribution, so when a sudden shift is detected, the tail of the
//! previous batch already carries the new distribution. CEC therefore
//! clusters the current (unlabeled) batch *together with* the `m` most
//! recent labeled points, and maps each cluster to the majority label of
//! its labeled members.

use crate::kmeans::{KMeans, KMeansScratch};
use freeway_linalg::{vector, Matrix};
use std::sync::{Mutex, PoisonError};

/// The `ExpBuffer` of the paper: the most recent labeled points, bounded
/// in count and (optionally) in age.
///
/// Stored as a flat ring — one `capacity x dim` feature arena plus
/// parallel label/age arrays — so pushing a batch copies rows into place
/// and never allocates once the arena exists. The old representation
/// (one `Vec<f64>` per point) cost one heap allocation per stream item,
/// the single largest allocation source on the hot path.
#[derive(Clone, Debug)]
pub struct ExperienceBuffer {
    /// Row-major `capacity x dim` feature storage (lazily sized at the
    /// first push, when the stream dimension becomes known).
    features: Vec<f64>,
    labels: Vec<usize>,
    inserted_at: Vec<u64>,
    /// Feature dimension; `0` until the first point arrives.
    dim: usize,
    capacity: usize,
    /// Ring index of the oldest live entry.
    head: usize,
    len: usize,
    /// Entries older than this many batches are expired; `None` disables.
    expiration_batches: Option<u64>,
    clock: u64,
}

impl ExperienceBuffer {
    /// Creates a buffer holding at most `capacity` points.
    pub fn new(capacity: usize, expiration_batches: Option<u64>) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            features: Vec::new(),
            labels: vec![0; capacity],
            inserted_at: vec![0; capacity],
            dim: 0,
            capacity,
            head: 0,
            len: 0,
            expiration_batches,
            clock: 0,
        }
    }

    /// Advances the batch clock and expires outdated experiences.
    pub fn tick(&mut self) {
        self.clock += 1;
        if let Some(max_age) = self.expiration_batches {
            while self.len > 0 && self.clock.saturating_sub(self.inserted_at[self.head]) > max_age {
                self.head = (self.head + 1) % self.capacity;
                self.len -= 1;
            }
        }
    }

    /// Inserts the (tail of the) labeled batch. Keeps at most `capacity`
    /// points overall, evicting the oldest.
    ///
    /// # Panics
    /// Panics if `labels.len() != x.rows()`, or if the feature dimension
    /// changes while points are still buffered.
    pub fn push_batch(&mut self, x: &Matrix, labels: &[usize]) {
        assert_eq!(x.rows(), labels.len(), "label count mismatch");
        if x.rows() == 0 {
            return;
        }
        if self.dim != x.cols() {
            assert_eq!(self.len, 0, "feature dimension changed mid-stream");
            self.dim = x.cols();
            self.head = 0;
            self.features.clear();
            self.features.resize(self.capacity * self.dim, 0.0);
        }
        let n = x.rows();
        if n <= self.capacity {
            // The batch lands on at most two contiguous slot runs (one
            // wrap), so the per-row slot arithmetic collapses into block
            // copies. End state matches the row-by-row insert exactly: the
            // same rows land in the same slots, then the ring advances by
            // however many evictions occurred.
            let start = (self.head + self.len) % self.capacity;
            let first = (self.capacity - start).min(n);
            let d = self.dim;
            let src = x.as_slice();
            self.features[start * d..(start + first) * d].copy_from_slice(&src[..first * d]);
            self.labels[start..start + first].copy_from_slice(&labels[..first]);
            self.inserted_at[start..start + first].fill(self.clock);
            if n > first {
                let rest = n - first;
                self.features[..rest * d].copy_from_slice(&src[first * d..n * d]);
                self.labels[..rest].copy_from_slice(&labels[first..]);
                self.inserted_at[..rest].fill(self.clock);
            }
            let evicted = (self.len + n).saturating_sub(self.capacity);
            self.len = (self.len + n).min(self.capacity);
            self.head = (self.head + evicted) % self.capacity;
            return;
        }
        // Oversized batch (rare): rows wrap over themselves, keep the
        // straightforward per-row insert.
        for (row, &label) in x.row_iter().zip(labels) {
            let slot = (self.head + self.len) % self.capacity;
            self.features[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(row);
            self.labels[slot] = label;
            self.inserted_at[slot] = self.clock;
            if self.len == self.capacity {
                // Overwrote the oldest entry in place; the ring advances.
                self.head = (self.head + 1) % self.capacity;
            } else {
                self.len += 1;
            }
        }
    }

    /// Number of stored experiences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no experiences are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature matrix + labels of all stored experiences, oldest first.
    pub fn snapshot(&self) -> (Matrix, Vec<usize>) {
        let dim = if self.len == 0 { 0 } else { self.dim };
        let mut x = Matrix::zeros(self.len, dim);
        let mut labels = Vec::with_capacity(self.len);
        for (r, (row, label)) in self.recent_rows(self.len).enumerate() {
            x.row_mut(r).copy_from_slice(row);
            labels.push(label);
        }
        (x, labels)
    }

    /// Iterator over the `m` most recent experiences as `(features,
    /// label)` pairs, oldest of the slice first — lets callers assemble
    /// working matrices directly without intermediate row clones. The
    /// continuity hypothesis says only the *freshest* labeled data carries
    /// the post-shift distribution, so CEC guides with a recent slice
    /// rather than the whole buffer.
    pub fn recent_rows(&self, m: usize) -> impl Iterator<Item = (&[f64], usize)> {
        let take = m.min(self.len);
        let start = self.len - take;
        (start..self.len).map(move |i| {
            let slot = (self.head + i) % self.capacity;
            (&self.features[slot * self.dim..(slot + 1) * self.dim], self.labels[slot])
        })
    }
}

/// The CEC predictor.
///
/// ```
/// use freeway_cluster::{CoherentExperience, ExperienceBuffer};
/// use freeway_linalg::Matrix;
///
/// let mut buffer = ExperienceBuffer::new(100, None);
/// // Labeled experience: two separated groups.
/// let exp = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.1, 0.0], vec![9.0, 9.0], vec![9.1, 9.0]]);
/// buffer.push_batch(&exp, &[0, 0, 1, 1]);
/// // Unlabeled batch from the same groups.
/// let batch = Matrix::from_rows(&[vec![0.05, 0.02], vec![9.05, 9.01]]);
/// let preds = CoherentExperience::new(2, 7).predict(&batch, &buffer).unwrap();
/// assert_eq!(preds, vec![0, 1]);
/// ```
#[derive(Debug)]
pub struct CoherentExperience {
    /// Number of clusters. The paper frames this as the number of labels;
    /// real classes are multi-modal, so callers typically pass a small
    /// multiple of the label count.
    pub clusters: usize,
    /// Most recent experience points used as guidance (`m` in §IV-C);
    /// `usize::MAX` uses the whole buffer.
    pub max_experience: usize,
    /// Minimum labeled-guidance purity for predictions to be emitted.
    ///
    /// Purity is the fraction of labeled guidance points that agree with
    /// their cluster's majority label. When cluster structure does not
    /// align with labels (e.g. classes that overlap in feature space),
    /// the cluster→label mapping is noise and the caller should fall back
    /// to its model; `0.0` disables the gate.
    pub min_purity: f64,
    /// k-means seed (kept fixed for reproducibility).
    pub seed: u64,
    /// Buffers kept from one call to the next, so a warm call allocates
    /// only the predictions it returns. Behind a lock because prediction
    /// takes `&self`.
    scratch: Mutex<Scratch>,
}

/// What one CEC call works in: the k-means fit's buffers (the guidance
/// and batch points among them, as lanes), the guidance labels, and the
/// vote tables.
#[derive(Default)]
struct Scratch {
    kmeans: KMeansScratch,
    /// Labels of the guidance points, oldest first.
    guidance: Vec<usize>,
    /// `k x num_labels` votes, a row per cluster.
    votes: Vec<usize>,
    /// Each cluster's label.
    cluster_label: Vec<Option<usize>>,
    /// The clusters holding a labeled point, in order.
    labeled: Vec<usize>,
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").field("kmeans", &self.kmeans).finish_non_exhaustive()
    }
}

impl Clone for CoherentExperience {
    /// Copies the configuration; the clone starts with an empty scratch.
    fn clone(&self) -> Self {
        let Self { clusters, max_experience, min_purity, seed, .. } = *self;
        Self { clusters, max_experience, min_purity, seed, scratch: Mutex::default() }
    }
}

impl CoherentExperience {
    /// Creates a CEC predictor with `clusters` clusters using the whole
    /// experience buffer as guidance.
    pub fn new(clusters: usize, seed: u64) -> Self {
        Self::with_recent(clusters, usize::MAX, 0.0, seed)
    }

    /// Creates a CEC predictor guided by at most `max_experience` recent
    /// points, with the purity gate at `min_purity`.
    pub fn with_recent(clusters: usize, max_experience: usize, min_purity: f64, seed: u64) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        assert!(max_experience >= 1, "need at least one guidance point");
        assert!((0.0..=1.0).contains(&min_purity), "purity must be in [0, 1]");
        Self { clusters, max_experience, min_purity, seed, scratch: Mutex::default() }
    }

    /// Predicts labels for `batch` by clustering it together with the
    /// most recent buffered experience and voting within clusters.
    ///
    /// Clusters containing no labeled member inherit the label of the
    /// nearest labeled centroid. Returns `None` when the buffer is empty
    /// (no experience → no mapping; the caller falls back to its model).
    pub fn predict(&self, batch: &Matrix, buffer: &ExperienceBuffer) -> Option<Vec<usize>> {
        let (preds, purity) = self.predict_scored(batch, buffer)?;
        if self.min_purity > 0.0 && purity < self.min_purity {
            return None;
        }
        Some(preds)
    }

    /// Like [`Self::predict`] but always returns the predictions together
    /// with the guidance purity, leaving the accept/reject decision to the
    /// caller (FreewayML arbitrates CEC against its ensemble using this
    /// score).
    pub fn predict_scored(
        &self,
        batch: &Matrix,
        buffer: &ExperienceBuffer,
    ) -> Option<(Vec<usize>, f64)> {
        if buffer.is_empty() || batch.rows() == 0 {
            return None;
        }
        // A panic mid-call leaves nothing a later call reads: every call
        // overwrites what it uses.
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let Scratch { kmeans, guidance, votes, cluster_label, labeled } = &mut *scratch;
        // Guidance + batch rows go straight into the k-means' points-as-
        // lanes copy: no combined matrix, no per-row clones.
        let m = self.max_experience.min(buffer.len());
        guidance.clear();
        guidance.extend(buffer.recent_rows(self.max_experience).map(|(_, label)| label));
        let rows = buffer.recent_rows(self.max_experience).map(|(row, _)| row);
        let n = m + batch.rows();
        kmeans.load(n, batch.cols(), rows.chain(batch.row_iter()));
        let k = self.clusters.min(n);
        let result = KMeans::new(k, self.seed).fit_in(kmeans);

        // Vote labels within each cluster using the first m (labeled) rows:
        // one `k x num_labels` table, a row per cluster.
        let num_labels = guidance.iter().copied().max().unwrap_or(0) + 1;
        votes.clear();
        votes.resize(k * num_labels, 0);
        for (i, &label) in guidance.iter().enumerate() {
            votes[result.assignments[i] * num_labels + label] += 1;
        }
        cluster_label.clear();
        cluster_label.extend(votes.chunks_exact(num_labels).map(|v| {
            let best = v.iter().enumerate().max_by_key(|(_, &c)| c);
            match best {
                Some((label, &count)) if count > 0 => Some(label),
                _ => None,
            }
        }));

        // Guidance purity: the fraction of labeled guidance points that
        // agree with their cluster's majority label — an unsupervised
        // proxy for how accurate the cluster→label mapping will be.
        let agree: usize =
            votes.chunks_exact(num_labels).map(|v| v.iter().max().copied().unwrap_or(0)).sum();
        let purity = agree as f64 / m as f64;

        // Unlabeled clusters inherit from the nearest labeled centroid: the
        // first at the smallest distance, the scan `nearest_centroid`
        // makes, over the labeled centroids in order.
        labeled.clear();
        labeled.extend((0..k).filter(|&c| cluster_label[c].is_some()));
        if labeled.is_empty() {
            return None;
        }
        for c in 0..k {
            if cluster_label[c].is_none() {
                let centroid = result.centroids.row(c);
                let (mut nearest, mut nearest_d) = (0, f64::INFINITY);
                for (j, &other) in labeled.iter().enumerate() {
                    let d = vector::euclidean_distance(centroid, result.centroids.row(other));
                    if d < nearest_d {
                        (nearest, nearest_d) = (j, d);
                    }
                }
                cluster_label[c] = cluster_label[labeled[nearest]];
            }
        }

        // Emit predictions for the batch rows (loaded after the m guidance
        // rows).
        let preds = result.assignments[m..]
            .iter()
            .map(|&a| cluster_label[a].expect("all clusters labeled by inheritance"))
            .collect();
        Some((preds, purity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two separated blobs with labels, plus an unlabeled batch drawn from
    /// the same blobs.
    fn setting() -> (ExperienceBuffer, Matrix, Vec<usize>) {
        let mut buffer = ExperienceBuffer::new(100, None);
        let mut exp_rows = Vec::new();
        let mut exp_labels = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.1;
            exp_rows.push(vec![0.0 + j, 0.0]);
            exp_labels.push(0);
            exp_rows.push(vec![10.0 + j, 10.0]);
            exp_labels.push(1);
        }
        buffer.push_batch(&Matrix::from_rows(&exp_rows), &exp_labels);

        let mut batch_rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..30 {
            let j = (i % 7) as f64 * 0.1;
            if i % 2 == 0 {
                batch_rows.push(vec![0.2 + j, 0.1]);
                truth.push(0);
            } else {
                batch_rows.push(vec![9.8 + j, 10.2]);
                truth.push(1);
            }
        }
        (buffer, Matrix::from_rows(&batch_rows), truth)
    }

    #[test]
    fn maps_clusters_to_labels_correctly() {
        let (buffer, batch, truth) = setting();
        let cec = CoherentExperience::new(2, 11);
        let preds = cec.predict(&batch, &buffer).expect("buffer non-empty");
        let correct = preds.iter().zip(&truth).filter(|(p, t)| p == t).count();
        assert!(
            correct as f64 / truth.len() as f64 > 0.95,
            "CEC should nail separated blobs: {correct}/{}",
            truth.len()
        );
    }

    #[test]
    fn empty_buffer_returns_none() {
        let buffer = ExperienceBuffer::new(10, None);
        let cec = CoherentExperience::new(2, 0);
        assert!(cec.predict(&Matrix::zeros(4, 2), &buffer).is_none());
    }

    #[test]
    fn buffer_respects_capacity() {
        let mut buffer = ExperienceBuffer::new(5, None);
        let x = Matrix::from_rows(&vec![vec![1.0]; 8]);
        buffer.push_batch(&x, &[0; 8]);
        assert_eq!(buffer.len(), 5);
    }

    #[test]
    fn buffer_expires_old_entries() {
        let mut buffer = ExperienceBuffer::new(100, Some(2));
        buffer.push_batch(&Matrix::from_rows(&[vec![1.0]]), &[0]);
        buffer.tick();
        buffer.push_batch(&Matrix::from_rows(&[vec![2.0]]), &[1]);
        assert_eq!(buffer.len(), 2);
        buffer.tick();
        buffer.tick();
        buffer.tick();
        assert_eq!(buffer.len(), 0, "all entries older than 2 batches expired");
    }

    #[test]
    fn more_clusters_than_labels_still_maps_by_inheritance() {
        let (buffer, batch, truth) = setting();
        // 4 clusters over 2 labels: extra clusters inherit the nearest
        // labeled centroid's label.
        let cec = CoherentExperience::new(4, 3);
        let preds = cec.predict(&batch, &buffer).expect("non-empty");
        let correct = preds.iter().zip(&truth).filter(|(p, t)| p == t).count();
        assert!(correct as f64 / truth.len() as f64 > 0.9, "{correct}/{}", truth.len());
    }

    #[test]
    fn block_copy_insert_matches_per_row_reference() {
        // Drive the ring through growth, exact-fit, wrap, and oversized
        // inserts; a shadow Vec-of-rows model defines the expected state.
        let cap = 7;
        let mut buffer = ExperienceBuffer::new(cap, None);
        let mut shadow: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut next = 0usize;
        for batch_rows in [3usize, 4, 2, 7, 5, 1, 6, 9, 7, 2] {
            let rows: Vec<Vec<f64>> = (0..batch_rows)
                .map(|_| {
                    next += 1;
                    vec![next as f64, (next * 2) as f64]
                })
                .collect();
            let labels: Vec<usize> = rows.iter().map(|r| r[0] as usize % 3).collect();
            buffer.push_batch(&Matrix::from_rows(&rows), &labels);
            for (r, &l) in rows.iter().zip(&labels) {
                shadow.push((r.clone(), l));
                if shadow.len() > cap {
                    shadow.remove(0);
                }
            }
            let (x, y) = buffer.snapshot();
            assert_eq!(x.rows(), shadow.len());
            for (i, (er, el)) in shadow.iter().enumerate() {
                assert_eq!(x.row(i), &er[..], "row {i} after batch of {batch_rows}");
                assert_eq!(y[i], *el, "label {i} after batch of {batch_rows}");
            }
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut buffer = ExperienceBuffer::new(10, None);
        buffer.push_batch(&Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]), &[1, 0]);
        let (x, y) = buffer.snapshot();
        assert_eq!(x.shape(), (2, 2));
        assert_eq!(y, vec![1, 0]);
    }
}
