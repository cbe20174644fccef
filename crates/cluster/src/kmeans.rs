//! Seeded k-means with k-means++ initialisation.
//!
//! [`KMeans::fit`] returns, bit for bit, what the textbook loop returns
//! (kept as `reference_fit` in the tests): k-means++ seeds drawn with
//! weights `euclidean_distance(x, seed)²`, then Lloyd iterations whose
//! assignment step gives each point the first centroid at the smallest
//! `euclidean_distance`, then one more assignment step against the final
//! centroids. Every distance the fit takes keeps that arithmetic —
//! squared differences summed in ascending dimension order from `0.0`,
//! then `sqrt` — and the work around it is cut five ways, each exact
//! (DESIGN.md §3g):
//!
//! 1. A fit reads its points from one copy held as vector lanes, eight
//!    points to a block, in a [`KMeansScratch`] that keeps it and every
//!    other buffer of the fit from one fit to the next. Every distance
//!    batch runs in [`sq_distance_tile`], one 512-bit register per eight
//!    points where the build target has AVX-512F.
//! 2. Seeding takes a new seed's distance to every point at once and
//!    folds each point's nearest seed in as it goes, so the first
//!    assignment step is done when the seeding is.
//! 3. The winner scan finds the smallest squared distance, which is
//!    exact, and takes a `sqrt` only of the squares that can round to
//!    the same distance (`nearest`, `block_winners`).
//! 4. For `k > 8`, Hamerly's bounds (SDM 2010) skip every point whose
//!    nearest centroid provably has not changed; the rest are rescanned
//!    eight at a time against every centroid (`pruned_pass`). For
//!    `k <= 8` an assignment step scans every block.
//! 5. When Lloyd stops because no assignment changed, the centroids are
//!    the ones the last assignment step ran against, so the final step
//!    is not repeated.

use freeway_linalg::lanes::{sq_distance_tile, sum_by_cluster, LANES};
use freeway_linalg::{vector, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration + entry point for k-means clustering.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// RNG seed for k-means++ initialisation.
    pub seed: u64,
}

/// Result of a k-means fit.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster centroids (`k x d`).
    pub centroids: Matrix,
    /// Per-row cluster assignment.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// A k-means fit read in place from the [`KMeansScratch`] it ran in.
#[derive(Clone, Copy, Debug)]
pub struct KMeansFit<'s> {
    /// Cluster centroids (`k x d`).
    pub centroids: &'s Matrix,
    /// Per-point cluster assignment, in load order.
    pub assignments: &'s [usize],
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Creates a k-means configuration with sensible defaults
    /// (`max_iters = 50`, `tol = 1e-6`).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "need at least one cluster");
        Self { k, max_iters: 50, tol: 1e-6, seed }
    }

    /// Runs k-means++ then Lloyd iterations on `data`'s rows, in a fresh
    /// [`KMeansScratch`].
    ///
    /// # Panics
    /// Panics if `data` has fewer rows than `k`.
    pub fn fit(&self, data: &Matrix) -> KMeansResult {
        let mut scratch = KMeansScratch::default();
        scratch.load(data.rows(), data.cols(), data.row_iter());
        let KMeansFit { inertia, iterations, .. } = self.fit_in(&mut scratch);
        let mut assignments = std::mem::take(&mut scratch.assignments);
        assignments.truncate(scratch.n);
        let centroids = std::mem::replace(&mut scratch.centroids, Matrix::zeros(0, 0));
        KMeansResult { centroids, assignments, inertia, iterations }
    }

    /// Runs k-means++ then Lloyd iterations on the points last loaded
    /// into `scratch`, leaving the centroids and assignments there. On a
    /// scratch that has held a fit of this shape it allocates nothing,
    /// whatever the iteration count.
    ///
    /// # Panics
    /// Panics if fewer than `k` points are loaded.
    pub fn fit_in<'s>(&self, scratch: &'s mut KMeansScratch) -> KMeansFit<'s> {
        let s = scratch;
        assert!(s.n >= self.k, "need at least k rows ({} < {})", s.n, self.k);
        s.start(self.k, self.max_iters);
        s.seed_plus_plus(&mut StdRng::seed_from_u64(self.seed));
        let mut iterations = 0;
        // Whether the centroids moved since the last assignment step.
        let mut stale = false;
        // Whether the previous update step hit the empty-cluster repair;
        // starts true so the first iteration never takes the shortcut below.
        let mut repaired = true;
        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step (the first one came from the seeding).
            if stale {
                stale = false;
                let changed = s.assign();
                if !changed && !repaired {
                    // Unchanged assignments after a repair-free update mean
                    // the update step would recompute bit-identical
                    // centroids (same sums, same counts, same arithmetic),
                    // so movement would be exactly 0.0 < tol: skip straight
                    // to the break the full pass would take. (A repair
                    // re-seeds from distances to the *current* centroids,
                    // so after one the recompute is not guaranteed
                    // identical and the shortcut stays off.) The centroids
                    // are then the ones this assignment step ran against,
                    // so the final step below would repeat it: skip it too.
                    break;
                }
            }
            let movement;
            (movement, repaired) = s.update();
            stale = true;
            if movement < self.tol {
                break;
            }
        }
        if stale {
            // Final assignment against the converged centroids.
            s.assign();
        }
        let inertia = s.inertia();
        KMeansFit {
            centroids: &s.centroids,
            assignments: &s.assignments[..s.n],
            inertia,
            iterations,
        }
    }
}

/// Blocks of points a seeding tile takes side by side; the points-as-lanes
/// copy is padded to whole groups of them.
const SEED_BLOCKS: usize = 4;

/// The buffers a k-means fit works in, kept from one fit to the next.
///
/// [`Self::load`] copies the points in as lanes, and [`KMeans::fit_in`]
/// fits them, leaving the centroids and assignments here. Every buffer
/// is resized in place, so once a scratch has held a fit of some shape,
/// fits of that shape or a smaller one allocate nothing. A fit writes
/// everything it reads, so nothing of one fit reaches the next.
#[derive(Clone, Default)]
pub struct KMeansScratch {
    /// Points loaded, and their dimension.
    n: usize,
    d: usize,
    /// Clusters of the current fit.
    k: usize,
    /// The points as lanes, in blocks of [`LANES`]: `points[(b * d + j) *
    /// LANES + l]` is point `b * LANES + l`'s coordinate `j`. Padded to
    /// whole groups of [`SEED_BLOCKS`] blocks by repeating the last point.
    points: Vec<f64>,
    /// The fit's centroids (`k x d`).
    centroids: Matrix,
    // Per-point state, padded to whole blocks (the padding lanes are
    // copies of the last point, and nothing reads them past `n`):
    /// Each point's centroid.
    assignments: Vec<usize>,
    /// k-means++ weights: the squared distance to the nearest seed.
    weights: Vec<f64>,
    /// Each point's distance to its centroid: exactly the textbook's
    /// winning distance where `exact`, else an upper bound on it.
    upper: Vec<f64>,
    exact: Vec<bool>,
    /// A lower bound on each point's distance to every other centroid
    /// (Hamerly's, read for `k > K_ARMS` only).
    lower: Vec<f64>,
    /// Update-step sums and counts, and one centroid-sized buffer for the
    /// means.
    sums: Matrix,
    counts: Vec<usize>,
    mean: Vec<f64>,
    /// Each centroid's movement in the last update step, and whether its
    /// coordinates came out unchanged.
    moves: Vec<f64>,
    still: Vec<bool>,
    /// Transposed centroids (`d x k`) for the register tiles.
    ct: Vec<f64>,
    /// One block's squared distances to every centroid (`k x LANES`).
    sq: Vec<f64>,
    // Hamerly's state, for `k > K_ARMS` only (empty otherwise):
    /// Half of each centroid's distance to its nearest other centroid.
    half: Vec<f64>,
    /// The points that failed the skip test in this pass.
    picks: Vec<usize>,
    /// Up to [`LANES`] points or centroids gathered as lanes (`d x LANES`).
    block: Vec<f64>,
    /// At least every lower bound and centroid gap computed so far.
    scale: f64,
    /// The skip test's relative slack ([`BOUND_MARGIN`]).
    margin: f64,
}

impl std::fmt::Debug for KMeansScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KMeansScratch")
            .field("n", &self.n)
            .field("d", &self.d)
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

impl KMeansScratch {
    /// An empty scratch; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `n` points of dimension `d` for the next fit: `rows` yields
    /// each point's coordinates in order (it is not read when `d == 0`).
    ///
    /// # Panics
    /// Panics if `rows` yields a row of another length, or (for `d > 0`)
    /// other than `n` rows.
    pub fn load<'r>(&mut self, n: usize, d: usize, rows: impl IntoIterator<Item = &'r [f64]>) {
        let group = SEED_BLOCKS * LANES;
        self.n = n;
        self.d = d;
        // Every value is overwritten below: by a point, or by padding.
        self.points.resize(n.div_ceil(group) * group * d, 0.0);
        if d == 0 {
            return;
        }
        let mut count = 0;
        for row in rows {
            assert_eq!(row.len(), d, "point {count} has {} coordinates, not {d}", row.len());
            assert!(count < n, "more than {n} rows");
            let at = point_at(count, d);
            for (j, &v) in row.iter().enumerate() {
                self.points[at + j * LANES] = v;
            }
            count += 1;
        }
        assert_eq!(count, n, "expected {n} rows");
        for i in n..n.div_ceil(group) * group {
            let (from, to) = (point_at(n - 1, d), point_at(i, d));
            for j in 0..d {
                self.points[to + j * LANES] = self.points[from + j * LANES];
            }
        }
    }

    /// Sizes and resets the per-fit state for `k` clusters.
    fn start(&mut self, k: usize, max_iters: usize) {
        let (n, d) = (self.n, self.d);
        let padded = n.div_ceil(LANES) * LANES;
        let bounded = k > K_ARMS;
        let hamerly = |len: usize| if bounded { len } else { 0 };
        #[cfg(test)]
        tally(|w| w.fit_start = w.examined);
        self.k = k;
        self.centroids.resize(k, d);
        self.sums.resize(k, d);
        refill(&mut self.assignments, padded, 0);
        refill(&mut self.weights, padded, 0.0);
        // Zero-dimensional points are all at distance 0 from everything.
        refill(&mut self.upper, padded, if d == 0 { 0.0 } else { f64::INFINITY });
        refill(&mut self.exact, padded, true);
        refill(&mut self.lower, padded, f64::INFINITY);
        refill(&mut self.counts, k, 0);
        refill(&mut self.mean, d, 0.0);
        refill(&mut self.moves, k, 0.0);
        refill(&mut self.still, k, false);
        refill(&mut self.ct, k * d, 0.0);
        refill(&mut self.sq, k * LANES, 0.0);
        refill(&mut self.half, hamerly(k), 0.0);
        refill(&mut self.picks, hamerly(n), 0);
        refill(&mut self.block, hamerly(d * LANES), 0.0);
        self.scale = 0.0;
        self.margin = BOUND_MARGIN.max(8.0 * (d + max_iters + 8) as f64 * f64::EPSILON);
    }

    /// k-means++ seeding, and with it the first assignment step: first
    /// centroid uniform, then each next centroid sampled proportionally
    /// to squared distance from the nearest chosen one. The RNG draws,
    /// the sequential `total` and the sampling scan are the textbook's;
    /// each seed's squared distance sums to every point come from
    /// [`sq_distance_tile`], [`SEED_BLOCKS`] blocks at a time. Their
    /// roots are the textbook's distances, so each point's nearest seed
    /// (the first at the smallest distance, a strict-`<` scan in seed
    /// order) and the nearest other one are folded in as they come.
    fn seed_plus_plus(&mut self, rng: &mut StdRng) {
        let (n, d, k) = (self.n, self.d, self.k);
        let group = SEED_BLOCKS * d * LANES;
        let mut chosen = rng.random_range(0..n);
        for c in 0..k {
            if c > 0 {
                let weights = &self.weights[..n];
                let total: f64 = weights.iter().sum();
                chosen = if total <= f64::EPSILON {
                    // All points coincide with chosen centroids; pick uniformly.
                    rng.random_range(0..n)
                } else {
                    let mut target = rng.random_range(0.0..total);
                    let mut idx = n - 1;
                    for (i, &w) in weights.iter().enumerate() {
                        if target < w {
                            idx = i;
                            break;
                        }
                        target -= w;
                    }
                    idx
                };
            }
            read_point(&self.points, d, chosen, self.centroids.row_mut(c));
            if d == 0 {
                // No blocks: every weight and distance stays 0.0, and the
                // first seed is every point's nearest.
                continue;
            }
            let seed = self.centroids.row(c);
            let per_block = self
                .weights
                .chunks_exact_mut(LANES)
                .zip(self.upper.chunks_exact_mut(LANES))
                .zip(self.lower.chunks_exact_mut(LANES))
                .zip(self.assignments.chunks_exact_mut(LANES));
            let mut per_block = per_block.map(|(((w, up), lo), best)| (w, up, lo, best));
            for points in self.points.chunks_exact(group) {
                let blocks = std::array::from_fn(|r| &points[r * d * LANES..(r + 1) * d * LANES]);
                let sums = sq_distance_tile::<SEED_BLOCKS, 1>(blocks, seed, 1);
                for ([sum], (w, up, lo, best)) in sums.iter().zip(&mut per_block) {
                    for l in 0..LANES {
                        // `euclidean_distance`, then its square.
                        let dd = sum[l].sqrt();
                        w[l] = if c == 0 { dd * dd } else { w[l].min(dd * dd) };
                        let won = dd < up[l];
                        lo[l] = if won { up[l] } else { min(dd, lo[l]) };
                        up[l] = if won { dd } else { up[l] };
                        best[l] = if won { c } else { best[l] };
                    }
                }
            }
        }
    }

    /// One update step: each centroid moves to the mean of its points,
    /// summed in point order. Returns the total movement and whether an
    /// empty cluster was repaired.
    fn update(&mut self) -> (f64, bool) {
        let (n, d, k) = (self.n, self.d, self.k);
        self.sums.as_mut_slice().fill(0.0);
        self.counts.fill(0);
        // Every sum takes its points in order.
        let sums = self.sums.as_mut_slice();
        for (b, clusters) in self.assignments[..n].chunks(LANES).enumerate() {
            sum_by_cluster(&self.points[b * d * LANES..(b + 1) * d * LANES], clusters, sums);
            for &a in clusters {
                self.counts[a] += 1;
            }
        }
        // Empty-cluster repair: re-seed on the point farthest from its
        // centroid, the standard fix that keeps exactly k clusters.
        // That point does not depend on which empty cluster is being
        // repaired (assignments and centroids are fixed for the whole
        // repair loop), so one scan of the assignment step's exact
        // distances replaces a full re-computation per empty cluster.
        let mut repaired = false;
        let mut far_idx = usize::MAX;
        for c in 0..k {
            if self.counts[c] == 0 {
                if far_idx == usize::MAX {
                    far_idx = self.farthest();
                }
                read_point(&self.points, d, far_idx, self.sums.row_mut(c));
                self.counts[c] = 1;
                repaired = true;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            let inv = 1.0 / self.counts[c] as f64;
            for (m, &s) in self.mean.iter_mut().zip(self.sums.row(c)) {
                *m = s * inv;
            }
            let moved = vector::euclidean_distance(&self.mean, self.centroids.row(c));
            movement += moved;
            self.moves[c] = moved;
            self.still[c] = self.mean == self.centroids.row(c);
            self.centroids.row_mut(c).copy_from_slice(&self.mean);
        }
        (movement, repaired)
    }

    /// Assigns every point to its nearest centroid as the textbook scan
    /// would, returning whether any assignment changed.
    fn assign(&mut self) -> bool {
        let (n, d, k) = (self.n, self.d, self.k);
        if d == 0 {
            // Zero-dimensional rows are all at distance 0: the first
            // centroid wins every strict-`<` scan, exactly as in
            // `nearest_centroid`.
            let mut changed = false;
            for slot in &mut self.assignments[..n] {
                changed |= *slot != 0;
                *slot = 0;
            }
            self.upper.fill(0.0);
            self.exact.fill(true);
            return changed;
        }
        let cs = self.centroids.as_slice();
        for c in 0..k {
            for j in 0..d {
                self.ct[j * k + c] = cs[c * d + j];
            }
        }
        if k > K_ARMS {
            return self.pruned_pass();
        }
        // Up to eight centroids: every block against every centroid.
        let mut changed = false;
        let blocks = self.points.chunks_exact(d * LANES).take(n.div_ceil(LANES));
        for (b, block) in blocks.enumerate() {
            block_distances(block, &self.ct, k, &mut self.sq);
            let won = block_winners(&self.sq);
            let at = b * LANES;
            for l in 0..LANES.min(n - at) {
                changed |= self.assignments[at + l] != won.best[l];
            }
            self.assignments[at..at + LANES].copy_from_slice(&won.best);
            self.upper[at..at + LANES].copy_from_slice(&won.dist);
        }
        changed
    }

    /// Hamerly's assignment step. After an update step a point's centroid
    /// `a` moved by `moves[a]` and every other centroid by at most the
    /// largest move among the others, so `upper += moves[a]` and
    /// `lower -= that move` keep both bounds. While `upper` stays below
    /// `max(lower, half[a])` by the skip test's slack, no other centroid
    /// can be as near as `a` — nearer than `lower`, or (triangle
    /// inequality) than `2·half[a] − upper` — so the textbook scan would
    /// keep `a` and the point is skipped. The points that fail the test
    /// are rescanned, eight at a time, against every centroid, which
    /// resets both bounds. (Hamerly's tightening, retrying the test with
    /// the exact distance to `a`, saved too few rescans here to pay for
    /// its own gathers.)
    fn pruned_pass(&mut self) -> bool {
        let n = self.n;
        self.centroid_gaps();
        let (mut top, mut top_c, mut runner) = (0.0f64, usize::MAX, 0.0f64);
        for (c, &m) in self.moves.iter().enumerate() {
            // A NaN move bounds nothing.
            let m = if m.is_nan() { f64::INFINITY } else { m };
            if m > top {
                (runner, top, top_c) = (top, m, c);
            } else if m > runner {
                runner = m;
            }
        }
        // Every bound a test below reads started as a lower bound set by
        // an earlier pass, and is still held before this pass's update.
        self.scale = self.lower[..n].iter().fold(self.scale, |m, &l| m.max(l));
        let slack = self.margin * self.scale + BOUND_FLOOR;
        // Bound update and test for every point, branch-free: the points
        // that fail are listed in `picks[..failed]`.
        let mut failed = 0;
        for (i, &a) in self.assignments[..n].iter().enumerate() {
            let upper = self.upper[i] + self.moves[a];
            let lower = self.lower[i] - if a == top_c { runner } else { top };
            self.upper[i] = upper;
            self.lower[i] = lower;
            self.exact[i] &= self.still[a];
            self.picks[failed] = i;
            let skip = upper + slack < max(lower, self.half[a]);
            failed += usize::from(!skip);
        }
        let mut changed = false;
        for start in (0..failed).step_by(LANES) {
            changed |= self.rescan(start..failed.min(start + LANES));
        }
        #[cfg(test)]
        tally(|w| w.examined += n);
        changed
    }

    /// Rescans the points `picks[range]` (at most [`LANES`]) against every
    /// centroid: their squared distances from the register tiles, their
    /// winners by [`block_winners`], and fresh bounds. Eight points that
    /// make up one block are read in place, others gathered.
    fn rescan(&mut self, range: std::ops::Range<usize>) -> bool {
        let (d, k) = (self.d, self.k);
        let picks = &self.picks[range];
        let first = picks[0];
        let whole = picks.len() == LANES
            && first.is_multiple_of(LANES)
            && picks[LANES - 1] == first + LANES - 1;
        let block = if whole {
            &self.points[first * d..(first + LANES) * d]
        } else {
            gather_points(&self.points, d, picks, &mut self.block);
            &self.block[..]
        };
        block_distances(block, &self.ct, k, &mut self.sq);
        #[cfg(test)]
        tally(|w| w.rescanned += picks.len());
        let won = block_winners(&self.sq);
        let mut changed = false;
        for (l, &i) in picks.iter().enumerate() {
            changed |= self.assignments[i] != won.best[l];
            self.assignments[i] = won.best[l];
            self.upper[i] = won.dist[l];
            self.exact[i] = true;
            self.lower[i] = won.second[l];
        }
        changed
    }

    /// Half of each centroid's distance to its nearest other centroid
    /// (Hamerly's `s`), from the register tiles.
    fn centroid_gaps(&mut self) {
        let k = self.k;
        for first in (0..k).step_by(LANES) {
            let group: [usize; LANES] = std::array::from_fn(|l| first + l);
            let count = LANES.min(k - first);
            gather_rows(&self.centroids, &group[..count], &mut self.block);
            block_distances(&self.block, &self.ct, k, &mut self.sq);
            for l in 0..count {
                self.sq[(first + l) * LANES + l] = f64::INFINITY;
            }
            let (nearest, _) = lane_least_two(&self.sq);
            for (l, &gap_sq) in nearest.iter().enumerate().take(count) {
                let gap = gap_sq.sqrt();
                self.half[first + l] = 0.5 * gap;
                self.scale = self.scale.max(gap);
            }
        }
    }

    /// Replaces every loosened `upper` by the point's exact distance to
    /// its centroid, in the arithmetic of the assignment step.
    fn exact_distances(&mut self) {
        let d = self.d;
        for i in 0..self.n {
            if !self.exact[i] {
                let centroid = self.centroids.row(self.assignments[i]);
                let at = point_at(i, d);
                let mut acc = 0.0;
                for (j, &y) in centroid.iter().enumerate() {
                    let diff = self.points[at + j * LANES] - y;
                    acc += diff * diff;
                }
                self.upper[i] = acc.sqrt();
                self.exact[i] = true;
            }
        }
    }

    /// The point farthest from its centroid, last one on ties (the
    /// empty-cluster repair's re-seed).
    fn farthest(&mut self) -> usize {
        #[cfg(test)]
        tally(|w| {
            w.repairs += 1;
            w.late_repairs += usize::from(w.examined > w.fit_start);
        });
        self.exact_distances();
        let mut best = f64::NEG_INFINITY;
        let mut far_idx = 0;
        for (i, &dist) in self.upper[..self.n].iter().enumerate() {
            if dist >= best {
                best = dist;
                far_idx = i;
            }
        }
        far_idx
    }

    /// Sum of squared distances to the assigned centroids, in point order.
    fn inertia(&mut self) -> f64 {
        self.exact_distances();
        let mut inertia = 0.0;
        for &dist in &self.upper[..self.n] {
            inertia += dist * dist;
        }
        inertia
    }
}

/// Makes `buf` `len` copies of `value`, keeping its allocation.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Index of point `i`'s first coordinate in a points-as-lanes copy of
/// dimension `d` (coordinate `j` is `LANES · j` further on).
#[inline]
fn point_at(i: usize, d: usize) -> usize {
    i / LANES * d * LANES + i % LANES
}

/// Copies point `i` of a points-as-lanes copy into `out` (`d` long).
fn read_point(points: &[f64], d: usize, i: usize, out: &mut [f64]) {
    let at = point_at(i, d);
    for (j, o) in out.iter_mut().enumerate() {
        *o = points[at + j * LANES];
    }
}

/// Copies points `index` (one to [`LANES`] of them) of a points-as-lanes
/// copy of dimension `d > 0` into `block` as lanes (`d x LANES`); lanes
/// past the last index repeat its point.
fn gather_points(points: &[f64], d: usize, index: &[usize], block: &mut [f64]) {
    // Each point's coordinates, `LANES` apart.
    let coords: [&[f64]; LANES] = std::array::from_fn(|l| {
        let at = point_at(index[l.min(index.len() - 1)], d);
        &points[at..at + d * LANES - (LANES - 1)]
    });
    for (j, lanes) in block.chunks_exact_mut(LANES).enumerate() {
        lanes.copy_from_slice(&std::array::from_fn::<f64, LANES, _>(|l| coords[l][j * LANES]));
    }
}

/// Relative slack of Hamerly's skip test. The bounds are built from
/// computed distances and updated in floating point, so they can stray
/// from the true distances they bound. A computed distance is within a
/// relative γ = (d + 4)·ε/4 of the true one, and each bound update rounds
/// once; over `T` updates since a point's last exact distance its upper
/// and lower bounds each drift by at most (2γ + T·ε/2)·`scale`, where
/// `scale` is at least every lower bound and centroid gap the test reads
/// (an upper bound that passes the test is below them). Skipping must
/// also leave the computed winner strictly nearest, 2γ·`scale` more: in
/// all under (1.5·d + T + 6)·ε·`scale`, about 2e-14·`scale` at d = 20
/// and T = 50. A margin of 1e-9 (or 8·(d + max_iters + 8)·ε if larger)
/// clears that by orders of magnitude and gives up no skip worth
/// having.
const BOUND_MARGIN: f64 = 1e-9;

/// Absolute slack of the skip test: a distance whose squares underflow
/// can be off by up to √d·2⁻⁵³⁷ (about 1e-161), which a relative margin
/// does not cover near zero.
const BOUND_FLOOR: f64 = 1e-153;

/// Tallies of the assignment work, read by the pruning and repair tests.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    /// Points the pruned passes examined.
    examined: usize,
    /// Points they rescanned against every centroid.
    rescanned: usize,
    /// `examined` when the current fit started.
    fit_start: usize,
    /// Empty-cluster repairs, and those after a pruned pass of the same fit.
    repairs: usize,
    late_repairs: usize,
}

#[cfg(test)]
thread_local! {
    static WORK: std::cell::Cell<Work> = std::cell::Cell::new(Work::default());
}

#[cfg(test)]
fn tally(update: impl FnOnce(&mut Work)) {
    WORK.with(|w| {
        let mut work = w.get();
        update(&mut work);
        w.set(work);
    });
}

/// Largest `k` whose assignment steps scan every block; past it
/// Hamerly's bounds skip the points they can.
const K_ARMS: usize = 8;

/// Copies rows `index` (one to [`LANES`] of them) of `source` into
/// `block` as lanes (`d x LANES`); lanes past the last index repeat its
/// row.
fn gather_rows(source: &Matrix, index: &[usize], block: &mut [f64]) {
    let rows: [&[f64]; LANES] = std::array::from_fn(|l| source.row(index[l.min(index.len() - 1)]));
    for (j, lanes) in block.chunks_exact_mut(LANES).enumerate() {
        lanes.copy_from_slice(&std::array::from_fn::<f64, LANES, _>(|l| rows[l][j]));
    }
}

/// Squared distances from the [`LANES`] points of `points` (`d x LANES`,
/// points as lanes) to all `k` centroids of the `d x k` transposed copy
/// `ct`, into `sq[c * LANES + l]`: [`sq_distance_tile`]s of four
/// centroids, then one 1–3-wide remainder tile.
fn block_distances(points: &[f64], ct: &[f64], k: usize, sq: &mut [f64]) {
    let mut c = 0;
    while c + 4 <= k {
        store_tile(sq, c, sq_distance_tile::<1, 4>([points], &ct[c..], k));
        c += 4;
    }
    match k - c {
        0 => {}
        1 => store_tile(sq, c, sq_distance_tile::<1, 1>([points], &ct[c..], k)),
        2 => store_tile(sq, c, sq_distance_tile::<1, 2>([points], &ct[c..], k)),
        _ => store_tile(sq, c, sq_distance_tile::<1, 3>([points], &ct[c..], k)),
    }
}

/// Writes a one-block tile of centroids `c..c + W` to `sq[(c + w) *
/// LANES..]`.
#[inline]
fn store_tile<const W: usize>(sq: &mut [f64], c: usize, [tile]: [[[f64; LANES]; W]; 1]) {
    for (w, lanes) in tile.iter().enumerate() {
        sq[(c + w) * LANES..(c + w + 1) * LANES].copy_from_slice(lanes);
    }
}

/// Upper end, relative to the least square, of the squares whose `sqrt`
/// can equal the least one's (see [`nearest`]).
const SQRT_TIE: f64 = 1.0 + 8.0 * f64::EPSILON;

/// Four subnormal steps (4 · 2⁻¹⁰⁷⁴): below `f64::MIN_POSITIVE` the
/// spacing of squares is absolute, and up to three steps can share a
/// root with the least square.
const SUBNORMAL_TIE: f64 = 4.0 * f64::MIN_POSITIVE * f64::EPSILON;

/// The textbook winner from one point's squared distances `sq`: the
/// first centroid at the smallest `sqrt(sq[c])` under a strict-`<` scan,
/// and that distance — without taking every `sqrt`. `sqrt` is correctly
/// rounded and so monotone, so the smallest distance is the `sqrt` of the
/// smallest square (a minimum is exact in any order), and the winner is
/// the first centroid whose own root equals it. Two roots that round
/// alike differ by under one ulp (a relative ε), so their squares differ
/// by a factor under `1 + 3ε`: only squares up to `least · (1 + 8ε)`,
/// plus [`SUBNORMAL_TIE`], can win, and the first of them whose root
/// equals the least one does. A least square of infinity (every distance
/// overflowed or NaN) beats nothing under strict `<`: centroid 0 at
/// infinity, as the textbook scan returns.
#[inline]
fn nearest<I>(sq: I) -> (usize, f64)
where
    I: DoubleEndedIterator<Item = f64> + ExactSizeIterator + Clone,
{
    let least = sq.clone().fold(f64::INFINITY, |m, s| min(s, m));
    if least == f64::INFINITY {
        return (0, f64::INFINITY);
    }
    let dist = least.sqrt();
    let tie = least * SQRT_TIE + SUBNORMAL_TIE;
    // The first candidate, branch-free (a descending walk leaves the
    // lowest), nearly always rounds to the least root.
    let (mut best, mut held) = (0, f64::NAN);
    for (c, s) in sq.clone().enumerate().rev() {
        let hit = s <= tie;
        best = if hit { c } else { best };
        held = if hit { s } else { held };
    }
    if held.sqrt() != dist {
        // Rare: it rounds above; the smallest square is a later candidate.
        let mut sq = sq;
        best = sq.position(|s| s <= tie && s.sqrt() == dist).expect("the least square");
    }
    (best, dist)
}

/// `a` unless `b` is smaller (so a NaN `a` yields `b`).
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `b` unless `a` is larger (so a NaN `b` yields `b`, which [`min`]
/// then drops).
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Per lane, the two smallest of the rows of `sq` (`k x LANES`), NaN
/// ignored: the least square and the least of the others (equal to the
/// least when it occurs twice). Minima are exact in any order, so even
/// and odd rows run as two independent chains.
#[inline]
fn lane_least_two(sq: &[f64]) -> ([f64; LANES], [f64; LANES]) {
    let mut lo = [[f64::INFINITY; LANES]; 2];
    let mut lo2 = [[f64::INFINITY; LANES]; 2];
    let mut pairs = sq.chunks_exact(2 * LANES);
    for pair in &mut pairs {
        let (even, odd) = pair.split_at(LANES);
        fold_two(&mut lo[0], &mut lo2[0], even);
        fold_two(&mut lo[1], &mut lo2[1], odd);
    }
    fold_two(&mut lo[0], &mut lo2[0], pairs.remainder());
    let (mut least, mut second) = ([0.0; LANES], [0.0; LANES]);
    for l in 0..LANES {
        least[l] = min(lo[0][l], lo[1][l]);
        second[l] = min(max(lo[0][l], lo[1][l]), min(lo2[0][l], lo2[1][l]));
    }
    (least, second)
}

/// Folds one row (`LANES` wide, or empty) into per-lane two smallest.
#[inline(always)]
fn fold_two(lo: &mut [f64; LANES], lo2: &mut [f64; LANES], row: &[f64]) {
    if let Ok(row) = <&[f64; LANES]>::try_from(row) {
        for l in 0..LANES {
            lo2[l] = min(max(lo[l], row[l]), lo2[l]);
            lo[l] = min(row[l], lo[l]);
        }
    }
}

/// The textbook winners of one block of points: per lane, the winning
/// centroid, its distance and the distance to the nearest other centroid.
struct Winners {
    best: [usize; LANES],
    dist: [f64; LANES],
    second: [f64; LANES],
}

/// [`nearest`] for each lane of `sq` (`k x LANES`, point `l`'s squared
/// distance to centroid `c` at `c * LANES + l`), all lanes at once, plus
/// each lane's second-nearest distance: the `sqrt` of the least square
/// among the other centroids. (The second least of all squares serves:
/// it differs only when the winner's square exceeds the least one, and
/// then both round to the winner's root.)
fn block_winners(sq: &[f64]) -> Winners {
    let (least, second) = lane_least_two(sq);
    let mut dist = [0.0; LANES];
    let mut tie = [0.0; LANES];
    for l in 0..LANES {
        dist[l] = least[l].sqrt();
        tie[l] = least[l] * SQRT_TIE + SUBNORMAL_TIE;
    }
    // The first candidate per lane (a descending walk leaves the lowest),
    // and its square.
    let mut best = [0usize; LANES];
    let mut held = [f64::NAN; LANES];
    for (c, row) in sq.chunks_exact(LANES).enumerate().rev() {
        for l in 0..LANES {
            let hit = row[l] <= tie[l];
            best[l] = if hit { c } else { best[l] };
            held[l] = if hit { row[l] } else { held[l] };
        }
    }
    let mut odd = false;
    for l in 0..LANES {
        odd |= (least[l] == f64::INFINITY) | (held[l].sqrt() != dist[l]);
    }
    if odd {
        // Rare: a lane with no finite distance, or whose first candidate's
        // root rounds above the least one.
        for l in 0..LANES {
            if least[l] == f64::INFINITY || held[l].sqrt() != dist[l] {
                (best[l], dist[l]) = nearest(sq.chunks_exact(LANES).map(|row| row[l]));
            }
        }
    }
    Winners { best, dist, second: second.map(f64::sqrt) }
}

/// Index of and distance to the nearest centroid row.
pub fn nearest_centroid(point: &[f64], centroids: &Matrix) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, row) in centroids.row_iter().enumerate() {
        let d = vector::euclidean_distance(point, row);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::{CoherentExperience, ExperienceBuffer};

    /// Three tight, well-separated blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let centers = [[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for i in 0..30 {
                let jx = ((i * 13 + ci * 7) % 11) as f64 * 0.05;
                let jy = ((i * 29 + ci * 3) % 7) as f64 * 0.05;
                rows.push(vec![c[0] + jx, c[1] + jy]);
                truth.push(ci);
            }
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, truth) = blobs();
        let result = KMeans::new(3, 7).fit(&data);
        // Clusters must be pure: every truth group maps to one cluster.
        for g in 0..3 {
            let members: Vec<usize> = truth
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == g)
                .map(|(i, _)| result.assignments[i])
                .collect();
            assert!(members.iter().all(|&a| a == members[0]), "group {g} split across clusters");
        }
        assert!(result.inertia < 50.0, "tight blobs: inertia {}", result.inertia);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs();
        let a = KMeans::new(3, 42).fit(&data);
        let b = KMeans::new(3, 42).fit(&data);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let (data, _) = blobs();
        let result = KMeans::new(1, 0).fit(&data);
        let mean = data.column_means();
        for (c, m) in result.centroids.row(0).iter().zip(&mean) {
            assert!((c - m).abs() < 1e-9);
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]]);
        let result = KMeans::new(3, 3).fit(&data);
        assert!(result.inertia < 1e-18, "each point its own centroid");
    }

    #[test]
    fn handles_duplicate_points() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let result = KMeans::new(3, 1).fit(&data);
        assert_eq!(result.assignments.len(), 10);
        assert!(result.inertia < 1e-12);
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        let centroids = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
        assert_eq!(nearest_centroid(&[1.0, 0.0], &centroids).0, 0);
        assert_eq!(nearest_centroid(&[9.0, 0.0], &centroids).0, 1);
    }

    #[test]
    #[should_panic(expected = "at least k rows")]
    fn rejects_insufficient_data() {
        KMeans::new(5, 0).fit(&Matrix::zeros(3, 2));
    }

    impl KMeans {
        /// The original per-pair k-means++ seeding, kept verbatim as the
        /// oracle for `seed_plus_plus`: first centroid uniform, then each
        /// next centroid sampled proportionally to squared distance from
        /// the nearest chosen one.
        fn init_plus_plus(&self, data: &Matrix, rng: &mut StdRng) -> Matrix {
            let n = data.rows();
            let d = data.cols();
            let mut centroids = Matrix::zeros(self.k, d);
            let first = rng.random_range(0..n);
            centroids.row_mut(0).copy_from_slice(data.row(first));

            let mut dist_sq: Vec<f64> = data
                .row_iter()
                .map(|row| {
                    let dd = vector::euclidean_distance(row, centroids.row(0));
                    dd * dd
                })
                .collect();

            for c in 1..self.k {
                let total: f64 = dist_sq.iter().sum();
                let chosen = if total <= f64::EPSILON {
                    // All points coincide with chosen centroids; pick uniformly.
                    rng.random_range(0..n)
                } else {
                    let mut target = rng.random_range(0.0..total);
                    let mut idx = n - 1;
                    for (i, &w) in dist_sq.iter().enumerate() {
                        if target < w {
                            idx = i;
                            break;
                        }
                        target -= w;
                    }
                    idx
                };
                centroids.row_mut(c).copy_from_slice(data.row(chosen));
                for (i, row) in data.row_iter().enumerate() {
                    let dd = vector::euclidean_distance(row, centroids.row(c));
                    dist_sq[i] = dist_sq[i].min(dd * dd);
                }
            }
            centroids
        }
    }

    /// The original (pre-scratch, per-pair `nearest_centroid`) Lloyd loop,
    /// kept verbatim as the bit-identity oracle for `fit`.
    fn reference_fit(km: &KMeans, data: &Matrix) -> KMeansResult {
        let n = data.rows();
        let d = data.cols();
        let mut rng = rand::rngs::StdRng::seed_from_u64(km.seed);
        let mut centroids = km.init_plus_plus(data, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..km.max_iters {
            iterations = iter + 1;
            for (r, row) in data.row_iter().enumerate() {
                let (best, _) = nearest_centroid(row, &centroids);
                assignments[r] = best;
            }
            let mut sums = Matrix::zeros(km.k, d);
            let mut counts = vec![0usize; km.k];
            for (row, &a) in data.row_iter().zip(&assignments) {
                vector::axpy(sums.row_mut(a), 1.0, row);
                counts[a] += 1;
            }
            for (c, count) in counts.iter_mut().enumerate() {
                if *count == 0 {
                    let (far_idx, _) = data
                        .row_iter()
                        .enumerate()
                        .map(|(i, row)| {
                            (i, vector::euclidean_distance(row, centroids.row(assignments[i])))
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance"))
                        .expect("data non-empty");
                    sums.row_mut(c).copy_from_slice(data.row(far_idx));
                    *count = 1;
                }
            }
            let mut movement = 0.0;
            for (c, &count) in counts.iter().enumerate() {
                let inv = 1.0 / count as f64;
                let new_centroid: Vec<f64> = sums.row(c).iter().map(|x| x * inv).collect();
                movement += vector::euclidean_distance(&new_centroid, centroids.row(c));
                centroids.row_mut(c).copy_from_slice(&new_centroid);
            }
            if movement < km.tol {
                break;
            }
        }
        let mut inertia = 0.0;
        for (r, row) in data.row_iter().enumerate() {
            let (best, dist) = nearest_centroid(row, &centroids);
            assignments[r] = best;
            inertia += dist * dist;
        }
        KMeansResult { centroids, assignments, inertia, iterations }
    }

    /// Asserts `fit` reproduces `reference_fit` bit for bit.
    fn assert_matches_reference(km: &KMeans, data: &Matrix, case: &str) {
        let fast = km.fit(data);
        let refr = reference_fit(km, data);
        let (n, d, k) = (data.rows(), data.cols(), km.k);
        let at = format!("{case}: n={n} d={d} k={k} seed={}", km.seed);
        assert_eq!(fast.assignments, refr.assignments, "{at}");
        let (fc, rc) = (fast.centroids.as_slice(), refr.centroids.as_slice());
        assert!(fc.iter().zip(rc).all(|(a, b)| a.to_bits() == b.to_bits()), "{at}");
        assert_eq!(fast.inertia.to_bits(), refr.inertia.to_bits(), "{at}");
        assert_eq!(fast.iterations, refr.iterations, "{at}");
    }

    fn random_rows(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.random_range(-3.0..3.0)).collect()).collect();
        Matrix::from_rows(&rows)
    }

    /// `k` Gaussian-ish blobs around random centers, `n` points in turn.
    fn clustered(n: usize, d: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> =
            (0..k).map(|_| (0..d).map(|_| rng.random_range(-3.0..3.0)).collect()).collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let noise =
                    |rng: &mut StdRng| (0..3).map(|_| rng.random_range(-0.25..0.25)).sum::<f64>();
                centers[i % k].iter().map(|&c| c + noise(&mut rng)).collect()
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    fn work() -> Work {
        WORK.with(|w| w.get())
    }

    #[test]
    fn fit_is_bit_identical_to_reference() {
        // k <= 8 runs the per-point kernel, k > 8 the pruned passes, whose
        // 1–3-point rescan remainders the 9-, 50- and 63-row shapes reach.
        // The last two are CEC's shapes (256 guidance + 256 batch rows,
        // classes x 4 clusters) on NSL-KDD (20 features, 5 classes) and
        // Covertype (10 features, 7 classes).
        for (n, d, k, seed) in [
            (512, 10, 8, 7u64),
            (64, 3, 5, 1),
            (40, 1, 4, 9),
            (20, 16, 3, 42),
            (9, 2, 9, 5),
            (50, 3, 13, 17),
            (63, 5, 11, 19),
            (512, 20, 20, 11),
            (512, 10, 28, 13),
        ] {
            assert_matches_reference(
                &KMeans::new(k, seed),
                &random_rows(n, d, seed * 31 + 1),
                "random",
            );
            assert_matches_reference(&KMeans::new(k, seed), &clustered(n, d, k, seed), "clustered");
        }

        // Duplicate-heavy data: identical seeds leave clusters empty, so
        // the repair runs, both below and above the pruning threshold.
        let before = work();
        let dup = Matrix::from_rows(&vec![vec![1.0, 1.0]; 12]);
        assert_matches_reference(&KMeans::new(4, 3), &dup, "all duplicates");
        let few: Vec<Vec<f64>> =
            (0..40).map(|i| vec![(i % 5) as f64, ((i % 5) * (i % 5)) as f64]).collect();
        let few = Matrix::from_rows(&few);
        for seed in 0..8 {
            assert_matches_reference(&KMeans::new(12, seed), &few, "five distinct points");
            assert_matches_reference(&KMeans::new(5, seed), &few, "five distinct points");
        }
        assert!(work().repairs > before.repairs, "duplicates never emptied a cluster");

        // Points equidistant from two seeds or centroids, and integer grids
        // where many squared distances coincide exactly: every winner is
        // decided by the lowest-index tie rule.
        let line = Matrix::from_rows(&[vec![-1.0, 0.0], vec![1.0, 0.0], vec![0.0, 0.0]]);
        for seed in 0..16 {
            assert_matches_reference(&KMeans::new(2, seed), &line, "equidistant");
        }
        for (side, d) in [(5usize, 2usize), (4, 3), (9, 2)] {
            let rows: Vec<Vec<f64>> = (0..side.pow(d as u32))
                .map(|i| (0..d).map(|j| ((i / side.pow(j as u32)) % side) as f64).collect())
                .collect();
            let grid = Matrix::from_rows(&rows);
            for k in [3, 8, 9, 12, 20] {
                for seed in 0..4 {
                    assert_matches_reference(&KMeans::new(k, seed), &grid, "integer grid");
                }
            }
        }
    }

    #[test]
    fn fit_matches_reference_on_random_shapes() {
        // Seeded shapes across the kernel arms: n 9–600, d 1–24, k 1–40,
        // with runs of duplicated rows in some of them.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2010);
        let before = work();
        for case in 0..240 {
            let k = rng.random_range(1..=40usize);
            let n = rng.random_range(9.max(k)..=600usize);
            let d = rng.random_range(1..=24usize);
            let clustered_rows = rng.random_range(0..2u32) == 0;
            let mut data = if clustered_rows {
                clustered(n, d, rng.random_range(1..=k), case)
            } else {
                random_rows(n, d, case)
            };
            if rng.random_range(0..3u32) == 0 {
                // Copy a random row over a random stretch of others.
                let src = rng.random_range(0..n);
                let row = data.row(src).to_vec();
                let start = rng.random_range(0..n);
                for r in start..n.min(start + rng.random_range(1..=n / 2 + 1)) {
                    data.row_mut(r).copy_from_slice(&row);
                }
            }
            let mut km = KMeans::new(k, case);
            if case % 7 == 0 {
                km.max_iters = rng.random_range(0..4);
            }
            assert_matches_reference(&km, &data, "random shape");
        }
        let after = work();
        assert!(after.rescanned < after.examined, "pruning never skipped a point");
        assert!(after.late_repairs > before.late_repairs, "no repair followed a pruned pass");
    }

    #[test]
    fn pruning_skips_most_points_at_cec_shape() {
        // NSL-KDD's CEC shape: 512 points, 20 features, 20 clusters.
        let data = clustered(512, 20, 20, 5);
        let km = KMeans::new(20, 5);
        let before = work();
        let result = km.fit(&data);
        let after = work();
        let (examined, rescanned) =
            (after.examined - before.examined, after.rescanned - before.rescanned);
        assert!(result.iterations > 1 && examined > 0, "{result:?}");
        assert!(
            (rescanned as f64) < 0.6 * examined as f64,
            "pruned passes rescanned {rescanned} of {examined} points"
        );
        assert_matches_reference(&km, &data, "pruning");
    }

    /// The textbook winner scan: every `sqrt`, then strict `<` in order.
    fn sqrt_scan(sq: &[f64]) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, &s) in sq.iter().enumerate() {
            if s.sqrt() < best_d {
                best_d = s.sqrt();
                best = c;
            }
        }
        (best, best_d)
    }

    #[test]
    fn winner_scans_match_the_sqrt_scan_on_near_ties() {
        let next = |x: f64| f64::from_bits(x.to_bits() + 1);
        // A larger square that rounds to the same root comes first: the
        // textbook scan keeps it, a plain arg-min of squares would not.
        let mut merged = 0;
        for base in [2.0, 3.0, 0.5, 1e-300, 7.25, 1e300, f64::MIN_POSITIVE / 3.0] {
            let mut s = base;
            for _ in 0..8 {
                let up = next(s);
                if up.sqrt() == s.sqrt() {
                    merged += 1;
                    assert_eq!(nearest([up, s].into_iter()), sqrt_scan(&[up, s]), "{s:e}");
                    assert_eq!(nearest([4.0 * s, up, s, up].into_iter()), (1, s.sqrt()));
                }
                s = up;
            }
        }
        assert!(merged > 4, "too few merged roots exercised ({merged})");
        // Random runs drawn from a handful of adjacent squares, with exact
        // zeros, infinities and NaNs mixed in.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let pool = [4.0, next(4.0), next(next(4.0)), 0.0, 9.0, f64::INFINITY, f64::NAN, 1e-310];
        for _ in 0..2000 {
            let len = rng.random_range(1..=40usize);
            let sq: Vec<f64> = (0..len).map(|_| pool[rng.random_range(0..pool.len())]).collect();
            let (fast, slow) = (nearest(sq.iter().copied()), sqrt_scan(&sq));
            assert_eq!(fast.0, slow.0, "{sq:?}");
            assert_eq!(fast.1.to_bits(), slow.1.to_bits(), "{sq:?}");
        }
        // The same draws, eight points at a time in `block_winners`'s
        // lanes, which also reports the least root among the others. Some
        // lanes meet a first candidate whose root rounds above the least
        // one, which the scan must pass over.
        let mut passed_over = 0;
        for _ in 0..500 {
            let k = rng.random_range(1..=40usize);
            let block: Vec<f64> =
                (0..k * LANES).map(|_| pool[rng.random_range(0..pool.len())]).collect();
            let won = block_winners(&block);
            for l in 0..LANES {
                let column: Vec<f64> = block.chunks_exact(LANES).map(|row| row[l]).collect();
                let (best, dist) = sqrt_scan(&column);
                assert_eq!((won.best[l], won.dist[l].to_bits()), (best, dist.to_bits()));
                let others = column.iter().enumerate().filter(|&(c, _)| c != best);
                let second = others.fold(f64::INFINITY, |m, (_, &s)| min(s, m)).sqrt();
                assert_eq!(won.second[l].to_bits(), second.to_bits(), "{column:?}");
                let least = column.iter().fold(f64::INFINITY, |m, &s| min(s, m));
                let tie = least * SQRT_TIE + SUBNORMAL_TIE;
                let first = column.iter().position(|&s| s <= tie);
                passed_over += usize::from(first.is_some_and(|c| c < best));
            }
        }
        assert!(passed_over > 10, "too few higher-rounding candidates ({passed_over})");
    }

    /// A step of [`one_scratch_through_many_calls`]: what to fit and how.
    fn step_data(n: usize, d: usize, seed: u64, kind: u32) -> Matrix {
        if d == 0 {
            return Matrix::zeros(n, 0);
        }
        let mut data = match kind % 3 {
            0 => random_rows(n, d, seed),
            1 => clustered(n, d, 1 + (seed as usize % 5), seed),
            // Runs of one repeated row: clusters empty out and get repaired.
            _ => Matrix::from_rows(&vec![vec![0.5; d]; n]),
        };
        if kind == 3 && n > 2 {
            let row = data.row(0).to_vec();
            data.row_mut(n / 2).copy_from_slice(&row);
        }
        data
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// One k-means scratch and one CEC predictor reused through a run
        /// of fits and `predict_scored` calls whose sizes go up and down —
        /// `n` off multiples of eight, `d` from 0, `k` on both sides of
        /// eight, a guidance slice that grows and shrinks — must answer
        /// every call as the textbook fit (or, at `d = 0`, where the
        /// textbook fit cannot repair, a fresh scratch) and a fresh
        /// predictor do: nothing of one call leaks into the next.
        #[test]
        fn one_scratch_through_many_calls(
            steps in proptest::prop::collection::vec(
                (0usize..70, 0usize..7, 1usize..14, 0u64..10_000, 0u32..6),
                6..14,
            )
        ) {
            let mut scratch = KMeansScratch::new();
            let cec = CoherentExperience::with_recent(6, 40, 0.0, 17);
            for (i, &(extra, d, k, seed, kind)) in steps.iter().enumerate() {
                if kind < 4 {
                    let data = step_data(k + extra, d, seed, kind);
                    let km = KMeans { max_iters: 1 + (seed % 30) as usize, ..KMeans::new(k, seed) };
                    scratch.load(data.rows(), data.cols(), data.row_iter());
                    let fit = km.fit_in(&mut scratch);
                    let want = if d > 0 { reference_fit(&km, &data) } else { km.fit(&data) };
                    let at = format!("step {i}: n={} d={d} k={k} seed={seed}", data.rows());
                    proptest::prop_assert_eq!(fit.assignments, &want.assignments[..], "{}", at);
                    let (got, exp) = (fit.centroids.as_slice(), want.centroids.as_slice());
                    proptest::prop_assert!(
                        got.iter().zip(exp).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}", at
                    );
                    proptest::prop_assert_eq!(fit.inertia.to_bits(), want.inertia.to_bits(), "{}", at);
                    proptest::prop_assert_eq!(fit.iterations, want.iterations, "{}", at);
                } else {
                    // Guidance of 1–70 rows (the predictor reads the last 40)
                    // above a batch of 1–14.
                    let guide = step_data(1 + extra, d, seed, kind);
                    let batch = step_data(k, d, seed + 1, kind);
                    let mut buffer = ExperienceBuffer::new(80, None);
                    let labels: Vec<usize> = (0..guide.rows()).map(|r| (r * 7 + i) % 3).collect();
                    buffer.push_batch(&guide, &labels);
                    let reused = cec.predict_scored(&batch, &buffer);
                    let fresh = cec.clone().predict_scored(&batch, &buffer);
                    let bits = |r: Option<(Vec<usize>, f64)>| r.map(|(p, s)| (p, s.to_bits()));
                    proptest::prop_assert_eq!(bits(reused), bits(fresh), "step {}", i);
                }
            }
        }
    }
}
