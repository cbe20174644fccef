//! Seeded k-means with k-means++ initialisation.

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

impl KMeans {
    /// Creates a k-means configuration with sensible defaults
    /// (`max_iters = 50`, `tol = 1e-6`).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "need at least one cluster");
        Self { k, max_iters: 50, tol: 1e-6, seed }
    }

    /// Runs k-means++ then Lloyd iterations.
    ///
    /// # Panics
    /// Panics if `data` has fewer rows than `k`.
    pub fn fit(&self, data: &Matrix) -> KMeansResult {
        let n = data.rows();
        assert!(n >= self.k, "need at least k rows ({} < {})", n, self.k);
        let d = data.cols();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut centroids = self.init_plus_plus(data, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        // Lloyd scratch, reused across iterations: transposed centroids +
        // one tile of squared distances for the assignment step,
        // sums/counts for the update step, one centroid-sized buffer for
        // the means.
        let mut ct = vec![0.0; self.k * d];
        let mut sq = vec![0.0; ASSIGN_ROWS * self.k];
        let mut dists = vec![0.0; n];
        let mut sums = Matrix::zeros(self.k, d);
        let mut counts = vec![0usize; self.k];
        let mut mean = vec![0.0; d];
        // Whether the previous update step hit the empty-cluster repair;
        // starts true so the first iteration never takes the shortcut below.
        let mut repaired = true;

        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step.
            let changed =
                assign_nearest(data, &centroids, &mut ct, &mut sq, &mut assignments, &mut dists);
            if !changed && !repaired {
                // Unchanged assignments after a repair-free update mean the
                // update step would recompute bit-identical centroids (same
                // sums, same counts, same arithmetic), so movement would be
                // exactly 0.0 < tol: skip straight to the break the full
                // pass would take. (A repair re-seeds from distances to the
                // *current* centroids, so after one the recompute is not
                // guaranteed identical and the shortcut stays off.)
                break;
            }
            // Update step. Accumulating `+= v` matches the previous
            // `axpy(.., 1.0, row)` formulation bit-for-bit (multiplying by
            // 1.0 is exact); the flat walk just drops the per-row call and
            // bounds-check overhead.
            sums.as_mut_slice().fill(0.0);
            counts.fill(0);
            if d > 0 {
                let ss = sums.as_mut_slice();
                for (row, &a) in data.as_slice().chunks_exact(d).zip(&assignments) {
                    for (s, &v) in ss[a * d..(a + 1) * d].iter_mut().zip(row) {
                        *s += v;
                    }
                    counts[a] += 1;
                }
            } else {
                for &a in &assignments {
                    counts[a] += 1;
                }
            }
            // Empty-cluster repair: re-seed on the point farthest from its
            // centroid, the standard fix that keeps exactly k clusters.
            // That point does not depend on which empty cluster is being
            // repaired (assignments and centroids are fixed for the whole
            // repair loop), and its distance-to-assigned-centroid is
            // exactly the winning distance the assignment step recorded —
            // so one flop-free scan replaces a full re-computation per
            // empty cluster. Last-max tie-breaking matches the `max_by`
            // the re-computation used.
            repaired = false;
            let mut far_idx = usize::MAX;
            for (c, count) in counts.iter_mut().enumerate() {
                if *count == 0 {
                    if far_idx == usize::MAX {
                        let mut best = f64::NEG_INFINITY;
                        far_idx = 0;
                        for (i, &dv) in dists.iter().enumerate() {
                            if dv >= best {
                                best = dv;
                                far_idx = i;
                            }
                        }
                    }
                    sums.row_mut(c).copy_from_slice(data.row(far_idx));
                    *count = 1;
                    repaired = true;
                }
            }
            let mut movement = 0.0;
            for (c, &count) in counts.iter().enumerate() {
                let inv = 1.0 / count as f64;
                for (m, &s) in mean.iter_mut().zip(sums.row(c)) {
                    *m = s * inv;
                }
                movement += vector::euclidean_distance(&mean, centroids.row(c));
                centroids.row_mut(c).copy_from_slice(&mean);
            }
            if movement < self.tol {
                break;
            }
        }

        // Final assignment against the converged centroids.
        assign_nearest(data, &centroids, &mut ct, &mut sq, &mut assignments, &mut dists);
        let mut inertia = 0.0;
        for &dist in &dists {
            inertia += dist * dist;
        }

        KMeansResult { centroids, assignments, inertia, iterations }
    }

    /// k-means++ seeding: first centroid uniform, then each next centroid
    /// sampled proportionally to squared distance from the nearest chosen
    /// one.
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

/// Points per register tile of the assignment step.
const ASSIGN_ROWS: usize = 4;

/// Centroids per register tile of the assignment step: eight `f64`
/// lanes, one 512-bit vector or two 256-bit ones.
const ASSIGN_LANES: usize = 8;

/// Assigns every data row to its nearest centroid, recording the winning
/// distance per row and returning whether any assignment changed.
/// Bit-identical to calling [`nearest_centroid`] per row: each (point,
/// centroid) pair accumulates its squared differences in the same
/// ascending-dimension order and takes the same `sqrt`, and the winner
/// scan is the same ascending-centroid strict `<` comparison. The only
/// difference is that independent pair chains run side by side in
/// registers — via a transposed centroid copy so each dimension's
/// centroid coordinates load contiguously — which fills the FP pipeline
/// without touching any pair's arithmetic. `sq` holds the
/// `ASSIGN_ROWS x k` squared distances of one tile of points.
fn assign_nearest(
    data: &Matrix,
    centroids: &Matrix,
    ct: &mut [f64],
    sq: &mut [f64],
    assignments: &mut [usize],
    dists: &mut [f64],
) -> bool {
    let k = centroids.rows();
    let d = centroids.cols();
    debug_assert_eq!(ct.len(), k * d);
    debug_assert_eq!(sq.len(), ASSIGN_ROWS * k);
    debug_assert_eq!(dists.len(), assignments.len());
    if d == 0 {
        // Zero-dimensional rows are all at distance 0: the first centroid
        // wins every strict-`<` scan, exactly as in `nearest_centroid`.
        let mut changed = false;
        for slot in assignments.iter_mut() {
            changed |= *slot != 0;
            *slot = 0;
        }
        dists.fill(0.0);
        return changed;
    }
    let cs = centroids.as_slice();
    for c in 0..k {
        for j in 0..d {
            ct[j * k + c] = cs[c * d + j];
        }
    }
    // Up to one tile of lanes, a point's `k` accumulators fit one vector
    // and out-of-order execution already overlaps consecutive points, so
    // the per-point const-K kernel, whose winner scan unrolls over
    // registers, is fastest (14–40% ahead of the tiles at k = 2–8 on an
    // AVX-512 Xeon). Past that the register tiles take every `k`.
    match k {
        1 => assign_rows::<1>(data, d, ct, assignments, dists),
        2 => assign_rows::<2>(data, d, ct, assignments, dists),
        3 => assign_rows::<3>(data, d, ct, assignments, dists),
        4 => assign_rows::<4>(data, d, ct, assignments, dists),
        5 => assign_rows::<5>(data, d, ct, assignments, dists),
        6 => assign_rows::<6>(data, d, ct, assignments, dists),
        7 => assign_rows::<7>(data, d, ct, assignments, dists),
        ASSIGN_LANES => assign_rows::<{ ASSIGN_LANES }>(data, d, ct, assignments, dists),
        _ => assign_tiles(data, d, k, ct, sq, assignments, dists),
    }
}

/// The const-K body of [`assign_nearest`] for `k <= ASSIGN_LANES`, one
/// point at a time; `ct` is the `d x K` transposed centroid copy.
fn assign_rows<const K: usize>(
    data: &Matrix,
    d: usize,
    ct: &[f64],
    assignments: &mut [usize],
    dists: &mut [f64],
) -> bool {
    let mut changed = false;
    for ((row, slot), dist_out) in
        data.as_slice().chunks_exact(d).zip(assignments.iter_mut()).zip(dists.iter_mut())
    {
        let mut acc = [0.0f64; K];
        for (&p, col) in row.iter().zip(ct.chunks_exact(K)) {
            for (a, &cv) in acc.iter_mut().zip(col) {
                let diff = p - cv;
                *a += diff * diff;
            }
        }
        let (best, best_d) = winner_scan(&mut acc);
        changed |= *slot != best;
        *slot = best;
        *dist_out = best_d;
    }
    changed
}

/// The register-tiled body of [`assign_nearest`] for any `k`: tiles of
/// [`ASSIGN_ROWS`] points by up to [`ASSIGN_LANES`] centroids write each
/// tile of points' squared distances to `sq`, then each point takes its
/// winner scan there.
fn assign_tiles(
    data: &Matrix,
    d: usize,
    k: usize,
    ct: &[f64],
    sq: &mut [f64],
    assignments: &mut [usize],
    dists: &mut [f64],
) -> bool {
    let mut changed = false;
    let tiles = data.as_slice().chunks(ASSIGN_ROWS * d);
    let outs = assignments.chunks_mut(ASSIGN_ROWS).zip(dists.chunks_mut(ASSIGN_ROWS));
    for (points, (slots, tile_dists)) in tiles.zip(outs) {
        match slots.len() {
            ASSIGN_ROWS => squared_distances::<{ ASSIGN_ROWS }>(points, ct, k, sq),
            3 => squared_distances::<3>(points, ct, k, sq),
            2 => squared_distances::<2>(points, ct, k, sq),
            _ => squared_distances::<1>(points, ct, k, sq),
        }
        let rows = slots.iter_mut().zip(tile_dists).zip(sq.chunks_exact_mut(k));
        for ((slot, dist_out), row_sq) in rows {
            let (best, best_d) = winner_scan(row_sq);
            changed |= *slot != best;
            *slot = best;
            *dist_out = best_d;
        }
    }
    changed
}

/// Squared distances from the `R` points in `points` (row-major, `d`
/// wide) to all `k` centroids of the `d x k` transposed copy `ct`,
/// written to `sq[r * k + c]`: [`ASSIGN_LANES`]-wide centroid tiles, then
/// one 1–7-wide remainder tile.
#[inline]
fn squared_distances<const R: usize>(points: &[f64], ct: &[f64], k: usize, sq: &mut [f64]) {
    let mut c = 0;
    while c + ASSIGN_LANES <= k {
        distance_tile::<R, { ASSIGN_LANES }>(points, ct, k, c, sq);
        c += ASSIGN_LANES;
    }
    match k - c {
        0 => {}
        1 => distance_tile::<R, 1>(points, ct, k, c, sq),
        2 => distance_tile::<R, 2>(points, ct, k, c, sq),
        3 => distance_tile::<R, 3>(points, ct, k, c, sq),
        4 => distance_tile::<R, 4>(points, ct, k, c, sq),
        5 => distance_tile::<R, 5>(points, ct, k, c, sq),
        6 => distance_tile::<R, 6>(points, ct, k, c, sq),
        _ => distance_tile::<R, 7>(points, ct, k, c, sq),
    }
}

/// `R x W` register tile of squared distances: points `0..R` of `points`
/// against centroids `c..c + W`, each pair's squared differences summed
/// in ascending dimension order from `0.0`.
#[inline]
fn distance_tile<const R: usize, const W: usize>(
    points: &[f64],
    ct: &[f64],
    k: usize,
    c: usize,
    sq: &mut [f64],
) {
    let d = points.len() / R;
    assert!(points.len() == R * d && ct.len() == d * k && c + W <= k && sq.len() >= R * k);
    let mut acc = [[0.0f64; W]; R];
    for j in 0..d {
        // SAFETY: `j < d` and `c + W <= k` keep `j * k + c + W <=
        // ct.len()`, and `r < R` keeps `r * d + j < points.len()`, per the
        // assert above; unchecked access hoists the per-dimension bounds
        // checks out of the accumulation loop.
        unsafe {
            let col = ct.get_unchecked(j * k + c..j * k + c + W);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let p = *points.get_unchecked(r * d + j);
                for l in 0..W {
                    let diff = p - col[l];
                    acc_r[l] += diff * diff;
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        sq[r * k + c..r * k + c + W].copy_from_slice(acc_r);
    }
}

/// Branchless nearest-centroid selection over squared distances: the same
/// per-lane `sqrt` and ascending-centroid strict-`<` scan as
/// [`nearest_centroid`], with conditional moves — the winner flips
/// unpredictably while centroids move, and a mispredicted branch per
/// (point, centroid) pair costs more than the distance accumulation.
#[inline]
fn winner_scan(acc: &mut [f64]) -> (usize, f64) {
    for a in acc.iter_mut() {
        *a = a.sqrt();
    }
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, &dist) in acc.iter().enumerate() {
        let better = dist < best_d;
        best_d = if better { dist } else { best_d };
        best = if better { c } else { best };
    }
    (best, best_d)
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

    #[test]
    fn fit_is_bit_identical_to_reference() {
        // k <= 8 runs the per-point kernel, k > 8 the register tiles,
        // whose 1–3-point remainders the 9-, 50- and 63-row shapes reach.
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
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 31 + 1);
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| (0..d).map(|_| rng.random_range(-3.0..3.0)).collect()).collect();
            let data = Matrix::from_rows(&rows);
            let km = KMeans::new(k, seed);
            let fast = km.fit(&data);
            let refr = reference_fit(&km, &data);
            assert_eq!(fast.assignments, refr.assignments, "n={n} d={d} k={k}");
            assert_eq!(fast.centroids, refr.centroids, "n={n} d={d} k={k}");
            assert_eq!(fast.inertia.to_bits(), refr.inertia.to_bits(), "n={n} d={d} k={k}");
            assert_eq!(fast.iterations, refr.iterations, "n={n} d={d} k={k}");
        }
        // Duplicate-heavy data exercises the empty-cluster repair path.
        let dup = Matrix::from_rows(&vec![vec![1.0, 1.0]; 12]);
        let km = KMeans::new(4, 3);
        let fast = km.fit(&dup);
        let refr = reference_fit(&km, &dup);
        assert_eq!(fast.assignments, refr.assignments);
        assert_eq!(fast.centroids, refr.centroids);
    }
}
