//! PCA warm-up and projection (Equations 2–6).

use freeway_linalg::{jacobi_eigen, stats, Matrix};

/// A PCA model warmed up on initial stream data, then frozen.
///
/// The paper trains PCA once on `n` initial points and applies the
/// component matrix `P_d` to every later batch: `ȳ_t = P_d^T (μ_t − μ)`.
/// Freezing is deliberate — the projection must stay comparable across
/// time for shift distances to mean anything.
#[derive(Clone, Debug)]
pub struct PcaReducer {
    mean: Vec<f64>,
    components: Matrix, // d x k
    /// True when numerical failure forced the identity fallback.
    degraded: bool,
}

impl PcaReducer {
    /// Fits PCA on warm-up data, keeping the top `k` components.
    ///
    /// Numerical failure — a non-finite mean or covariance (NaN/Inf rows
    /// slipped past upstream guards), or an eigendecomposition that
    /// produced non-finite output — does **not** panic: the reducer
    /// degrades to the identity projection onto the first `k` raw
    /// coordinates (with a NaN-sanitised mean) and reports it via
    /// [`Self::degraded`]. Shift distances stay well-defined, just
    /// unrotated; callers surface the flag so operators know routing
    /// quality is reduced.
    ///
    /// # Panics
    /// Panics if `data` has fewer than 2 rows or `k` exceeds the feature
    /// dimension (programmer errors, not data faults).
    pub fn fit(data: &Matrix, k: usize) -> Self {
        assert!(data.rows() >= 2, "PCA warm-up needs at least two points");
        assert!(
            (1..=data.cols()).contains(&k),
            "component count {k} out of range for {} features",
            data.cols()
        );
        let mut mean = stats::mean_vector(data);
        if mean.iter().all(|v| v.is_finite()) {
            let cov = stats::covariance_matrix(data);
            if cov.as_slice().iter().all(|v| v.is_finite()) {
                let eig = jacobi_eigen(&cov, 1e-10, 100);
                if eig.all_finite() {
                    return Self { mean, components: eig.top_components(k), degraded: false };
                }
            }
        }
        for v in mean.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        let mut components = Matrix::zeros(data.cols(), k);
        for i in 0..k {
            components[(i, i)] = 1.0;
        }
        Self { mean, components, degraded: true }
    }

    /// True when this reducer fell back to the identity projection after
    /// a numerical failure during fitting.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.cols()
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.components.rows()
    }

    /// Projects a batch *mean* vector: `ȳ = P_d^T (μ_t − μ)` (Equation 6).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn project_mean(&self, batch_mean: &[f64]) -> Vec<f64> {
        let mut centered = Vec::new();
        let mut out = Vec::new();
        self.project_mean_into(batch_mean, &mut centered, &mut out);
        out
    }

    /// [`Self::project_mean`] writing into `out`, drawing the centered
    /// intermediate from `centered` — the allocation-free form for
    /// per-batch callers. Bit-identical to the allocating path.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn project_mean_into(
        &self,
        batch_mean: &[f64],
        centered: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(batch_mean.len(), self.mean.len(), "projection dimension mismatch");
        centered.clear();
        centered.extend(batch_mean.iter().zip(&self.mean).map(|(&a, &m)| a - m));
        self.components.t_matvec_into(centered, out);
    }
}

/// Accumulates warm-up rows until enough are present to fit a reducer.
#[derive(Clone, Debug)]
pub struct PcaWarmup {
    rows: Vec<Vec<f64>>,
    needed: usize,
    k: usize,
}

impl PcaWarmup {
    /// Starts a warm-up that will fit `k` components after `needed` rows.
    pub fn new(needed: usize, k: usize) -> Self {
        assert!(needed >= 2, "warm-up needs at least two rows");
        Self { rows: Vec::with_capacity(needed), needed, k }
    }

    /// Feeds a batch; returns the fitted reducer once enough rows arrived.
    pub fn feed(&mut self, batch: &Matrix) -> Option<PcaReducer> {
        for row in batch.row_iter() {
            if self.rows.len() < self.needed {
                self.rows.push(row.to_vec());
            }
        }
        if self.rows.len() >= self.needed {
            let data = Matrix::from_rows(&self.rows);
            Some(PcaReducer::fit(&data, self.k.min(data.cols())))
        } else {
            None
        }
    }

    /// Rows still required before fitting.
    pub fn remaining(&self) -> usize {
        self.needed.saturating_sub(self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeway_linalg::vector;

    /// Data stretched along the (1, 1) diagonal in 2-D.
    fn diagonal_data() -> Matrix {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = (i as f64 - 50.0) / 10.0;
                let off = ((i * 7) % 13) as f64 * 0.01;
                vec![t + off, t - off]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_component_aligns_with_dominant_direction() {
        let pca = PcaReducer::fit(&diagonal_data(), 1);
        // Project a step along (1, 1): should have large magnitude.
        let along = pca.project_mean(&[1.0, 1.0]);
        // A step along (1, -1) is orthogonal to the dominant direction.
        let across = pca.project_mean(&[1.0, -1.0]);
        assert!(
            vector::norm(&along) > 5.0 * vector::norm(&across),
            "dominant direction must dominate: {along:?} vs {across:?}"
        );
    }

    #[test]
    fn projection_of_training_mean_is_zero() {
        let data = diagonal_data();
        let pca = PcaReducer::fit(&data, 2);
        let mu = data.column_means();
        let proj = pca.project_mean(&mu);
        assert!(vector::norm(&proj) < 1e-9);
    }

    #[test]
    fn distances_are_preserved_for_full_rank_projection() {
        // With k = d, PCA is an isometry: distances between projected
        // means equal distances between raw means.
        let data = diagonal_data();
        let pca = PcaReducer::fit(&data, 2);
        let a = [1.0, 2.0];
        let b = [-0.5, 0.3];
        let pa = pca.project_mean(&a);
        let pb = pca.project_mean(&b);
        let raw = vector::euclidean_distance(&a, &b);
        let projected = vector::euclidean_distance(&pa, &pb);
        assert!((raw - projected).abs() < 1e-9);
    }

    #[test]
    fn warmup_fits_after_enough_rows() {
        let mut w = PcaWarmup::new(10, 2);
        let chunk = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        assert!(w.feed(&chunk).is_none());
        assert_eq!(w.remaining(), 7);
        assert!(w.feed(&chunk).is_none());
        assert!(w.feed(&chunk).is_none());
        let fitted = w.feed(&chunk);
        assert!(fitted.is_some(), "10th row arrived");
        assert_eq!(fitted.unwrap().k(), 2);
    }

    #[test]
    fn non_finite_warmup_degrades_to_identity_instead_of_panicking() {
        let data = Matrix::from_rows(&[
            vec![1.0, f64::NAN, 3.0],
            vec![2.0, 1.0, f64::INFINITY],
            vec![0.5, 0.0, 1.0],
        ]);
        let pca = PcaReducer::fit(&data, 2);
        assert!(pca.degraded(), "numerical failure must be flagged");
        assert_eq!(pca.k(), 2);
        // The identity fallback projects onto the first k raw coordinates
        // relative to the sanitised mean — always finite.
        let proj = pca.project_mean(&[1.0, 2.0, 3.0]);
        assert!(proj.iter().all(|v| v.is_finite()), "degraded projection stays finite: {proj:?}");
        // A healthy fit is not flagged.
        let healthy = PcaReducer::fit(&diagonal_data(), 1);
        assert!(!healthy.degraded());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn fit_rejects_single_point() {
        PcaReducer::fit(&Matrix::from_rows(&[vec![1.0, 2.0]]), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fit_rejects_excess_components() {
        PcaReducer::fit(&diagonal_data(), 3);
    }
}
