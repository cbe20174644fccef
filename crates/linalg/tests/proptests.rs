//! Property-based tests for the linear-algebra substrate.

use freeway_linalg::pool::WorkerPool;
use freeway_linalg::{jacobi_eigen, Matrix};
use freeway_linalg::{stats, vector};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, len)
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn distance_triangle_inequality(a in small_vec(5), b in small_vec(5), c in small_vec(5)) {
        let ab = vector::euclidean_distance(&a, &b);
        let bc = vector::euclidean_distance(&b, &c);
        let ac = vector::euclidean_distance(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn distance_symmetry_and_identity(a in small_vec(6), b in small_vec(6)) {
        prop_assert!((vector::euclidean_distance(&a, &b)
            - vector::euclidean_distance(&b, &a)).abs() < 1e-9);
        prop_assert!(vector::euclidean_distance(&a, &a) == 0.0);
    }

    #[test]
    fn dot_is_bilinear(a in small_vec(4), b in small_vec(4), alpha in -5.0..5.0f64) {
        let scaled: Vec<f64> = a.iter().map(|x| x * alpha).collect();
        let lhs = vector::dot(&scaled, &b);
        let rhs = alpha * vector::dot(&a, &b);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn transpose_involution(m in small_matrix(3, 5)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(m in small_matrix(4, 4)) {
        let id = Matrix::identity(4);
        prop_assert_eq!(m.matmul(&id), m.clone());
        prop_assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_distributes_over_axpy(a in small_matrix(3, 3), b in small_matrix(3, 3), c in small_matrix(3, 3)) {
        // (a + b) * c == a*c + b*c
        let mut sum = a.clone();
        sum.axpy(1.0, &b);
        let lhs = sum.matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.axpy(1.0, &b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn matvec_agrees_with_matmul(m in small_matrix(4, 3), v in small_vec(3)) {
        let as_col = Matrix::from_vec(3, 1, v.clone());
        let via_matmul = m.matmul(&as_col);
        let via_matvec = m.matvec(&v);
        for (i, &x) in via_matvec.iter().enumerate() {
            prop_assert!((x - via_matmul[(i, 0)]).abs() < 1e-9);
        }
    }

    #[test]
    fn covariance_diagonal_nonnegative(rows in 2usize..12) {
        let data: Vec<f64> = (0..rows * 4).map(|i| ((i * 37) % 101) as f64 / 10.0).collect();
        let m = Matrix::from_vec(rows, 4, data);
        let cov = stats::covariance_matrix(&m);
        for i in 0..4 {
            prop_assert!(cov[(i, i)] >= -1e-12);
        }
    }

    #[test]
    fn jacobi_eigenvalue_sum_equals_trace(m in small_matrix(4, 4)) {
        // Symmetrise, then trace == sum of eigenvalues.
        let mut sym = m.clone();
        let t = m.transpose();
        sym.axpy(1.0, &t);
        sym.scale(0.5);
        let trace: f64 = (0..4).map(|i| sym[(i, i)]).sum();
        let e = jacobi_eigen(&sym, 1e-12, 100);
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6 * (1.0 + trace.abs()));
    }

    #[test]
    fn jacobi_vectors_orthonormal(m in small_matrix(3, 3)) {
        let mut sym = m.clone();
        let t = m.transpose();
        sym.axpy(1.0, &t);
        sym.scale(0.5);
        let e = jacobi_eigen(&sym, 1e-12, 100);
        for i in 0..3 {
            for j in 0..3 {
                let d = vector::dot(&e.vectors.col(i), &e.vectors.col(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expected).abs() < 1e-7);
            }
        }
    }

    // Determinism contract of the worker pool (see `pool` module docs):
    // every parallel kernel must be BIT-identical — `==`, not approximate
    // — for any pool size, because chunk boundaries and reduction order
    // are fixed by the input shape, never by the thread count.

    #[test]
    fn parallel_matmul_is_bit_identical_across_pool_sizes(
        rows in 1usize..24,
        inner in 1usize..12,
        cols in 1usize..12,
        data in prop::collection::vec(-10.0..10.0f64, 24 * 12 + 12 * 12),
    ) {
        let a = Matrix::from_vec(rows, inner, data[..rows * inner].to_vec());
        let b_off = 24 * 12;
        let b = Matrix::from_vec(inner, cols, data[b_off..b_off + inner * cols].to_vec());
        let serial = a.matmul_with(&b, &WorkerPool::new(1));
        for threads in [2usize, 8] {
            let parallel = a.matmul_with(&b, &WorkerPool::new(threads));
            prop_assert_eq!(&serial, &parallel);
        }
        prop_assert_eq!(&serial, &a.matmul(&b));
    }

    #[test]
    fn parallel_matvec_is_bit_identical_across_pool_sizes(
        rows in 1usize..40,
        cols in 1usize..10,
        data in prop::collection::vec(-10.0..10.0f64, 40 * 10 + 10),
    ) {
        let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
        let v = data[40 * 10..40 * 10 + cols].to_vec();
        let serial = m.matvec_with(&v, &WorkerPool::new(1));
        for threads in [2usize, 8] {
            prop_assert_eq!(&serial, &m.matvec_with(&v, &WorkerPool::new(threads)));
        }
        prop_assert_eq!(&serial, &m.matvec(&v));
    }

    #[test]
    fn parallel_t_matvec_is_bit_identical_across_pool_sizes(
        // Rows straddle the fixed 256-row chunk boundary so multi-chunk
        // reduction (the only path where order could matter) is hit.
        rows in 200usize..600,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let fill = |i: usize| ((i as f64 + seed as f64) * 0.37).sin() * 3.0;
        let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(fill).collect());
        let v: Vec<f64> = (0..rows).map(|i| fill(i + 7)).collect();
        let serial = m.t_matvec_with(&v, &WorkerPool::new(1));
        for threads in [2usize, 8] {
            prop_assert_eq!(&serial, &m.t_matvec_with(&v, &WorkerPool::new(threads)));
        }
        prop_assert_eq!(&serial, &m.t_matvec(&v));
    }

    // Zero-allocation hot path contract: every `_into` variant and fused
    // transposed kernel must be BIT-identical (`==`) to its allocating
    // two-step counterpart, for every pool size, even when the output
    // buffer is dirty from a previous differently-shaped call.

    #[test]
    fn matmul_into_matches_matmul_with_dirty_buffer(
        rows in 1usize..20,
        inner in 1usize..10,
        cols in 1usize..10,
        data in prop::collection::vec(-10.0..10.0f64, 20 * 10 + 10 * 10),
    ) {
        let a = Matrix::from_vec(rows, inner, data[..rows * inner].to_vec());
        let b = Matrix::from_vec(inner, cols, data[200..200 + inner * cols].to_vec());
        let mut out = Matrix::filled(7, 3, f64::NAN); // dirty, wrong shape
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(&out, &a.matmul(&b));
    }

    #[test]
    fn fused_transa_matches_transpose_then_matmul(
        rows in 1usize..24,
        cols_a in 1usize..10,
        cols_b in 1usize..10,
        data in prop::collection::vec(-10.0..10.0f64, 24 * 10 + 24 * 10),
    ) {
        // A is rows x cols_a, B is rows x cols_b; fused computes Aᵀ·B.
        let a = Matrix::from_vec(rows, cols_a, data[..rows * cols_a].to_vec());
        let b = Matrix::from_vec(rows, cols_b, data[240..240 + rows * cols_b].to_vec());
        let two_step = a.transpose().matmul(&b);
        prop_assert_eq!(&a.matmul_transa(&b), &two_step);
        let mut out = Matrix::filled(2, 5, f64::NAN);
        a.matmul_transa_into(&b, &mut out);
        prop_assert_eq!(&out, &two_step);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(&a.matmul_transa_with(&b, &WorkerPool::new(threads)), &two_step);
        }
    }

    #[test]
    fn fused_transb_matches_transpose_then_matmul(
        rows in 1usize..24,
        inner in 1usize..10,
        cols in 1usize..10,
        data in prop::collection::vec(-10.0..10.0f64, 24 * 10 + 10 * 10),
    ) {
        // A is rows x inner, B is cols x inner; fused computes A·Bᵀ.
        let a = Matrix::from_vec(rows, inner, data[..rows * inner].to_vec());
        let b = Matrix::from_vec(cols, inner, data[240..240 + cols * inner].to_vec());
        let two_step = a.matmul(&b.transpose());
        prop_assert_eq!(&a.matmul_transb(&b), &two_step);
        let mut out = Matrix::filled(3, 1, f64::NAN);
        a.matmul_transb_into(&b, &mut out);
        prop_assert_eq!(&out, &two_step);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(&a.matmul_transb_with(&b, &WorkerPool::new(threads)), &two_step);
        }
    }

    #[test]
    fn vector_into_variants_match_allocating(
        rows in 1usize..30,
        cols in 1usize..8,
        data in prop::collection::vec(-10.0..10.0f64, 30 * 8 + 30 + 8),
    ) {
        let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
        let v_cols = data[240..240 + cols].to_vec();
        let v_rows = data[248..248 + rows].to_vec();
        let mut out = vec![f64::NAN; 3]; // dirty, wrong length
        m.matvec_into(&v_cols, &mut out);
        prop_assert_eq!(&out, &m.matvec(&v_cols));
        m.t_matvec_into(&v_rows, &mut out);
        prop_assert_eq!(&out, &m.t_matvec(&v_rows));
    }

    #[test]
    fn recency_weights_monotone(n in 1usize..30, decay in 0.01..1.0f64) {
        let w = stats::recency_weights(n, decay);
        for pair in w.windows(2) {
            prop_assert!(pair[0] <= pair[1] + 1e-12);
        }
        prop_assert!((w[n - 1] - 1.0).abs() < 1e-12);
    }

    // The blocked kernels band output rows to the micro-kernel height, so
    // pool-size invariance must also hold for shapes larger than the
    // register block — band boundaries move with thread count but every
    // output element keeps its full ascending-k accumulation.

    #[test]
    fn tiled_pooled_kernels_bit_identical_across_pool_sizes(
        rows in 1usize..80,
        inner in 1usize..14,
        cols in 1usize..14,
        seed in 0u64..1000,
    ) {
        let fill = |i: usize| ((i as f64 + seed as f64) * 0.61).sin() * 4.0;
        let a = Matrix::from_vec(rows, inner, (0..rows * inner).map(fill).collect());
        let b = Matrix::from_vec(inner, cols, (0..inner * cols).map(|i| fill(i + 3)).collect());
        let bt = b.transpose();
        let at = a.transpose();
        let serial = a.matmul_with(&b, &WorkerPool::new(1));
        for threads in [2usize, 3, 8] {
            let pool = WorkerPool::new(threads);
            prop_assert_eq!(&serial, &a.matmul_with(&b, &pool));
            prop_assert_eq!(&at.matmul_transa_with(&b, &pool), &serial);
            prop_assert_eq!(&a.matmul_transb_with(&bt, &pool), &serial);
        }
    }
}

/// Naive triple-loop reference: per output element, one accumulator
/// started at `0.0` and advanced in ascending-k order — the association
/// order the blocked kernels promise to preserve bit-for-bit.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for p in 0..a.cols() {
                acc += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Tile-size invariance, phrased against the fixed tile constants: shapes
/// on, below, and across every micro/tile boundary (4-row micro, 8-col
/// micro, 64-row L1 tile, 256-col tile, 64-deep transb panel) and at the
/// layer shapes the paper's MLPs train must all reproduce the naive
/// reference exactly, serial and pooled. If a tile edge ever changed an
/// element's accumulation order, one of these shapes would catch it.
#[test]
fn blocked_kernels_bit_identical_to_naive_across_tile_boundaries() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (3, 7, 9),
        (4, 8, 8),
        (5, 9, 17),
        (17, 2, 31),
        (64, 10, 256),
        (65, 3, 257),
        (70, 33, 300),
        (130, 17, 40),
        // A shared dimension past the transb panel depth (64): the
        // partial sums resume across three panels.
        (37, 129, 19),
        // The NSL-KDD (20 features, 5 classes) and Covertype (10
        // features, 7 classes) MLP-32 layers at 256 rows, forward and
        // backward: the weight gradients `input^T · delta` (32x256^T ·
        // 256x5, 20x256^T · 256x32, 10x256^T · 256x32 — transa's 5–7-wide
        // column and 1–3-row remainders), the forward products, and
        // `delta · W^T` (256x5 · (32x5)^T — transb's short shared
        // dimension).
        (32, 256, 5),
        (32, 256, 7),
        (20, 256, 32),
        (10, 256, 32),
        (256, 32, 5),
        (256, 5, 32),
        (256, 7, 32),
    ];
    for &(m, k, n) in &shapes {
        let fill = |i: usize| ((i as f64) * 0.37).sin() * 5.0;
        let a = Matrix::from_vec(m, k, (0..m * k).map(fill).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| fill(i + 11)).collect());
        let reference = naive_matmul(&a, &b);
        assert_eq!(a.matmul(&b), reference, "matmul {m}x{k}x{n}");
        let at = a.transpose();
        assert_eq!(at.matmul_transa(&b), reference, "transa {m}x{k}x{n}");
        let bt = b.transpose();
        assert_eq!(a.matmul_transb(&bt), reference, "transb {m}x{k}x{n}");
        for threads in [2usize, 5] {
            let pool = WorkerPool::new(threads);
            assert_eq!(a.matmul_with(&b, &pool), reference, "pooled matmul {m}x{k}x{n}");
            assert_eq!(at.matmul_transa_with(&b, &pool), reference, "pooled transa {m}x{k}x{n}");
            assert_eq!(a.matmul_transb_with(&bt, &pool), reference, "pooled transb {m}x{k}x{n}");
        }
    }
}
