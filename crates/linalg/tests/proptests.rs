//! Property-based tests for the linear-algebra substrate.

use freeway_linalg::{jacobi_eigen, Epilogue, Matrix};
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

    // Every kernel must be BIT-identical — `==`, not approximate — to its
    // naive reference: blocking and unrolling may move where partial sums
    // live, never the order or association of any element's additions.

    #[test]
    fn matmul_is_bit_identical_to_naive(
        rows in 1usize..24,
        inner in 1usize..12,
        cols in 1usize..12,
        data in prop::collection::vec(-10.0..10.0f64, 24 * 12 + 12 * 12),
    ) {
        let a = Matrix::from_vec(rows, inner, data[..rows * inner].to_vec());
        let b_off = 24 * 12;
        let b = Matrix::from_vec(inner, cols, data[b_off..b_off + inner * cols].to_vec());
        prop_assert_eq!(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    #[test]
    fn matvec_is_bit_identical_to_naive(
        rows in 1usize..40,
        cols in 1usize..10,
        data in prop::collection::vec(-10.0..10.0f64, 40 * 10 + 10),
    ) {
        let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
        let v = data[40 * 10..40 * 10 + cols].to_vec();
        prop_assert_eq!(&m.matvec(&v), &naive_matvec(&m, &v));
    }

    #[test]
    fn t_matvec_is_bit_identical_to_naive(
        // Tall matrices: every row must add into the one accumulator per
        // column in ascending order, however many rows there are.
        rows in 200usize..600,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let fill = |i: usize| ((i as f64 + seed as f64) * 0.37).sin() * 3.0;
        let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(fill).collect());
        let v: Vec<f64> = (0..rows).map(|i| fill(i + 7)).collect();
        prop_assert_eq!(&m.t_matvec(&v), &naive_t_matvec(&m, &v));
    }

    // Zero-allocation hot path contract: every `_into` variant and fused
    // transposed kernel must be BIT-identical (`==`) to its allocating
    // two-step counterpart, even when the output buffer is dirty from a
    // previous differently-shaped call.

    #[test]
    fn matmul_into_matches_matmul_on_a_dirty_buffer(
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

    // Shapes larger than the register block: the blocked kernels split
    // output rows into micro-kernel strips plus remainders, and every
    // output element must still keep its full ascending-k accumulation.

    #[test]
    fn tiled_kernels_bit_identical_to_naive(
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
        let reference = naive_matmul(&a, &b);
        prop_assert_eq!(&a.matmul(&b), &reference);
        prop_assert_eq!(&at.matmul_transa(&b), &reference);
        prop_assert_eq!(&a.matmul_transb(&bt), &reference);
    }
}

/// Operands on which a lane that multiplied, added, compared or blended
/// differently from the scalar loop would show: signed zeros, both
/// infinities, NaN, subnormals (the smallest, and one near the normal
/// boundary), and ordinary values of both signs.
const SPECIAL: [f64; 10] =
    [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, -1e-310, 1.5, -0.75, 3.0];

/// A `rows x cols` matrix of seeded values, about one in four drawn from
/// [`SPECIAL`] and the rest ordinary values in `[-4, 4)`.
fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            if pick.is_multiple_of(4) {
                SPECIAL[(pick / 4) % SPECIAL.len()]
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Whether two matrices agree bit for bit, except that any NaN matches
/// any NaN (IEEE leaves a NaN result's payload to the hardware).
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// The loops the epilogues replaced, run over a finished product: the
/// dense layers' bias add, ReLU's `if v < 0.0 { v = 0.0 }`, and the
/// backward mask `if gate <= 0.0 { d = 0.0 }`.
fn add_bias(m: &mut Matrix, bias: &[f64]) {
    for r in 0..m.rows() {
        for (v, &b) in m.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

fn relu(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

fn mask(m: &mut Matrix, gate: &Matrix) {
    for (d, &g) in m.as_mut_slice().iter_mut().zip(gate.as_slice()) {
        if g <= 0.0 {
            *d = 0.0;
        }
    }
}

proptest! {
    // Every register tile — power-of-two heights up to 16 over `rows` up
    // to 33, widths 1–8 as the whole product or as the remainder beside
    // one or two full tiles — against the naive loop, on operands with
    // signed zeros, infinities, NaN and subnormals.
    #[test]
    fn tiles_of_every_width_and_height_match_the_naive_loop(
        rows in 1usize..34,
        width in 1usize..9,
        full_tiles in 0usize..3,
        inner in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let cols = width + 8 * full_tiles;
        let a = special_matrix(rows, inner, seed);
        let b = special_matrix(inner, cols, seed ^ 0xB);
        let reference = naive_matmul(&a, &b);
        prop_assert!(same_bits(&a.matmul(&b), &reference), "matmul {rows}x{inner}x{cols}");
        prop_assert!(
            same_bits(&a.transpose().matmul_transa(&b), &reference),
            "transa {rows}x{inner}x{cols}"
        );
        prop_assert!(
            same_bits(&a.matmul_transb(&b.transpose()), &reference),
            "transb {rows}x{inner}x{cols}"
        );
    }

    // Each epilogue, fused into matmul's and transb's tile stores, equals
    // the product followed by the loop it replaced, bit for bit.
    #[test]
    fn fused_epilogues_match_the_product_then_the_loop(
        rows in 1usize..34,
        width in 1usize..9,
        full_tiles in 0usize..3,
        inner in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let cols = width + 8 * full_tiles;
        let a = special_matrix(rows, inner, seed);
        let b = special_matrix(inner, cols, seed ^ 0xB);
        let bt = b.transpose();
        let bias = special_matrix(1, cols, seed ^ 0xB1A5).as_slice().to_vec();
        let gate = special_matrix(rows, cols, seed ^ 0x6A7E);
        let product = naive_matmul(&a, &b);

        let mut biased = product.clone();
        add_bias(&mut biased, &bias);
        let mut rectified = biased.clone();
        relu(&mut rectified);
        let mut masked = product;
        mask(&mut masked, &gate);

        let cases = [
            (Epilogue::Bias(&bias), &biased, "bias"),
            (Epilogue::BiasRelu(&bias), &rectified, "bias+relu"),
            (Epilogue::ZeroWhereNonPositive(&gate), &masked, "mask"),
        ];
        let mut out = Matrix::filled(3, 2, f64::NAN);
        for (epilogue, expected, name) in cases {
            a.matmul_epilogue_into(&b, epilogue, &mut out);
            prop_assert!(same_bits(&out, expected), "matmul {name} {rows}x{inner}x{cols}");
            a.matmul_transb_epilogue_into(&bt, epilogue, &mut out);
            prop_assert!(same_bits(&out, expected), "transb {name} {rows}x{inner}x{cols}");
        }
    }
}

/// A transb shared dimension past the 64-deep panel resumes its partial
/// sums across panels; the epilogue must run once, on the last.
#[test]
fn transb_epilogue_runs_after_the_last_panel() {
    for (m, k, n) in [(9usize, 129usize, 13usize), (17, 64, 5), (4, 65, 8)] {
        let a = special_matrix(m, k, 3);
        let b = special_matrix(k, n, 4);
        let gate = special_matrix(m, n, 5);
        let bias = special_matrix(1, n, 6).as_slice().to_vec();
        let mut masked = naive_matmul(&a, &b);
        mask(&mut masked, &gate);
        let mut rectified = naive_matmul(&a, &b);
        add_bias(&mut rectified, &bias);
        relu(&mut rectified);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transb_epilogue_into(
            &b.transpose(),
            Epilogue::ZeroWhereNonPositive(&gate),
            &mut out,
        );
        assert!(same_bits(&out, &masked), "mask {m}x{k}x{n}");
        a.matmul_transb_epilogue_into(&b.transpose(), Epilogue::BiasRelu(&bias), &mut out);
        assert!(same_bits(&out, &rectified), "bias+relu {m}x{k}x{n}");
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

/// Naive matvec reference: output `i` is one [`vector::dot`] of row `i`
/// with `v`, the workspace's reference reduction order.
fn naive_matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..m.rows()).map(|i| vector::dot(m.row(i), v)).collect()
}

/// Naive transposed matvec reference: per output column, one accumulator
/// started at `0.0` and advanced over the rows in ascending order.
fn naive_t_matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..m.cols())
        .map(|c| {
            let mut acc = 0.0;
            for (r, &vr) in v.iter().enumerate() {
                acc += vr * m[(r, c)];
            }
            acc
        })
        .collect()
}

/// Tile-size invariance, phrased against the fixed tile constants: shapes
/// on, below, and across every micro/tile boundary (4-row micro, 8-col
/// micro, 64-row L1 tile, 256-col tile, 64-deep transb panel) and at the
/// layer shapes the paper's MLPs train must all reproduce the naive
/// reference exactly. If a tile edge ever changed an
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
    }
}
