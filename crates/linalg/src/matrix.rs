//! Row-major dense `f64` matrix.

use crate::lanes::{Array, Lanes, Wide};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// The element at row `r`, column `c` lives at `data[r * cols + c]`.
/// Dimensions only change through [`Matrix::resize`], which re-shapes a
/// scratch matrix in place (retaining its allocation); all binary
/// operations panic on dimension mismatch, which in this workspace always
/// indicates a programming error rather than a recoverable condition.
///
/// Every allocating product (`matmul`, `matvec`, …) has an `_into`
/// counterpart that writes into a caller-owned buffer; the `_into` paths
/// perform no heap allocation once the buffer's capacity has reached its
/// high-water mark, which is what makes the warm training loop
/// allocation-free.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Output rows per register tile in the matmul kernels: sixteen
/// accumulators of one 512-bit register each where the build target has
/// AVX-512F (half of its 32 vector registers, which leaves room for the
/// operand loads). Row remainders run in strips of 8, 4, 2 and 1.
#[cfg(target_feature = "avx512f")]
pub const MICRO_ROWS: usize = 16;

/// Output rows per register tile in the matmul kernels: four
/// accumulators of eight lanes each without AVX-512F (eight of AVX2's
/// sixteen 256-bit registers). Row remainders run in strips of 2 and 1.
#[cfg(not(target_feature = "avx512f"))]
pub const MICRO_ROWS: usize = 4;

/// Output columns per register tile in the matmul kernels: one full
/// eight-lane register. A narrower column remainder (the LR/MLP heads' 2–7
/// classes) runs as one tile of its own const width.
pub const MICRO_COLS: usize = 8;

/// Row extent of an output tile in the cache-blocked matmul paths. A
/// `TILE_ROWS x k` block of the left operand stays resident in L1/L2
/// while the micro-kernels sweep one column tile.
pub const TILE_ROWS: usize = 64;

/// Column extent of an output tile in the cache-blocked matmul paths.
/// Sized so a `k x TILE_COLS` panel of the right operand (the data every
/// micro-kernel in the tile re-reads) fits comfortably in L2 for the
/// MLP/CNN shapes this workspace trains (`k` up to a few hundred).
pub const TILE_COLS: usize = 256;

/// Shared-dimension depth of the stack panel [`Matrix::matmul_transb`]
/// packs its right-hand side into: a `TRANSB_PANEL_K x MICRO_COLS` tile
/// (4 KiB), which holds the whole shared dimension of every backprop
/// `delta · W^T` this workspace runs (the layer's output width).
const TRANSB_PANEL_K: usize = 64;

/// Rows `j..j + width` of the right-hand side of a
/// [`Matrix::matmul_transb`], shared indices `p0..`, transposed into a
/// `depth x MICRO_COLS` panel: `data[q * MICRO_COLS + s]` holds
/// `rhs[j + s][p0 + q]`.
struct TransbPanel<'a> {
    data: &'a [f64],
    j: usize,
    width: usize,
    p0: usize,
}

/// What a product's register tiles do to each finished output element as
/// they store it, in place of a pass over the product afterwards.
///
/// Each variant is the exact arithmetic of the loop it replaces — the
/// same IEEE add, the same comparison — so a product with an epilogue is
/// bit-identical to the plain product followed by that loop. The ReLU
/// rules compare and blend: `v < 0.0` becomes `0.0`, so `-0.0` and NaN
/// stay as they are, where `v.max(0.0)` would turn `-0.0` into `+0.0`.
#[derive(Clone, Copy, Debug)]
pub enum Epilogue<'a> {
    /// The product as is.
    None,
    /// `v + bias[j]` at output column `j` (a dense layer's bias).
    Bias(&'a [f64]),
    /// `v + bias[j]`, then `0.0` where that sum is `< 0.0` (a dense
    /// layer's bias and ReLU).
    BiasRelu(&'a [f64]),
    /// `0.0` where `gate[(i, j)] <= 0.0`, `v` elsewhere: ReLU's backward
    /// mask, with `gate` the layer's post-activation output (shaped like
    /// the product).
    ZeroWhereNonPositive(&'a Matrix),
}

impl Epilogue<'_> {
    /// Panics unless the epilogue's operand fits a `rows x cols` product.
    fn check(&self, rows: usize, cols: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => assert_eq!(
                bias.len(),
                cols,
                "epilogue bias has {} entries for {cols} output columns",
                bias.len()
            ),
            Epilogue::ZeroWhereNonPositive(gate) => assert_eq!(
                gate.shape(),
                (rows, cols),
                "epilogue gate shape does not match the {rows}x{cols} product"
            ),
        }
    }
}

/// Evaluates `$call` with the type `$L` bound to the [`Lanes`] form the
/// register tiles use at output width `$width` (1–8): the array form at
/// widths 1, 2 and 4, whose 128- and 256-bit registers run faster than a
/// masked 512-bit one, and [`Wide`] elsewhere.
macro_rules! with_lanes {
    ($width:expr, $L:ident => $call:expr) => {
        match $width {
            1 => {
                type $L = Array<1>;
                $call
            }
            2 => {
                type $L = Array<2>;
                $call
            }
            3 => {
                type $L = Wide<3>;
                $call
            }
            4 => {
                type $L = Array<4>;
                $call
            }
            5 => {
                type $L = Wide<5>;
                $call
            }
            6 => {
                type $L = Wide<6>;
                $call
            }
            7 => {
                type $L = Wide<7>;
                $call
            }
            _ => {
                type $L = Wide<8>;
                $call
            }
        }
    };
}

/// Evaluates `$call` with the const `$R` bound to `$rows`, a height from
/// [`strip_height`].
macro_rules! with_rows {
    ($rows:expr, $R:ident => $call:expr) => {
        match $rows {
            #[cfg(target_feature = "avx512f")]
            16 => {
                const $R: usize = 16;
                $call
            }
            #[cfg(target_feature = "avx512f")]
            8 => {
                const $R: usize = 8;
                $call
            }
            4 => {
                const $R: usize = 4;
                $call
            }
            2 => {
                const $R: usize = 2;
                $call
            }
            _ => {
                const $R: usize = 1;
                $call
            }
        }
    };
}

/// The height of the next row strip when `rows` (at least 1) remain: the
/// largest power of two that fits, up to [`MICRO_ROWS`].
#[inline]
fn strip_height(rows: usize) -> usize {
    (1 << rows.ilog2()).min(MICRO_ROWS)
}

/// Stores an `R x L::WIDTH` register tile at rows `i..i + R`, columns
/// `j..` of `out` (row-major, `n` columns wide), through `epilogue`.
#[inline(always)]
fn store_tile<const R: usize, L: Lanes>(
    acc: &[L; R],
    out: &mut [f64],
    n: usize,
    i: usize,
    j: usize,
    epilogue: Epilogue<'_>,
) {
    assert!(j + L::WIDTH <= n && (i + R) * n <= out.len());
    let dst = out.as_mut_ptr();
    // SAFETY: every element written (and every gate element read) sits at
    // `(i + r) * n + j + l` with `r < R` and `l < L::WIDTH`, which the assert
    // above keeps below `out.len()`; the bias and gate asserts below bound
    // their reads the same way.
    unsafe {
        match epilogue {
            Epilogue::None => {
                for (r, v) in acc.iter().enumerate() {
                    v.store(dst.add((i + r) * n + j));
                }
            }
            Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => {
                assert!(j + L::WIDTH <= bias.len());
                let b = L::load(bias.as_ptr().add(j));
                let relu = matches!(epilogue, Epilogue::BiasRelu(_));
                for (r, v) in acc.iter().enumerate() {
                    let v = v.add(b);
                    let v = if relu { v.relu() } else { v };
                    v.store(dst.add((i + r) * n + j));
                }
            }
            Epilogue::ZeroWhereNonPositive(gate) => {
                assert!(gate.data.len() == out.len());
                for (r, v) in acc.iter().enumerate() {
                    let at = (i + r) * n + j;
                    let g = L::load(gate.data.as_ptr().add(at));
                    v.zero_where_nonpositive(g).store(dst.add(at));
                }
            }
        }
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows: expected {cols}, got {}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Re-shapes this matrix in place to `rows x cols`.
    ///
    /// Intended for scratch/workspace buffers: the backing allocation is
    /// retained, so repeated resizes stop allocating once the buffer's
    /// high-water mark is reached. Entries carried over from the previous
    /// shape keep their (now meaningless) values — callers that need
    /// zeroed contents must clear explicitly.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes this matrix an exact copy of `src`, reusing the existing
    /// allocation when its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        self.col_into(c, &mut out);
        out
    }

    /// Copies column `c` into `out`, reusing its allocation.
    ///
    /// # Panics
    /// Panics if `c >= self.cols()`.
    pub fn col_into(&self, c: usize, out: &mut Vec<f64>) {
        assert!(c < self.cols);
        out.clear();
        out.extend((0..self.rows).map(|r| self[(r, c)]));
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul`] writing into `out`, which is re-shaped to
    /// `self.rows() x rhs.cols()` reusing its allocation. Bit-identical to
    /// the allocating path.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_epilogue_into(rhs, Epilogue::None, out);
    }

    /// [`Self::matmul_into`] with `epilogue` applied to each output
    /// element as its register tile stores it: bit-identical to the plain
    /// product followed by the epilogue's loop, without the second pass.
    ///
    /// Tiling walks `TILE_COLS`-wide column panels and `TILE_ROWS`-tall
    /// row blocks so the right-hand panel a tile re-reads stays cache
    /// resident, with [`MICRO_ROWS`]-tall, [`MICRO_COLS`]-wide register
    /// tiles inside (row remainders in power-of-two strips; a narrower
    /// column remainder as one tile of its width). Each output element
    /// accumulates its terms in plain ascending-`k` order from `0.0`
    /// regardless of tile geometry — the blocking only changes *where*
    /// partial sums live and *when* output elements are produced, never
    /// the order or association of any element's additions — so the
    /// result is bit-identical to the naive k-outer loop.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()` or the epilogue's operand
    /// does not fit the product.
    pub fn matmul_epilogue_into(&self, rhs: &Matrix, epilogue: Epilogue<'_>, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        epilogue.check(self.rows, rhs.cols);
        // No zero-fill: every output element is produced in one register
        // accumulation over the whole shared dimension and stored once.
        out.resize(self.rows, rhs.cols);
        let n = rhs.cols;
        for jc in (0..n).step_by(TILE_COLS) {
            let jc_end = (jc + TILE_COLS).min(n);
            for ic in (0..self.rows).step_by(TILE_ROWS) {
                let ic_end = (ic + TILE_ROWS).min(self.rows);
                let mut i = ic;
                while i < ic_end {
                    let rows = strip_height(ic_end - i);
                    let out = &mut out.data;
                    with_rows!(rows, R => self.matmul_strip::<R>(rhs, i, jc, jc_end, epilogue, out));
                    i += rows;
                }
            }
        }
    }

    /// Output rows `i..i + R`, columns `jc..jc_end` of `self * rhs`:
    /// full-width tiles, then the narrow column remainder — which for a
    /// skinny right-hand side (the LR/MLP head's 2–7 classes) is the
    /// *entire* product — in one const-width tile.
    #[inline]
    fn matmul_strip<const R: usize>(
        &self,
        rhs: &Matrix,
        i: usize,
        jc: usize,
        jc_end: usize,
        epilogue: Epilogue<'_>,
        out: &mut [f64],
    ) {
        let mut j = jc;
        while j + MICRO_COLS <= jc_end {
            self.matmul_tile::<R, Wide<{ MICRO_COLS }>>(rhs, i, j, epilogue, out);
            j += MICRO_COLS;
        }
        if j < jc_end {
            with_lanes!(jc_end - j, L => self.matmul_tile::<R, L>(rhs, i, j, epilogue, out));
        }
    }

    /// `R x L::WIDTH` register tile of `self * rhs`: output rows
    /// `i..i + R`, columns `j..`. All accumulators live in registers, one
    /// `L` per row; terms are added in ascending `k`, matching the naive
    /// loop element-for-element.
    #[inline]
    fn matmul_tile<const R: usize, L: Lanes>(
        &self,
        rhs: &Matrix,
        i: usize,
        j: usize,
        epilogue: Epilogue<'_>,
        out: &mut [f64],
    ) {
        let k = self.cols;
        let n = rhs.cols;
        assert!(i + R <= self.rows && j + L::WIDTH <= n && rhs.rows == k);
        let (a, b) = (self.data.as_ptr(), rhs.data.as_ptr());
        let mut acc = [L::zero(); R];
        for p in 0..k {
            // SAFETY: `p < k = rhs.rows` and `j + L::WIDTH <= n` put
            // `p * n + j + L::WIDTH <= rhs.data.len()`; likewise `i + R <=
            // self.rows` and `p < k` keep every `a` index below
            // `self.data.len()`. Both are established by the assert above;
            // unchecked access hoists the per-`k` bounds checks out of the
            // accumulation loop.
            unsafe {
                let b_row = L::load(b.add(p * n + j));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    *acc_r = acc_r.mul_add(*a.add((i + r) * k + p), b_row);
                }
            }
        }
        store_tile(&acc, out, n, i, j, epilogue);
    }

    /// Fused transposed product `self^T * rhs` without materializing the
    /// transpose.
    ///
    /// Every output element accumulates its terms in ascending shared-row
    /// order, exactly like `self.transpose().matmul(rhs)`, so the result
    /// is bit-identical to the two-step form.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_transa(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transa_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul_transa`] writing into `out`, which is re-shaped to
    /// `self.cols() x rhs.cols()` reusing its allocation.
    ///
    /// Output rows (columns of `self`) go in strips of [`MICRO_ROWS`]
    /// (remainders in power-of-two strips), each strip in
    /// [`MICRO_COLS`]-wide register tiles plus one 1–7-wide remainder
    /// tile. Every output element is produced in one register accumulation
    /// over all shared rows in ascending order, exactly like the naive
    /// loop, so results are bit-identical to
    /// `self.transpose().matmul(rhs)` and no zero-fill is needed.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_transa_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transa dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.cols, rhs.cols);
        let mut c = 0;
        while c < self.cols {
            let rows = strip_height(self.cols - c);
            let out = &mut out.data;
            with_rows!(rows, R => self.matmul_transa_strip::<R>(rhs, c, out));
            c += rows;
        }
    }

    /// Output rows `c..c + R` of `self^T * rhs`, all columns: full-width
    /// tiles, then the narrow column remainder — which for a skinny
    /// right-hand side (the LR/MLP head's 2–7 classes) is the *entire*
    /// product — in one const-width tile.
    #[inline]
    fn matmul_transa_strip<const R: usize>(&self, rhs: &Matrix, c: usize, out: &mut [f64]) {
        let n = rhs.cols;
        let mut j = 0;
        while j + MICRO_COLS <= n {
            self.matmul_transa_tile::<R, Wide<{ MICRO_COLS }>>(rhs, c, j, out);
            j += MICRO_COLS;
        }
        if j < n {
            with_lanes!(n - j, L => self.matmul_transa_tile::<R, L>(rhs, c, j, out));
        }
    }

    /// `R x L::WIDTH` register tile of `self^T * rhs`: output rows
    /// `c..c + R`, columns `j..`, accumulated over all shared rows in
    /// ascending order with register-resident partial sums, then written
    /// once.
    #[inline]
    fn matmul_transa_tile<const R: usize, L: Lanes>(
        &self,
        rhs: &Matrix,
        c: usize,
        j: usize,
        out: &mut [f64],
    ) {
        let n = rhs.cols;
        let k = self.cols;
        assert!(c + R <= k && j + L::WIDTH <= n && rhs.rows == self.rows);
        let (a, b) = (self.data.as_ptr(), rhs.data.as_ptr());
        let mut acc = [L::zero(); R];
        for r in 0..self.rows {
            // SAFETY: `r < self.rows = rhs.rows`, `c + R <= k`, and
            // `j + L::WIDTH <= n` (asserted above) bound every index below the
            // respective buffer lengths; unchecked access hoists the
            // per-row bounds checks out of the accumulation loop.
            unsafe {
                let b_row = L::load(b.add(r * n + j));
                for (q, acc_q) in acc.iter_mut().enumerate() {
                    *acc_q = acc_q.mul_add(*a.add(r * k + c + q), b_row);
                }
            }
        }
        store_tile(&acc, out, n, c, j, Epilogue::None);
    }

    /// Fused transposed product `self * rhs^T` without materializing the
    /// transpose.
    ///
    /// Every output element is a plain ascending-k dot of two rows,
    /// exactly the accumulation order of `self.matmul(&rhs.transpose())`,
    /// so the result is bit-identical to the two-step form.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transb(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transb_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul_transb`] writing into `out`, which is re-shaped to
    /// `self.rows() x rhs.rows()` reusing its allocation.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transb_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_transb_epilogue_into(rhs, Epilogue::None, out);
    }

    /// [`Self::matmul_transb_into`] with `epilogue` applied to each output
    /// element as its register tile stores it: bit-identical to the plain
    /// product followed by the epilogue's loop, without the second pass.
    ///
    /// For each [`MICRO_COLS`]-wide group of output columns, the matching
    /// `rhs` rows are transposed into a stack panel, so the sweep over
    /// output rows runs `R x N` register tiles with one contiguous panel
    /// load per shared index — the matmul tile's shape — instead of a
    /// strided gather. A shared dimension longer than the panel depth
    /// takes several panels, each resuming the partial sums the previous
    /// one wrote (a store and reload is exact); the epilogue runs with the
    /// last. Every element is one ascending-`k` dot, so the result is
    /// bit-identical to `matmul` against a materialized transpose.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()` or the epilogue's operand
    /// does not fit the product.
    pub fn matmul_transb_epilogue_into(
        &self,
        rhs: &Matrix,
        epilogue: Epilogue<'_>,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transb dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        epilogue.check(self.rows, rhs.rows);
        out.resize(self.rows, rhs.rows);
        let (m, n, k) = (self.rows, rhs.rows, self.cols);
        let mut tile = [0.0f64; TRANSB_PANEL_K * MICRO_COLS];
        for j in (0..n).step_by(MICRO_COLS) {
            let width = (n - j).min(MICRO_COLS);
            // At least one panel, so an empty shared dimension still
            // stores its zero sums through the epilogue.
            let mut p0 = 0;
            loop {
                let depth = (k - p0).min(TRANSB_PANEL_K);
                for (s, b_row) in
                    rhs.data[j * k..(j + width) * k].chunks_exact(k.max(1)).enumerate()
                {
                    for (q, &v) in b_row[p0..p0 + depth].iter().enumerate() {
                        tile[q * MICRO_COLS + s] = v;
                    }
                }
                let panel = TransbPanel { data: &tile[..depth * MICRO_COLS], j, width, p0 };
                let last = p0 + depth == k;
                let epilogue = if last { epilogue } else { Epilogue::None };
                let mut i = 0;
                while i < m {
                    let rows = strip_height(m - i);
                    let out = &mut out.data;
                    with_rows!(rows, R => self.matmul_transb_strip::<R>(&panel, i, n, epilogue, out));
                    i += rows;
                }
                if last {
                    break;
                }
                p0 += depth;
            }
        }
    }

    /// Output rows `i..i + R` of `self * rhs^T` against one packed panel,
    /// as one register tile of the panel's width (1–[`MICRO_COLS`]).
    #[inline]
    fn matmul_transb_strip<const R: usize>(
        &self,
        panel: &TransbPanel<'_>,
        i: usize,
        n: usize,
        epilogue: Epilogue<'_>,
        out: &mut [f64],
    ) {
        with_lanes!(panel.width, L => self.matmul_transb_tile::<R, L>(panel, i, n, epilogue, out));
    }

    /// `R x L::WIDTH` register tile of `self * rhs^T`: output rows
    /// `i..i + R`, columns `panel.j..` of an output `n` columns wide, over
    /// the panel's shared indices. The accumulators start at zero on the
    /// first panel and resume the stored partial sums on later ones, so
    /// each element's terms are added in plain ascending-`k` order.
    #[inline]
    fn matmul_transb_tile<const R: usize, L: Lanes>(
        &self,
        panel: &TransbPanel<'_>,
        i: usize,
        n: usize,
        epilogue: Epilogue<'_>,
        out: &mut [f64],
    ) {
        let k = self.cols;
        let depth = panel.data.len() / MICRO_COLS;
        assert!(
            i + R <= self.rows
                && panel.p0 + depth <= k
                && panel.j + L::WIDTH <= n
                && (i + R) * n <= out.len()
        );
        let mut acc = [L::zero(); R];
        if panel.p0 > 0 {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: `(i + r) * n + panel.j + L::WIDTH <= (i + R) * n
                // <= out.len()` by the assert above.
                *acc_r = unsafe { L::load(out.as_ptr().add((i + r) * n + panel.j)) };
            }
        }
        let (a, b) = (self.data.as_ptr(), panel.data.as_ptr());
        for q in 0..depth {
            // SAFETY: `q < depth` and `L::WIDTH <= MICRO_COLS` keep
            // `q * MICRO_COLS + L::WIDTH <= panel.data.len()`; `i + R <= self.rows`
            // and `panel.p0 + q < k` keep every `a` index below
            // `self.data.len()`. Both are established by the assert above;
            // unchecked access hoists the per-step bounds checks out of
            // the accumulation loop.
            unsafe {
                let b_row = L::load(b.add(q * MICRO_COLS));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    *acc_r = acc_r.mul_add(*a.add((i + r) * k + panel.p0 + q), b_row);
                }
            }
        }
        store_tile(&acc, out, n, i, panel.j, epilogue);
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(v, &mut out);
        out
    }

    /// [`Self::matvec`] writing into `out`, reusing its allocation.
    /// Bit-identical to the allocating path.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        out.clear();
        out.extend(self.row_iter().map(|row| crate::vector::dot(row, v)));
    }

    /// Transposed matrix-vector product `self^T * v`: one pass over the
    /// rows in ascending order, each adding `v[r] * row(r)` into the
    /// output.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cols);
        self.t_matvec_into(v, &mut out);
        out
    }

    /// [`Self::t_matvec`] writing into `out`, reusing its allocation.
    /// Bit-identical to the allocating path and allocation-free once
    /// `out` has held `self.cols()` elements.
    ///
    /// Each row contributes through the wide-lane [`crate::vector::axpy`]
    /// core; axpy is element-wise, so the unroll width never changes any
    /// element's accumulation order and the result stays bit-identical to
    /// the scalar loop.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn t_matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "t_matvec dimension mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        for (r, &vr) in v.iter().enumerate() {
            crate::vector::axpy(out, vr, self.row(r));
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns a matrix whose entries are drawn uniformly from
    /// `[-limit, limit]` using the supplied RNG (Xavier/Glorot-style init).
    pub fn random_uniform<R: rand::Rng>(rows: usize, cols: usize, limit: f64, rng: &mut R) -> Self {
        use rand::RngExt as _;
        let data = (0..rows * cols).map(|_| rng.random_range(-limit..=limit)).collect();
        Self { rows, cols, data }
    }

    /// Sums each column into a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.column_sums_into(&mut out);
        out
    }

    /// [`Self::column_sums`] writing into `out` (every element is
    /// overwritten). Bit-identical to the allocating path.
    ///
    /// # Panics
    /// Panics if `out.len() != self.cols()`.
    pub fn column_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "column_sums_into length mismatch");
        out.fill(0.0);
        for row in self.row_iter() {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
    }

    /// Means of each column; empty matrix yields all zeros.
    pub fn column_means(&self) -> Vec<f64> {
        let mut sums = self.column_sums();
        if self.rows > 0 {
            let inv = 1.0 / self.rows as f64;
            for s in &mut sums {
                *s *= inv;
            }
        }
        sums
    }

    /// Returns a new matrix containing the given rows (in order).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }

    /// Returns a new matrix holding the contiguous row range
    /// `start..end` — equivalent to `select_rows` over consecutive
    /// indices, without building an index vector.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.copy_row_range_into(start, end, &mut out);
        out
    }

    /// [`Self::slice_rows`] writing into `out`, reusing its allocation.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn copy_row_range_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.rows,
            "row range {start}..{end} out of bounds for {} rows",
            self.rows
        );
        out.resize(end - start, self.cols);
        out.data.copy_from_slice(&self.data[start * self.cols..end * self.cols]);
    }

    /// Stacks two matrices vertically.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, below: &Matrix) -> Matrix {
        assert_eq!(self.cols, below.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + below.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&below.data);
        Matrix { rows: self.rows + below.rows, cols: self.cols, data }
    }

    /// True when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn matvec_and_t_matvec_agree_with_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }

    #[test]
    fn column_means_average_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(m.column_means(), vec![2.0, 4.0]);
    }

    #[test]
    fn select_rows_and_vstack() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let picked = m.select_rows(&[2, 0]);
        assert_eq!(picked.row(0), &[3.0]);
        assert_eq!(picked.row(1), &[1.0]);
        let stacked = picked.vstack(&m);
        assert_eq!(stacked.rows(), 5);
        assert_eq!(stacked.row(4), &[3.0]);
    }

    #[test]
    fn random_uniform_respects_limit_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::random_uniform(10, 10, 0.3, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (-0.3..=0.3).contains(&x)));
        let mut rng2 = StdRng::seed_from_u64(7);
        let m2 = Matrix::random_uniform(10, 10, 0.3, &mut rng2);
        assert_eq!(m, m2);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    fn arange(rows: usize, cols: usize, scale: f64) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| (i as f64 - 3.0) * scale).collect())
    }

    #[test]
    fn transa_matches_two_step_transpose_matmul() {
        let a = arange(5, 3, 0.7);
        let b = arange(5, 4, -0.31);
        assert_eq!(a.matmul_transa(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transb_matches_two_step_transpose_matmul() {
        let a = arange(4, 6, 0.13);
        let b = arange(3, 6, 0.57);
        assert_eq!(a.matmul_transb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn into_variants_reuse_buffers_across_shapes() {
        let mut out = Matrix::zeros(7, 7);
        let mut v_out = Vec::new();
        for rows in [2usize, 6, 3] {
            let a = arange(rows, 3, 0.2);
            let b = arange(3, 2, 0.9);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, a.matmul(&b));
            let v: Vec<f64> = (0..3).map(|i| i as f64 - 1.0).collect();
            a.matvec_into(&v, &mut v_out);
            assert_eq!(v_out, a.matvec(&v));
            let w: Vec<f64> = (0..rows).map(|i| 0.5 - i as f64).collect();
            a.t_matvec_into(&w, &mut v_out);
            assert_eq!(v_out, a.t_matvec(&w));
            let mut sums = vec![0.0; 3];
            a.column_sums_into(&mut sums);
            assert_eq!(sums, a.column_sums());
        }
    }

    #[test]
    fn resize_retains_capacity_and_copy_from_round_trips() {
        let src = arange(4, 2, 1.0);
        let mut dst = Matrix::zeros(1, 1);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.resize(2, 2);
        assert_eq!(dst.shape(), (2, 2));
        assert_eq!(dst.as_slice(), &src.as_slice()[..4]);
    }

    #[test]
    fn slice_rows_matches_select_rows() {
        let m = arange(6, 3, 0.4);
        let idx: Vec<usize> = (1..4).collect();
        assert_eq!(m.slice_rows(1, 4), m.select_rows(&idx));
        assert_eq!(m.slice_rows(0, 0).rows(), 0);
    }

    #[test]
    fn col_into_matches_col() {
        let m = arange(5, 3, 0.8);
        let mut out = vec![99.0; 7];
        m.col_into(2, &mut out);
        assert_eq!(out, m.col(2));
    }
}
