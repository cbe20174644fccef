//! Row-major dense `f64` matrix.

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

/// Minimum `rows * cols * rhs.cols` before [`Matrix::matmul`] goes
/// parallel; below this the channel round-trip costs more than the math.
pub const PAR_MATMUL_MIN_FLOPS: usize = 64 * 1024;

/// Minimum `rows * cols` before [`Matrix::matvec`] goes parallel.
pub const PAR_MATVEC_MIN_ELEMS: usize = 64 * 1024;

/// Fixed accumulation chunk for [`Matrix::t_matvec`]. Partial sums are
/// produced per chunk and combined in chunk order, so results depend on
/// this constant and the row count — never on the thread count.
pub const T_MATVEC_CHUNK_ROWS: usize = 256;

/// Rows per register block in the tiled matmul micro-kernels.
///
/// Together with [`MICRO_COLS`] this sizes the accumulator footprint:
/// `4 x 8` f64 accumulators fill four 512-bit registers (or eight
/// 256-bit ones), leaving room for the operand broadcasts.
pub const MICRO_ROWS: usize = 4;

/// Columns per register block in the tiled matmul micro-kernels — one
/// full [`crate::vector::WIDE_LANES`] vector of output columns.
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
    /// Uses the i-k-j loop order so the inner loop walks both operands
    /// contiguously, which matters for the hot MLP forward/backward passes.
    /// Large products are split across the global worker pool by output
    /// row; each row's arithmetic is unchanged, so the result is
    /// bit-identical to the serial computation for any thread count.
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
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        // No zero-fill: every output element is fully overwritten by the
        // band kernel below (each is produced in one register
        // accumulation over the whole shared dimension).
        let flops = self.rows * self.cols * rhs.cols;
        if self.rows < 2 || flops < PAR_MATMUL_MIN_FLOPS || crate::pool::configured_threads() == 1 {
            self.matmul_band_into(rhs, 0, self.rows, &mut out.data);
            return;
        }
        self.matmul_pooled_into(rhs, out, &crate::pool::global());
    }

    /// [`Self::matmul`] on an explicit pool, bypassing the size gate.
    /// Exposed so tests can compare pool sizes side by side.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_with(&self, rhs: &Matrix, pool: &crate::pool::WorkerPool) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_pooled_into(rhs, &mut out, pool);
        out
    }

    /// Pooled matmul body; `out` must have shape `self.rows x rhs.cols`
    /// (every element is overwritten). Output rows are partitioned into
    /// bands aligned to the [`MICRO_ROWS`] register tiling, and each band
    /// runs the same cache-blocked kernel as the serial path; each output
    /// element still accumulates in plain ascending-`k` order, so the
    /// result is bit-identical for any thread count.
    fn matmul_pooled_into(&self, rhs: &Matrix, out: &mut Matrix, pool: &crate::pool::WorkerPool) {
        if self.rows == 0 {
            return;
        }
        let out_cols = rhs.cols.max(1);
        // Band boundaries land on micro-tile edges so no task splits a
        // register block.
        let chunk_rows = self.rows.div_ceil(pool.threads()).next_multiple_of(MICRO_ROWS);
        let tasks: Vec<crate::pool::Task<'_>> = out
            .data
            .chunks_mut((chunk_rows * out_cols).max(1))
            .enumerate()
            .map(|(chunk, out_chunk)| {
                let row0 = chunk * chunk_rows;
                let rows_here = out_chunk.len() / out_cols;
                Box::new(move || {
                    self.matmul_band_into(rhs, row0, row0 + rows_here, out_chunk);
                }) as crate::pool::Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Cache-blocked `self * rhs` over the output row band `[i0, i1)`;
    /// `out_band` is the corresponding slice of the output buffer (row
    /// `i` lives at offset `(i - i0) * rhs.cols`). Prior contents are
    /// ignored: every element is overwritten.
    ///
    /// Tiling walks `TILE_COLS`-wide column panels and `TILE_ROWS`-tall
    /// row blocks so the right-hand panel a tile re-reads stays cache
    /// resident, with a `MICRO_ROWS x MICRO_COLS` register micro-kernel
    /// inside. Each output element accumulates its terms in plain
    /// ascending-`k` order regardless of tile or band geometry — the
    /// blocking only changes *where* partial sums live and *when* output
    /// elements are produced, never the order or association of any
    /// element's additions — so the result is bit-identical to the naive
    /// k-outer loop, for any tile sizes and any thread count.
    fn matmul_band_into(&self, rhs: &Matrix, i0: usize, i1: usize, out_band: &mut [f64]) {
        let n = rhs.cols;
        if n == 0 || i1 <= i0 {
            return;
        }
        debug_assert_eq!(out_band.len(), (i1 - i0) * n);
        for jc in (0..n).step_by(TILE_COLS) {
            let jc_end = (jc + TILE_COLS).min(n);
            for ic in (i0..i1).step_by(TILE_ROWS) {
                let ic_end = (ic + TILE_ROWS).min(i1);
                let mut i = ic;
                while i + MICRO_ROWS <= ic_end {
                    let mut j = jc;
                    while j + MICRO_COLS <= jc_end {
                        self.matmul_micro::<{ MICRO_COLS }>(rhs, i, j, i0, out_band);
                        j += MICRO_COLS;
                    }
                    // Narrow column remainder: keep the 4-row register
                    // blocking (one `b` row load serves four output rows)
                    // instead of falling back to row-at-a-time — this is
                    // the *entire* matmul for skinny outputs like the
                    // LR/MLP head (2–8 classes).
                    match jc_end - j {
                        0 => {}
                        1 => self.matmul_micro::<1>(rhs, i, j, i0, out_band),
                        2 => self.matmul_micro::<2>(rhs, i, j, i0, out_band),
                        3 => self.matmul_micro::<3>(rhs, i, j, i0, out_band),
                        4 => self.matmul_micro::<4>(rhs, i, j, i0, out_band),
                        5 => self.matmul_micro::<5>(rhs, i, j, i0, out_band),
                        6 => self.matmul_micro::<6>(rhs, i, j, i0, out_band),
                        _ => self.matmul_micro::<7>(rhs, i, j, i0, out_band),
                    }
                    i += MICRO_ROWS;
                }
                for r in i..ic_end {
                    let base = (r - i0) * n;
                    Self::matmul_row_range_into(
                        self.row(r),
                        rhs,
                        jc,
                        &mut out_band[base + jc..base + jc_end],
                    );
                }
            }
        }
    }

    /// `MICRO_ROWS x N` register micro-kernel: computes output rows
    /// `i..i + MICRO_ROWS`, columns `j..j + N` of `self * rhs` into
    /// `out_band` (band starting at output row `i0`). `N = MICRO_COLS`
    /// is the full-width tile interior; `N < MICRO_COLS` serves the
    /// column remainder and skinny outputs. All accumulators live in
    /// registers; terms are added in ascending `k`, matching the naive
    /// loop element-for-element.
    #[inline]
    fn matmul_micro<const N: usize>(
        &self,
        rhs: &Matrix,
        i: usize,
        j: usize,
        i0: usize,
        out_band: &mut [f64],
    ) {
        let k = self.cols;
        let n = rhs.cols;
        assert!(i + MICRO_ROWS <= self.rows && j + N <= n && rhs.rows == k);
        let a = &self.data;
        let b = &rhs.data;
        let mut acc = [[0.0f64; N]; MICRO_ROWS];
        for p in 0..k {
            // SAFETY: `p < k = rhs.rows` and `j + N <= n` put
            // `p * n + j + N <= rhs.data.len()`; likewise
            // `i + MICRO_ROWS <= self.rows` and `p < k` keep every `a`
            // index below `self.data.len()`. Both are established by the
            // assert above; unchecked access hoists the per-`k` bounds
            // checks out of the FMA loop.
            unsafe {
                let b_row = b.get_unchecked(p * n + j..p * n + j + N);
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a_v = *a.get_unchecked((i + r) * k + p);
                    for l in 0..N {
                        acc_r[l] += a_v * b_row[l];
                    }
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let base = (i + r - i0) * n + j;
            out_band[base..base + N].copy_from_slice(acc_r);
        }
    }

    /// Columns `j0..j0 + out_row.len()` of one output row of
    /// `self * rhs` (whose prior contents are ignored; every element is
    /// overwritten).
    ///
    /// Each output element accumulates its terms in plain ascending-`k`
    /// order — the register blocking below only changes *where* the
    /// partial sums live (a fixed-size accumulator array instead of the
    /// output slice), never the order or association of the additions, so
    /// the result is bit-identical to the naive k-outer loop.
    #[inline]
    fn matmul_row_range_into(a_row: &[f64], rhs: &Matrix, j0: usize, out_row: &mut [f64]) {
        let mut j = j0;
        let end = j0 + out_row.len();
        while end - j >= MICRO_COLS {
            Self::matmul_row_block::<{ MICRO_COLS }>(
                a_row,
                rhs,
                j,
                &mut out_row[j - j0..j - j0 + MICRO_COLS],
            );
            j += MICRO_COLS;
        }
        let rest = &mut out_row[j - j0..];
        match rest.len() {
            0 => {}
            1 => Self::matmul_row_block::<1>(a_row, rhs, j, rest),
            2 => Self::matmul_row_block::<2>(a_row, rhs, j, rest),
            3 => Self::matmul_row_block::<3>(a_row, rhs, j, rest),
            4 => Self::matmul_row_block::<4>(a_row, rhs, j, rest),
            5 => Self::matmul_row_block::<5>(a_row, rhs, j, rest),
            6 => Self::matmul_row_block::<6>(a_row, rhs, j, rest),
            _ => Self::matmul_row_block::<7>(a_row, rhs, j, rest),
        }
    }

    /// One `N`-wide column block of a matmul output row: `out[j] =
    /// Σ_k a_row[k] · rhs[k][j0+j]`, terms added in ascending `k` with a
    /// per-column register accumulator (constant `N` lets the chains
    /// vectorize).
    #[inline]
    fn matmul_row_block<const N: usize>(a_row: &[f64], rhs: &Matrix, j0: usize, out: &mut [f64]) {
        let cols = rhs.cols.max(1);
        assert!(j0 + N <= cols && a_row.len() * cols <= rhs.data.len());
        let mut acc = [0.0f64; N];
        for (p, &a_ik) in a_row.iter().enumerate() {
            // SAFETY: `p < a_row.len()` and `j0 + N <= cols` keep
            // `p * cols + j0 + N <= rhs.data.len()` per the assert above;
            // unchecked access hoists the per-`k` re-slice bounds check
            // out of the accumulation loop.
            let b = unsafe { rhs.data.get_unchecked(p * cols + j0..p * cols + j0 + N) };
            for j in 0..N {
                acc[j] += a_ik * b[j];
            }
        }
        out.copy_from_slice(&acc);
    }

    /// Fused transposed product `self^T * rhs` without materializing the
    /// transpose.
    ///
    /// Every output element accumulates its terms in ascending shared-row
    /// order, exactly like `self.transpose().matmul(rhs)`, so the result
    /// is bit-identical to the two-step form (and across thread counts).
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
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_transa_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transa dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.cols, rhs.cols);
        // No zero-fill: the band kernel produces every output element in
        // one register accumulation over all shared rows, for every width
        // (backprop's `input^T · delta` with 2–7 classes included) and
        // every row remainder (e.g. 10 features).
        let flops = self.rows * self.cols * rhs.cols;
        if self.cols < 2 || flops < PAR_MATMUL_MIN_FLOPS || crate::pool::configured_threads() == 1 {
            self.matmul_transa_band_into(rhs, 0, self.cols, &mut out.data);
            return;
        }
        self.matmul_transa_pooled_into(rhs, out, &crate::pool::global());
    }

    /// Register-blocked `self^T * rhs` over output rows `[c0, c1)`
    /// (columns of `self`); `out_band` is the corresponding slice of the
    /// output buffer (prior contents ignored: every element is
    /// overwritten). Output rows go in strips of [`MICRO_ROWS`] (the last
    /// strip of a band 1–3 rows tall), each strip in [`MICRO_COLS`]-wide
    /// register tiles plus one 1–7-wide remainder tile. Each output
    /// element accumulates in ascending shared-row order exactly like the
    /// naive loop, for any band geometry, so results are bit-identical to
    /// `self.transpose().matmul(rhs)`.
    fn matmul_transa_band_into(&self, rhs: &Matrix, c0: usize, c1: usize, out_band: &mut [f64]) {
        if rhs.cols == 0 || c1 <= c0 {
            return;
        }
        debug_assert_eq!(out_band.len(), (c1 - c0) * rhs.cols);
        let mut c = c0;
        while c < c1 {
            let rows = (c1 - c).min(MICRO_ROWS);
            match rows {
                MICRO_ROWS => self.matmul_transa_strip::<{ MICRO_ROWS }>(rhs, c, c0, out_band),
                3 => self.matmul_transa_strip::<3>(rhs, c, c0, out_band),
                2 => self.matmul_transa_strip::<2>(rhs, c, c0, out_band),
                _ => self.matmul_transa_strip::<1>(rhs, c, c0, out_band),
            }
            c += rows;
        }
    }

    /// Output rows `c..c + R` of `self^T * rhs`, all columns: full-width
    /// tiles, then the narrow column remainder — which for a skinny
    /// right-hand side (the LR/MLP head's 2–7 classes) is the *entire*
    /// product — in one const-width tile.
    #[inline]
    fn matmul_transa_strip<const R: usize>(
        &self,
        rhs: &Matrix,
        c: usize,
        c0: usize,
        out_band: &mut [f64],
    ) {
        let n = rhs.cols;
        let mut j = 0;
        while j + MICRO_COLS <= n {
            self.matmul_transa_micro::<R, { MICRO_COLS }>(rhs, c, j, c0, out_band);
            j += MICRO_COLS;
        }
        match n - j {
            0 => {}
            1 => self.matmul_transa_micro::<R, 1>(rhs, c, j, c0, out_band),
            2 => self.matmul_transa_micro::<R, 2>(rhs, c, j, c0, out_band),
            3 => self.matmul_transa_micro::<R, 3>(rhs, c, j, c0, out_band),
            4 => self.matmul_transa_micro::<R, 4>(rhs, c, j, c0, out_band),
            5 => self.matmul_transa_micro::<R, 5>(rhs, c, j, c0, out_band),
            6 => self.matmul_transa_micro::<R, 6>(rhs, c, j, c0, out_band),
            _ => self.matmul_transa_micro::<R, 7>(rhs, c, j, c0, out_band),
        }
    }

    /// `R x N` register tile of `self^T * rhs`: output rows `c..c + R`,
    /// columns `j..j + N`, accumulated over all shared rows in ascending
    /// order with register-resident partial sums, then written once.
    #[inline]
    fn matmul_transa_micro<const R: usize, const N: usize>(
        &self,
        rhs: &Matrix,
        c: usize,
        j: usize,
        c0: usize,
        out_band: &mut [f64],
    ) {
        let n = rhs.cols;
        let k = self.cols;
        assert!(c + R <= k && j + N <= n && rhs.rows == self.rows);
        let a = &self.data;
        let b = &rhs.data;
        let mut acc = [[0.0f64; N]; R];
        for r in 0..self.rows {
            // SAFETY: `r < self.rows = rhs.rows`, `c + R <= k`, and
            // `j + N <= n` (asserted above) bound every index below the
            // respective buffer lengths; unchecked access hoists the
            // per-row bounds checks out of the FMA loop.
            unsafe {
                let a_row = a.get_unchecked(r * k + c..r * k + c + R);
                let b_row = b.get_unchecked(r * n + j..r * n + j + N);
                for (acc_c, &a_rc) in acc.iter_mut().zip(a_row) {
                    for l in 0..N {
                        acc_c[l] += a_rc * b_row[l];
                    }
                }
            }
        }
        for (row_idx, acc_c) in acc.iter().enumerate() {
            let base = (c + row_idx - c0) * n + j;
            out_band[base..base + N].copy_from_slice(acc_c);
        }
    }

    /// [`Self::matmul_transa`] on an explicit pool, bypassing the size
    /// gate. Exposed so tests can compare pool sizes side by side.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_transa_with(&self, rhs: &Matrix, pool: &crate::pool::WorkerPool) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transa dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_transa_pooled_into(rhs, &mut out, pool);
        out
    }

    /// Pooled `self^T * rhs` body; `out` must have shape
    /// `self.cols x rhs.cols` (every element is overwritten). Output rows
    /// (columns of `self`) are partitioned into micro-tile-aligned bands
    /// running the blocked kernel; each output element is produced wholly
    /// within one task by ascending shared-row accumulation, so there are
    /// no split reductions and the result is thread-count invariant.
    fn matmul_transa_pooled_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        pool: &crate::pool::WorkerPool,
    ) {
        if self.cols == 0 {
            return;
        }
        let out_cols = rhs.cols.max(1);
        let chunk_rows = self.cols.div_ceil(pool.threads()).next_multiple_of(MICRO_ROWS);
        let tasks: Vec<crate::pool::Task<'_>> = out
            .data
            .chunks_mut((chunk_rows * out_cols).max(1))
            .enumerate()
            .map(|(chunk, out_chunk)| {
                let c0 = chunk * chunk_rows;
                let rows_here = out_chunk.len() / out_cols;
                Box::new(move || {
                    self.matmul_transa_band_into(rhs, c0, c0 + rows_here, out_chunk);
                }) as crate::pool::Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Fused transposed product `self * rhs^T` without materializing the
    /// transpose.
    ///
    /// Every output element is a plain ascending-k dot of two rows,
    /// exactly the accumulation order of `self.matmul(&rhs.transpose())`,
    /// so the result is bit-identical to the two-step form (and across
    /// thread counts).
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
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transb dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.rows);
        let flops = self.rows * self.cols * rhs.rows;
        if self.rows < 2 || flops < PAR_MATMUL_MIN_FLOPS || crate::pool::configured_threads() == 1 {
            self.matmul_transb_band_into(rhs, 0, self.rows, &mut out.data);
            return;
        }
        self.matmul_transb_pooled_into(rhs, out, &crate::pool::global());
    }

    /// Register-blocked `self * rhs^T` over output rows `[i0, i1)`;
    /// `out_band` is the corresponding slice of the output buffer (prior
    /// contents ignored: every element is overwritten). For each
    /// [`MICRO_COLS`]-wide group of output columns, the matching `rhs`
    /// rows are transposed into a stack panel, so the sweep over output
    /// rows runs `R x N` register tiles with one contiguous panel load per
    /// shared index — the matmul micro-kernel's shape — instead of a
    /// strided gather. A shared dimension longer than [`TRANSB_PANEL_K`]
    /// takes several panels, each resuming the partial sums the previous
    /// one wrote (a store and reload is exact). Every element is one
    /// ascending-`k` dot, so the result is bit-identical to `matmul`
    /// against a materialized transpose for any band geometry or thread
    /// count.
    fn matmul_transb_band_into(&self, rhs: &Matrix, i0: usize, i1: usize, out_band: &mut [f64]) {
        let n = rhs.rows;
        let k = self.cols;
        if n == 0 || i1 <= i0 {
            return;
        }
        debug_assert_eq!(out_band.len(), (i1 - i0) * n);
        if k == 0 {
            out_band.fill(0.0);
            return;
        }
        let mut tile = [0.0f64; TRANSB_PANEL_K * MICRO_COLS];
        for j in (0..n).step_by(MICRO_COLS) {
            let width = (n - j).min(MICRO_COLS);
            for p0 in (0..k).step_by(TRANSB_PANEL_K) {
                let depth = (k - p0).min(TRANSB_PANEL_K);
                for (s, b_row) in rhs.data[j * k..(j + width) * k].chunks_exact(k).enumerate() {
                    for (q, &v) in b_row[p0..p0 + depth].iter().enumerate() {
                        tile[q * MICRO_COLS + s] = v;
                    }
                }
                let panel = TransbPanel { data: &tile[..depth * MICRO_COLS], j, width, p0 };
                let mut i = i0;
                while i < i1 {
                    let rows = (i1 - i).min(MICRO_ROWS);
                    match rows {
                        MICRO_ROWS => {
                            self.matmul_transb_strip::<{ MICRO_ROWS }>(&panel, i, i0, n, out_band)
                        }
                        3 => self.matmul_transb_strip::<3>(&panel, i, i0, n, out_band),
                        2 => self.matmul_transb_strip::<2>(&panel, i, i0, n, out_band),
                        _ => self.matmul_transb_strip::<1>(&panel, i, i0, n, out_band),
                    }
                    i += rows;
                }
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
        i0: usize,
        n: usize,
        out_band: &mut [f64],
    ) {
        match panel.width {
            MICRO_COLS => self.matmul_transb_micro::<R, { MICRO_COLS }>(panel, i, i0, n, out_band),
            1 => self.matmul_transb_micro::<R, 1>(panel, i, i0, n, out_band),
            2 => self.matmul_transb_micro::<R, 2>(panel, i, i0, n, out_band),
            3 => self.matmul_transb_micro::<R, 3>(panel, i, i0, n, out_band),
            4 => self.matmul_transb_micro::<R, 4>(panel, i, i0, n, out_band),
            5 => self.matmul_transb_micro::<R, 5>(panel, i, i0, n, out_band),
            6 => self.matmul_transb_micro::<R, 6>(panel, i, i0, n, out_band),
            _ => self.matmul_transb_micro::<R, 7>(panel, i, i0, n, out_band),
        }
    }

    /// `R x N` register tile of `self * rhs^T`: output rows `i..i + R`,
    /// columns `panel.j..panel.j + N` of an output `n` columns wide, over
    /// the panel's shared indices. The accumulators start at zero on the
    /// first panel and resume the stored partial sums on later ones, so
    /// each element's terms are added in plain ascending-`k` order.
    #[inline]
    fn matmul_transb_micro<const R: usize, const N: usize>(
        &self,
        panel: &TransbPanel<'_>,
        i: usize,
        i0: usize,
        n: usize,
        out_band: &mut [f64],
    ) {
        let k = self.cols;
        let depth = panel.data.len() / MICRO_COLS;
        assert!(i + R <= self.rows && panel.p0 + depth <= k && N <= MICRO_COLS && panel.j + N <= n);
        let mut acc = [[0.0f64; N]; R];
        if panel.p0 > 0 {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let base = (i + r - i0) * n + panel.j;
                acc_r.copy_from_slice(&out_band[base..base + N]);
            }
        }
        let a = &self.data;
        for q in 0..depth {
            // SAFETY: `q < depth` and `N <= MICRO_COLS` keep
            // `q * MICRO_COLS + N <= panel.data.len()`; `i + R <= self.rows`
            // and `panel.p0 + q < k` keep every `a` index below
            // `self.data.len()`. Both are established by the assert above;
            // unchecked access hoists the per-step bounds checks out of
            // the accumulation loop.
            unsafe {
                let b_row = panel.data.get_unchecked(q * MICRO_COLS..q * MICRO_COLS + N);
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a_v = *a.get_unchecked((i + r) * k + panel.p0 + q);
                    for l in 0..N {
                        acc_r[l] += a_v * b_row[l];
                    }
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let base = (i + r - i0) * n + panel.j;
            out_band[base..base + N].copy_from_slice(acc_r);
        }
    }

    /// [`Self::matmul_transb`] on an explicit pool, bypassing the size
    /// gate. Exposed so tests can compare pool sizes side by side.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transb_with(&self, rhs: &Matrix, pool: &crate::pool::WorkerPool) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transb dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transb_pooled_into(rhs, &mut out, pool);
        out
    }

    /// Pooled `self * rhs^T` body; `out` must have shape
    /// `self.rows x rhs.rows` (every element is overwritten). Output rows
    /// are partitioned into micro-tile-aligned bands running the blocked
    /// kernel, with unchanged per-element arithmetic.
    fn matmul_transb_pooled_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        pool: &crate::pool::WorkerPool,
    ) {
        if self.rows == 0 {
            return;
        }
        let out_cols = rhs.rows.max(1);
        let chunk_rows = self.rows.div_ceil(pool.threads()).next_multiple_of(MICRO_ROWS);
        let tasks: Vec<crate::pool::Task<'_>> = out
            .data
            .chunks_mut((chunk_rows * out_cols).max(1))
            .enumerate()
            .map(|(chunk, out_chunk)| {
                let row0 = chunk * chunk_rows;
                let rows_here = out_chunk.len() / out_cols;
                Box::new(move || {
                    self.matmul_transb_band_into(rhs, row0, row0 + rows_here, out_chunk);
                }) as crate::pool::Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Large products are split across the global worker pool by output
    /// row; bit-identical to serial for any thread count.
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
        if self.rows < 2
            || self.rows * self.cols < PAR_MATVEC_MIN_ELEMS
            || crate::pool::configured_threads() == 1
        {
            out.extend(self.row_iter().map(|row| crate::vector::dot(row, v)));
            return;
        }
        out.resize(self.rows, 0.0);
        self.matvec_pooled_into(v, out, &crate::pool::global());
    }

    /// [`Self::matvec`] on an explicit pool, bypassing the size gate.
    /// Exposed so tests can compare pool sizes side by side.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec_with(&self, v: &[f64], pool: &crate::pool::WorkerPool) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        self.matvec_pooled_into(v, &mut out, pool);
        out
    }

    /// Pooled matvec body; `out` must have length `self.rows` (every
    /// element is overwritten).
    fn matvec_pooled_into(&self, v: &[f64], out: &mut [f64], pool: &crate::pool::WorkerPool) {
        if self.rows == 0 {
            return;
        }
        if self.cols == 0 {
            out.fill(0.0);
            return;
        }
        let chunk_rows = self.rows.div_ceil(pool.threads());
        let tasks: Vec<crate::pool::Task<'_>> = out
            .chunks_mut(chunk_rows)
            .enumerate()
            .map(|(chunk, out_chunk)| {
                let row0 = chunk * chunk_rows;
                // Walk the band with `chunks_exact` instead of re-indexing
                // `self.row(row0 + offset)` per row: one bounds check for
                // the whole band, and the row stride is a loop-carried add.
                let band = &self.data[row0 * self.cols..(row0 + out_chunk.len()) * self.cols];
                Box::new(move || {
                    for (slot, row) in out_chunk.iter_mut().zip(band.chunks_exact(self.cols)) {
                        *slot = crate::vector::dot(row, v);
                    }
                }) as crate::pool::Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Transposed matrix-vector product `self^T * v`.
    ///
    /// Rows are accumulated in fixed chunks of [`T_MATVEC_CHUNK_ROWS`]
    /// whose partial sums are combined in chunk order on the calling
    /// thread. The chunking depends only on `self.rows()`, so the result
    /// is bit-identical for any thread count (including fully serial).
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "t_matvec dimension mismatch");
        if self.rows <= T_MATVEC_CHUNK_ROWS || crate::pool::configured_threads() == 1 {
            // A single chunk — or chunks run inline in order — reduces
            // exactly like the pooled path, so this stays bit-identical.
            return self.t_matvec_with(v, &crate::pool::WorkerPool::new(1));
        }
        self.t_matvec_with(v, &crate::pool::global())
    }

    /// [`Self::t_matvec`] writing into `out`, reusing its allocation.
    /// Bit-identical to the allocating path; allocation-free when the
    /// matrix fits a single accumulation chunk
    /// (`rows <= T_MATVEC_CHUNK_ROWS`, which covers every per-row hot
    /// caller in this workspace).
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn t_matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "t_matvec dimension mismatch");
        if self.rows <= T_MATVEC_CHUNK_ROWS {
            out.clear();
            out.resize(self.cols, 0.0);
            self.t_matvec_range_into(v, 0, self.rows, out);
            return;
        }
        // Multi-chunk: reuse the fixed chunked reduction wholesale so the
        // chunk-order combine stays byte-for-byte the same. The partials
        // allocate, but only for matrices past the chunk threshold.
        let result = self.t_matvec(v);
        out.clear();
        out.extend_from_slice(&result);
    }

    /// [`Self::t_matvec`] on an explicit pool, bypassing the size gate.
    /// Exposed so tests can compare pool sizes side by side.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn t_matvec_with(&self, v: &[f64], pool: &crate::pool::WorkerPool) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "t_matvec dimension mismatch");
        let chunks = self.rows.div_ceil(T_MATVEC_CHUNK_ROWS);
        if chunks <= 1 {
            return self.t_matvec_range(v, 0, self.rows);
        }
        let mut partials: Vec<Vec<f64>> = vec![Vec::new(); chunks];
        let tasks: Vec<crate::pool::Task<'_>> = partials
            .iter_mut()
            .enumerate()
            .map(|(chunk, slot)| {
                Box::new(move || {
                    let start = chunk * T_MATVEC_CHUNK_ROWS;
                    let end = (start + T_MATVEC_CHUNK_ROWS).min(self.rows);
                    *slot = self.t_matvec_range(v, start, end);
                }) as crate::pool::Task<'_>
            })
            .collect();
        pool.run(tasks);
        let mut iter = partials.into_iter();
        // Audited: `partials` has one slot per chunk and rows > 0 here.
        #[allow(clippy::expect_used)]
        let mut out = iter.next().expect("at least one chunk");
        for partial in iter {
            for (o, x) in out.iter_mut().zip(partial) {
                *o += x;
            }
        }
        out
    }

    /// Sequential `self[start..end]^T * v[start..end]` partial sum.
    fn t_matvec_range(&self, v: &[f64], start: usize, end: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.t_matvec_range_into(v, start, end, &mut out);
        out
    }

    /// [`Self::t_matvec_range`] accumulating into a pre-zeroed slice.
    ///
    /// Each row contributes through the wide-lane [`crate::vector::axpy`]
    /// core; axpy is element-wise, so the unroll width never changes any
    /// element's accumulation order and the result stays bit-identical to
    /// the scalar loop.
    fn t_matvec_range_into(&self, v: &[f64], start: usize, end: usize, out: &mut [f64]) {
        for (r, &vr) in v.iter().enumerate().take(end).skip(start) {
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
