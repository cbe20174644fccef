//! The register types the matrix kernels' register tiles are written on.
//!
//! A tile is written once over the `Lanes` trait and instantiated per
//! const width `N` in `1..=8`, in one of two forms:
//!
//! * `F64x8<N>`, built only when the build target has AVX-512F (the
//!   workspace builds with `target-cpu=native`, which enables it on an
//!   AVX-512 host), is one `__m512d` of which the first `N` lanes are
//!   live: a width below 8 is a constant lane mask on loads and stores.
//! * `Array<N>` is `N` lanes in an array, which the compiler keeps in
//!   vector registers only as wide as `N` needs. It is the only form
//!   without AVX-512F, and on AVX-512 the kernels take it at the narrow
//!   widths where a masked 512-bit register runs slower than a 128- or
//!   256-bit one.
//!
//! The build target alone picks the backend; [`BACKEND`] names it. Every
//! form gives every lane the scalar loop's IEEE arithmetic. `mul_add` is
//! a rounded multiply followed by a rounded add, never a fused
//! multiply-add, so a register tile that accumulates with it is
//! bit-identical to the textbook `acc += a * b` loop. `relu` and
//! `zero_where_nonpositive` compare and blend rather than take a `max`,
//! so `-0.0` and NaN keep the values the scalar `if` leaves them.
//!
//! Two kernels on the full-width form are exported beyond the crate,
//! behind safe signatures, for k-means over points held as lanes (blocks
//! of [`LANES`] points, one lane per point): [`sq_distance_tile`], the
//! squared distances from such blocks to a few centres, and
//! [`sum_by_cluster`], a block's points added into their clusters' sums.
//!
//! A third, [`softmax_rows`], runs eight rows at a time on the full-width
//! form, one per lane (a row at a time without AVX-512F), and takes its
//! `exp` in lanes: glibc's `exp` re-evaluated operation for operation.
//! Its multiply-adds are fused, unlike the tiles', because the reference
//! it must equal fuses them: glibc runs its FMA build of `exp` on an FMA
//! host.
//!
//! Two more run the reductions around a softmax head's GEMMs on the
//! lanes: [`argmax_rows`], each row's first maximum, eight rows to a
//! register on the full-width form (a row at a time without AVX-512F),
//! and [`softmax_grad_rows`], the softmax + cross-entropy output gradient,
//! one row to a register. Both are written once over `Lanes`, so both
//! forms return the scalar loop's bits.

#[cfg(target_feature = "avx512f")]
pub(crate) use imp::F64x8;

/// The form for widths where the widest register pays: `F64x8<N>` where
/// the build target has AVX-512F, `Array<N>` otherwise.
#[cfg(target_feature = "avx512f")]
pub(crate) type Wide<const N: usize> = F64x8<N>;

/// The form for widths where the widest register pays: `F64x8<N>` where
/// the build target has AVX-512F, `Array<N>` otherwise.
#[cfg(not(target_feature = "avx512f"))]
pub(crate) type Wide<const N: usize> = Array<N>;

/// The register form this build's full-width tiles run on: `"avx512"`
/// (`F64x8`) or `"array"` (`Array`).
#[cfg(target_feature = "avx512f")]
pub const BACKEND: &str = "avx512";

/// The register form this build's full-width tiles run on: `"avx512"`
/// (`F64x8`) or `"array"` (`Array`).
#[cfg(not(target_feature = "avx512f"))]
pub const BACKEND: &str = "array";

/// Points per block of [`sq_distance_tile`]: the lanes of one full-width
/// register.
pub const LANES: usize = 8;

/// Evaluates `$call` with the type `$L` bound to the [`Lanes`] form the
/// register tiles use at width `$width` (1–8): the array form at widths 1,
/// 2 and 4, whose 128- and 256-bit registers run faster than a masked
/// 512-bit one, and [`Wide`] elsewhere.
macro_rules! with_lanes {
    ($width:expr, $L:ident => $call:expr) => {
        match $width {
            1 => {
                type $L = $crate::lanes::Array<1>;
                $call
            }
            2 => {
                type $L = $crate::lanes::Array<2>;
                $call
            }
            3 => {
                type $L = $crate::lanes::Wide<3>;
                $call
            }
            4 => {
                type $L = $crate::lanes::Array<4>;
                $call
            }
            5 => {
                type $L = $crate::lanes::Wide<5>;
                $call
            }
            6 => {
                type $L = $crate::lanes::Wide<6>;
                $call
            }
            7 => {
                type $L = $crate::lanes::Wide<7>;
                $call
            }
            _ => {
                type $L = $crate::lanes::Wide<8>;
                $call
            }
        }
    };
}
pub(crate) use with_lanes;

/// Squared Euclidean distances from the points of `R` blocks to `W`
/// centres, as one `R x W` register tile on the full-width form (`F64x8`
/// with AVX-512F, `Array` otherwise).
///
/// Each block holds [`LANES`] points as lanes, `d x LANES`: `block[j *
/// LANES + l]` is point `l`'s coordinate `j`. Centre `w`'s coordinate `j`
/// is `centres[j * stride + w]`. `out[r][w][l]` is the squared distance
/// from point `l` of block `r` to centre `w`: per dimension a rounded
/// subtract, multiply and add (never fused), summed in ascending
/// dimension order from `0.0`, bit for bit the scalar loop
/// `acc += (p - c) * (p - c)`. The `R · W` sums run as independent
/// chains side by side.
///
/// # Panics
/// If the blocks differ in length, their length is not a multiple of
/// [`LANES`], or `centres` is too short for `d` rows of `stride`.
#[inline]
pub fn sq_distance_tile<const R: usize, const W: usize>(
    blocks: [&[f64]; R],
    centres: &[f64],
    stride: usize,
) -> [[[f64; LANES]; W]; R] {
    let len = blocks.first().map_or(0, |b| b.len());
    assert!(
        len.is_multiple_of(LANES) && blocks.iter().all(|b| b.len() == len),
        "blocks must each hold d x {LANES} values"
    );
    let d = len / LANES;
    // One past the last centre coordinate read, unless it overflows.
    let end = (d.max(1) - 1).checked_mul(stride).and_then(|at| at.checked_add(W));
    assert!(
        d == 0 || (W <= stride && end.is_some_and(|end| end <= centres.len())),
        "centres too short for {d} rows of stride {stride}"
    );
    let mut acc = [[Wide::<LANES>::zero(); W]; R];
    for j in 0..d {
        // SAFETY: `j * stride + w < (d - 1) * stride + W <= centres.len()`
        // by the assert above.
        let c: [Wide<LANES>; W] = std::array::from_fn(|w| {
            Wide::<LANES>::splat(unsafe { *centres.get_unchecked(j * stride + w) })
        });
        for (acc_r, block) in acc.iter_mut().zip(&blocks) {
            // SAFETY: `block` holds `d * LANES` values, so the `LANES` from
            // `j * LANES` are in bounds.
            let p = unsafe { Wide::<LANES>::load(block.as_ptr().add(j * LANES)) };
            for (acc_rw, &c_w) in acc_r.iter_mut().zip(&c) {
                let diff = p.sub(c_w);
                *acc_rw = acc_rw.add(diff.mul(diff));
            }
        }
    }
    let mut out = [[[0.0; LANES]; W]; R];
    for (out_r, acc_r) in out.iter_mut().zip(&acc) {
        for (out_rw, acc_rw) in out_r.iter_mut().zip(acc_r) {
            // SAFETY: `out_rw` holds `LANES` f64s.
            unsafe { acc_rw.store(out_rw.as_mut_ptr()) };
        }
    }
    out
}

/// Adds the first `clusters.len()` points of one block to their
/// clusters' sums: `sums[c * d + j] += block[j * LANES + l]` with `c =
/// clusters[l]`, for a `d x LANES` points-as-lanes block and `sums` of
/// rows of `d`. Each sum takes its points in lane order, one rounded add
/// each, as the scalar loop does; where the build target has AVX-512F
/// each point's coordinates go in eight at a time, transposed in
/// registers, which takes a fifth to a half less time than the scalar
/// loop at CEC's shapes (DESIGN.md §3g).
///
/// # Panics
/// If `block`'s length is not a multiple of [`LANES`], more than
/// [`LANES`] clusters are given, or a cluster has no row in `sums`.
pub fn sum_by_cluster(block: &[f64], clusters: &[usize], sums: &mut [f64]) {
    assert!(block.len().is_multiple_of(LANES), "block must hold d x {LANES} values");
    assert!(clusters.len() <= LANES, "at most {LANES} points per block");
    let d = block.len() / LANES;
    assert!(
        d == 0 || clusters.iter().all(|&c| c < sums.len() / d),
        "a cluster has no row of {d} sums"
    );
    #[cfg(target_feature = "avx512f")]
    for j in (0..d).step_by(LANES) {
        let width = LANES.min(d - j);
        // SAFETY: `j + width <= d`, so the `width` lane vectors from `j *
        // LANES` lie in `block`, and every `c * d + j + width <= (c + 1) *
        // d <= sums.len()`, as `c < sums.len() / d` by the asserts above.
        unsafe {
            imp::sum_eight(block.as_ptr().add(j * LANES), width, clusters, sums.as_mut_ptr(), d, j)
        };
    }
    #[cfg(not(target_feature = "avx512f"))]
    for (l, &c) in clusters.iter().enumerate() {
        for j in 0..d {
            sums[c * d + j] += block[j * LANES + l];
        }
    }
}

/// Row-wise softmax of `data`, rows of `cols`, in place. Per row: the max
/// by `f64::max` (a NaN entry is never it), `x - max` and its `exp` for
/// each entry, their sum in column order from `0.0`, then each entry
/// times `1.0 / sum`. Those are the scalar loop's operations in the
/// scalar loop's order, and the `exp`, glibc's re-evaluated in lanes,
/// returns the bits `f64::exp` does, so every row comes out bit for bit
/// as that loop leaves it. (A row whose max is a zero may subtract either
/// sign of it; `x - max` and `exp` map both to the same values.)
///
/// Where the build target has AVX-512F, eight rows run at once, one per
/// lane, gathered and scattered a column at a time, and a last block of
/// fewer rows runs with the other lanes masked off; elsewhere a row runs
/// at a time with the lane `exp`.
///
/// # Panics
/// If `data`'s length is not a multiple of `cols`.
pub fn softmax_rows(data: &mut [f64], cols: usize) {
    if cols == 0 || data.is_empty() {
        return;
    }
    assert!(data.len().is_multiple_of(cols), "softmax_rows: data is not rows of {cols}");
    #[cfg(target_feature = "avx512f")]
    for block in data.chunks_mut(LANES * cols) {
        // SAFETY: `block` holds `block.len() / cols` rows of `cols`, at
        // least one and at most `LANES`.
        unsafe { imp::softmax_block(block.as_mut_ptr(), cols, block.len() / cols) };
    }
    #[cfg(not(target_feature = "avx512f"))]
    for row in data.chunks_exact_mut(cols) {
        softmax_row(row);
    }
}

/// One row of [`softmax_rows`] in the lane form.
#[cfg(any(test, not(target_feature = "avx512f")))]
fn softmax_row(row: &mut [f64]) {
    let max = row.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = exp(*x - max);
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Writes into `out[r]` the index of row `r`'s first maximum, for the rows
/// of `data`, rows of `cols`: what `vector::argmax(row).unwrap_or(0)`
/// returns. A NaN entry never wins; a later entry wins only when strictly
/// greater, so the first of tied entries (`-0.0` and `0.0` tie) does; a
/// row of `-inf` gives its first non-NaN entry and an all-NaN row (or an
/// empty one) gives 0.
///
/// Where the build target has AVX-512F, eight rows run at once, one per
/// lane, gathered a column at a time, and a last block of fewer rows runs
/// on a narrower form; elsewhere a row runs at a time (the lane form on
/// arrays ran 10–20% slower than that at two columns there).
///
/// # Panics
/// If `cols > 0` and `data` is not `out.len()` rows of `cols`.
pub fn argmax_rows(data: &[f64], cols: usize, out: &mut [usize]) {
    if cols == 0 {
        out.fill(0);
        return;
    }
    assert_eq!(
        data.len(),
        out.len() * cols,
        "argmax_rows: data is not {} rows of {cols}",
        out.len()
    );
    #[cfg(target_feature = "avx512f")]
    {
        let mut blocks = data.chunks_exact(LANES * cols);
        let mut outs = out.chunks_exact_mut(LANES);
        for (rows, out) in blocks.by_ref().zip(outs.by_ref()) {
            argmax_block::<Wide<LANES>>(rows, cols, out);
        }
        let (rows, out) = (blocks.remainder(), outs.into_remainder());
        if !out.is_empty() {
            with_lanes!(out.len(), L => argmax_block::<L>(rows, cols, out));
        }
    }
    #[cfg(not(target_feature = "avx512f"))]
    for (row, out) in data.chunks_exact(cols).zip(out) {
        *out = crate::vector::argmax(row).unwrap_or(0);
    }
}

/// [`argmax_rows`] on `L::WIDTH` rows of `cols` (at least one), row `l` in
/// lane `l`.
#[cfg(any(test, target_feature = "avx512f"))]
#[inline(always)]
fn argmax_block<L: Lanes>(rows: &[f64], cols: usize, out: &mut [usize]) {
    assert!(cols > 0 && rows.len() == L::WIDTH * cols && out.len() == L::WIDTH);
    // Nothing taken yet: a NaN best, which every non-NaN entry replaces.
    let (mut best, mut at) = (L::splat(f64::NAN), L::zero());
    for j in 0..cols {
        // SAFETY: lane `l` reads `rows[l * cols + j]`, below `L::WIDTH *
        // cols = rows.len()` as `j < cols` (asserted above).
        let x = unsafe { L::gather(rows.as_ptr().add(j), cols) };
        x.take_greater(j as f64, &mut best, &mut at);
    }
    let mut index = [0.0; LANES];
    // SAFETY: `index` holds `LANES >= L::WIDTH` f64s.
    unsafe { at.store(index.as_mut_ptr()) };
    for (o, &i) in out.iter_mut().zip(&index) {
        *o = i as usize;
    }
}

/// `1.0` at index 7, `0.0` elsewhere: the `WIDTH` entries from `7 - y` are
/// the one-hot row of class `y < 8`.
static ONE_HOT: [f64; 15] =
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];

/// The softmax + cross-entropy output gradient: row `r` of `out` is row
/// `r` of `probs` (rows of `cols`), less `1.0` at column `labels[r]`, times
/// `w_r = weights[r] / total` (`1.0 / total` with no weights). Per row the
/// scalar loop's operations: `p - 1.0` at the label, then `v * w_r` on
/// every entry, with `w_r` one rounded division.
///
/// Where `cols` fits a register (at most [`LANES`]), each row is one
/// register less the one-hot register of its label — `p - 0.0` is `p`
/// bit for bit, `-0.0` and NaN included — and the weights are divided
/// eight at a time; wider rows run the scalar loop.
///
/// # Panics
/// If `probs` and `out` are not `labels.len()` rows of `cols`, `weights`
/// is not one per row, or a label is not below `cols`.
pub fn softmax_grad_rows(
    probs: &[f64],
    cols: usize,
    labels: &[usize],
    weights: Option<&[f64]>,
    total: f64,
    out: &mut [f64],
) {
    let n = labels.len();
    assert!(
        probs.len() == n * cols && out.len() == n * cols,
        "softmax_grad_rows: probs or out is not {n} rows of {cols}"
    );
    assert!(weights.is_none_or(|w| w.len() == n), "weights length mismatch");
    if let Some(&y) = labels.iter().find(|&&y| y >= cols) {
        panic!("label {y} out of range");
    }
    if cols == 0 {
        return;
    }
    if cols > LANES {
        for (r, ((src, dst), &y)) in
            probs.chunks_exact(cols).zip(out.chunks_exact_mut(cols)).zip(labels).enumerate()
        {
            dst.copy_from_slice(src);
            dst[y] -= 1.0;
            let w = weights.map_or(1.0 / total, |ws| ws[r] / total);
            for v in dst {
                *v *= w;
            }
        }
        return;
    }
    with_lanes!(cols, L => {
        let rows = |r0: usize, w: &[f64], out: &mut [f64]| {
            for (l, &w) in w.iter().enumerate() {
                let (r, y) = (r0 + l, labels[r0 + l]);
                // SAFETY: `r < n = labels.len()` (the index above is
                // checked), so `(r + 1) * cols <= n * cols`, the length of
                // `probs` and `out` (asserted above), and `L::WIDTH = cols`;
                // `y < cols <= 8` (checked above), so the one-hot read
                // `7 - y..7 - y + cols` lies within `ONE_HOT`'s 15 entries.
                unsafe {
                    let p = L::load(probs.as_ptr().add(r * cols));
                    let one_hot = L::load(ONE_HOT.as_ptr().add(7 - y));
                    p.sub(one_hot).mul(L::splat(w)).store(out.as_mut_ptr().add(r * cols));
                }
            }
        };
        let mut blocks = (0..n).step_by(LANES);
        for r0 in blocks.by_ref().take(n / LANES) {
            let w: [f64; LANES] = match weights {
                Some(ws) => {
                    let ws: &[f64; LANES] = ws[r0..r0 + LANES].try_into().expect("eight weights");
                    ws.map(|wr| wr / total)
                }
                None => [1.0 / total; LANES],
            };
            rows(r0, &w, out);
        }
        if let Some(r0) = blocks.next() {
            let mut w = [1.0 / total; LANES];
            if let Some(ws) = weights {
                for (w, &wr) in w.iter_mut().zip(&ws[r0..]) {
                    *w = wr / total;
                }
            }
            rows(r0, &w[..n - r0], out);
        }
    });
}

// glibc's `exp` (since 2.28; musl's is the same code): ARM
// optimized-routines' `math/exp.c`. `exp(x) = 2^(k/N) · exp(r)` with `N =
// 128`, `k` the integer nearest `x · N / ln 2` and `r = x - k · ln 2 / N`;
// `2^(k/N)` comes from a table of `N` entries, `exp(r) - 1` from a
// degree-5 polynomial.

/// `N / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `-ln 2 / N`, its high bits: `k` times it is exact.
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
/// `-ln 2 / N`, the rest.
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// `1.5 · 2^52`: added, it rounds to an integer held in the low bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The polynomial's coefficients of `r^2` to `r^5`.
const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);
/// Biased exponent of `2^-54`: below it `exp(x)` is `1.0 + x`.
const TINY_TOP: u64 = 0x3c9;
/// Biased exponent of `512.0`: from it on (and for infinities and NaN)
/// glibc leaves its fast path, and `exp` calls libm.
const BIG_TOP: u64 = 0x408;

/// `2^(k/N)` for `k` in `0..N`, two words each: the bits of a small
/// correction `tail`, then the bits of the scale less `k << 45`.
/// Copied from glibc 2.36's `__exp_data.tab`, which is optimized-routines'
/// `math/exp_data.c` (MIT OR Apache-2.0 WITH LLVM-exception).
static EXP_TABLE: [u64; 256] = [
    0x0000000000000000,
    0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e,
    0x3feff63da9fb3335,
    0xbc7160139cd8dc5d,
    0x3fefec9a3e778061,
    0xbc905e7a108766d1,
    0x3fefe315e86e7f85,
    0x3c8cd2523567f613,
    0x3fefd9b0d3158574,
    0xbc8bce8023f98efa,
    0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861,
    0x3fefc74518759bc8,
    0x3c90a3e45b33d399,
    0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d,
    0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc,
    0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1,
    0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b,
    0x3fef9b66affed31b,
    0xbc9556522a2fbd0e,
    0x3fef9301d0125b51,
    0xbc5080ef8c4eea55,
    0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416,
    0x3fef829aaea92de0,
    0x3c80d3e3e95c55af,
    0x3fef7a98c8a58e51,
    0xbc801b15eaa59348,
    0x3fef72b83c7d517b,
    0xbc8f1ff055de323d,
    0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf,
    0x3fef635beb6fcb75,
    0xbc96d99c7611eb26,
    0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60,
    0x3fef54873168b9aa,
    0xbc8fe782cb86389d,
    0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d,
    0x3fef463b88628cd6,
    0x3c807a05b0e4047d,
    0x3fef3f49917ddc96,
    0x3c968efde3a8a894,
    0x3fef387a6e756238,
    0x3c875e18f274487d,
    0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2,
    0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e,
    0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31,
    0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa,
    0x3fef187fd0dad990,
    0x3c8b3782720c0ab4,
    0x3fef1285a6e4030b,
    0x3c6e149289cecb8f,
    0x3fef0cafa93e2f56,
    0x3c834d754db0abb6,
    0x3fef06fe0a31b715,
    0x3c864201e2ac744c,
    0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a,
    0x3feefc08b26416ff,
    0xbc86a3803b8e5b04,
    0x3feef6c55f929ff1,
    0xbc924aedcc4b5068,
    0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e,
    0x3feeecae6d05d866,
    0xbc71d1e83e9436d2,
    0x3feee7db34e59ff7,
    0xbc991919b3ce1b15,
    0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d,
    0x3feedea64c123422,
    0xbc9312607a28698a,
    0x3feeda4504ac801c,
    0xbc58a78f4817895b,
    0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b,
    0x3feed1f5d950a897,
    0x3c4363ed60c2ac11,
    0x3feece086061892d,
    0x3c9666093b0664ef,
    0x3feeca41ed1d0057,
    0x3c6ecce1daa10379,
    0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230,
    0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0,
    0x3feebfdad5362a27,
    0x3c931dbdeb54e077,
    0x3feebcb299fddd0d,
    0xbc8f94340071a38e,
    0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349,
    0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f,
    0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6,
    0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e,
    0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05,
    0x3feead12d497c7fd,
    0x3c9063e1e21c5409,
    0x3feeab07dd485429,
    0x3c34c7855019c6ea,
    0x3feea9268a5946b7,
    0x3c9432e62b64c035,
    0x3feea76f15ad2148,
    0xbc8ce44a6199769f,
    0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8,
    0x3feea47eb03a5585,
    0xbc845378892be9ae,
    0x3feea34634ccc320,
    0xbc93cedd78565858,
    0x3feea23882552225,
    0x3c5710aa807e1964,
    0x3feea155d44ca973,
    0xbc93b3efbf5e2228,
    0x3feea09e667f3bcd,
    0xbc6a12ad8734b982,
    0x3feea012750bdabf,
    0xbc6367efb86da9ee,
    0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851,
    0x3fee9f7df9519484,
    0xbc781f647e5a3ecf,
    0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0,
    0x3fee9f9a48a58174,
    0xbc8619321e55e68a,
    0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3,
    0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d,
    0x3feea11473eb0187,
    0x3c94ecfd5467c06b,
    0x3feea1ed0130c132,
    0x3c65ebe1abd66c55,
    0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42,
    0x3feea427543e1a12,
    0xbc9369b6f13b3734,
    0x3feea589994cce13,
    0xbc805e843a19ff1e,
    0x3feea71a4623c7ad,
    0xbc94d450d872576e,
    0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00,
    0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4,
    0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff,
    0x3feeaf3216b5448c,
    0x3c7bf68359f35f44,
    0x3feeb1ae99157736,
    0xbc93091fa71e3d83,
    0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29,
    0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959,
    0x3feeba44cbc8520f,
    0xbc92434322f4f9aa,
    0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b,
    0x3feec0f170ca07ba,
    0x3c71affc2b91ce27,
    0x3feec49182a3f090,
    0x3c6dd235e10a73bb,
    0x3feec86319e32323,
    0xbc87c50422622263,
    0x3feecc667b5de565,
    0x3c8b1c86e3e231d5,
    0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15,
    0x3feed503b23e255d,
    0x3c90cc319cee31d2,
    0x3feed99e1330b358,
    0x3c8469846e735ab3,
    0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4,
    0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387,
    0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa,
    0x3feeee07298db666,
    0xbc55c3d956dcaeba,
    0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640,
    0x3feef9728de5593a,
    0xbc68d6f438ad9334,
    0x3feeff76f2fb5e47,
    0xbc91eee26b588a35,
    0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd,
    0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac,
    0x3fef12c25bd71e09,
    0x3c736eae30af0cb3,
    0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94,
    0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac,
    0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67,
    0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968,
    0x3fef3720dcef9069,
    0xbc808a1883ccb5d2,
    0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f,
    0x3fef472d4a07897c,
    0xbc900dae3875a949,
    0x3fef4f87080d89f2,
    0x3c74a385a63d07a7,
    0x3fef5818dcfba487,
    0xbc82919e2040220f,
    0x3fef60e316c98398,
    0x3c8e5a50d5c192ac,
    0x3fef69e603db3285,
    0x3c843a59ac016b4b,
    0x3fef7321f301b460,
    0xbc82d52107b43e1f,
    0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9,
    0x3fef864614f5a129,
    0x3c74b604603a88d3,
    0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271,
    0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0,
    0x3fefa4afa2a490da,
    0xbc8dae98e223747d,
    0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008,
    0x3fefba1bee615a27,
    0x3c842b94c3a9eb32,
    0x3fefc52b376bba97,
    0x3c8a64a931d185ee,
    0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed,
    0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d,
    0x3fefe7c1819e90d8,
    0x3c5305c14160cc89,
    0x3feff3c22b8f71f1,
];

/// `exp(x)` bit for bit as glibc 2.28 and later compute it on an FMA host
/// (the build of `exp` glibc dispatches to there), one lane: the same
/// operations in the same order, fused where that build fuses. Below
/// `2^-54` in magnitude it is `1.0 + x`, as in glibc; from `512.0` on, and
/// for infinities and NaN, it is libm's `f64::exp` itself. Without
/// hardware FMA `f64::mul_add` is itself a libm call, slow but exact.
#[cfg(any(test, not(target_feature = "avx512f")))]
#[inline(always)]
fn exp(x: f64) -> f64 {
    let top = x.to_bits() >> 52 & 0x7ff;
    if top < TINY_TOP {
        return 1.0 + x;
    }
    if top >= BIG_TOP {
        return x.exp();
    }
    let kd = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    let idx = 2 * (ki % 128) as usize;
    let tail = f64::from_bits(EXP_TABLE[idx]);
    let scale = f64::from_bits(EXP_TABLE[idx + 1].wrapping_add(ki << 45));
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(r.mul_add(C5, C4), r2.mul_add(r.mul_add(C3, C2), tail + r));
    scale.mul_add(tmp, scale)
}

/// A register of [`Lanes::WIDTH`] `f64` lanes: the value a register tile
/// accumulates one output row (or column) in.
pub(crate) trait Lanes: Copy {
    /// Live lanes, `1..=8`.
    const WIDTH: usize;

    /// All lanes `+0.0`.
    fn zero() -> Self;

    /// Every lane `a`.
    fn splat(a: f64) -> Self;

    /// The lanes from `src[0..WIDTH]`.
    ///
    /// # Safety
    /// `src` must be valid for reading `WIDTH` consecutive `f64`s.
    unsafe fn load(src: *const f64) -> Self;

    /// Writes the lanes to `dst[0..WIDTH]`.
    ///
    /// # Safety
    /// `dst` must be valid for writing `WIDTH` consecutive `f64`s.
    unsafe fn store(self, dst: *mut f64);

    /// `self + a * b` lane by lane, for a scalar `a`: the product
    /// rounded, then the sum.
    fn mul_add(self, a: f64, b: Self) -> Self;

    /// `self + b` lane by lane.
    fn add(self, b: Self) -> Self;

    /// `self - b` lane by lane.
    fn sub(self, b: Self) -> Self;

    /// `self * b` lane by lane.
    fn mul(self, b: Self) -> Self;

    /// `0.0` in the lanes where `self < 0.0`, `self` elsewhere (`-0.0`
    /// and NaN are kept).
    fn relu(self) -> Self;

    /// `0.0` in the lanes where `gate <= 0.0`, `self` elsewhere (a NaN
    /// gate keeps its lane).
    fn zero_where_nonpositive(self, gate: Self) -> Self;

    /// The lanes from `src[l * stride]`, `l` in `0..WIDTH`. (Only the row
    /// argmax reads these two, and it runs on lanes only with AVX-512F.)
    ///
    /// # Safety
    /// `src` must be valid for reading at each of those offsets.
    #[cfg(any(test, target_feature = "avx512f"))]
    unsafe fn gather(src: *const f64, stride: usize) -> Self;

    /// One column of a running row argmax: in the lanes where `self` is
    /// not NaN and either `best` is NaN (nothing taken yet) or `self >
    /// best`, `best` takes `self` and `at` takes `column`.
    #[cfg(any(test, target_feature = "avx512f"))]
    fn take_greater(self, column: f64, best: &mut Self, at: &mut Self);
}

// Compiled only when the build target enables AVX-512F, which makes
// every intrinsic below available; the `unsafe` blocks around the
// value-only ones discharge exactly that obligation.
#[cfg(target_feature = "avx512f")]
mod imp {
    use super::*;
    use std::arch::x86_64::*;

    /// [`super::softmax_rows`] on `live` rows of `cols` from `rows`, row
    /// `l` in lane `l`: per column a gather, and a scatter where the
    /// column is written.
    ///
    /// # Safety
    /// `live` must be in `1..=8` and `rows` valid for reading and writing
    /// `live * cols` `f64`s.
    #[inline]
    pub(super) unsafe fn softmax_block(rows: *mut f64, cols: usize, live: usize) {
        let mask = ((1u16 << live) - 1) as __mmask8;
        let c = cols as i64;
        let offsets = _mm512_set_epi64(7 * c, 6 * c, 5 * c, 4 * c, 3 * c, 2 * c, c, 0);
        let column =
            |j| _mm512_mask_i64gather_pd::<8>(_mm512_setzero_pd(), mask, offsets, rows.add(j));
        let set_column = |j, v| _mm512_mask_i64scatter_pd::<8>(rows.add(j), mask, offsets, v);
        // `max` keeps its lane where the entry is NaN, as `f64::max` does.
        let mut max = _mm512_set1_pd(f64::NEG_INFINITY);
        for j in 0..cols {
            max = _mm512_max_pd(column(j), max);
        }
        let mut sum = _mm512_setzero_pd();
        for j in 0..cols {
            let e = exp(_mm512_sub_pd(column(j), max));
            sum = _mm512_add_pd(sum, e);
            set_column(j, e);
        }
        let inv = _mm512_div_pd(_mm512_set1_pd(1.0), sum);
        for j in 0..cols {
            set_column(j, _mm512_mul_pd(column(j), inv));
        }
    }

    /// [`super::exp`] on eight lanes. The fast path runs in every lane;
    /// lanes below `2^-54` then take `1.0 + x`, and lanes from `512.0` on
    /// (and infinities and NaN) libm's `exp`.
    #[inline(always)]
    pub(super) fn exp(x: __m512d) -> __m512d {
        // SAFETY: AVX-512F is enabled (see the module's `cfg`), and the
        // gathers read `EXP_TABLE` at `idx` and `idx + 1`, where `idx = 2 *
        // (ki & 127)` is at most 254.
        unsafe {
            let (f, u) = (_mm512_set1_pd, |a: u64| _mm512_set1_epi64(a as i64));
            let top = _mm512_and_si512(_mm512_srli_epi64::<52>(_mm512_castpd_si512(x)), u(0x7ff));
            let kd = _mm512_fmadd_pd(x, f(INV_LN2_N), f(SHIFT));
            let ki = _mm512_castpd_si512(kd);
            let kd = _mm512_sub_pd(kd, f(SHIFT));
            let r = _mm512_fmadd_pd(kd, f(NEG_LN2_LO_N), _mm512_fmadd_pd(kd, f(NEG_LN2_HI_N), x));
            let idx = _mm512_slli_epi64::<1>(_mm512_and_si512(ki, u(127)));
            let table = EXP_TABLE.as_ptr().cast::<i64>();
            let tail = _mm512_castsi512_pd(_mm512_i64gather_epi64::<8>(idx, table));
            let sbits = _mm512_add_epi64(
                _mm512_i64gather_epi64::<8>(idx, table.add(1)),
                _mm512_slli_epi64::<45>(ki),
            );
            let scale = _mm512_castsi512_pd(sbits);
            let r2 = _mm512_mul_pd(r, r);
            let low = _mm512_fmadd_pd(r2, _mm512_fmadd_pd(r, f(C3), f(C2)), _mm512_add_pd(tail, r));
            let high = _mm512_fmadd_pd(r, f(C5), f(C4));
            let tmp = _mm512_fmadd_pd(_mm512_mul_pd(r2, r2), high, low);
            let e = _mm512_fmadd_pd(scale, tmp, scale);
            let tiny = _mm512_cmplt_epu64_mask(top, u(TINY_TOP));
            let e = _mm512_mask_add_pd(e, tiny, f(1.0), x);
            let big = _mm512_cmpge_epu64_mask(top, u(BIG_TOP));
            if big == 0 {
                e
            } else {
                libm_lanes(x, e, big)
            }
        }
    }

    /// `e` with the lanes in `big` replaced by `f64::exp` of `x`'s.
    #[cold]
    #[inline(never)]
    fn libm_lanes(x: __m512d, e: __m512d, big: __mmask8) -> __m512d {
        let (mut xs, mut es) = ([0.0; 8], [0.0; 8]);
        // SAFETY: AVX-512F is enabled (see the module's `cfg`), and both
        // arrays hold eight f64s.
        unsafe {
            _mm512_storeu_pd(xs.as_mut_ptr(), x);
            _mm512_storeu_pd(es.as_mut_ptr(), e);
        }
        for (l, (e, x)) in es.iter_mut().zip(xs).enumerate() {
            if big >> l & 1 == 1 {
                *e = x.exp();
            }
        }
        // SAFETY: as above.
        unsafe { _mm512_loadu_pd(es.as_ptr()) }
    }

    /// Coordinates `j..j + width` (`width` in `1..=8`) of the points of
    /// one block (`width` lane vectors from `src`), transposed in
    /// registers, each added to row `clusters[l]` of `sums` (rows of `d`),
    /// lane by lane in order.
    ///
    /// # Safety
    /// `src` must be valid for reading `8 * width` `f64`s, `clusters` at
    /// most 8 long, and `sums + c * d + j` valid for reading and writing
    /// `width` `f64`s for every `c` in `clusters`.
    #[inline(always)]
    pub(super) unsafe fn sum_eight(
        src: *const f64,
        width: usize,
        clusters: &[usize],
        sums: *mut f64,
        d: usize,
        j: usize,
    ) {
        let mask = ((1u16 << width) - 1) as __mmask8;
        let r: [__m512d; 8] = std::array::from_fn(|i| {
            if i < width {
                _mm512_loadu_pd(src.add(i * 8))
            } else {
                _mm512_setzero_pd()
            }
        });
        // After the unpacks `t[2i]` holds coordinates 2i and 2i + 1 of
        // the even lanes in turn, `t[2i + 1]` of the odd ones; the 128-bit
        // shuffles then gather each lane's eight coordinates.
        let t = [
            _mm512_unpacklo_pd(r[0], r[1]),
            _mm512_unpackhi_pd(r[0], r[1]),
            _mm512_unpacklo_pd(r[2], r[3]),
            _mm512_unpackhi_pd(r[2], r[3]),
            _mm512_unpacklo_pd(r[4], r[5]),
            _mm512_unpackhi_pd(r[4], r[5]),
            _mm512_unpacklo_pd(r[6], r[7]),
            _mm512_unpackhi_pd(r[6], r[7]),
        ];
        let u = [
            _mm512_shuffle_f64x2::<0x88>(t[0], t[2]),
            _mm512_shuffle_f64x2::<0x88>(t[1], t[3]),
            _mm512_shuffle_f64x2::<0xdd>(t[0], t[2]),
            _mm512_shuffle_f64x2::<0xdd>(t[1], t[3]),
            _mm512_shuffle_f64x2::<0x88>(t[4], t[6]),
            _mm512_shuffle_f64x2::<0x88>(t[5], t[7]),
            _mm512_shuffle_f64x2::<0xdd>(t[4], t[6]),
            _mm512_shuffle_f64x2::<0xdd>(t[5], t[7]),
        ];
        let rows: [__m512d; 8] = std::array::from_fn(|l| {
            if l < 4 {
                _mm512_shuffle_f64x2::<0x88>(u[l], u[l + 4])
            } else {
                _mm512_shuffle_f64x2::<0xdd>(u[l - 4], u[l])
            }
        });
        // Unmasked where all eight lanes are live: a masked store does
        // not forward to the next point's load of the same sums.
        for (row, &c) in rows.iter().zip(clusters) {
            let at = sums.add(c * d + j);
            if width == 8 {
                _mm512_storeu_pd(at, _mm512_add_pd(_mm512_loadu_pd(at), *row));
            } else {
                let sum = _mm512_add_pd(_mm512_maskz_loadu_pd(mask, at), *row);
                _mm512_mask_storeu_pd(at, mask, sum);
            }
        }
    }

    /// Eight `f64` lanes in one `__m512d`, the first `N` of them live.
    #[derive(Clone, Copy, Debug)]
    pub struct F64x8<const N: usize>(__m512d);

    impl<const N: usize> F64x8<N> {
        /// The lane mask of the live lanes.
        const MASK: __mmask8 = ((1u16 << N) - 1) as __mmask8;
    }

    impl<const N: usize> Lanes for F64x8<N> {
        const WIDTH: usize = N;

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            Self(unsafe { _mm512_setzero_pd() })
        }

        #[inline(always)]
        fn splat(a: f64) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            Self(unsafe { _mm512_set1_pd(a) })
        }

        #[inline(always)]
        unsafe fn load(src: *const f64) -> Self {
            if N >= 8 {
                Self(_mm512_loadu_pd(src))
            } else {
                Self(_mm512_maskz_loadu_pd(Self::MASK, src))
            }
        }

        #[inline(always)]
        unsafe fn store(self, dst: *mut f64) {
            if N >= 8 {
                _mm512_storeu_pd(dst, self.0)
            } else {
                _mm512_mask_storeu_pd(dst, Self::MASK, self.0)
            }
        }

        #[inline(always)]
        fn mul_add(self, a: f64, b: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            Self(unsafe { _mm512_add_pd(self.0, _mm512_mul_pd(_mm512_set1_pd(a), b.0)) })
        }

        #[inline(always)]
        fn add(self, b: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            Self(unsafe { _mm512_add_pd(self.0, b.0) })
        }

        #[inline(always)]
        fn sub(self, b: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            Self(unsafe { _mm512_sub_pd(self.0, b.0) })
        }

        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            Self(unsafe { _mm512_mul_pd(self.0, b.0) })
        }

        #[inline(always)]
        fn relu(self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            unsafe {
                let keep = _mm512_cmp_pd_mask::<_CMP_NLT_UQ>(self.0, _mm512_setzero_pd());
                Self(_mm512_maskz_mov_pd(keep, self.0))
            }
        }

        #[inline(always)]
        fn zero_where_nonpositive(self, gate: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            unsafe {
                let keep = _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(gate.0, _mm512_setzero_pd());
                Self(_mm512_maskz_mov_pd(keep, self.0))
            }
        }

        #[inline(always)]
        unsafe fn gather(src: *const f64, stride: usize) -> Self {
            let s = stride as i64;
            let offsets = _mm512_set_epi64(7 * s, 6 * s, 5 * s, 4 * s, 3 * s, 2 * s, s, 0);
            Self(_mm512_mask_i64gather_pd::<8>(_mm512_setzero_pd(), Self::MASK, offsets, src))
        }

        #[inline(always)]
        fn take_greater(self, column: f64, best: &mut Self, at: &mut Self) {
            // SAFETY: AVX-512F is enabled (see the module's `cfg`).
            unsafe {
                // Not NaN, and not `<= best`: greater, or `best` is NaN.
                let number = _mm512_cmp_pd_mask::<_CMP_ORD_Q>(self.0, self.0);
                let take = _mm512_mask_cmp_pd_mask::<_CMP_NLE_UQ>(number, self.0, best.0);
                best.0 = _mm512_mask_mov_pd(best.0, take, self.0);
                at.0 = _mm512_mask_mov_pd(at.0, take, _mm512_set1_pd(column));
            }
        }
    }
}

/// `N` lanes in an array.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Array<const N: usize>([f64; N]);

impl<const N: usize> Lanes for Array<N> {
    const WIDTH: usize = N;

    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; N])
    }

    #[inline(always)]
    fn splat(a: f64) -> Self {
        Self([a; N])
    }

    #[inline(always)]
    unsafe fn load(src: *const f64) -> Self {
        Self(std::ptr::read_unaligned(src.cast::<[f64; N]>()))
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f64) {
        std::ptr::write_unaligned(dst.cast::<[f64; N]>(), self.0)
    }

    #[inline(always)]
    fn mul_add(self, a: f64, b: Self) -> Self {
        let mut v = self.0;
        for (lane, &y) in v.iter_mut().zip(&b.0) {
            *lane += a * y;
        }
        Self(v)
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        let mut v = self.0;
        for (lane, &y) in v.iter_mut().zip(&b.0) {
            *lane += y;
        }
        Self(v)
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        let mut v = self.0;
        for (lane, &y) in v.iter_mut().zip(&b.0) {
            *lane -= y;
        }
        Self(v)
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        let mut v = self.0;
        for (lane, &y) in v.iter_mut().zip(&b.0) {
            *lane *= y;
        }
        Self(v)
    }

    #[inline(always)]
    fn relu(self) -> Self {
        let mut v = self.0;
        for lane in &mut v {
            if *lane < 0.0 {
                *lane = 0.0;
            }
        }
        Self(v)
    }

    #[inline(always)]
    fn zero_where_nonpositive(self, gate: Self) -> Self {
        let mut v = self.0;
        for (lane, &g) in v.iter_mut().zip(&gate.0) {
            if g <= 0.0 {
                *lane = 0.0;
            }
        }
        Self(v)
    }

    #[cfg(any(test, target_feature = "avx512f"))]
    #[inline(always)]
    unsafe fn gather(src: *const f64, stride: usize) -> Self {
        Self(std::array::from_fn(|l| *src.add(l * stride)))
    }

    #[cfg(any(test, target_feature = "avx512f"))]
    #[inline(always)]
    fn take_greater(self, column: f64, best: &mut Self, at: &mut Self) {
        for ((&x, b), a) in self.0.iter().zip(&mut best.0).zip(&mut at.0) {
            if !x.is_nan() && (b.is_nan() || x > *b) {
                *b = x;
                *a = column;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Operands that make lanes disagree with a careless rewrite: signed
    /// zeros, infinities, NaN, subnormals and ordinary values.
    const SPECIAL: [f64; 8] =
        [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, -1.5, 2.25];

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every lane of every op of an eight-wide form against the scalar
    /// loop, on every rotation of [`SPECIAL`].
    fn ops_match_the_scalar_loop<L: Lanes>() {
        let read = |v: L| {
            let mut out = [f64::NAN; 8];
            // SAFETY: `out` holds eight f64s.
            unsafe { v.store(out.as_mut_ptr()) };
            out
        };
        for shift in 0..8 {
            let a: [f64; 8] = std::array::from_fn(|l| SPECIAL[(l + shift) % 8]);
            let b: [f64; 8] = std::array::from_fn(|l| SPECIAL[(l * 3 + shift) % 8]);
            let c: [f64; 8] = std::array::from_fn(|l| SPECIAL[(l * 5 + shift + 1) % 8]);
            // SAFETY: each array holds eight f64s.
            let (va, vb, vc) =
                unsafe { (L::load(a.as_ptr()), L::load(b.as_ptr()), L::load(c.as_ptr())) };
            let (fma, sum, relu, masked) = (
                read(vc.mul_add(a[0], vb)),
                read(vc.add(va)),
                read(va.relu()),
                read(va.zero_where_nonpositive(vb)),
            );
            let (diff, prod, splat) = (read(vc.sub(va)), read(vc.mul(vb)), read(L::splat(b[0])));
            for l in 0..8 {
                let mut acc = c[l];
                acc += a[0] * b[l];
                assert!(same(fma[l], acc), "mul_add lane {l}: {} vs {acc}", fma[l]);
                assert!(same(sum[l], c[l] + a[l]), "add lane {l}");
                let r = if a[l] < 0.0 { 0.0 } else { a[l] };
                assert!(same(relu[l], r), "relu lane {l}: {} vs {r}", relu[l]);
                let m = if b[l] <= 0.0 { 0.0 } else { a[l] };
                assert!(same(masked[l], m), "mask lane {l}: {} vs {m}", masked[l]);
                assert!(same(diff[l], c[l] - a[l]), "sub lane {l}");
                assert!(same(prod[l], c[l] * b[l]), "mul lane {l}");
                assert!(same(splat[l], b[0]), "splat lane {l}");
            }
        }
    }

    #[test]
    fn lane_ops_match_the_scalar_loop() {
        #[cfg(target_feature = "avx512f")]
        ops_match_the_scalar_loop::<F64x8<8>>();
        ops_match_the_scalar_loop::<Array<8>>();
    }

    /// A width-`L::WIDTH` load and store move exactly that many elements.
    fn narrow_copy<L: Lanes>() {
        let src: [f64; 8] = std::array::from_fn(|l| l as f64 + 1.0);
        let mut dst = [-7.0; 8];
        // SAFETY: both arrays hold eight f64s, at least `L::WIDTH`.
        unsafe { L::load(src.as_ptr()).store(dst.as_mut_ptr()) };
        for (l, &d) in dst.iter().enumerate() {
            let want = if l < L::WIDTH { src[l] } else { -7.0 };
            assert_eq!(d, want, "width {} lane {l}", L::WIDTH);
        }
    }

    /// The tile against the scalar loop it stands for, on ordinary values
    /// and on [`SPECIAL`] ones, at several tile shapes and dimensions.
    #[test]
    fn distance_tile_matches_the_scalar_loop() {
        fn check<const R: usize, const W: usize>(d: usize, stride: usize, salt: usize) {
            let value = |i: usize| {
                let i = i.wrapping_mul(2_654_435_761).wrapping_add(salt) % 97;
                if i < 8 {
                    SPECIAL[i]
                } else {
                    (i as f64 - 48.0) * 0.37
                }
            };
            let blocks: Vec<Vec<f64>> =
                (0..R).map(|r| (0..d * LANES).map(|i| value(i + 1000 * r)).collect()).collect();
            let centres: Vec<f64> = (0..d * stride).map(|i| value(i + 7919)).collect();
            let refs: [&[f64]; R] = std::array::from_fn(|r| &blocks[r][..]);
            let out = sq_distance_tile::<R, W>(refs, &centres, stride);
            for r in 0..R {
                for w in 0..W {
                    for l in 0..LANES {
                        let mut acc = 0.0;
                        for j in 0..d {
                            let diff = blocks[r][j * LANES + l] - centres[j * stride + w];
                            acc += diff * diff;
                        }
                        assert!(same(out[r][w][l], acc), "R={R} W={W} d={d} [{r}][{w}][{l}]");
                    }
                }
            }
        }
        for (d, salt) in [(0, 0), (1, 3), (7, 11), (20, 5)] {
            check::<4, 1>(d, 1, salt);
            check::<1, 1>(d, 1, salt);
            check::<1, 3>(d, 5, salt);
            check::<1, 4>(d, 4, salt);
            check::<2, 4>(d, 9, salt);
        }
    }

    #[test]
    fn sum_by_cluster_matches_the_scalar_loop() {
        for (d, count) in [(0, 8), (1, 3), (5, 8), (8, 8), (13, 5), (16, 1), (20, 8)] {
            let block: Vec<f64> = (0..d * LANES).map(|i| (i as f64 * 0.37).sin()).collect();
            let clusters: Vec<usize> = (0..count).map(|l| (l * 5) % 3).collect();
            let start: Vec<f64> = (0..3 * d).map(|i| i as f64 * 0.1).collect();
            let mut sums = start.clone();
            sum_by_cluster(&block, &clusters, &mut sums);
            let mut want = start;
            for (l, &c) in clusters.iter().enumerate() {
                for j in 0..d {
                    want[c * d + j] += block[j * LANES + l];
                }
            }
            assert!(sums.iter().zip(&want).all(|(a, b)| same(*a, *b)), "d={d} count={count}");
        }
    }

    #[test]
    fn narrow_loads_and_stores_touch_only_their_lanes() {
        #[cfg(target_feature = "avx512f")]
        {
            narrow_copy::<F64x8<1>>();
            narrow_copy::<F64x8<2>>();
            narrow_copy::<F64x8<3>>();
            narrow_copy::<F64x8<4>>();
            narrow_copy::<F64x8<5>>();
            narrow_copy::<F64x8<6>>();
            narrow_copy::<F64x8<7>>();
            narrow_copy::<F64x8<8>>();
        }
        narrow_copy::<Array<1>>();
        narrow_copy::<Array<2>>();
        narrow_copy::<Array<3>>();
        narrow_copy::<Array<4>>();
        narrow_copy::<Array<5>>();
        narrow_copy::<Array<6>>();
        narrow_copy::<Array<7>>();
        narrow_copy::<Array<8>>();
    }

    /// Both lane `exp`s of `xs` against libm's `f64::exp`, bit for bit.
    ///
    /// The oracle is the libm the tests link against. The lane `exp`
    /// re-evaluates glibc's (2.28 or later, musl's too) as its FMA build
    /// runs on an FMA host, so these tests assume that libm; under another
    /// one the paper tables would move as well.
    fn assert_exp_matches_libm(xs: &[f64]) {
        for chunk in xs.chunks(LANES) {
            let mut lanes = [0.0; LANES];
            lanes[..chunk.len()].copy_from_slice(chunk);
            #[cfg(target_feature = "avx512f")]
            let wide = {
                let mut out = [0.0; LANES];
                // SAFETY: AVX-512F is enabled, and both arrays hold eight f64s.
                unsafe {
                    use std::arch::x86_64::*;
                    let x = _mm512_loadu_pd(lanes.as_ptr());
                    _mm512_storeu_pd(out.as_mut_ptr(), imp::exp(x));
                }
                out
            };
            // Without AVX-512F the lane form is the only one.
            #[cfg(not(target_feature = "avx512f"))]
            let wide = lanes.map(exp);
            for (l, (&x, w)) in lanes.iter().zip(wide).enumerate() {
                let want = x.exp().to_bits();
                for (form, got) in [("lane", exp(x)), ("F64x8", w)] {
                    let got = got.to_bits();
                    assert_eq!(
                        got,
                        want,
                        "{form} exp({x:e}) [{:#018x}] lane {l}: {got:#018x} vs libm {want:#018x}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn exp_matches_libm_on_a_seeded_sample() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xE4B);
        let xs: Vec<f64> = (0..1 << 20).map(|_| rng.random_range(-760.0..710.0)).collect();
        assert_exp_matches_libm(&xs);
    }

    /// Inputs in every one of the table's 128 slots, at several integer
    /// exponents of the result and both signs, each at five points of its
    /// slot.
    #[test]
    fn exp_matches_libm_in_every_table_slot() {
        let step = std::f64::consts::LN_2 / 128.0;
        let mut xs = Vec::new();
        for m in [0.0, 1.0, 7.0, 40.0, 300.0, 700.0, 1022.0, 1070.0] {
            for k in 0..128 {
                for d in [-0.49, -0.25, 0.0, 0.25, 0.49] {
                    let x = (128.0 * m + k as f64 + d) * step;
                    xs.extend([x, -x]);
                }
            }
        }
        assert_exp_matches_libm(&xs);
    }

    #[test]
    fn exp_matches_libm_at_its_edges() {
        let tiny = f64::from_bits(TINY_TOP << 52);
        let mut xs = vec![
            0.0,
            2f64.powi(-60),
            tiny,
            tiny.next_down(),
            tiny.next_up(),
            f64::MIN_POSITIVE,
            5e-324,
            1.0,
            512.0,
            512f64.next_down(),
            709.78,
            710.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            // Inputs whose `x · N / ln 2` lies within a few ulps of a
            // half-integer: an unfused multiply and add of the shift
            // rounds `k` the other way there, and the result's last bit
            // with it. glibc fuses them.
            f64::from_bits(0xc03d_d467_0977_f43a),
            f64::from_bits(0x400e_2c6e_a35b_e550),
            f64::from_bits(0x403a_2e0a_4343_0772),
            f64::from_bits(0xc07c_e393_c110_8e6a),
            f64::from_bits(0xc079_a744_2b2e_be07),
            f64::from_bits(0xc072_04f0_1434_d6be),
            f64::from_bits(0xc068_b4b5_458b_6caa),
            f64::from_bits(0xc04f_969a_0147_330a),
            f64::from_bits(0x405f_4554_7fcc_f232),
            f64::from_bits(0x4076_fbff_1764_3de2),
            f64::from_bits(0x407a_f107_f339_8a30),
            f64::from_bits(0x407e_3f30_c304_87ee),
        ];
        // Results in the subnormal range and the underflow to zero.
        xs.extend((0..=3700).map(|i| -708.0 - i as f64 / 100.0));
        let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        assert_exp_matches_libm(&xs);
    }

    /// Rows that make a row argmax disagree with a careless rewrite: NaN
    /// first, last and everywhere, infinities of both signs, `-0.0`/`0.0`
    /// ties in either order, repeated maxima, and ordinary values.
    fn argmax_case(i: usize, cols: usize) -> Vec<f64> {
        let ordinary = |j: usize| ((i * 31 + j * 17) % 13) as f64 * 0.5 - 3.0;
        (0..cols)
            .map(|j| match i % 11 {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 if j % 2 == 0 => f64::NAN,
                2 => f64::NEG_INFINITY,
                3 => [-0.0, 0.0][j % 2],
                4 => [0.0, -0.0][j % 2],
                5 if j == cols - 1 => f64::INFINITY,
                6 if j == 0 => f64::NAN,
                7 => 2.5,
                8 => SPECIAL[(i + j) % 8],
                _ => ordinary(j),
            })
            .collect()
    }

    /// Both forms against `vector::argmax(row).unwrap_or(0)` on every row
    /// count up to three blocks and a partial one, at widths 1-9.
    #[test]
    fn argmax_rows_matches_the_scalar_argmax() {
        for cols in 1..=9 {
            for rows in 0..=27 {
                let data: Vec<f64> = (0..rows).flat_map(|i| argmax_case(i, cols)).collect();
                let want: Vec<usize> = data
                    .chunks_exact(cols)
                    .map(|row| crate::vector::argmax(row).unwrap_or(0))
                    .collect();
                let mut got = vec![usize::MAX; rows];
                argmax_rows(&data, cols, &mut got);
                assert_eq!(got, want, "{rows}x{cols}");
                let mut by_array = vec![usize::MAX; rows];
                for (block, out) in data.chunks(LANES * cols).zip(by_array.chunks_mut(LANES)) {
                    if out.len() == LANES {
                        argmax_block::<Array<LANES>>(block, cols, out);
                    } else {
                        with_lanes!(out.len(), L => argmax_block::<L>(block, cols, out));
                    }
                }
                assert_eq!(by_array, want, "array form {rows}x{cols}");
            }
        }
        let mut out = [7; 3];
        argmax_rows(&[], 0, &mut out);
        assert_eq!(out, [0; 3]);
    }

    /// The per-row loop [`softmax_grad_rows`] stands for.
    fn reference_softmax_grad(
        probs: &[f64],
        cols: usize,
        labels: &[usize],
        weights: Option<&[f64]>,
        total: f64,
    ) -> Vec<f64> {
        let mut out = probs.to_vec();
        for (r, (row, &y)) in out.chunks_exact_mut(cols).zip(labels).enumerate() {
            row[y] -= 1.0;
            let w = match weights {
                None => 1.0 / total,
                Some(ws) => ws[r] / total,
            };
            for v in row {
                *v *= w;
            }
        }
        out
    }

    /// The kernel against the reference at widths 1-10 (one register and
    /// past it), row counts up to two blocks and a partial one, with and
    /// without weights, on probabilities and on [`SPECIAL`] entries.
    #[test]
    fn softmax_grad_rows_matches_the_scalar_loop() {
        for cols in 1..=10 {
            for rows in 0..=19 {
                let probs: Vec<f64> = (0..rows * cols)
                    .map(|i| match (i * 7 + cols) % 17 {
                        0 => SPECIAL[(i / 17) % 8],
                        k => (k as f64 * 0.37 + i as f64 * 0.011).sin().abs(),
                    })
                    .collect();
                let labels: Vec<usize> = (0..rows).map(|r| (r * 5 + cols) % cols).collect();
                let weights: Vec<f64> = (0..rows).map(|r| 0.25 + (r % 7) as f64 * 0.3).collect();
                let total: f64 = weights.iter().sum::<f64>() + 0.1;
                for (weights, total) in [(None, rows.max(1) as f64), (Some(&weights[..]), total)] {
                    let want = reference_softmax_grad(&probs, cols, &labels, weights, total);
                    let mut got = vec![f64::NAN; rows * cols];
                    softmax_grad_rows(&probs, cols, &labels, weights, total, &mut got);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            same(*g, *w),
                            "{rows}x{cols} weighted={} at {i}: {g:e} vs {w:e}",
                            weights.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn softmax_grad_rows_rejects_a_label_past_the_columns() {
        softmax_grad_rows(&[0.5; 6], 3, &[0, 3], None, 2.0, &mut [0.0; 6]);
    }

    /// The per-row loop [`softmax_rows`] stands for, with libm's `exp`.
    fn reference_softmax(data: &mut [f64], cols: usize) {
        for row in data.chunks_exact_mut(cols) {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }

    /// The kernel, and the row form on its own, against the reference on
    /// every row count up to three blocks and a partial one (full and
    /// masked-off lanes), with ordinary logits, ties, signed zeros, wide
    /// spans that send lanes to libm, and [`SPECIAL`] ones.
    #[test]
    fn softmax_rows_matches_the_scalar_loop() {
        for cols in 1..=9 {
            for rows in 0..=19 {
                let data: Vec<f64> = (0..rows * cols)
                    .map(|i| match (i * 7 + cols) % 23 {
                        0 => SPECIAL[(i / 23) % 8],
                        1 | 2 => 1.5,
                        3 => -0.0,
                        4 => -600.0 - i as f64,
                        5 => 0.3 * i as f64 - 9.0,
                        k => ((i * 31 + k) as f64 * 0.37).sin() * 8.0,
                    })
                    .collect();
                let mut want = data.clone();
                reference_softmax(&mut want, cols);
                let mut got = data.clone();
                softmax_rows(&mut got, cols);
                let mut by_row = data.clone();
                by_row.chunks_exact_mut(cols).for_each(softmax_row);
                for (i, ((&g, &r), &w)) in got.iter().zip(&by_row).zip(&want).enumerate() {
                    let at = (i / cols, i % cols);
                    assert!(g.to_bits() == w.to_bits(), "{rows}x{cols} at {at:?}: {g:e} vs {w:e}");
                    assert!(
                        r.to_bits() == w.to_bits(),
                        "row form {rows}x{cols} at {at:?}: {r:e} vs {w:e}"
                    );
                }
            }
        }
        softmax_rows(&mut [], 0);
    }
}
