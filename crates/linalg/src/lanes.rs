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
}

// Compiled only when the build target enables AVX-512F, which makes
// every intrinsic below available; the `unsafe` blocks around the
// value-only ones discharge exactly that obligation.
#[cfg(target_feature = "avx512f")]
mod imp {
    use super::Lanes;
    use std::arch::x86_64::*;

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
}
