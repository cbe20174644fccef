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

/// A register of [`Lanes::WIDTH`] `f64` lanes: the value a register tile
/// accumulates one output row (or column) in.
pub(crate) trait Lanes: Copy {
    /// Live lanes, `1..=8`.
    const WIDTH: usize;

    /// All lanes `+0.0`.
    fn zero() -> Self;

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
            for l in 0..8 {
                let mut acc = c[l];
                acc += a[0] * b[l];
                assert!(same(fma[l], acc), "mul_add lane {l}: {} vs {acc}", fma[l]);
                assert!(same(sum[l], c[l] + a[l]), "add lane {l}");
                let r = if a[l] < 0.0 { 0.0 } else { a[l] };
                assert!(same(relu[l], r), "relu lane {l}: {} vs {r}", relu[l]);
                let m = if b[l] <= 0.0 { 0.0 } else { a[l] };
                assert!(same(masked[l], m), "mask lane {l}: {} vs {m}", masked[l]);
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
