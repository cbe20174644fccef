//! Free functions over `&[f64]` slices.
//!
//! The shift graph works almost entirely on small projected vectors
//! (`ȳ_t` in the paper), so these helpers are the hottest primitives in
//! pattern detection.

/// Number of f64 lanes in the wide kernel core (one AVX-512 register, two
/// AVX2 registers). [`dot_wide`] and [`axpy`] unroll to this width.
pub const WIDE_LANES: usize = 8;

/// Dot product of two equal-length slices.
///
/// Accumulates into four independent lanes so the additions do not form
/// one serial dependency chain; the compiler can keep all lanes in
/// flight (and vectorise them) instead of stalling on each `+`.
///
/// This 4-lane association order is the repository's *reference*
/// reduction: every checked-in paper artifact was produced with it. The
/// `wide-kernels` feature reroutes this function to the 8-lane
/// [`dot_wide`], which reassociates (different bits past ~1 ulp) and is
/// therefore validated by the tolerance-gated A/B suite instead of byte
/// identity; see DESIGN.md §3g.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(feature = "wide-kernels")]
    {
        dot_wide(a, b)
    }
    #[cfg(not(feature = "wide-kernels"))]
    {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = [0.0f64; 4];
        for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
            acc[0] += ca[0] * cb[0];
            acc[1] += ca[1] * cb[1];
            acc[2] += ca[2] * cb[2];
            acc[3] += ca[3] * cb[3];
        }
        let tail: f64 = a
            .chunks_exact(4)
            .remainder()
            .iter()
            .zip(b.chunks_exact(4).remainder())
            .map(|(x, y)| x * y)
            .sum();
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }
}

/// Dot product over [`WIDE_LANES`] independent accumulator lanes — the
/// wide-lane reduction core of the kernel layer.
///
/// One loop iteration consumes a full 8-lane vector register of each
/// operand, so the reduction runs at native SIMD width instead of the
/// 4-lane reference order. The price is reassociation: results differ
/// from [`dot`] in the last bits for lengths ≥ 8, so this core only
/// serves the default path where per-element accumulation order is not
/// observable, and replaces `dot` wholesale only under the
/// `wide-kernels` feature (covered by the tolerance-gated A/B tests).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot_wide(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; WIDE_LANES];
    for (ca, cb) in a.chunks_exact(WIDE_LANES).zip(b.chunks_exact(WIDE_LANES)) {
        for l in 0..WIDE_LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let tail: f64 = a
        .chunks_exact(WIDE_LANES)
        .remainder()
        .iter()
        .zip(b.chunks_exact(WIDE_LANES).remainder())
        .map(|(x, y)| x * y)
        .sum();
    let half = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let other = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    half + other + tail
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two equal-length slices
/// (`d_t = ‖ȳ_t − ȳ_{t−1}‖`, Equation 7 of the paper).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// The square [`euclidean_distance`] takes the root of: the squared
/// differences summed in index order.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
/// Panics if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
/// Panics if lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// In-place `a += alpha * b`, unrolled to [`WIDE_LANES`] elements per
/// iteration.
///
/// Unlike the dot reductions, axpy is element-wise — each `a[i]` sees
/// exactly one fused `+ alpha * b[i]` regardless of lane width — so the
/// wide unroll is bit-identical to the scalar loop and safe on the
/// default path.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(a: &mut [f64], alpha: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    let mut ca = a.chunks_exact_mut(WIDE_LANES);
    let mut cb = b.chunks_exact(WIDE_LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..WIDE_LANES {
            xa[l] += alpha * xb[l];
        }
    }
    for (x, &y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x += alpha * y;
    }
}

/// In-place scalar multiplication.
#[inline]
pub fn scale(a: &mut [f64], alpha: f64) {
    for x in a {
        *x *= alpha;
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population standard deviation; `0.0` for slices shorter than 2.
pub fn std_dev(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    (a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64).sqrt()
}

/// Index of the maximum element (first one on ties).
///
/// Returns `None` for an empty slice; NaN entries never win.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in a.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if x <= b => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Normalises `a` in place so it sums to one; leaves an all-zero slice
/// untouched (there is no meaningful direction to normalise toward).
pub fn normalize_sum(a: &mut [f64]) {
    let s: f64 = a.iter().sum();
    if s.abs() > f64::EPSILON {
        scale(a, 1.0 / s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 1.0, 4.5];
        assert_eq!(euclidean_distance(&a, &a), 0.0);
        assert!((euclidean_distance(&a, &b) - euclidean_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn sub_add_axpy_scale_roundtrip() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.5, 0.5, 0.5];
        let mut c = sub(&a, &b);
        axpy(&mut c, 1.0, &b);
        assert_eq!(c, a);
        let d = add(&a, &b);
        assert_eq!(d, vec![1.5, 2.5, 3.5]);
        let mut e = a;
        scale(&mut e, 2.0);
        assert_eq!(e, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_prefers_first_max_and_skips_nan() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn dot_wide_matches_reference_within_tolerance() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.731).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 1.173).cos()).collect();
        let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let wide = dot_wide(&a, &b);
        assert!((wide - reference).abs() <= 1e-12 * reference.abs().max(1.0));
    }

    #[test]
    fn dot_wide_is_exact_below_lane_width() {
        // Shorter than one lane group the wide path is pure tail — the
        // same ascending scalar sum — so it is bit-identical to naive.
        for len in 0..WIDE_LANES {
            let a: Vec<f64> = (0..len).map(|i| 1.0 + i as f64 * 0.37).collect();
            let b: Vec<f64> = (0..len).map(|i| 2.0 - i as f64 * 0.11).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot_wide(&a, &b), naive, "len {len}");
        }
    }

    #[test]
    fn wide_axpy_is_bit_identical_to_scalar() {
        let b: Vec<f64> = (0..29).map(|i| (i as f64 * 0.913).sin()).collect();
        let mut wide: Vec<f64> = (0..29).map(|i| (i as f64 * 0.417).cos()).collect();
        let mut scalar = wide.clone();
        axpy(&mut wide, 0.737, &b);
        for (x, &y) in scalar.iter_mut().zip(&b) {
            *x += 0.737 * y;
        }
        assert_eq!(wide, scalar);
    }

    #[test]
    fn normalize_sum_handles_zero_vector() {
        let mut a = vec![0.0, 0.0];
        normalize_sum(&mut a);
        assert_eq!(a, vec![0.0, 0.0]);
        let mut b = vec![1.0, 3.0];
        normalize_sum(&mut b);
        assert!((b[0] - 0.25).abs() < 1e-12 && (b[1] - 0.75).abs() < 1e-12);
    }
}
