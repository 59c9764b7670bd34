//! The squash non-linearity (paper Eq 3):
//!
//! ```text
//! v = (||s||² / (1 + ||s||²)) · (s / ||s||)
//! ```
//!
//! shrinks short vectors toward zero and long vectors toward unit norm,
//! preserving orientation. In backend terms it costs `CH` multiply-adds for
//! the norm square, one inverse square root, one division and `CH`
//! multiplies — the "3·CH + 19 operations" the paper's E-model charges
//! per capsule (Eq 6).

use crate::backend::MathBackend;

/// Computes the scalar factor `||s||/(1+||s||²)` the squash applies to `s`,
/// given the squared norm.
///
/// Exposed separately so the census/PE-program builders can reason about
/// the special-function content: one `inv_sqrt`, one `div`, two multiplies.
///
/// Generic over the backend (with `?Sized` so `&dyn MathBackend` still
/// works): concrete backends monomorphize and inline, which is what keeps
/// the routing hot loop free of virtual calls.
#[inline]
fn squash_scale<B: MathBackend + ?Sized>(norm_sq: f32, backend: &B) -> f32 {
    // Non-positive, NaN, or overflowed (∞) norm squares all clamp to a zero
    // scale: capsule norm-squares are non-negative and finite by
    // construction, so anything else is numerical noise, and the raw
    // composition below would turn ∞ into `∞ · inv_sqrt(∞) = NaN`.
    if norm_sq.is_nan() || norm_sq <= 0.0 || norm_sq == f32::INFINITY {
        return 0.0;
    }
    // ||s||/(1+||s||²)  ==  norm_sq * inv_sqrt(norm_sq) / (1 + norm_sq)
    let norm = norm_sq * backend.inv_sqrt(norm_sq);
    backend.div(norm, 1.0 + norm_sq)
}

/// Applies the squash in place to one capsule vector.
///
/// # Examples
///
/// ```
/// use capsnet::{squash_in_place, ExactMath};
///
/// let mut long = [100.0f32, 0.0];
/// squash_in_place(&mut long, &ExactMath);
/// assert!((long[0] - 100.0 * 100.0 / (1.0 + 100.0f32 * 100.0) ).abs() < 1e-3);
/// assert!(long[0] < 1.0 && long[0] > 0.99); // long vectors approach unit norm
///
/// let mut short = [0.01f32, 0.0];
/// squash_in_place(&mut short, &ExactMath);
/// assert!(short[0] < 0.011); // short vectors shrink toward zero
/// ```
#[inline]
pub fn squash_in_place<B: MathBackend + ?Sized>(s: &mut [f32], backend: &B) {
    if s.is_empty() {
        return;
    }
    let norm_sq = backend.dot(s, s);
    let k = squash_scale(norm_sq, backend);
    for x in s {
        *x *= k;
    }
}

/// Squashes `s` into `v` without mutating `s`: the norm square is one
/// backend `dot`, the write-out one backend `scale_add` — both SIMD-wide
/// under [`crate::ExactMath`], and `v`'s previous contents are ignored
/// (safe for reused arena buffers).
///
/// # Panics
///
/// Debug-asserts `s` and `v` have equal lengths.
#[inline]
pub fn squash_into<B: MathBackend + ?Sized>(s: &[f32], v: &mut [f32], backend: &B) {
    debug_assert_eq!(s.len(), v.len());
    // Zero-length capsule slices are a no-op by definition (guard audit:
    // degenerate geometry must not reach the backend kernels, whose
    // behavior on empty chunks is an implementation detail).
    if s.is_empty() {
        return;
    }
    let norm_sq = backend.dot(s, s);
    let k = squash_scale(norm_sq, backend);
    backend.scale_add(k, s, 0.0, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproxMath, ExactMath};

    fn norm(v: &[f32]) -> f32 {
        v.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    #[test]
    fn zero_vector_stays_zero() {
        let mut v = [0.0f32; 4];
        squash_in_place(&mut v, &ExactMath);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn output_norm_below_one() {
        for scale in [0.01f32, 0.1, 1.0, 10.0, 1000.0] {
            let mut v = [scale, -scale, scale * 0.5];
            squash_in_place(&mut v, &ExactMath);
            assert!(norm(&v) < 1.0, "norm {} at scale {scale}", norm(&v));
        }
    }

    #[test]
    fn preserves_direction() {
        let mut v = [3.0f32, 4.0];
        squash_in_place(&mut v, &ExactMath);
        // direction (3,4)/5 must be preserved
        let n = norm(&v);
        assert!((v[0] / n - 0.6).abs() < 1e-5);
        assert!((v[1] / n - 0.8).abs() < 1e-5);
    }

    #[test]
    fn matches_closed_form() {
        let mut v = [1.0f32, 2.0, 2.0]; // norm 3, norm_sq 9
        squash_in_place(&mut v, &ExactMath);
        // k = 9/(1+9) / 3 = 0.3
        assert!((v[0] - 0.3).abs() < 1e-6);
        assert!((v[1] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn monotone_in_magnitude() {
        // Larger inputs squash to larger outputs (norm-wise).
        let mut prev = 0.0f32;
        for scale in [0.1f32, 0.5, 1.0, 2.0, 8.0] {
            let mut v = [scale, 0.0];
            squash_in_place(&mut v, &ExactMath);
            assert!(v[0] > prev);
            prev = v[0];
        }
    }

    #[test]
    fn squash_into_matches_in_place() {
        for backend_choice in 0..2 {
            let src = [0.3f32, -0.8, 1.4, 0.05, -2.2];
            let mut in_place = src;
            let mut into = [f32::NAN; 5]; // stale garbage must be overwritten
            if backend_choice == 0 {
                squash_in_place(&mut in_place, &ExactMath);
                squash_into(&src, &mut into, &ExactMath);
            } else {
                let b = ApproxMath::with_recovery();
                squash_in_place(&mut in_place, &b);
                squash_into(&src, &mut into, &b);
            }
            for (a, b) in in_place.iter().zip(&into) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_vector_edge_cases_all_lengths() {
        // Zero vectors must squash to exactly zero for every length the
        // SIMD kernels chunk differently (full lanes, remainders, empty).
        for len in [0usize, 1, 3, 7, 8, 9, 16, 17] {
            let mut v = vec![0.0f32; len];
            squash_in_place(&mut v, &ExactMath);
            assert!(v.iter().all(|&x| x == 0.0), "len {len}");
            let mut out = vec![f32::NAN; len];
            squash_into(&vec![0.0f32; len], &mut out, &ExactMath);
            assert!(out.iter().all(|&x| x == 0.0), "len {len}");
        }
    }

    #[test]
    fn empty_capsule_slices_are_a_no_op_on_every_backend() {
        // Regression (guard audit): zero-length capsules must no-op before
        // reaching the backend kernels, on exact and approximate backends.
        let approx = ApproxMath::with_recovery();
        squash_in_place::<ExactMath>(&mut [], &ExactMath);
        squash_in_place::<ApproxMath>(&mut [], &approx);
        squash_into::<ExactMath>(&[], &mut [], &ExactMath);
        squash_into::<ApproxMath>(&[], &mut [], &approx);
    }

    #[test]
    fn huge_norms_stay_finite_and_below_one() {
        // Norm squares up to ~1e38 (the edge of f32) must not round-trip
        // through ∞ or NaN; the squashed norm approaches 1 from below.
        for scale in [1e10f32, 1e15, 1e18, 3e18] {
            let mut v = [scale, -scale, scale * 0.5, scale * 0.25];
            squash_in_place(&mut v, &ExactMath);
            assert!(v.iter().all(|x| x.is_finite()), "scale {scale}: {v:?}");
            let n = norm(&v);
            assert!(n < 1.0 + 1e-5, "scale {scale}: norm {n}");
            assert!(n > 0.9, "scale {scale}: norm collapsed to {n}");
        }
    }

    #[test]
    fn overflowing_norm_square_clamps_not_nans() {
        // ||s||² overflows f32 → inf; squash_scale must treat that as the
        // long-vector limit (norm → 1 direction preserved or zeroed), never
        // NaN.
        let mut v = [f32::MAX / 2.0, f32::MAX / 2.0];
        squash_in_place(&mut v, &ExactMath);
        assert!(v.iter().all(|x| !x.is_nan()), "{v:?}");
    }

    #[test]
    fn subnormal_inputs_shrink_toward_zero() {
        let tiny = f32::MIN_POSITIVE; // smallest normal
        let mut v = [tiny, tiny * 0.5, 0.0];
        squash_in_place(&mut v, &ExactMath);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(norm(&v) <= tiny, "short vectors shrink: {v:?}");
    }

    #[test]
    fn approx_backend_is_close() {
        let approx = ApproxMath::with_recovery();
        for scale in [0.05f32, 0.7, 3.0, 50.0] {
            let mut a = [scale, scale * 0.3, -scale];
            let mut e = a;
            squash_in_place(&mut a, &approx);
            squash_in_place(&mut e, &ExactMath);
            for (x, y) in a.iter().zip(&e) {
                assert!(
                    (x - y).abs() <= 0.01 * (1.0 + y.abs()),
                    "approx {x} vs exact {y} at scale {scale}"
                );
            }
        }
    }
}
