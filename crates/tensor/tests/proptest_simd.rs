//! Property-based scalar-vs-SIMD equivalence for the dispatched kernels.
//!
//! On AVX2+FMA hosts these compare the runtime-dispatched path against the
//! scalar reference (`simd::scalar`) under the refactor's contract: ≤1e-5
//! relative error on finite values, with NaN/∞/subnormal inputs handled
//! identically in kind (NaN stays NaN, overflow saturates, underflow
//! flushes). On scalar-only hosts dispatch and reference coincide and the
//! properties hold trivially.

use pim_tensor::simd;
use proptest::prelude::*;

const REL_TOL: f32 = 1e-5;

fn close(got: f32, want: f32, tol: f32) -> bool {
    if got == want {
        return true;
    }
    if got.is_nan() || want.is_nan() {
        return got.is_nan() && want.is_nan();
    }
    if want.is_infinite() || got.is_infinite() {
        return got == want;
    }
    // Outputs that underflow the normal range count as zero on both sides.
    if want.abs() < f32::MIN_POSITIVE && got.abs() < f32::MIN_POSITIVE {
        return true;
    }
    (got - want).abs() <= tol * want.abs().max(1.0)
}

/// Strategy: a float slice with occasional special values spliced in
/// (NaN, ±∞, subnormals, zero) so the kernels' edge handling is exercised,
/// not just the happy path.
fn values_with_specials(
    range: std::ops::Range<f32>,
    max_len: usize,
) -> impl Strategy<Value = Vec<f32>> {
    (1usize..=max_len, 0u32..64).prop_flat_map(move |(len, special_mask)| {
        proptest::collection::vec(range.clone(), len).prop_map(move |mut xs| {
            let specials = [
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE / 4.0, // subnormal
                -f32::MIN_POSITIVE / 4.0,
                0.0,
            ];
            for (slot, &sp) in specials.iter().enumerate() {
                if special_mask & (1 << slot) != 0 {
                    let idx = (slot * 7 + 3) % xs.len();
                    xs[idx] = sp;
                }
            }
            xs
        })
    })
}

/// Strategy: a finite float slice (no specials) for kernels whose scalar
/// reference would itself produce NaN from them.
fn finite_values(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    (1usize..=max_len).prop_flat_map(|len| proptest::collection::vec(-2.0f32..2.0, len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exp_slice_matches_scalar(xs in values_with_specials(-80.0f32..80.0, 37)) {
        let mut got = xs.clone();
        simd::exp_slice(&mut got);
        let mut want = xs.clone();
        simd::scalar::exp_slice(&mut want);
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(close(g, w, REL_TOL), "exp({}) = {} vs {}", xs[i], g, w);
        }
    }

    #[test]
    fn div_slice_matches_scalar_bitwise(
        xs in values_with_specials(-1e3f32..1e3, 37),
        denom in 1e-3f32..1e3,
    ) {
        let mut got = xs.clone();
        simd::div_slice(&mut got, denom);
        let mut want = xs.clone();
        simd::scalar::div_slice(&mut want, denom);
        for (&g, &w) in got.iter().zip(&want) {
            prop_assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{} vs {}", g, w
            );
        }
    }

    #[test]
    fn dot_matches_scalar(a in finite_values(67), b in finite_values(67)) {
        let n = a.len().min(b.len());
        let got = simd::dot(&a[..n], &b[..n]);
        let want = simd::scalar::dot(&a[..n], &b[..n]);
        prop_assert!(close(got, want, REL_TOL), "{} vs {}", got, want);
    }

    #[test]
    fn axpy_matches_scalar(
        alpha in -2.0f32..2.0,
        x in finite_values(67),
        y0 in finite_values(67),
    ) {
        let n = x.len().min(y0.len());
        let mut got = y0[..n].to_vec();
        simd::axpy(alpha, &x[..n], &mut got);
        let mut want = y0[..n].to_vec();
        simd::scalar::axpy(alpha, &x[..n], &mut want);
        for (&g, &w) in got.iter().zip(&want) {
            prop_assert!(close(g, w, REL_TOL), "{} vs {}", g, w);
        }
    }

    #[test]
    fn scale_add_matches_scalar(
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        x in finite_values(67),
        y0 in finite_values(67),
    ) {
        let n = x.len().min(y0.len());
        for b in [beta, 0.0] {
            let mut got = y0[..n].to_vec();
            simd::scale_add(alpha, &x[..n], b, &mut got);
            let mut want = y0[..n].to_vec();
            simd::scalar::scale_add(alpha, &x[..n], b, &mut want);
            for (&g, &w) in got.iter().zip(&want) {
                prop_assert!(close(g, w, REL_TOL), "beta={}: {} vs {}", b, g, w);
            }
        }
    }

    #[test]
    fn softmax_row_matches_scalar_and_sums_to_one(logits in finite_values(41)) {
        let mut got = vec![0.0f32; logits.len()];
        simd::softmax_row(&logits, &mut got);
        let mut want = vec![0.0f32; logits.len()];
        simd::scalar::softmax_row(&logits, &mut want);
        for (&g, &w) in got.iter().zip(&want) {
            prop_assert!(close(g, w, REL_TOL), "{} vs {}", g, w);
        }
        let sum: f32 = got.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {}", sum);
    }

    #[test]
    fn block_kernels_match_scalar(
        rows in 1usize..8,
        ch in 1usize..24,
        seed in 0u64..1024,
    ) {
        // Deterministic fill from the seed keeps the strategy cheap while
        // still sweeping block geometries around the 8-lane boundary.
        let gen = |salt: u64| -> Vec<f32> {
            (0..rows * ch)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed ^ salt);
                    ((h % 2000) as f32 / 1000.0) - 1.0
                })
                .collect()
        };
        let c: Vec<f32> = (0..rows).map(|i| 0.1 + (((seed + i as u64) % 10) as f32) * 0.09).collect();
        let u = gen(1);
        let m = gen(2);
        let sig: Vec<f32> = gen(3).iter().map(|x| x.abs() + 0.05).collect();

        let mut s_got = gen(4);
        let mut s_want = s_got.clone();
        simd::weighted_sum_block(&c, &u, &mut s_got, ch);
        simd::scalar::weighted_sum_block(&c, &u, &mut s_want, ch);
        for (&g, &w) in s_got.iter().zip(&s_want) {
            prop_assert!(close(g, w, REL_TOL), "weighted_sum {} vs {}", g, w);
        }

        let mut b_got = vec![0.0f32; rows];
        let mut b_want = vec![0.0f32; rows];
        simd::agreement_block(&u, &m, &mut b_got, ch);
        simd::scalar::agreement_block(&u, &m, &mut b_want, ch);
        for (&g, &w) in b_got.iter().zip(&b_want) {
            prop_assert!(close(g, w, 1e-4), "agreement {} vs {}", g, w);
        }

        let mut a_got = vec![0.0f32; rows * ch];
        let mut a_want = vec![0.0f32; rows * ch];
        simd::sq_diff_axpy_block(&c, &u, &m, &mut a_got, ch);
        simd::scalar::sq_diff_axpy_block(&c, &u, &m, &mut a_want, ch);
        for (&g, &w) in a_got.iter().zip(&a_want) {
            prop_assert!(close(g, w, 1e-4), "sq_diff {} vs {}", g, w);
        }

        let mut q_got = vec![0.0f32; rows];
        let mut q_want = vec![0.0f32; rows];
        simd::mahalanobis_block(&u, &m, &sig, &mut q_got, ch);
        simd::scalar::mahalanobis_block(&u, &m, &sig, &mut q_want, ch);
        for (&g, &w) in q_got.iter().zip(&q_want) {
            prop_assert!(close(g, w, 1e-4), "mahalanobis {} vs {}", g, w);
        }
    }
}
