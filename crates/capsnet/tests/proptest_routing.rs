//! Property-based tests for the routing procedure and squash invariants.

use capsnet::routing::{dynamic_routing_with, em_routing_with, RoutingOutput, RoutingScratch};
use capsnet::{squash_in_place, ApproxMath, ExactMath, MathBackend};
use pim_tensor::Tensor;
use proptest::prelude::*;

/// Strategy: a û tensor with bounded values and small dimensions.
fn u_hat_strategy() -> impl Strategy<Value = (Tensor, usize, usize, usize, usize)> {
    (1usize..=3, 2usize..=6, 2usize..=4, 2usize..=6).prop_flat_map(|(b, l, h, ch)| {
        proptest::collection::vec(-1.0f32..1.0, b * l * h * ch)
            .prop_map(move |data| (Tensor::from_vec(data, &[b, l, h, ch]).unwrap(), b, l, h, ch))
    })
}

/// Batch-shared dynamic routing on a fresh scratch.
fn dynamic<B: MathBackend>(u_hat: &Tensor, iterations: usize, backend: &B) -> RoutingOutput {
    dynamic_routing_with(u_hat, iterations, true, backend, &mut RoutingScratch::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routing_coefficients_always_distributions((u_hat, _b, l, h, _ch) in u_hat_strategy()) {
        let out = dynamic(&u_hat, 3, &ExactMath);
        prop_assert_eq!(out.coefficients.shape().dims(), &[l, h]);
        for row in out.coefficients.as_slice().chunks(h) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {}", sum);
            prop_assert!(row.iter().all(|&c| (0.0..=1.0 + 1e-6).contains(&c)));
        }
    }

    #[test]
    fn output_capsule_norms_below_one((u_hat, b, _l, h, ch) in u_hat_strategy()) {
        let out = dynamic(&u_hat, 2, &ExactMath);
        prop_assert_eq!(out.v.shape().dims(), &[b, h, ch]);
        for cap in out.v.as_slice().chunks(ch) {
            let norm: f32 = cap.iter().map(|&x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm < 1.0, "norm {}", norm);
        }
    }

    #[test]
    fn routing_is_permutation_equivariant_in_l((u_hat, b, l, h, ch) in u_hat_strategy()) {
        // Reversing the order of L capsules must not change the output
        // H capsules (Eq 2 sums over L).
        let src = u_hat.as_slice();
        let mut rev = vec![0.0f32; src.len()];
        for bi in 0..b {
            for i in 0..l {
                let a = ((bi * l) + i) * h * ch;
                let z = ((bi * l) + (l - 1 - i)) * h * ch;
                rev[z..z + h * ch].copy_from_slice(&src[a..a + h * ch]);
            }
        }
        let rev_t = Tensor::from_vec(rev, &[b, l, h, ch]).unwrap();
        let out_a = dynamic(&u_hat, 3, &ExactMath);
        let out_b = dynamic(&rev_t, 3, &ExactMath);
        for (x, y) in out_a.v.as_slice().iter().zip(out_b.v.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
        }
    }

    #[test]
    fn single_iteration_routing_is_scale_equivariant_in_direction(
        (u_hat, _b, _l, _h, ch) in u_hat_strategy(),
    ) {
        // With one iteration the coefficients are uniform (b = 0), so
        // s = mean(û) scales linearly and the squash preserves direction
        // exactly. (With more iterations the agreement feedback makes
        // routing genuinely scale-sensitive — that is the point of the
        // algorithm, so no such property holds there.)
        let scaled = u_hat.map(|x| x * 2.0);
        let a = dynamic(&u_hat, 1, &ExactMath);
        let b2 = dynamic(&scaled, 1, &ExactMath);
        for (x, y) in a.v.as_slice().chunks(ch).zip(b2.v.as_slice().chunks(ch)) {
            let dot: f32 = x.iter().zip(y).map(|(p, q)| p * q).sum();
            let nx: f32 = x.iter().map(|p| p * p).sum::<f32>().sqrt();
            let ny: f32 = y.iter().map(|q| q * q).sum::<f32>().sqrt();
            if nx > 1e-4 && ny > 1e-4 {
                prop_assert!(
                    dot / (nx * ny) > 0.999,
                    "direction changed: cos {}",
                    dot / (nx * ny)
                );
            }
        }
    }

    #[test]
    fn approx_and_exact_routing_stay_close((u_hat, _b, _l, _h, _ch) in u_hat_strategy()) {
        let exact = dynamic(&u_hat, 3, &ExactMath);
        let approx = dynamic(&u_hat, 3, &ApproxMath::with_recovery());
        for (a, e) in approx.v.as_slice().iter().zip(exact.v.as_slice()) {
            prop_assert!((a - e).abs() < 0.1, "approx {} vs exact {}", a, e);
        }
    }

    #[test]
    fn em_responsibilities_are_distributions((u_hat, b, l, h, _ch) in u_hat_strategy()) {
        let out = em_routing_with(&u_hat, 2, &ExactMath, &mut RoutingScratch::new()).unwrap();
        prop_assert_eq!(out.coefficients.shape().dims(), &[b, l, h]);
        for row in out.coefficients.as_slice().chunks(h) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "row sum {}", sum);
        }
    }

    #[test]
    fn squash_norm_monotone_and_bounded(
        data in proptest::collection::vec(-10.0f32..10.0, 1..16),
        scale in 1.1f32..4.0,
    ) {
        let mut small = data.clone();
        let mut large: Vec<f32> = data.iter().map(|&x| x * scale).collect();
        squash_in_place(&mut small, &ExactMath);
        squash_in_place(&mut large, &ExactMath);
        let n = |v: &[f32]| v.iter().map(|&x| x * x).sum::<f32>().sqrt();
        prop_assert!(n(&small) <= 1.0 + 1e-5);
        prop_assert!(n(&large) <= 1.0 + 1e-5);
        prop_assert!(n(&large) + 1e-6 >= n(&small), "squash must be monotone in magnitude");
    }
}
