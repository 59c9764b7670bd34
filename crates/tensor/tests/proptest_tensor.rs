//! Property-based tests for the tensor substrate.

use pim_tensor::{matmul_into, Tensor};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0f32).prop_filter("finite", |x| x.is_finite())
}

fn vec_and_dims(max: usize) -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(finite_f32(), r * c),
            Just(r),
            Just(c),
        )
    })
}

proptest! {
    #[test]
    fn transpose_is_involutive((data, r, c) in vec_and_dims(8)) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let tt = a.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(a.as_slice(), tt.as_slice());
        prop_assert_eq!(a.shape(), tt.shape());
    }

    #[test]
    fn matmul_distributes_over_add(
        a_data in proptest::collection::vec(finite_f32(), 12),
        b_data in proptest::collection::vec(finite_f32(), 12),
        c_data in proptest::collection::vec(finite_f32(), 12),
    ) {
        // a: [3,4], b/c: [4,3]  => a*(b+c) == a*b + a*c
        let product = |rhs: &[f32]| {
            let mut out = [0.0f32; 9];
            matmul_into(&a_data, rhs, &mut out, 3, 4, 3);
            out
        };
        let b_plus_c: Vec<f32> = b_data.iter().zip(&c_data).map(|(b, c)| b + c).collect();
        let lhs = product(&b_plus_c);
        let (ab, ac) = (product(&b_data), product(&c_data));
        let rhs: Vec<f32> = ab.iter().zip(&ac).map(|(x, y)| x + y).collect();
        for (x, y) in lhs.iter().zip(&rhs) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + x.abs()), "{} vs {}", x, y);
        }
    }

    #[test]
    fn reshape_roundtrip((data, r, c) in vec_and_dims(8)) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let back = a.reshape(&[c, r]).unwrap().reshape(&[r, c]).unwrap();
        prop_assert_eq!(a, back);
    }
}
