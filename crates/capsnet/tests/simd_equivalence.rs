//! Scalar-reference vs SIMD equivalence for the vectorized routing engine.
//!
//! The contract of the kernel refactor (mirroring the paper's
//! approximate-with-recovery framing): the scalar path is the bitwise
//! reference, and the runtime-dispatched SIMD path under [`ExactMath`] may
//! reassociate and use a polynomial `exp`, but must stay within **1e-5
//! relative error** on routing outputs and change **no classifications**.
//!
//! `ScalarRef` below implements only the required `MathBackend` methods
//! with `libm`, so every slice/block kernel takes the default scalar
//! implementation — exactly what `ExactMath` computes under
//! `PIM_SIMD=scalar`. Comparing the two inside one process needs no global
//! dispatch mutation.

use capsnet::routing::{dynamic_routing_with, em_routing_with, RoutingScratch};
use capsnet::{CapsNet, CapsNetSpec, ExactMath, MathBackend, RoutingAlgorithm};
use pim_tensor::simd::{self, SimdLevel};
use pim_tensor::Tensor;

/// Exact scalar math through the default (scalar) slice kernels — the
/// bitwise reference the SIMD path is measured against.
struct ScalarRef;

impl MathBackend for ScalarRef {
    fn exp(&self, x: f32) -> f32 {
        x.exp()
    }
    fn inv_sqrt(&self, x: f32) -> f32 {
        1.0 / x.sqrt()
    }
    fn div(&self, a: f32, b: f32) -> f32 {
        a / b
    }
    fn sqrt(&self, x: f32) -> f32 {
        x.sqrt()
    }
    fn name(&self) -> &'static str {
        "scalar-ref"
    }
}

/// Maximum error relative to each reference vector's scale: outputs are
/// compared chunk by chunk (`chunk` = one capsule, or one coefficient
/// row), normalizing by that chunk's ∞-norm. Individual components pass
/// through zero as coefficients shift, so element-wise relative error is
/// unbounded by construction; what routing consumers (norm-based
/// classification, agreement updates) see is error relative to the
/// vector's magnitude.
fn max_rel_err(got: &[f32], want: &[f32], chunk: usize) -> f32 {
    let mut worst = 0.0f32;
    for (g_chunk, w_chunk) in got.chunks(chunk).zip(want.chunks(chunk)) {
        let scale = w_chunk
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(f32::MIN_POSITIVE);
        for (&g, &w) in g_chunk.iter().zip(w_chunk) {
            worst = worst.max((g - w).abs() / scale);
        }
    }
    worst
}

#[test]
fn dynamic_routing_simd_within_1e5_of_scalar_reference() {
    for (nb, nl, nh, ch, shared) in [
        (4usize, 64usize, 10usize, 16usize, true),
        (4, 64, 10, 16, false),
        (2, 33, 7, 13, true), // awkward sizes exercise SIMD remainders
        (1, 5, 3, 4, false),
    ] {
        let u = Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, 42);
        let vec_out =
            dynamic_routing_with(&u, 3, shared, &ExactMath, &mut RoutingScratch::new()).unwrap();
        let ref_out =
            dynamic_routing_with(&u, 3, shared, &ScalarRef, &mut RoutingScratch::new()).unwrap();
        let v_err = max_rel_err(vec_out.v.as_slice(), ref_out.v.as_slice(), ch);
        let c_err = max_rel_err(
            vec_out.coefficients.as_slice(),
            ref_out.coefficients.as_slice(),
            nh,
        );
        assert!(
            v_err <= 1e-5,
            "[{nb},{nl},{nh},{ch}] shared={shared}: v drift {v_err}"
        );
        assert!(
            c_err <= 1e-5,
            "[{nb},{nl},{nh},{ch}] shared={shared}: coefficient drift {c_err}"
        );
    }
}

#[test]
fn em_routing_simd_within_1e5_of_scalar_reference() {
    for (nb, nl, nh, ch) in [(4usize, 48usize, 6usize, 16usize), (2, 21, 5, 9)] {
        let u = Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, 7);
        let vec_out = em_routing_with(&u, 3, &ExactMath, &mut RoutingScratch::new()).unwrap();
        let ref_out = em_routing_with(&u, 3, &ScalarRef, &mut RoutingScratch::new()).unwrap();
        let v_err = max_rel_err(vec_out.v.as_slice(), ref_out.v.as_slice(), ch);
        let r_err = max_rel_err(
            vec_out.coefficients.as_slice(),
            ref_out.coefficients.as_slice(),
            nh,
        );
        assert!(v_err <= 1e-5, "[{nb},{nl},{nh},{ch}]: v drift {v_err}");
        assert!(
            r_err <= 1e-5,
            "[{nb},{nl},{nh},{ch}]: responsibility drift {r_err}"
        );
    }
}

#[test]
fn simd_path_is_classification_identical_end_to_end() {
    // Full forward passes over enough samples that a systematic
    // classification drift would show; both routing algorithms.
    for algorithm in [RoutingAlgorithm::Dynamic, RoutingAlgorithm::Em] {
        let mut spec = CapsNetSpec::tiny_for_tests();
        spec.routing = algorithm;
        let net = CapsNet::seeded(&spec, 99).unwrap();
        for seed in 0..4u64 {
            let images = Tensor::uniform(
                &[16, spec.input_channels, spec.input_hw.0, spec.input_hw.1],
                0.0,
                1.0,
                seed,
            );
            let vec_preds = net.forward(&images, &ExactMath).unwrap().predictions();
            let ref_preds = net.forward(&images, &ScalarRef).unwrap().predictions();
            assert_eq!(
                vec_preds, ref_preds,
                "{algorithm:?} seed {seed}: SIMD path changed classifications"
            );
        }
    }
}

#[test]
fn scalar_dispatch_is_bitwise_identical_to_reference() {
    // When the dispatcher resolves to the scalar path (no AVX2, or
    // PIM_SIMD=scalar), ExactMath must be *bitwise* the reference — this is
    // the debugging escape hatch the README documents.
    if simd::active_level() != SimdLevel::Scalar {
        // Can't flip the cached dispatch in-process; covered by the
        // PIM_SIMD=scalar job variant and non-AVX2 hosts.
        return;
    }
    let u = Tensor::uniform(&[2, 32, 8, 12], -0.5, 0.5, 3);
    let a = dynamic_routing_with(&u, 3, true, &ExactMath, &mut RoutingScratch::new()).unwrap();
    let b = dynamic_routing_with(&u, 3, true, &ScalarRef, &mut RoutingScratch::new()).unwrap();
    assert_eq!(a.v, b.v);
    assert_eq!(a.coefficients, b.coefficients);
    let ea = em_routing_with(&u, 3, &ExactMath, &mut RoutingScratch::new()).unwrap();
    let eb = em_routing_with(&u, 3, &ScalarRef, &mut RoutingScratch::new()).unwrap();
    assert_eq!(ea.v, eb.v);
    assert_eq!(ea.coefficients, eb.coefficients);
}

#[test]
fn boxed_simd_backend_matches_monomorphized_simd_backend_bitwise() {
    // Virtual dispatch must select the same overridden kernels.
    let u = Tensor::uniform(&[2, 40, 6, 10], -0.5, 0.5, 11);
    let boxed: &dyn MathBackend = &ExactMath;
    let a = dynamic_routing_with(&u, 3, true, boxed, &mut RoutingScratch::new()).unwrap();
    let b = dynamic_routing_with(&u, 3, true, &ExactMath, &mut RoutingScratch::new()).unwrap();
    assert_eq!(a.v, b.v);
    assert_eq!(a.coefficients, b.coefficients);
}
