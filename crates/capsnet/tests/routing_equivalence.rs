//! Equivalence suite for the monomorphized / boxed / arena / sharded
//! routing paths.
//!
//! The refactor away from `&dyn MathBackend` + per-call allocation is only
//! safe because every execution strategy computes the *same* floats. These
//! tests pin that down bitwise:
//!
//! * generic (monomorphized) calls vs `&dyn MathBackend` calls;
//! * fresh-scratch calls vs warm reused-scratch calls;
//! * the layer's batch-sharded routing (`CapsLayer::forward_into`) vs the
//!   serial `*_routing_with` reference;
//! * `CapsNet::forward_with` on a warm, reused arena vs `CapsNet::forward`
//!   (the same pass on a fresh arena);
//! * a sharded batch-16 pass vs sixteen batch-1 passes.

use capsnet::layers::CapsLayer;
use capsnet::routing::{dynamic_routing_with, em_routing_with, RoutingOutput};
use capsnet::{
    ApproxMath, CapsNet, CapsNetSpec, ExactMath, ForwardArena, MathBackend, RoutingAlgorithm,
    RoutingArena, RoutingScratch,
};
use pim_tensor::Tensor;

fn uhat(nb: usize, nl: usize, nh: usize, ch: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, seed)
}

fn backends() -> Vec<(&'static str, Box<dyn MathBackend>)> {
    vec![
        ("exact", Box::new(ExactMath)),
        ("approx+recovery", Box::new(ApproxMath::with_recovery())),
        ("approx", Box::new(ApproxMath::without_recovery())),
    ]
}

#[test]
fn dynamic_monomorphized_matches_boxed_bitwise() {
    let u = uhat(4, 24, 6, 8, 11);
    for batch_shared in [true, false] {
        // Monomorphized: B = ExactMath / ApproxMath.
        let mono_exact =
            dynamic_routing_with(&u, 3, batch_shared, &ExactMath, &mut RoutingScratch::new())
                .unwrap();
        let mono_approx = dynamic_routing_with(
            &u,
            3,
            batch_shared,
            &ApproxMath::with_recovery(),
            &mut RoutingScratch::new(),
        )
        .unwrap();
        // Boxed: B = dyn MathBackend, virtual dispatch.
        let dyn_exact: &dyn MathBackend = &ExactMath;
        let dyn_approx: &dyn MathBackend = &ApproxMath::with_recovery();
        let boxed_exact =
            dynamic_routing_with(&u, 3, batch_shared, dyn_exact, &mut RoutingScratch::new())
                .unwrap();
        let boxed_approx =
            dynamic_routing_with(&u, 3, batch_shared, dyn_approx, &mut RoutingScratch::new())
                .unwrap();
        assert_eq!(
            mono_exact.v, boxed_exact.v,
            "exact v (shared={batch_shared})"
        );
        assert_eq!(mono_exact.coefficients, boxed_exact.coefficients);
        assert_eq!(
            mono_approx.v, boxed_approx.v,
            "approx v (shared={batch_shared})"
        );
        assert_eq!(mono_approx.coefficients, boxed_approx.coefficients);
    }
}

#[test]
fn em_monomorphized_matches_boxed_bitwise() {
    let u = uhat(3, 20, 5, 6, 12);
    for (name, boxed) in backends() {
        let via_dyn = em_routing_with(&u, 3, boxed.as_ref(), &mut RoutingScratch::new()).unwrap();
        let via_mono = match name {
            "exact" => em_routing_with(&u, 3, &ExactMath, &mut RoutingScratch::new()).unwrap(),
            "approx+recovery" => em_routing_with(
                &u,
                3,
                &ApproxMath::with_recovery(),
                &mut RoutingScratch::new(),
            )
            .unwrap(),
            _ => em_routing_with(
                &u,
                3,
                &ApproxMath::without_recovery(),
                &mut RoutingScratch::new(),
            )
            .unwrap(),
        };
        assert_eq!(via_mono.v, via_dyn.v, "{name} v");
        assert_eq!(via_mono.coefficients, via_dyn.coefficients, "{name} r");
    }
}

#[test]
fn warm_scratch_matches_fresh_allocations_bitwise() {
    let mut scratch = RoutingScratch::new();
    // Reuse one scratch across differently-shaped problems, interleaving
    // algorithms, and compare against fresh-scratch runs each time.
    for (seed, (nb, nl, nh, ch)) in [(1u64, (2, 12, 4, 6)), (2, (5, 30, 8, 4)), (3, (1, 6, 3, 8))]
        .into_iter()
        .enumerate()
        .map(|(i, d)| (i as u64 + 40, d.1))
    {
        let u = uhat(nb, nl, nh, ch, seed);
        for batch_shared in [true, false] {
            let fresh =
                dynamic_routing_with(&u, 3, batch_shared, &ExactMath, &mut RoutingScratch::new())
                    .unwrap();
            let warm = dynamic_routing_with(&u, 3, batch_shared, &ExactMath, &mut scratch).unwrap();
            assert_eq!(fresh.v, warm.v);
            assert_eq!(fresh.coefficients, warm.coefficients);
        }
        let fresh = em_routing_with(
            &u,
            2,
            &ApproxMath::with_recovery(),
            &mut RoutingScratch::new(),
        )
        .unwrap();
        let warm = em_routing_with(&u, 2, &ApproxMath::with_recovery(), &mut scratch).unwrap();
        assert_eq!(fresh.v, warm.v);
        assert_eq!(fresh.coefficients, warm.coefficients);
    }
}

#[test]
fn batch_parallel_matches_single_threaded_bitwise() {
    // Big enough to clear the PAR_MIN_WORK gate so the layer's routing
    // really shards the batch on multicore machines.
    let (nb, nl, cl, nh, ch) = (24, 192, 8, 10, 16);
    let u = Tensor::uniform(&[nb, nl, cl], -1.0, 1.0, 13);
    for (algorithm, iterations) in [(RoutingAlgorithm::Dynamic, 3), (RoutingAlgorithm::Em, 2)] {
        let layer = CapsLayer::seeded(nl, cl, nh, ch, algorithm, iterations, 1.0, 14)
            .with_batch_shared(false);
        for (name, backend) in backends() {
            let backend = backend.as_ref();
            let mut u_hat = Tensor::default();
            let mut arena = RoutingArena::default();
            layer
                .forward_into(&u, backend, &mut u_hat, &mut arena)
                .unwrap();

            let mut reference = Tensor::default();
            layer
                .prediction_vectors_into(&u, backend, &mut reference, &mut Vec::new())
                .unwrap();
            assert_eq!(u_hat, reference, "{name} {algorithm:?} u_hat");
            let scratch = &mut RoutingScratch::new();
            let serial: RoutingOutput = match algorithm {
                RoutingAlgorithm::Dynamic => {
                    dynamic_routing_with(&reference, iterations, false, backend, scratch)
                }
                RoutingAlgorithm::Em => em_routing_with(&reference, iterations, backend, scratch),
            }
            .unwrap();
            assert_eq!(arena.v(), serial.v.as_slice(), "{name} {algorithm:?} v");
            assert_eq!(
                arena.coefficients(),
                serial.coefficients.as_slice(),
                "{name} {algorithm:?} coefficients"
            );
        }
    }
}

#[test]
fn arena_forward_matches_materializing_forward_bitwise() {
    for routing in [RoutingAlgorithm::Dynamic, RoutingAlgorithm::Em] {
        for batch_shared in [true, false] {
            let mut spec = CapsNetSpec::tiny_for_tests();
            spec.routing = routing;
            spec.batch_shared_routing = batch_shared;
            let net = CapsNet::seeded(&spec, 77).unwrap();
            let mut arena = ForwardArena::new();
            // Reuse the arena across calls and batch sizes; every call must
            // match the fresh-arena path bitwise.
            for (seed, batch) in [(1u64, 4), (2, 4), (3, 2), (4, 6), (5, 16), (6, 1)] {
                let images = Tensor::uniform(
                    &[batch, 1, spec.input_hw.0, spec.input_hw.1],
                    0.0,
                    1.0,
                    seed,
                );
                let owned = net.forward(&images, &ExactMath).unwrap();
                let view = net.forward_with(&images, &ExactMath, &mut arena).unwrap();
                assert_eq!(owned.class_capsules.as_slice(), view.class_capsules());
                assert_eq!(owned.class_norms_sq.as_slice(), view.class_norms_sq());
                assert_eq!(owned.predictions(), view.predictions());
            }
        }
    }
}

/// A model wide enough that, on a host with ≥ 2 threads, `plan_threads`
/// shards both the û projection (over `L`) and per-sample routing (over
/// the batch) at batch 16.
fn wide_spec(routing: RoutingAlgorithm, batch_shared: bool) -> CapsNetSpec {
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.primary_channels = 64;
    spec.cl_dim = 8;
    spec.h_caps = 10;
    spec.ch_dim = 16;
    spec.routing = routing;
    spec.batch_shared_routing = batch_shared;
    spec
}

#[test]
fn sharded_forward_matches_warm_arena_and_per_sample_passes_bitwise() {
    for (routing, batch_shared) in [
        (RoutingAlgorithm::Dynamic, false),
        (RoutingAlgorithm::Dynamic, true),
        (RoutingAlgorithm::Em, false),
    ] {
        let spec = wide_spec(routing, batch_shared);
        let net = CapsNet::seeded(&spec, 5).unwrap();
        let pixels = spec.input_hw.0 * spec.input_hw.1;
        let mut arena = ForwardArena::new();
        for (seed, batch) in [(1u64, 16), (2, 1), (3, 16)] {
            let images = Tensor::uniform(
                &[batch, 1, spec.input_hw.0, spec.input_hw.1],
                0.0,
                1.0,
                seed,
            );
            let owned = net.forward(&images, &ExactMath).unwrap();
            let view = net.forward_with(&images, &ExactMath, &mut arena).unwrap();
            let what = format!("{routing:?} shared={batch_shared} batch={batch}");
            assert_eq!(
                owned.class_capsules.as_slice(),
                view.class_capsules(),
                "{what}"
            );
            assert_eq!(
                owned.class_norms_sq.as_slice(),
                view.class_norms_sq(),
                "{what}"
            );
            if batch_shared && routing == RoutingAlgorithm::Dynamic {
                continue; // samples are coupled: no per-sample reference
            }
            // Row invariance: sample k of the batch equals the batch-1 pass
            // on that sample (which cannot shard its routing).
            let h = spec.h_caps * spec.ch_dim;
            for k in 0..batch {
                let one = Tensor::from_vec(
                    images.as_slice()[k * pixels..(k + 1) * pixels].to_vec(),
                    &[1, 1, spec.input_hw.0, spec.input_hw.1],
                )
                .unwrap();
                let alone = net.forward(&one, &ExactMath).unwrap();
                assert_eq!(
                    alone.class_capsules.as_slice(),
                    &owned.class_capsules.as_slice()[k * h..(k + 1) * h],
                    "{what} sample {k}"
                );
            }
        }
    }
}

#[test]
fn arena_capacity_is_steady_after_the_first_batch() {
    let spec = wide_spec(RoutingAlgorithm::Dynamic, false);
    let net = CapsNet::seeded(&spec, 9).unwrap();
    let mut arena = ForwardArena::new();
    let mut second = 0;
    for pass in 1..=10u64 {
        let images = Tensor::uniform(&[16, 1, spec.input_hw.0, spec.input_hw.1], 0.0, 1.0, pass);
        net.forward_with(&images, &ExactMath, &mut arena).unwrap();
        if pass == 2 {
            second = arena.capacity_bytes();
        }
    }
    assert!(second > 0);
    assert_eq!(
        arena.capacity_bytes(),
        second,
        "the arena grew after warm-up"
    );
}

#[test]
fn mnist_arena_holds_no_unfolded_convolution_input() {
    // CapsNet-MNIST at batch 8, routed per sample. Both convolutions read
    // their input map in place, so the arena holds the feature maps and û
    // once each: an im2col matrix of the primary convolution (24 MB, k² =
    // 81 times its input) anywhere in it breaks the budget.
    let mut spec = CapsNetSpec::mnist();
    spec.batch_shared_routing = false;
    let net = CapsNet::seeded(&spec, 1).unwrap();
    let batch = 8;
    let images = Tensor::uniform(&[batch, 1, 28, 28], 0.0, 1.0, 2);
    let mut arena = ForwardArena::new();
    net.forward_with(&images, &ExactMath, &mut arena).unwrap();

    let (ph, pw) = spec.primary_grid().unwrap();
    let (c1h, c1w) = spec.conv1_out_hw().unwrap();
    let conv1_out = batch * spec.conv1_channels * c1h * c1w;
    let primary_out = batch * spec.primary_channels * spec.cl_dim * ph * pw;
    let u_hat = batch * spec.l_caps().unwrap() * spec.h_caps * spec.ch_dim;
    // û, the conv1 output, the primary conv output and its regrouping into
    // capsules; the slack covers the routing arena.
    let budget = 4 * (u_hat + conv1_out + 2 * primary_out) + (2 << 20);
    assert!(
        arena.capacity_bytes() < budget,
        "arena holds {} B, budget {} B",
        arena.capacity_bytes(),
        budget
    );
}

#[test]
fn mnist_batch_rows_match_batch_one_passes_bitwise() {
    // Each convolution is one GEMM over every sample's pixels, so a
    // register block can hold rows of two samples and a shard boundary can
    // fall anywhere between samples: a sample's row of the batch-8 output
    // must not depend on where in the batch it sits.
    let mut spec = CapsNetSpec::mnist();
    spec.batch_shared_routing = false;
    let net = CapsNet::seeded(&spec, 1).unwrap();
    let batch = 8;
    let images = Tensor::uniform(&[batch, 1, 28, 28], 0.0, 1.0, 4);
    let out = net.forward(&images, &ExactMath).unwrap();
    let (caps, coeff) = (
        out.class_capsules.as_slice(),
        out.routing_coefficients.as_slice(),
    );
    let (h, c) = (caps.len() / batch, coeff.len() / batch);
    for k in 0..batch {
        let one = Tensor::from_vec(
            images.as_slice()[k * 784..(k + 1) * 784].to_vec(),
            &[1, 1, 28, 28],
        )
        .unwrap();
        let alone = net.forward(&one, &ExactMath).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(alone.class_capsules.as_slice()),
            bits(&caps[k * h..(k + 1) * h]),
            "capsules of sample {k}"
        );
        assert_eq!(
            bits(alone.routing_coefficients.as_slice()),
            bits(&coeff[k * c..(k + 1) * c]),
            "coefficients of sample {k}"
        );
    }
}
