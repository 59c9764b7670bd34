//! Cross-crate integration: functional CapsNet inference consistency with
//! the op census, and exact-vs-approximate behaviour end to end.

use pim_capsnet_suite::prelude::*;

#[test]
fn census_matches_functional_tensor_sizes() {
    // The census's intermediate sizes must equal the tensors the
    // functional network actually materializes.
    let spec = CapsNetSpec::tiny_for_tests();
    let batch = 3;
    let census = RpCensus::from_spec(&spec, batch).unwrap();
    let net = CapsNet::seeded(&spec, 1).unwrap();
    let images = Tensor::uniform(&[batch, 1, 12, 12], 0.0, 1.0, 2);
    let out = net.forward(&images, &ExactMath).unwrap();

    // v is [B, H, CH] — the census's `v` byte count.
    assert_eq!(
        out.class_capsules.size_bytes() as u64,
        census.sizes.v,
        "v tensor size disagrees with census"
    );
    // batch-shared coefficients are [L, H] — the census's `c` byte count.
    assert_eq!(
        out.routing_coefficients.size_bytes() as u64,
        census.sizes.c,
        "c tensor size disagrees with census"
    );
}

#[test]
fn approx_backend_perturbation_is_bounded_end_to_end() {
    let spec = CapsNetSpec::tiny_for_tests();
    let net = CapsNet::seeded(&spec, 7).unwrap();
    let images = Tensor::uniform(&[8, 1, 12, 12], 0.0, 1.0, 3);
    let exact = net.forward(&images, &ExactMath).unwrap();
    let approx = net.forward(&images, &ApproxMath::with_recovery()).unwrap();
    let mut max_diff = 0.0f32;
    for (a, e) in approx
        .class_capsules
        .as_slice()
        .iter()
        .zip(exact.class_capsules.as_slice())
    {
        max_diff = max_diff.max((a - e).abs());
    }
    assert!(
        max_diff < 0.08,
        "approximate capsules diverged by {max_diff}"
    );
}

#[test]
fn em_and_dynamic_routing_agree_on_confident_inputs() {
    // Both routing algorithms should classify a strongly clustered input
    // set identically (the paper's claim that the design generalizes over
    // RP algorithms presumes they compute comparable things).
    let mut spec = CapsNetSpec::tiny_for_tests();
    let images = Tensor::uniform(&[6, 1, 12, 12], 0.0, 1.0, 4);
    spec.routing = RoutingAlgorithm::Dynamic;
    let dyn_net = CapsNet::seeded(&spec, 11).unwrap();
    let dyn_out = dyn_net.forward(&images, &ExactMath).unwrap();
    spec.routing = RoutingAlgorithm::Em;
    let em_net = CapsNet::seeded(&spec, 11).unwrap();
    let em_out = em_net.forward(&images, &ExactMath).unwrap();
    // Same weights, same inputs: outputs are finite and shaped alike.
    assert_eq!(
        dyn_out.class_capsules.shape(),
        em_out.class_capsules.shape()
    );
    assert!(em_out
        .class_capsules
        .as_slice()
        .iter()
        .all(|x| x.is_finite()));
}

#[test]
fn margin_loss_decreases_with_better_labels() {
    let spec = CapsNetSpec::tiny_for_tests();
    let net = CapsNet::seeded(&spec, 13).unwrap();
    let images = Tensor::uniform(&[4, 1, 12, 12], 0.0, 1.0, 8);
    let out = net.forward(&images, &ExactMath).unwrap();
    let preds = out.predictions();
    let worst: Vec<usize> = preds.iter().map(|&p| (p + 1) % spec.h_caps).collect();
    let good = net.margin_loss(&out, &preds).unwrap();
    let bad = net.margin_loss(&out, &worst).unwrap();
    assert!(good < bad);
}
