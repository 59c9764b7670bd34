//! Hot-swap under concurrent traffic: swaps must drop zero tickets, every
//! response must carry the version that actually served it (bit-exact
//! against that version's network), and versions must be strictly
//! monotone along dispatch order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_serve::{ModelRegistry, Request, Response, ServeConfig, ServedModel, Server, SubmitError};
use pim_store::ModelWriter;
use pim_tensor::Tensor;

fn versioned_net(version: u64) -> CapsNet {
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.batch_shared_routing = false;
    CapsNet::seeded(&spec, 1000 + version).unwrap()
}

fn images(n: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
}

#[test]
fn hot_swap_under_concurrent_load_loses_nothing_and_versions_are_monotone() {
    const SWAPS: u64 = 4;
    const TENANTS: usize = 3;
    const REQUESTS_PER_TENANT: usize = 60;

    // Every version the slot will ever serve, pre-built so responses can
    // be checked bit-exactly against "their" network.
    let nets: Vec<CapsNet> = (1..=SWAPS + 1).map(versioned_net).collect();

    let registry = ModelRegistry::from_models([ServedModel::new("hot", nets[0].clone())]);
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(300),
        queue_capacity: 1024,
        workers: 2,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    };
    let server = Server::new(&registry, &ExactMath, cfg).unwrap();

    let done_submitting = AtomicBool::new(false);
    let (outcome, metrics) = server.run(|handle| {
        std::thread::scope(|scope| {
            // Concurrent tenants, each preserving its own submission order.
            let submitters: Vec<_> = (0..TENANTS)
                .map(|tenant| {
                    let done = &done_submitting;
                    scope.spawn(move || {
                        let _ = done; // keep the borrow explicit
                        let mut responses: Vec<(u64, Response)> = Vec::new();
                        for i in 0..REQUESTS_PER_TENANT {
                            let seed = (tenant * 10_000 + i) as u64;
                            let request = || Request::new(tenant, 0, images(1 + i % 2, seed));
                            // Retry QueueFull: backpressure must never turn
                            // into a lost request in this test.
                            let ticket = loop {
                                match handle.submit(request()) {
                                    Ok(t) => break t,
                                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                                    Err(e) => panic!("unexpected reject: {e}"),
                                }
                            };
                            responses.push((seed, ticket.wait().expect("ticket must resolve")));
                        }
                        responses
                    })
                })
                .collect();

            // Meanwhile: hot-swap the model several times mid-traffic.
            let swapper = scope.spawn(|| {
                let mut versions = Vec::new();
                for v in 2..=SWAPS + 1 {
                    std::thread::sleep(Duration::from_millis(3));
                    let new_version = handle
                        .swap_model(0, versioned_net(v))
                        .expect("swap must succeed");
                    versions.push(new_version);
                }
                assert!(matches!(
                    handle.swap_model(9, versioned_net(1)),
                    Err(SubmitError::UnknownModel { model: 9, .. })
                ));
                versions
            });

            let all: Vec<Vec<(u64, Response)>> =
                submitters.into_iter().map(|s| s.join().unwrap()).collect();
            done_submitting.store(true, Ordering::Release);
            (all, swapper.join().unwrap())
        })
    });
    let (per_tenant, swap_versions) = outcome;

    // Swaps happened and produced strictly increasing versions 2..=SWAPS+1.
    assert_eq!(swap_versions, (2..=SWAPS + 1).collect::<Vec<u64>>());
    assert_eq!(metrics.swaps, SWAPS);

    // Zero dropped tickets: every submission produced a response.
    let mut all: Vec<(u64, Response)> = per_tenant.into_iter().flatten().collect();
    assert_eq!(all.len(), TENANTS * REQUESTS_PER_TENANT);
    assert_eq!(metrics.requests as usize, all.len());

    // Each response is bit-identical to a per-request forward on the
    // version it claims to have been served by.
    for (seed, r) in &all {
        assert!(
            (1..=SWAPS + 1).contains(&r.model_version),
            "version {} out of range",
            r.model_version
        );
        let net = &nets[(r.model_version - 1) as usize];
        let imgs = images(r.predictions.len(), *seed);
        let serial = net.forward(&imgs, &ExactMath).unwrap();
        assert_eq!(&r.predictions, &serial.predictions(), "seed {seed}");
        for (a, b) in r
            .class_norms_sq
            .iter()
            .zip(serial.class_norms_sq.as_slice())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed}: response not bitwise equal to version {}",
                r.model_version
            );
        }
    }

    // Strict version monotonicity along dispatch order: sort by
    // (batch_seq, batch_offset); versions never decrease, and all batches
    // of one batch_seq carry one version.
    all.sort_by_key(|(_, r)| (r.batch_seq, r.batch_offset));
    let mut last = 0u64;
    for (_, r) in &all {
        assert!(
            r.model_version >= last,
            "version went backwards: {} after {last} at batch_seq {}",
            r.model_version,
            r.batch_seq
        );
        last = r.model_version;
    }

    // Per-version metrics attribute every request to exactly one epoch.
    let counted: u64 = metrics.version_counts.iter().map(|v| v.requests).sum();
    assert_eq!(counted, metrics.requests);
    // Traffic ran long enough that at least two epochs actually served.
    assert!(
        metrics.version_counts.len() >= 2,
        "swaps should split traffic across epochs: {:?}",
        metrics.version_counts
    );
}

#[test]
fn swap_from_artifact_path_mid_window() {
    // End-to-end: serve v1, write a v2 artifact, hot-reload it from disk
    // (registry.swap_from_path is the raw path; the handle drains forming
    // first), keep serving.
    let dir = std::env::temp_dir().join(format!("pim_serve_hotswap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hot.pimcaps");

    let v1 = versioned_net(1);
    let v2 = versioned_net(2);
    ModelWriter::vault_aligned().save(&v2, &path).unwrap();

    let registry = ModelRegistry::from_models([ServedModel::new("hot", v1.clone())]);
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: 64,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    };
    let server = Server::new(&registry, &ExactMath, cfg).unwrap();
    let ((before, after), metrics) = server.run(|handle| {
        let before = handle
            .submit(Request::new(0, 0, images(2, 5)))
            .unwrap()
            .wait()
            .unwrap();
        // Load the new weights off disk (zero-copy mmap) and swap them in.
        let loaded = pim_store::MappedModel::open(&path)
            .unwrap()
            .capsnet()
            .unwrap();
        let version = handle.swap_model(0, loaded).unwrap();
        assert_eq!(version, 2);
        let after = handle
            .submit(Request::new(0, 0, images(2, 5)))
            .unwrap()
            .wait()
            .unwrap();
        (before, after)
    });

    assert_eq!(before.model_version, 1);
    assert_eq!(after.model_version, 2);
    // Same inputs, different weights: the two responses come from the two
    // networks, bit-exactly.
    let imgs = images(2, 5);
    let o1 = v1.forward(&imgs, &ExactMath).unwrap();
    let o2 = v2.forward(&imgs, &ExactMath).unwrap();
    for (a, b) in before
        .class_norms_sq
        .iter()
        .zip(o1.class_norms_sq.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in after
        .class_norms_sq
        .iter()
        .zip(o2.class_norms_sq.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(metrics.swaps, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quantized_artifact_hot_swap_under_load_drops_nothing() {
    // A *quantized* v2 artifact swaps in mid-traffic exactly like an f32
    // one: zero dropped tickets, post-swap responses bit-identical to the
    // quantized network — which must really serve its int8 storage, not a
    // dequantized f32 copy.
    const REQUESTS: usize = 60;
    let dir = std::env::temp_dir().join(format!("pim_serve_qswap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hot_q.pimcaps");

    let v1 = versioned_net(1);
    pim_store::ModelWriter::vault_aligned()
        .with_quant(pim_store::QuantSpec::weights(pim_tensor::QuantDType::I8))
        .save(&versioned_net(2), &path)
        .unwrap();
    let quantized = pim_store::MappedModel::open(&path)
        .unwrap()
        .capsnet()
        .unwrap();
    assert!(
        quantized
            .named_weights()
            .iter()
            .any(|(n, w)| n == "caps.weight" && w.as_quant().is_some()),
        "the reloaded network must hold quantized caps storage"
    );

    let registry = ModelRegistry::from_models([ServedModel::new("hot_q", v1.clone())]);
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(300),
        queue_capacity: 256,
        workers: 2,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    };
    let server = Server::new(&registry, &ExactMath, cfg).unwrap();
    let (responses, metrics) = server.run(|handle| {
        std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                let mut out: Vec<(u64, Response)> = Vec::new();
                for i in 0..REQUESTS {
                    let seed = 7_000 + i as u64;
                    let ticket = loop {
                        match handle.submit(Request::new(0, 0, images(1 + i % 2, seed))) {
                            Ok(t) => break t,
                            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected reject: {e}"),
                        }
                    };
                    out.push((seed, ticket.wait().expect("ticket must resolve")));
                }
                out
            });
            let swapper = scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(3));
                handle
                    .swap_model(0, quantized.clone())
                    .expect("quantized swap must succeed")
            });
            let out = submitter.join().unwrap();
            assert_eq!(swapper.join().unwrap(), 2);
            out
        })
    });

    // Zero drops, the swap happened, and both versions actually served
    // (or at least every response resolved against a known version).
    assert_eq!(responses.len(), REQUESTS);
    assert_eq!(metrics.requests as usize, REQUESTS);
    assert_eq!(metrics.swaps, 1);
    for (seed, r) in &responses {
        let net = match r.model_version {
            1 => &v1,
            2 => &quantized,
            v => panic!("unknown version {v}"),
        };
        let imgs = images(r.predictions.len(), *seed);
        let serial = net.forward(&imgs, &ExactMath).unwrap();
        for (a, b) in r
            .class_norms_sq
            .iter()
            .zip(serial.class_norms_sq.as_slice())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed}: response not bitwise equal to version {}",
                r.model_version
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
