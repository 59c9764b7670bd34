//! Property tests for the batched scheduler's invariants.
//!
//! Under randomized request streams (tenants × models × request sizes ×
//! scheduler knobs × inter-arrival gaps on both sides of `max_wait`),
//! irrespective of timing and interleaving:
//!
//! 1. **no request is lost or duplicated** — every admitted ticket resolves
//!    exactly once, with the submitting request's sample count;
//! 2. **per-(tenant, model) FIFO**: dispatch order (`batch_seq`, then
//!    `batch_offset`) is strictly increasing along each tenant's
//!    same-model submission order;
//! 3. **the batch cap holds**: no dispatched batch exceeds `max_batch`
//!    samples;
//! 4. **admission is all-or-nothing**: even when the queue overflows
//!    (typed [`SubmitError::QueueFull`] rejects) or the server shuts down
//!    with work still queued, every admitted request completes with
//!    correct, bit-exact results.

use std::sync::OnceLock;
use std::time::Duration;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use capsnet_workloads::traffic::request_images;
use pim_serve::{
    ModelRegistry, Request, Response, ServeConfig, ServedModel, Server, SubmitError, Ticket,
};
use proptest::prelude::*;

/// Two tiny per-sample-routing models (distinct class counts so responses
/// identify their model), built once — seeding per proptest case would
/// dominate the suite's runtime.
fn models() -> &'static [ServedModel; 2] {
    static MODELS: OnceLock<[ServedModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut a = CapsNetSpec::tiny_for_tests();
        a.batch_shared_routing = false;
        let mut b = a.clone();
        b.h_caps = 4;
        [
            ServedModel::new("a", CapsNet::seeded(&a, 11).unwrap()),
            ServedModel::new("b", CapsNet::seeded(&b, 12).unwrap()),
        ]
    })
}

/// One generated submission.
#[derive(Debug, Clone)]
struct Sub {
    tenant: usize,
    model: usize,
    samples: usize,
    seed: u64,
}

/// The request a submission makes.
fn request(sub: &Sub) -> Request {
    let spec = models()[sub.model].net().spec();
    Request::new(
        sub.tenant,
        sub.model,
        request_images(spec, sub.samples, sub.seed),
    )
}

/// Runs a stream through a server and returns, per submission, either the
/// response or the typed reject it got.
fn drive(
    cfg: ServeConfig,
    subs: &[Sub],
    concurrent_tenants: bool,
) -> Vec<Result<Response, SubmitError>> {
    let registry = ModelRegistry::from_models(models().iter().cloned());
    let server = Server::new(&registry, &ExactMath, cfg).unwrap();
    let (outcomes, _metrics) = server.run(|handle| {
        if concurrent_tenants {
            // One submitting thread per tenant, preserving each tenant's
            // own order; results keyed back by submission index.
            let tenants: Vec<usize> = {
                let mut t: Vec<usize> = subs.iter().map(|s| s.tenant).collect();
                t.sort_unstable();
                t.dedup();
                t
            };
            let mut slots: Vec<Option<Result<Response, SubmitError>>> = vec![None; subs.len()];
            std::thread::scope(|scope| {
                let handles: Vec<_> = tenants
                    .iter()
                    .map(|&tenant| {
                        scope.spawn(move || {
                            let mut got = Vec::new();
                            for (i, sub) in
                                subs.iter().enumerate().filter(|(_, s)| s.tenant == tenant)
                            {
                                let ticket: Result<Ticket, SubmitError> =
                                    handle.submit(request(sub));
                                got.push((i, ticket.map(|t| t.wait().unwrap())));
                            }
                            got
                        })
                    })
                    .collect();
                for h in handles {
                    for (i, outcome) in h.join().expect("tenant thread") {
                        slots[i] = Some(outcome);
                    }
                }
            });
            slots.into_iter().map(|s| s.expect("all driven")).collect()
        } else {
            // Single-threaded burst: tickets collected first so the queue
            // actually fills, then awaited.
            let tickets: Vec<Result<Ticket, SubmitError>> =
                subs.iter().map(|sub| handle.submit(request(sub))).collect();
            tickets
                .into_iter()
                .map(|t| t.map(|ticket| ticket.wait().unwrap()))
                .collect()
        }
    });
    outcomes
}

/// Asserts the four scheduler invariants over one driven stream.
fn check_invariants(
    cfg: &ServeConfig,
    subs: &[Sub],
    outcomes: &[Result<Response, SubmitError>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(subs.len(), outcomes.len());
    // (tenant, model) -> dispatch positions in submission order.
    let mut dispatch_order: std::collections::HashMap<(usize, usize), Vec<(u64, usize)>> =
        std::collections::HashMap::new();
    for (sub, outcome) in subs.iter().zip(outcomes) {
        match outcome {
            Ok(r) => {
                // Exactly-once with the right payload size: h values differ
                // per model, so length checks pin the response to its model.
                let h = models()[sub.model].net().spec().h_caps;
                prop_assert_eq!(r.predictions.len(), sub.samples);
                prop_assert_eq!(r.class_norms_sq.len(), sub.samples * h);
                // Batch cap.
                prop_assert!(
                    r.batch_samples <= cfg.max_batch,
                    "batch {} exceeds cap {}",
                    r.batch_samples,
                    cfg.max_batch
                );
                prop_assert!(r.batch_offset + sub.samples <= r.batch_samples);
                // Correctness: bit-exact vs per-request serial forward.
                let spec = models()[sub.model].net().spec();
                let serial = models()[sub.model]
                    .net()
                    .forward(&request_images(spec, sub.samples, sub.seed), &ExactMath)
                    .unwrap();
                for (a, b) in r
                    .class_norms_sq
                    .iter()
                    .zip(serial.class_norms_sq.as_slice())
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "batched != serial");
                }
                dispatch_order
                    .entry((sub.tenant, sub.model))
                    .or_default()
                    .push((r.batch_seq, r.batch_offset));
            }
            Err(SubmitError::QueueFull { capacity, .. }) => {
                prop_assert_eq!(*capacity, cfg.queue_capacity);
            }
            Err(e) => prop_assert!(false, "unexpected reject: {e}"),
        }
    }
    // FIFO per (tenant, model): dispatch positions strictly increase.
    for ((tenant, model), order) in dispatch_order {
        for w in order.windows(2) {
            prop_assert!(
                w[0] < w[1],
                "tenant {tenant} model {model} dispatched out of order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    Ok(())
}

/// Strategy: a stream of submissions over 1..=3 tenants and both models.
fn sub_stream(max_len: usize, max_samples: usize) -> impl Strategy<Value = Vec<Sub>> {
    proptest::collection::vec(
        (0usize..3, 0usize..2, 1usize..=max_samples, 0u64..1000).prop_map(
            |(tenant, model, samples, seed)| Sub {
                tenant,
                model,
                samples,
                seed,
            },
        ),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn invariants_hold_for_single_thread_bursts(
        subs in sub_stream(24, 3),
        max_batch in 1usize..=8,
        wait_us in 0u64..2000,
        workers in 1usize..=2,
    ) {
        let cfg = ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(wait_us),
            queue_capacity: max_batch.max(6), // small: QueueFull is reachable
            workers,
            admission: pim_serve::AdmissionPolicy::QueueBound,
        };
        // Requests wider than max_batch are rejected at submit; keep the
        // generated stream admissible.
        let subs: Vec<Sub> = subs.into_iter().map(|mut s| { s.samples = s.samples.min(max_batch); s }).collect();
        let outcomes = drive(cfg, &subs, false);
        check_invariants(&cfg, &subs, &outcomes)?;
    }

    #[test]
    fn invariants_hold_with_concurrent_tenants(
        subs in sub_stream(18, 2),
        max_batch in 2usize..=6,
        wait_us in 0u64..1500,
    ) {
        let cfg = ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(wait_us),
            queue_capacity: 64, // roomy: concurrent path tests ordering, not rejects
            workers: 1,
            admission: pim_serve::AdmissionPolicy::QueueBound,
        };
        let subs: Vec<Sub> = subs.into_iter().map(|mut s| { s.samples = s.samples.min(max_batch); s }).collect();
        let outcomes = drive(cfg, &subs, true);
        for outcome in &outcomes {
            prop_assert!(outcome.is_ok(), "roomy queue must admit everything");
        }
        check_invariants(&cfg, &subs, &outcomes)?;
    }

    #[test]
    fn shutdown_completes_every_admitted_request(
        n in 1usize..16,
        max_batch in 1usize..=4,
    ) {
        // Submit, then leave the serve window immediately: the drain path
        // must fulfill every ticket.
        let cfg = ServeConfig {
            max_batch,
            max_wait: Duration::from_millis(50), // long: shutdown must cut it short
            queue_capacity: 64,
            workers: 1,
            admission: pim_serve::AdmissionPolicy::QueueBound,
        };
        let registry = ModelRegistry::from_models(models().iter().cloned());
        let server = Server::new(&registry, &ExactMath, cfg).unwrap();
        let (tickets, _metrics) = server.run(|handle| {
            (0..n)
                .map(|i| {
                    let spec = models()[i % 2].net().spec();
                    handle
                        .submit(Request::new(i, i % 2, request_images(spec, 1, i as u64)))
                        .unwrap()
                })
                .collect::<Vec<Ticket>>()
        });
        for t in tickets {
            let r = t.wait();
            prop_assert!(r.is_ok());
            prop_assert!(r.unwrap().batch_samples <= max_batch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Inter-arrival pauses on both sides of `max_wait` (none, or
    /// `max_wait` + 1 ms): batches that wait for companions and requests
    /// dispatched alone mix in one stream, and every response is still the
    /// direct forward, in per-(tenant, model) FIFO order.
    #[test]
    fn invariants_hold_with_sparse_and_dense_arrivals(
        subs in sub_stream(12, 2),
        pauses in proptest::collection::vec(0u8..2, 12),
        max_batch in 2usize..=4,
        wait_ms in 1u64..=3,
        workers in 1usize..=2,
    ) {
        let cfg = ServeConfig {
            max_batch,
            max_wait: Duration::from_millis(wait_ms),
            queue_capacity: 64,
            workers,
            admission: pim_serve::AdmissionPolicy::QueueBound,
        };
        let subs: Vec<Sub> = subs.into_iter().map(|mut s| { s.samples = s.samples.min(max_batch); s }).collect();
        let registry = ModelRegistry::from_models(models().iter().cloned());
        let server = Server::new(&registry, &ExactMath, cfg).unwrap();
        let (outcomes, _metrics) = server.run(|handle| {
            let tickets: Vec<Result<Ticket, SubmitError>> = subs
                .iter()
                .zip(&pauses)
                .map(|(sub, &sparse)| {
                    if sparse == 1 {
                        std::thread::sleep(cfg.max_wait + Duration::from_millis(1));
                    }
                    handle.submit(request(sub))
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.map(|ticket| ticket.wait().unwrap()))
                .collect::<Vec<_>>()
        });
        for outcome in &outcomes {
            prop_assert!(outcome.is_ok(), "roomy queue must admit everything");
        }
        check_invariants(&cfg, &subs, &outcomes)?;
    }
}
