//! Minutes-long, many-tenant soak scenarios for the SLO-aware scheduler.
//!
//! The ROADMAP's "scheduler scale-out" item asks for sustained ~1M-request
//! streams over hundreds of tenants, driven at fractions/multiples of the
//! host's measured capacity, with the admission layer
//! ([`pim_serve::admission`]) shedding best-effort traffic so
//! high-priority p99 stays bounded at 1.2x capacity. This module supplies
//! both halves of that story:
//!
//! * [`run_soak_phase`] — the **live** phase: an open-loop Poisson
//!   arrival stream ([`TrafficConfig::arrivals`]) paced in real time into
//!   one [`Server::run`] window by [`crate::drive`] (tallying every typed
//!   rejection, harvesting on a side thread), every submission accounted
//!   into one [`Ledger`] (the "zero dropped tickets" reconciliation);
//! * the tests' `simulate_soak` — a **deterministic** discrete-event twin
//!   that calls the *same* pure [`pim_serve::admission::decide`] the live
//!   server calls, so shed/quota policy behavior can be property-tested
//!   (same seed ⇒ identical counts) without wall-clock noise.
//!
//! Capacity itself is measured by [`saturated_hz`] — the completion rate
//! of a phase paced above what a saturating sprint reads — so the
//! 0.8x/1.0x/1.2x phase rates are anchored to what a phase can sustain on
//! the host actually running the soak.

use std::time::Duration;

use capsnet::{CapsNet, CapsNetSpec, MathBackend, RoutingAlgorithm};
use pim_serve::{
    AdmissionPolicy, MetricsReport, ModelRegistry, Priority, Request, ServeConfig, ServedModel,
    Server, SloConfig,
};
use pim_tensor::Tensor;

use crate::drive::{drive, Arrivals, Backpressure, Drive, Ledger};
use crate::traffic::{request_images, Arrival, TrafficConfig};

/// The soak network: the smallest valid CapsNet geometry (1×1 primary
/// grid, 2 classes, one routing iteration) so a single core can push
/// hundreds of thousands of requests through a real forward pass in
/// seconds. Routed per sample, so requests coalesce into batches.
pub fn soak_spec() -> CapsNetSpec {
    CapsNetSpec {
        name: "caps-soak-micro".into(),
        input_channels: 1,
        input_hw: (6, 6),
        conv1_channels: 4,
        conv1_kernel: 3,
        conv1_stride: 1,
        primary_channels: 4,
        cl_dim: 4,
        primary_kernel: 3,
        primary_stride: 2,
        h_caps: 2,
        ch_dim: 4,
        routing_iterations: 1,
        routing: RoutingAlgorithm::Dynamic,
        decoder_dims: vec![8, 36],
        routing_sharpness: 1.0,
        batch_shared_routing: false,
    }
}

/// Deterministic tenant → tier assignment used by every soak: 20% of
/// tenants are [`Priority::High`], 50% [`Priority::Normal`], 30%
/// [`Priority::Low`].
fn tier_for_tenant(tenant: usize) -> Priority {
    match tenant % 10 {
        0 | 1 => Priority::High,
        2..=6 => Priority::Normal,
        _ => Priority::Low,
    }
}

/// One open-loop soak phase: its arrival stream and the server knobs it
/// runs against.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Tenants issuing requests (tiers assigned by `tier_for_tenant`).
    pub tenants: usize,
    /// Requests in the phase.
    pub requests: usize,
    /// Offered arrival rate, requests per second.
    pub rate_hz: f64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Scheduler configuration for the phase's serve window.
    pub serve: ServeConfig,
}

/// The scheduler configuration soaks run under: SLO-aware admission with
/// the default tier ceilings, and a queue bound so large that shedding —
/// not `QueueFull` — is the operative overload control.
pub fn soak_serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(200),
        queue_capacity: 1 << 20,
        workers: 1,
        admission: AdmissionPolicy::SloAware(SloConfig::default()),
    }
}

/// Outcome of one live soak phase.
#[derive(Debug, Clone)]
pub struct SoakPhaseReport {
    /// Submission accounting (reconciled against `metrics` by the tests
    /// and the bench gate).
    pub counts: Ledger,
    /// The serve window's own metrics (per-tier latency percentiles).
    pub metrics: MetricsReport,
    /// Offered rate, requests per second.
    pub offered_hz: f64,
    /// Completed requests per second over the window.
    pub achieved_hz: f64,
}

/// Builds the registry a soak serves from (one [`soak_spec`] model).
pub fn soak_registry(seed: u64) -> ModelRegistry {
    let net = CapsNet::seeded(&soak_spec(), seed).expect("soak spec is valid");
    ModelRegistry::from_models([ServedModel::new("caps-soak-micro", net)])
}

/// The single-sample Poisson stream a soak or chaos phase offers.
pub(crate) fn phase_arrivals(
    rate_hz: f64,
    requests: usize,
    tenants: usize,
    seed: u64,
) -> Vec<Arrival> {
    TrafficConfig {
        rate_hz,
        requests,
        tenants,
        models: 1,
        max_samples: 1,
        seed,
    }
    .arrivals()
}

/// A small pool of pre-built seeded images, so the submit path measures
/// the scheduler, not the RNG.
pub(crate) fn image_pool(seed: u64) -> Vec<Tensor> {
    let spec = soak_spec();
    (0..64)
        .map(|i| request_images(&spec, 1, seed + i))
        .collect()
}

/// The request an arrival carries: a pooled image at its tenant's tier.
pub(crate) fn tiered_request(images: &[Tensor], arrival: &Arrival) -> Request {
    let image = &images[(arrival.image_seed % images.len() as u64) as usize];
    Request::new(arrival.tenant, arrival.model, image.clone())
        .with_priority(tier_for_tenant(arrival.tenant))
}

/// Runs one open-loop soak phase against a live server: seeded Poisson
/// arrivals paced in real time, every typed rejection tallied, every
/// accepted ticket waited on by the driver's side-thread harvester.
pub fn run_soak_phase<B: MathBackend + Sync + ?Sized>(
    registry: &ModelRegistry,
    backend: &B,
    cfg: &SoakConfig,
) -> SoakPhaseReport {
    let arrivals = phase_arrivals(cfg.rate_hz, cfg.requests, cfg.tenants, cfg.seed);
    let images = image_pool(cfg.seed ^ 0xA11CE);
    let server = Server::new(registry, backend, cfg.serve).expect("soak serve config is valid");
    let (driven, metrics) = server.run(|handle| {
        drive(
            handle,
            &arrivals,
            Drive {
                arrivals: Arrivals::Paced,
                backpressure: Backpressure::Tally,
                keep_responses: false,
            },
            |_, arrival| tiered_request(&images, arrival),
            |_, _| {},
        )
    });
    let counts = driven.ledger;
    let achieved_hz = if metrics.elapsed_s > 0.0 {
        counts.completed as f64 / metrics.elapsed_s
    } else {
        0.0
    };
    SoakPhaseReport {
        counts,
        metrics,
        offered_hz: cfg.rate_hz,
        achieved_hz,
    }
}

/// Queue bound of the capacity sprint, samples.
pub const PROBE_QUEUE: usize = 1024;

/// How far above the sprint's reading [`saturated_hz`] paces its overload.
pub const OVERDRIVE: f64 = 1.5;

/// Measures the serving capacity a sweep is anchored to, requests per
/// second: **what a paced phase completes per second when it is offered
/// more than it can serve**. A phase's capacity depends on its submitter —
/// pacing keeps one of this host's cores busy, and the worker alone drains
/// a backlog 1.4x faster than beside it — so the estimate is taken from
/// [`run_soak_phase`] itself, offered [`OVERDRIVE`] times the reading of
/// one saturating sprint: the same stream as a burst against a
/// [`PROBE_QUEUE`]-sample queue, admission forced to
/// [`AdmissionPolicy::QueueBound`] and `QueueFull` retried. The sprint
/// alone is within ±20% of the paced rate (and once read 1.77x it), which
/// is good enough to place an overload and not to anchor a 0.8x phase.
pub fn saturated_hz<B: MathBackend + Sync + ?Sized>(
    registry: &ModelRegistry,
    backend: &B,
    serve: ServeConfig,
    requests: usize,
    tenants: usize,
    seed: u64,
) -> f64 {
    let cfg = ServeConfig {
        admission: AdmissionPolicy::QueueBound,
        queue_capacity: PROBE_QUEUE.max(serve.max_batch),
        ..serve
    };
    let arrivals = phase_arrivals(1.0, requests, tenants, seed);
    let images = image_pool(seed ^ 0xCAFE);
    let server = Server::new(registry, backend, cfg).expect("probe serve config is valid");
    let (driven, metrics) = server.run(|handle| {
        drive(
            handle,
            &arrivals,
            Drive {
                arrivals: Arrivals::Burst,
                backpressure: Backpressure::Retry,
                keep_responses: false,
            },
            |_, arrival| tiered_request(&images, arrival),
            |_, _| {},
        )
    });
    assert_eq!(
        driven.ledger.completed as usize, requests,
        "probe dropped tickets: {:?}",
        driven.ledger
    );
    let sprint_hz = requests as f64 / metrics.elapsed_s;
    let overload = SoakConfig {
        tenants,
        requests,
        rate_hz: OVERDRIVE * sprint_hz,
        seed,
        serve,
    };
    run_soak_phase(registry, backend, &overload).achieved_hz
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::ExactMath;
    use pim_serve::admission::{decide, predicted_wait_us, AdmissionVerdict};
    use pim_serve::TIERS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Configuration of the deterministic discrete-event soak twin.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct SimSoakConfig {
        /// Requests in the stream.
        requests: usize,
        /// Tenants (tiers assigned by `tier_for_tenant`).
        tenants: usize,
        /// Offered arrival rate, requests per second.
        rate_hz: f64,
        /// Deterministic per-sample service time, nanoseconds.
        service_ns: u64,
        /// Queue bound, samples.
        queue_capacity: usize,
        /// The SLO policy under test.
        slo: SloConfig,
        /// Arrival-stream seed.
        seed: u64,
    }

    impl Default for SimSoakConfig {
        fn default() -> Self {
            SimSoakConfig {
                requests: 50_000,
                tenants: 300,
                rate_hz: 50_000.0,
                service_ns: 20_000,
                queue_capacity: 1 << 20,
                slo: SloConfig::default(),
                seed: 0x50AC,
            }
        }
    }

    /// Deterministic discrete-event soak: one worker serving single-sample
    /// requests in priority order, admission decided by the **same**
    /// [`pim_serve::admission::decide`] the live server runs, over the same
    /// seeded Poisson arrivals the live driver paces. A pure function of its
    /// config — same seed, same counts, every time — which is what makes the
    /// shed/quota policy property-testable.
    ///
    /// The estimator is modeled faithfully: predicted waits are zero (admit
    /// everything) until the first simulated completion, after which the
    /// estimate is the exact `service_ns`.
    fn simulate_soak(cfg: &SimSoakConfig) -> Ledger {
        let arrivals = phase_arrivals(cfg.rate_hz, cfg.requests, cfg.tenants, cfg.seed);

        // Waiting requests: (arrival_ns, tenant), FIFO per tier.
        let mut queues: [std::collections::VecDeque<(u64, usize)>; TIERS] =
            std::array::from_fn(|_| std::collections::VecDeque::new());
        let mut tenant_queued: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut counts = Ledger::default();
        let mut free_ns: u64 = 0; // when the worker next idles
        let mut first_completion_ns: Option<u64> = None;

        // Dispatches everything the worker would have started before `now_ns`:
        // at each point it frees up, it takes the highest-priority request
        // that had already arrived, or idles forward to the next queued
        // arrival. Dispatched requests leave the queue (the live server's
        // `queued_samples` also counts only *waiting* samples).
        let drain = |now_ns: u64,
                     queues: &mut [std::collections::VecDeque<(u64, usize)>; TIERS],
                     tenant_queued: &mut std::collections::HashMap<usize, usize>,
                     free_ns: &mut u64,
                     first_completion_ns: &mut Option<u64>,
                     completed: &mut u64| {
            loop {
                if *free_ns >= now_ns {
                    return;
                }
                let visible =
                    (0..TIERS).find(|&t| queues[t].front().is_some_and(|&(at, _)| at <= *free_ns));
                match visible {
                    Some(tier) => {
                        let (_, tenant) = queues[tier].pop_front().expect("front just checked");
                        *tenant_queued.get_mut(&tenant).expect("tenant counted") -= 1;
                        *free_ns += cfg.service_ns;
                        first_completion_ns.get_or_insert(*free_ns);
                        *completed += 1;
                    }
                    None => {
                        // Idle forward to the earliest queued arrival, if any
                        // lands before `now_ns`.
                        let next = (0..TIERS)
                            .filter_map(|t| queues[t].front().map(|&(at, _)| at))
                            .min();
                        match next {
                            Some(at) if at < now_ns => *free_ns = (*free_ns).max(at),
                            _ => return,
                        }
                    }
                }
            }
        };

        for arrival in &arrivals {
            let now_ns = arrival.at_us.saturating_mul(1_000);
            drain(
                now_ns,
                &mut queues,
                &mut tenant_queued,
                &mut free_ns,
                &mut first_completion_ns,
                &mut counts.completed,
            );
            let est_ns = match first_completion_ns {
                Some(t) if t <= now_ns => cfg.service_ns,
                _ => 0, // estimator still cold: warm-up admits everything
            };
            let tier = tier_for_tenant(arrival.tenant);
            let queued_total: usize = queues.iter().map(|q| q.len()).sum();
            let backlog_at_or_above: usize = (0..=tier.index()).map(|t| queues[t].len()).sum();
            let verdict = decide(
                &AdmissionPolicy::SloAware(cfg.slo),
                cfg.queue_capacity,
                queued_total,
                1,
                tenant_queued.get(&arrival.tenant).copied().unwrap_or(0),
                predicted_wait_us(backlog_at_or_above, est_ns, 1),
                tier,
            );
            counts.submitted += 1;
            match verdict {
                AdmissionVerdict::Admit => {
                    queues[tier.index()].push_back((now_ns, arrival.tenant));
                    *tenant_queued.entry(arrival.tenant).or_insert(0) += 1;
                }
                AdmissionVerdict::Shed { .. } => counts.shed[tier.index()] += 1,
                AdmissionVerdict::Full => counts.rejected_full += 1,
                AdmissionVerdict::Quota { .. } => counts.rejected_quota += 1,
            }
        }
        // Window close: the live server drains everything still queued.
        drain(
            u64::MAX,
            &mut queues,
            &mut tenant_queued,
            &mut free_ns,
            &mut first_completion_ns,
            &mut counts.completed,
        );
        counts
    }

    #[test]
    fn soak_spec_is_valid_and_micro() {
        let spec = soak_spec();
        spec.validate().unwrap();
        assert_eq!(spec.l_caps().unwrap(), 4);
        assert_eq!(spec.input_pixels(), 36);
        assert!(
            !spec.batch_shared_routing,
            "per-sample routing so requests coalesce"
        );
    }

    #[test]
    fn tenant_tiers_split_20_50_30() {
        let mut per_tier = [0usize; TIERS];
        for tenant in 0..100 {
            per_tier[tier_for_tenant(tenant).index()] += 1;
        }
        assert_eq!(per_tier, [20, 50, 30]);
    }

    #[test]
    fn counts_reconcile_exactly() {
        let counts = Ledger {
            submitted: 10,
            completed: 4,
            failed_forward: 1,
            shed: [0, 1, 2],
            rejected_full: 1,
            rejected_quota: 1,
            ..Default::default()
        };
        assert!(counts.reconciles());
        let off_by_one = Ledger {
            completed: 5,
            ..counts
        };
        assert!(!off_by_one.reconciles());
    }

    /// S4 regression: the simulated soak is a pure function of its config.
    #[test]
    fn simulation_is_deterministic_per_seed() {
        let cfg = SimSoakConfig {
            requests: 20_000,
            rate_hz: 80_000.0, // overloaded, so shed counts carry seed detail
            ..Default::default()
        };
        let a = simulate_soak(&cfg);
        assert_eq!(a, simulate_soak(&cfg), "same seed must give same counts");
        let b = simulate_soak(&SimSoakConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        });
        assert_ne!(a, b, "different seeds should differ somewhere");
    }

    /// S4 regression (seeded property sweep): over random rates, service
    /// times, quotas and ceilings, every submission is accounted exactly
    /// once and re-simulation is bit-identical.
    #[test]
    fn simulation_accounts_every_submission_across_random_configs() {
        let mut rng = StdRng::seed_from_u64(0x5EED_50AC);
        for case in 0..40 {
            let cfg = SimSoakConfig {
                requests: rng.gen_range(500..4_000),
                tenants: rng.gen_range(1..400),
                rate_hz: rng.gen_range(1_000.0..200_000.0),
                service_ns: rng.gen_range(1_000..200_000),
                queue_capacity: rng.gen_range(1..2_000),
                slo: SloConfig {
                    shed_wait_us: [
                        rng.gen_range(100..100_000),
                        rng.gen_range(10..50_000),
                        rng.gen_range(1..10_000),
                    ],
                    tenant_quota: rng.gen_range(1..128),
                },
                seed: rng.gen(),
            };
            let counts = simulate_soak(&cfg);
            assert_eq!(counts.submitted as usize, cfg.requests, "case {case}");
            assert_eq!(counts.failed(), 0, "the simulator cannot fail forwards");
            assert!(
                counts.reconciles(),
                "case {case}: {counts:?} does not reconcile under {cfg:?}"
            );
            assert_eq!(
                counts,
                simulate_soak(&cfg),
                "case {case}: not deterministic"
            );
        }
    }

    /// The policy headline, checked deterministically: at 2x capacity the
    /// simulator sheds best-effort traffic and none of the high tier.
    #[test]
    fn simulated_overload_sheds_low_not_high() {
        let cfg = SimSoakConfig {
            requests: 50_000,
            rate_hz: 100_000.0, // 2x the 20µs-per-sample capacity
            ..Default::default()
        };
        let counts = simulate_soak(&cfg);
        assert!(counts.reconciles());
        assert!(
            counts.shed[Priority::Low.index()] > 0,
            "2x overload must shed best-effort traffic: {counts:?}"
        );
        assert_eq!(
            counts.shed[Priority::High.index()],
            0,
            "high tier must ride out 2x overload unshed: {counts:?}"
        );
    }

    /// Live end-to-end: a short open-loop phase reconciles exactly and its
    /// submitter-side ledger agrees with the server's own metrics — under
    /// the soak's shedding configuration at 1.2x capacity, and against a
    /// four-sample queue with a one-sample tenant quota, where the queue
    /// bound and the quota do the rejecting.
    #[test]
    fn live_phase_reconciles_against_server_metrics() {
        let registry = soak_registry(7);
        let capacity = saturated_hz(&registry, &ExactMath, soak_serve_config(), 600, 30, 0xBEEF);
        assert!(capacity > 0.0);
        let tiny = ServeConfig {
            max_batch: 4,
            queue_capacity: 4,
            admission: AdmissionPolicy::SloAware(SloConfig {
                shed_wait_us: [u64::MAX; TIERS],
                tenant_quota: 1,
            }),
            ..soak_serve_config()
        };
        for serve in [soak_serve_config(), tiny] {
            let report = run_soak_phase(
                &registry,
                &ExactMath,
                &SoakConfig {
                    tenants: 30,
                    requests: 2_000,
                    rate_hz: capacity * 1.2,
                    seed: 0x50AC1,
                    serve,
                },
            );
            let counts = report.counts;
            assert_eq!(counts.submitted, 2_000);
            assert!(counts.reconciles(), "dropped tickets: {counts:?}");
            assert_eq!(counts.completed, report.metrics.requests);
            assert_eq!(counts.failed(), report.metrics.failed_requests);
            assert_eq!(counts.shed_total(), report.metrics.shed_total());
            assert_eq!(counts.rejected_full, report.metrics.rejected_full);
            assert_eq!(counts.rejected_quota, report.metrics.rejected_quota);
            for (tier, report_tier) in Priority::ALL.iter().zip(&report.metrics.tiers) {
                assert_eq!(counts.shed[tier.index()], report_tier.shed);
            }
            if serve.queue_capacity == 4 {
                assert_eq!(counts.shed_total(), 0, "the ceilings are unreachable");
                assert!(counts.rejected_full > 0, "queue bound idle: {counts:?}");
                assert!(counts.rejected_quota > 0, "quota idle: {counts:?}");
            }
        }
    }
}
