//! Property test: under *randomized* fault schedules — scripted worker
//! panics, stalls outliving the replica timeout, and operator
//! quarantines at arbitrary points in the traffic — every accepted
//! ticket resolves exactly once with a typed outcome, the submission
//! ledger reconciles, and every replica the supervisor did not declare
//! dead still serves a fresh request afterwards.
//!
//! The deterministic chaos gate (`chaos_bench`) pins one seeded
//! schedule; this test walks the schedule *space*.

use std::time::{Duration, Instant};

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use capsnet_workloads::chaos::{ChaosBackend, FaultAction, FaultPlan, FaultPoint};
use pim_serve::{
    AdmissionPolicy, FaultToleranceConfig, HealthState, ReplicaSet, ReplicaSetConfig,
    ReplicaSetHandle, Request, RoutingPolicy, ServeConfig,
};
use pim_tensor::Tensor;
use proptest::prelude::*;

/// Outlives the 15 ms scripted stall, so a stalled wait resolves typed
/// (`ReplicaTimeout`) instead of riding the stall out.
const REPLICA_TIMEOUT: Duration = Duration::from_millis(10);

/// Scripted stall length.
const STALL: Duration = Duration::from_millis(15);

/// Every request's end-to-end budget — the hard bound on any single
/// `wait`, whatever the schedule does.
const DEADLINE: Duration = Duration::from_millis(500);

fn image(seed: u64) -> Tensor {
    Tensor::uniform(&[1, 1, 12, 12], 0.0, 1.0, seed)
}

fn pool_cfg(replicas: usize) -> ReplicaSetConfig {
    ReplicaSetConfig {
        replicas,
        policy: RoutingPolicy::RoundRobin,
        serve: ServeConfig {
            max_batch: 2,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            workers: 1,
            admission: AdmissionPolicy::QueueBound,
        },
        fault: FaultToleranceConfig {
            replica_timeout: Some(REPLICA_TIMEOUT),
            breaker_threshold: 2,
            probe_cooldown: Duration::from_millis(5),
            watchdog_interval: Duration::from_millis(2),
            max_restarts: 5,
            ..FaultToleranceConfig::default()
        },
        cache: None,
    }
}

/// `true` when the replica answers a fresh deadline-carrying request
/// within `patience` (transient rejections retried).
fn serves(pool: &ReplicaSetHandle<'_>, replica: usize, patience: Duration) -> bool {
    let give_up = Instant::now() + patience;
    while Instant::now() < give_up {
        if let Ok(ticket) = pool.submit_to(
            replica,
            Request::new(0, 0, image(7)).with_deadline(DEADLINE),
        ) {
            if ticket.wait().is_ok() {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_ticket_resolves_exactly_once_under_random_faults(
        replicas in 1usize..=3,
        requests in 10usize..=60,
        // Arrival indices; one past the last arrival means "never armed
        // this case" …
        raw_points in proptest::collection::vec((0usize..90, 0u8..2), 0..=4),
        // … or "no quarantine this case".
        quarantine in (0usize..90, 0usize..3),
        seed in 0u64..1_000,
    ) {
        // Each fault is armed when its arrival comes due and taken by the
        // next backend call anywhere in the fleet.
        let plan = FaultPlan {
            points: raw_points
                .iter()
                .map(|&(at_arrival, kind)| FaultPoint {
                    at_arrival,
                    action: if kind == 0 {
                        FaultAction::Panic
                    } else {
                        FaultAction::Stall(STALL)
                    },
                })
                .collect(),
            quarantine: None,
        };

        let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed ^ 0x9E37).unwrap();
        let backend = ChaosBackend::new(&ExactMath);
        let set = ReplicaSet::from_net("prop", &net, &backend, pool_cfg(replicas)).unwrap();

        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut completed = 0u64;
        let mut failed_typed = 0u64;
        set.run(|pool| {
            let mut tickets = Vec::with_capacity(requests);
            for i in 0..requests {
                let (at, r) = quarantine;
                if at == i {
                    pool.quarantine(r % replicas);
                }
                for point in plan.points.iter().filter(|p| p.at_arrival == i) {
                    backend.arm(point.action);
                }
                let request =
                    Request::new(i % 5, 0, image(seed + i as u64)).with_deadline(DEADLINE);
                match pool.submit(request) {
                    Ok(ticket) => {
                        accepted += 1;
                        tickets.push(ticket);
                    }
                    Err(_) => rejected += 1,
                }
            }
            // Exactly-once: `wait` consumes the ticket, so a second
            // resolution is unrepresentable; the property under test is
            // that every wait *returns*, typed, within the deadline
            // machinery's bounds — no schedule may leave a caller
            // hanging on a lost reply.
            for ticket in tickets {
                match ticket.wait() {
                    Ok(_) => completed += 1,
                    Err(_) => failed_typed += 1,
                }
            }
            // Whatever the schedule did, the fleet converges: every
            // replica the supervisor did not declare dead serves again.
            for r in 0..replicas {
                if pool.health(r) != HealthState::Dead {
                    prop_assert!(
                        serves(pool, r, Duration::from_secs(10)),
                        "live replica {r} stopped serving after the schedule",
                    );
                }
            }
            Ok(())
        }).0?;

        prop_assert_eq!(accepted + rejected, requests as u64);
        prop_assert_eq!(completed + failed_typed, accepted);
    }
}
