//! Fault-tolerance integration: deadlines against stalled replicas, stall
//! timeouts feeding the circuit breaker, panic capture + restart from the
//! shared artifact, failover, watchdog re-admission, permanent death, and
//! the admission estimator's post-restart warm-up.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use capsnet::{CapsNet, CapsNetSpec, ExactMath, MathBackend};
use pim_serve::{
    AdmissionPolicy, FaultToleranceConfig, HealthState, Priority, ReplicaSet, ReplicaSetConfig,
    Request, RetryBudget, RoutingPolicy, ServeConfig, ServeError, SloConfig, SubmitError,
};
use pim_store::{MappedModel, ModelWriter};
use pim_tensor::Tensor;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_serve_ft_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_net(seed: u64) -> CapsNet {
    CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed).unwrap()
}

fn images(n: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        queue_capacity: 64,
        workers: 1,
        admission: AdmissionPolicy::QueueBound,
    }
}

fn pool_cfg(replicas: usize, fault: FaultToleranceConfig) -> ReplicaSetConfig {
    ReplicaSetConfig {
        replicas,
        policy: RoutingPolicy::RoundRobin,
        serve: serve_cfg(),
        fault,
        cache: None,
    }
}

/// A scriptable backend for deterministic fault injection: the test arms
/// one-shot flags between submissions, so which forward hits which fault
/// does not depend on timing.
struct ScriptedMath {
    /// One-shot: the next `exp` call panics (clears itself).
    panic_next: AtomicBool,
    /// One-shot: the next `exp` call sleeps this long, microseconds
    /// (clears itself) — inflates one batch's observed service time.
    slow_once_us: AtomicU64,
    /// Level: while set, `exp` blocks (a stalled accelerator).
    hold: AtomicBool,
    /// Set by the blocked `exp` so tests can rendezvous with the stall.
    entered: AtomicBool,
}

impl ScriptedMath {
    fn new() -> Self {
        ScriptedMath {
            panic_next: AtomicBool::new(false),
            slow_once_us: AtomicU64::new(0),
            hold: AtomicBool::new(false),
            entered: AtomicBool::new(false),
        }
    }

    fn hold_worker(&self) {
        self.entered.store(false, SeqCst);
        self.hold.store(true, SeqCst);
    }

    fn await_entered(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.entered.load(SeqCst) {
            assert!(Instant::now() < deadline, "worker never entered forward");
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn release(&self) {
        self.hold.store(false, SeqCst);
    }
}

/// Blocks until `pool.restarts(replica)` reaches `n` — i.e. the dying
/// life has fully unwound and the supervisor has begun the next one (cold
/// cache, cold service-time estimate, `Healthy`). A pool submit enqueues
/// straight into the replica's scheduler, which outlives a life, so a
/// request submitted before this point is not lost: it waits in the queue
/// for the fresh life. Tests wait here to assert on the fresh life's own
/// state — its restart count, its health, its cold estimator.
fn await_restart(pool: &pim_serve::ReplicaSetHandle<'_>, replica: usize, n: u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.restarts(replica) < n {
        assert!(Instant::now() < deadline, "replica never restarted");
        std::thread::sleep(Duration::from_micros(100));
    }
}

impl MathBackend for ScriptedMath {
    fn name(&self) -> &'static str {
        "scripted-exact"
    }
    fn exp(&self, x: f32) -> f32 {
        if self.panic_next.swap(false, SeqCst) {
            panic!("scripted fault: forward panic");
        }
        let us = self.slow_once_us.swap(0, SeqCst);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
        if self.hold.load(SeqCst) {
            self.entered.store(true, SeqCst);
            while self.hold.load(SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        ExactMath.exp(x)
    }
    fn inv_sqrt(&self, x: f32) -> f32 {
        ExactMath.inv_sqrt(x)
    }
    fn div(&self, a: f32, b: f32) -> f32 {
        ExactMath.div(a, b)
    }
}

/// Every forward panics: the replica burns its whole restart budget.
struct PanicMath;

impl MathBackend for PanicMath {
    fn name(&self) -> &'static str {
        "always-panics"
    }
    fn exp(&self, _x: f32) -> f32 {
        panic!("this backend always panics")
    }
    fn inv_sqrt(&self, x: f32) -> f32 {
        ExactMath.inv_sqrt(x)
    }
    fn div(&self, a: f32, b: f32) -> f32 {
        ExactMath.div(a, b)
    }
}

/// Regression: a deadline-carrying request against a stalled replica used
/// to hang forever in `ReplySlot::take` / `Ticket::wait`; it must now
/// resolve `DeadlineExceeded` within (about) its budget — and the miss
/// must **not** feed the replica's circuit breaker.
#[test]
fn deadline_bounds_wait_on_stalled_replica() {
    let net = tiny_net(1);
    let math = ScriptedMath::new();
    let set = ReplicaSet::from_net(
        "stall",
        &net,
        &math,
        pool_cfg(1, FaultToleranceConfig::default()),
    )
    .unwrap();
    let ((), report) = set.run(|pool| {
        // r1 occupies the single worker, blocked inside its forward.
        math.hold_worker();
        let r1 = pool.submit(Request::new(0, 0, images(1, 1))).unwrap();
        math.await_entered();
        // r2 queues behind the stall, carrying a 100ms budget.
        let budget = Duration::from_millis(100);
        let r2 = pool
            .submit(Request::new(1, 0, images(1, 2)).with_deadline(budget))
            .unwrap();
        let started = Instant::now();
        let err = r2.wait().expect_err("r2 cannot be served while stalled");
        let waited = started.elapsed();
        assert!(
            matches!(err, ServeError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got: {err}"
        );
        assert!(
            waited >= Duration::from_millis(90),
            "returned early: {waited:?}"
        );
        assert!(waited < Duration::from_secs(5), "not bounded: {waited:?}");
        // The caller's budget is not the replica's fault.
        assert_eq!(pool.health(0), HealthState::Healthy);
        math.release();
        r1.wait().unwrap();
    });
    assert_eq!(report.deadline_misses, 1);
    assert_eq!(report.quarantines, 0);
}

/// A stall past `replica_timeout` resolves `ReplicaTimeout` — and unlike
/// a deadline miss it *does* count against the breaker, quarantining the
/// replica after `breaker_threshold` consecutive strikes.
#[test]
fn stall_timeout_is_typed_and_trips_breaker() {
    let net = tiny_net(2);
    let math = ScriptedMath::new();
    let fault = FaultToleranceConfig {
        replica_timeout: Some(Duration::from_millis(30)),
        breaker_threshold: 2,
        // Out of the test's way: no re-admission while we assert.
        probe_cooldown: Duration::from_secs(30),
        ..FaultToleranceConfig::default()
    };
    let set = ReplicaSet::from_net("stall", &net, &math, pool_cfg(1, fault)).unwrap();
    let ((), report) = set.run(|pool| {
        math.hold_worker();
        let r1 = pool.submit(Request::new(0, 0, images(1, 1))).unwrap();
        math.await_entered();
        let err = r1.wait().expect_err("stalled past replica_timeout");
        assert!(
            matches!(err, ServeError::ReplicaTimeout { replica: 0, .. }),
            "expected ReplicaTimeout, got: {err}"
        );
        assert_eq!(pool.health(0), HealthState::Degraded);
        // Second strike trips the breaker.
        let r2 = pool.submit(Request::new(1, 0, images(1, 2))).unwrap();
        let err = r2.wait().expect_err("still stalled");
        assert!(matches!(err, ServeError::ReplicaTimeout { .. }), "{err}");
        assert_eq!(pool.health(0), HealthState::Quarantined);
        math.release();
    });
    assert_eq!(report.quarantines, 1);
    assert_eq!(report.health[0], HealthState::Quarantined);
}

/// Panic capture + restart: the poisoned forward fails its ticket typed,
/// the replica respawns from the **same** registry over the shared
/// artifact mapping — preserving the post-swap version (rollout
/// monotonicity) — and serves again.
#[test]
fn panicked_replica_restarts_from_shared_artifact_and_preserves_version() {
    let dir = tmp_dir("restart");
    let v1 = tiny_net(3);
    let v1_path = dir.join("v1.pimcaps");
    ModelWriter::vault_aligned().save(&v1, &v1_path).unwrap();
    let artifact = MappedModel::open(&v1_path).unwrap();
    let math = ScriptedMath::new();
    let set = ReplicaSet::from_shared(
        "caps",
        &artifact,
        &math,
        pool_cfg(1, FaultToleranceConfig::default()),
    )
    .unwrap();
    let ((), report) = set.run(|pool| {
        // Serve once, then hot-swap to bump the version.
        pool.submit(Request::new(0, 0, images(1, 1)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(pool.swap_replica_net(0, tiny_net(4)).unwrap(), 2);
        // Scripted kill: the next forward panics the serving thread.
        math.panic_next.store(true, SeqCst);
        let err = pool
            .submit(Request::new(0, 0, images(1, 2)))
            .unwrap()
            .wait()
            .expect_err("the poisoned forward fails typed");
        assert!(matches!(err, ServeError::Forward(_)), "{err}");
        // The respawned life serves the same registry: version 2 stands.
        await_restart(pool, 0, 1);
        pool.submit(Request::new(0, 0, images(1, 3)))
            .unwrap()
            .wait()
            .expect("the restarted replica serves again");
        assert_eq!(pool.version(0), 2);
        assert_eq!(pool.restarts(0), 1);
        assert_eq!(pool.health(0), HealthState::Healthy);
    });
    assert_eq!(report.restarts, 1);
    assert_eq!(report.restarts_per_replica, vec![1]);
    assert_eq!(report.health[0], HealthState::Healthy);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `call` resubmits a panic-failed request to another replica and
/// succeeds; the detour is metered as a failover.
#[test]
fn call_fails_over_to_a_healthy_replica() {
    let net = tiny_net(5);
    let math = ScriptedMath::new();
    let set = ReplicaSet::from_net(
        "failover",
        &net,
        &math,
        pool_cfg(2, FaultToleranceConfig::default()),
    )
    .unwrap();
    let budget = RetryBudget {
        attempts: 10,
        backoff: Duration::from_millis(1),
    };
    let ((), report) = set.run(|pool| {
        math.panic_next.store(true, SeqCst);
        pool.call(Request::new(0, 0, images(1, 1)), &budget)
            .expect("failover serves the request despite the panic");
    });
    assert!(report.failovers >= 1, "failovers: {}", report.failovers);
    assert_eq!(report.restarts, 1);
    assert_eq!(report.requests, 1);
}

/// The watchdog probes a quarantined replica past its cooldown and
/// re-admits it; a subsequent success heals it to `Healthy`. While
/// quarantined, routing skips it.
#[test]
fn quarantined_replica_is_skipped_then_probed_back_in() {
    let net = tiny_net(6);
    let fault = FaultToleranceConfig {
        probe_cooldown: Duration::from_millis(50),
        watchdog_interval: Duration::from_millis(5),
        ..FaultToleranceConfig::default()
    };
    let set = ReplicaSet::from_net("probe", &net, &ExactMath, pool_cfg(2, fault)).unwrap();
    let ((), report) = set.run(|pool| {
        pool.quarantine(0);
        assert_eq!(pool.health(0), HealthState::Quarantined);
        // Routing skips the quarantined replica.
        for i in 0..6u64 {
            let t = pool
                .submit(Request::new(i as usize, 0, images(1, i)))
                .unwrap();
            assert_eq!(t.replica(), 1, "quarantined replica must not be routed to");
            t.wait().unwrap();
        }
        // The watchdog re-admits it after the cooldown.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.health(0) == HealthState::Quarantined {
            assert!(Instant::now() < deadline, "watchdog never re-admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.health(0), HealthState::Degraded);
        // One success heals probation.
        pool.submit_to(0, Request::new(0, 0, images(1, 9)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(pool.health(0), HealthState::Healthy);
    });
    assert!(report.quarantines >= 1);
    assert!(report.probes >= 1);
}

/// A replica that out-panics its restart budget goes `Dead`: queued and
/// later jobs fail typed (never silently dropped, never hung), and the
/// fleet report says so.
#[test]
fn replica_dies_after_restart_budget_and_rejects_typed() {
    let net = tiny_net(7);
    let fault = FaultToleranceConfig {
        max_restarts: 1,
        ..FaultToleranceConfig::default()
    };
    let set = ReplicaSet::from_net("doomed", &net, &PanicMath, pool_cfg(1, fault)).unwrap();
    let ((), report) = set.run(|pool| {
        // Life 1 dies on this forward; the ticket resolves typed.
        let err = pool
            .submit(Request::new(0, 0, images(1, 1)))
            .unwrap()
            .wait()
            .expect_err("every forward panics");
        assert!(matches!(err, ServeError::Forward(_)), "{err}");
        // Life 2 (the one allowed restart) dies the same way; after it the
        // replica is permanently dead and submissions fail typed — whether
        // they raced the close or arrived after it.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            assert!(Instant::now() < deadline, "death never became typed");
            match pool.submit(Request::new(0, 0, images(1, 2))) {
                Err(SubmitError::ShuttingDown) => {
                    // A dying life can answer `ShuttingDown` transiently
                    // while the supervisor respawns it; death is final
                    // only once the health machine says so.
                    if pool.health(0) == HealthState::Dead {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Ok(t) => {
                    let err = t.wait().expect_err("every forward panics");
                    assert!(matches!(err, ServeError::Forward(_)), "{err}");
                }
                Err(e) => panic!("unexpected reject: {e}"),
            }
        }
        assert_eq!(pool.health(0), HealthState::Dead);
        assert_eq!(pool.restarts(0), 1);
    });
    assert_eq!(report.restarts, 1);
    assert_eq!(report.health[0], HealthState::Dead);
}

/// EWMA-under-restart audit: a restarted replica's admission estimator
/// starts cold (admit-everything warm-up) instead of inheriting the dead
/// life's stale service-time estimate — which would keep shedding
/// low-tier traffic the new life could easily serve.
#[test]
fn restarted_replica_does_not_inherit_stale_service_estimate() {
    let net = tiny_net(8);
    let math = ScriptedMath::new();
    let mut cfg = pool_cfg(1, FaultToleranceConfig::default());
    cfg.serve.admission = AdmissionPolicy::SloAware(SloConfig {
        // Low tier sheds at a 100µs predicted wait; High/Normal never do
        // in this test.
        shed_wait_us: [1_000_000, 1_000_000, 100],
        tenant_quota: 1_000,
    });
    let set = ReplicaSet::from_net("ewma", &net, &math, cfg).unwrap();
    let ((), _report) = set.run(|pool| {
        // Warm the estimator with one artificially slow batch (~20ms for
        // one sample: far past the Low ceiling).
        math.slow_once_us.store(20_000, SeqCst);
        pool.submit(Request::new(0, 0, images(1, 1)))
            .unwrap()
            .wait()
            .unwrap();
        // Stale-estimate shedding: with the worker provably busy and one
        // sample queued, a Low request's predicted wait is ~20ms > 100µs.
        math.hold_worker();
        let r_busy = pool.submit(Request::new(0, 0, images(1, 2))).unwrap();
        math.await_entered();
        let r_queued = pool.submit(Request::new(1, 0, images(1, 3))).unwrap();
        match pool.submit(Request::new(2, 0, images(1, 4)).with_priority(Priority::Low)) {
            Err(shed) => assert!(matches!(shed, SubmitError::Shed { .. }), "{shed}"),
            Ok(_) => panic!("the warm estimator must shed Low traffic"),
        }
        math.release();
        r_busy.wait().unwrap();
        r_queued.wait().unwrap();
        // Kill the replica: the respawned life must start cold.
        math.panic_next.store(true, SeqCst);
        let err = pool
            .submit(Request::new(0, 0, images(1, 5)))
            .unwrap()
            .wait()
            .expect_err("scripted panic");
        assert!(matches!(err, ServeError::Forward(_)), "{err}");
        // Same backlog shape as before — but the cold estimator predicts
        // zero wait, so the Low request is admitted (and served).
        await_restart(pool, 0, 1);
        math.hold_worker();
        let r_busy = pool.submit(Request::new(0, 0, images(1, 6))).unwrap();
        math.await_entered();
        let r_queued = pool.submit(Request::new(1, 0, images(1, 7))).unwrap();
        let r_low = pool
            .submit(Request::new(2, 0, images(1, 8)).with_priority(Priority::Low))
            .expect("the cold estimator admits during warm-up");
        math.release();
        r_busy.wait().unwrap();
        r_queued.wait().unwrap();
        r_low.wait().unwrap();
        assert_eq!(pool.restarts(0), 1);
    });
}
