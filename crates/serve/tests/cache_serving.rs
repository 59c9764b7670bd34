//! Content-addressed response cache, end to end through the serve tier:
//! hit responses bitwise-identical to dispatched ones, typed fast-path
//! metrics, hot-swap staleness (a post-swap request must never see a
//! pre-swap response), one cache shared by a replica pool's replicas and
//! kept across a panic restart, and rollout canaries that bypass it.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use capsnet::{CapsNet, CapsNetSpec, ExactMath, MathBackend};
use pim_serve::{
    CacheConfig, ModelRegistry, Priority, ReplicaOutcome, ReplicaSet, ReplicaSetConfig, Request,
    RolloutConfig, RoutingPolicy, ServeCache, ServeConfig, ServedModel, Server,
};
use pim_store::{MappedModel, ModelWriter};
use pim_tensor::Tensor;

fn versioned_net(version: u64) -> CapsNet {
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.batch_shared_routing = false;
    CapsNet::seeded(&spec, 1000 + version).unwrap()
}

fn images(n: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: 64,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    }
}

fn small_cache() -> CacheConfig {
    CacheConfig {
        byte_budget: 1 << 20,
        shards: 2,
    }
}

fn pool_cfg(replicas: usize) -> ReplicaSetConfig {
    ReplicaSetConfig {
        replicas,
        policy: RoutingPolicy::RoundRobin,
        serve: serve_cfg(),
        fault: pim_serve::FaultToleranceConfig::default(),
        cache: Some(small_cache()),
    }
}

#[test]
fn cache_hit_is_bitwise_identical_and_typed_in_metrics() {
    let net = versioned_net(1);
    let registry = ModelRegistry::from_models([ServedModel::new("cached", net.clone())]);
    let cache = Arc::new(ServeCache::new(small_cache(), 1));
    let server = Server::new(&registry, &ExactMath, serve_cfg())
        .unwrap()
        .with_cache(Arc::clone(&cache));

    let ((miss, hit, other), metrics) = server.run(|handle| {
        let miss = handle
            .submit(Request::new(0, 0, images(2, 5)))
            .unwrap()
            .wait()
            .unwrap();
        // Identical content from a *different* tenant at a different
        // priority: content addressing ignores both.
        let hit = handle
            .submit(Request::new(3, 0, images(2, 5)).with_priority(Priority::High))
            .unwrap()
            .wait()
            .unwrap();
        let other = handle
            .submit(Request::new(0, 0, images(2, 6)))
            .unwrap()
            .wait()
            .unwrap();
        (miss, hit, other)
    });

    // The hit is bitwise-identical payload-wise and rode no batch.
    assert_eq!(hit.predictions, miss.predictions);
    for (a, b) in hit.class_norms_sq.iter().zip(miss.class_norms_sq.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "hit payload diverged");
    }
    assert_eq!(hit.model_version, 1);
    assert_eq!(hit.batch_samples, 2);
    assert_eq!((hit.queue_us, hit.service_us), (0, 0), "hit rode a batch?");
    assert!(other.predictions != miss.predictions || other.class_norms_sq != miss.class_norms_sq);

    // Typed fast-path accounting: the hit is disjoint from dispatches and
    // attributed to its tier.
    assert_eq!(metrics.requests, 2, "hits must not count as dispatches");
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.completions(), 3);
    let high = &metrics.tiers[Priority::High as usize];
    assert_eq!((high.cache_hits, high.requests), (1, 0));

    let rep = cache.report();
    assert_eq!(rep.hits, 1);
    assert_eq!(rep.insertions, 2);
    assert!(rep.misses >= 2, "{rep:?}");
}

/// Regression: after a hot-swap, a request whose content was cached under
/// the old version must be re-served by the new network — never the
/// pre-swap response. Version-keyed lookups make the old entry
/// unreachable the moment the registry bumps.
#[test]
fn post_swap_request_never_gets_pre_swap_response() {
    let v1 = versioned_net(1);
    let v2 = versioned_net(2);
    let registry = ModelRegistry::from_models([ServedModel::new("swap", v1.clone())]);
    let cache = Arc::new(ServeCache::new(small_cache(), 1));
    let server = Server::new(&registry, &ExactMath, serve_cfg())
        .unwrap()
        .with_cache(Arc::clone(&cache));

    let ((before, warm, after), _metrics) = server.run(|handle| {
        let before = handle
            .submit(Request::new(0, 0, images(1, 9)))
            .unwrap()
            .wait()
            .unwrap();
        // Prove the entry is really cached pre-swap (a hit).
        let warm = handle
            .submit(Request::new(0, 0, images(1, 9)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(handle.swap_model(0, v2.clone()).unwrap(), 2);
        let after = handle
            .submit(Request::new(0, 0, images(1, 9)))
            .unwrap()
            .wait()
            .unwrap();
        (before, warm, after)
    });

    assert_eq!(before.model_version, 1);
    assert_eq!(warm.model_version, 1);
    assert_eq!(after.model_version, 2, "post-swap request served stale");

    // The networks genuinely disagree on this input (else the test proves
    // nothing), and the post-swap response carries v2's bits exactly.
    let o1 = v1.forward(&images(1, 9), &ExactMath).unwrap();
    let o2 = v2.forward(&images(1, 9), &ExactMath).unwrap();
    assert_ne!(
        o1.class_norms_sq.as_slice(),
        o2.class_norms_sq.as_slice(),
        "versions agree on this input; pick another seed"
    );
    for (a, b) in after
        .class_norms_sq
        .iter()
        .zip(o2.class_norms_sq.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "post-swap response is not v2's");
    }
    assert!(cache.report().hits >= 1, "warm lookup should have hit");
}

/// One-shot panic backend for the restart test: arm, and the next forward
/// panics (cache hits never reach the backend, so only a dispatched miss
/// can trip it).
struct PanicOnceMath {
    armed: AtomicBool,
}

impl MathBackend for PanicOnceMath {
    fn name(&self) -> &'static str {
        "panic-once-exact"
    }
    fn exp(&self, x: f32) -> f32 {
        if self.armed.swap(false, SeqCst) {
            panic!("scripted fault: forward panic");
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

/// One cache per pool: a response filled through replica 0 is a hit
/// through replica 1, and it still hits after replica 0 panics and
/// restarts — an entry is a response a forward returned, which the panic
/// cannot make wrong.
#[test]
fn pool_replicas_share_one_cache_that_survives_a_restart() {
    let net = versioned_net(1);
    let math = PanicOnceMath {
        armed: AtomicBool::new(false),
    };
    let set = ReplicaSet::from_net("shared", &net, &math, pool_cfg(2)).unwrap();
    let fresh = net.forward(&images(1, 42), &math).unwrap();
    let bitwise = |r: &pim_serve::Response| {
        r.predictions == fresh.predictions()
            && r.class_norms_sq
                .iter()
                .zip(fresh.class_norms_sq.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };

    let ((), report) = set.run(|pool| {
        let fill = pool
            .submit_to(0, Request::new(0, 0, images(1, 42)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(bitwise(&fill));
        let hit = pool
            .submit_to(1, Request::new(1, 0, images(1, 42)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(bitwise(&hit));
        let seen = pool.snapshot();
        assert_eq!(
            (seen.per_replica[1].cache_hits, seen.per_replica[1].requests),
            (1, 0),
            "replica 0's fill must be a hit through replica 1"
        );

        // Panic replica 0's next dispatched forward; its life dies and the
        // supervisor starts the next one.
        math.armed.store(true, SeqCst);
        if let Ok(ticket) = pool.submit_to(0, Request::new(0, 0, images(1, 43))) {
            let _ = ticket.wait(); // resolves typed (the batch panicked)
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.restarts(0) < 1 {
            assert!(Instant::now() < deadline, "replica 0 never restarted");
            std::thread::sleep(Duration::from_micros(200));
        }

        let after = pool
            .submit_to(0, Request::new(0, 0, images(1, 42)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(bitwise(&after));
        let seen = pool.snapshot();
        assert_eq!(
            seen.per_replica[0].cache_hits, 1,
            "the restart must keep the pool's cache"
        );
    });

    assert_eq!(report.restarts_per_replica, vec![1, 0]);
    // Replica 0 ran the one forward that filled, and the one that
    // panicked; replica 1 never ran one.
    assert_eq!(report.per_replica[0].requests, 1);
    assert_eq!(report.per_replica[0].failed_requests, 1);
    assert_eq!(report.per_replica[1].requests, 0);
    assert_eq!(report.cache_hits, 2);
}

/// A rollout on a cached pool still runs its canary forward on every
/// replica it visits: the canary bypasses the pool's cache, where the
/// first updated replica's canary would otherwise answer the rest.
#[test]
fn rollout_canaries_bypass_the_pool_cache() {
    let dir = std::env::temp_dir().join(format!("pim_cache_rollout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1_path = dir.join("v1.pimcaps");
    let v2_path = dir.join("v2.pimcaps");
    ModelWriter::vault_aligned()
        .save(&versioned_net(1), &v1_path)
        .unwrap();
    ModelWriter::vault_aligned()
        .save(&versioned_net(2), &v2_path)
        .unwrap();

    let set = ReplicaSet::from_artifact("canary", &v1_path, &ExactMath, pool_cfg(3)).unwrap();
    let (rollout, report) = set.run(|pool| {
        let new = MappedModel::open(&v2_path).unwrap();
        // Any finite divergence passes: the verdict is not under test.
        let cfg = RolloutConfig::new(images(1, 99), f32::INFINITY);
        pool.rolling_rollout(&new, &cfg).unwrap()
    });

    assert!(!rollout.rolled_back);
    for step in &rollout.steps {
        assert_eq!(step.outcome, ReplicaOutcome::Updated);
        assert_eq!((step.from_version, step.to_version), (1, 2));
    }
    // Replica 0 ran the baseline and its own canary; every other replica
    // its own canary — none of them was answered by the cache.
    let forwards: Vec<u64> = report.per_replica.iter().map(|r| r.requests).collect();
    assert_eq!(forwards, vec![2, 1, 1]);
    assert_eq!(report.cache_hits, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
