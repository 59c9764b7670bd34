//! Replica-pool integration: routing policies, shared-mapping weight
//! residency, and the rolling rollout state machine (update + rollback).

mod common;

use common::perturbed;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use capsnet::{CapsNet, CapsNetSpec, ExactMath, MathBackend};
use pim_serve::{
    ReplicaOutcome, ReplicaSet, ReplicaSetConfig, Request, RolloutConfig, RoutingPolicy,
    ServeConfig, ServeError, SubmitError,
};
use pim_store::{MappedModel, ModelWriter};
use pim_tensor::Tensor;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_serve_pool_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn per_sample_spec() -> CapsNetSpec {
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.batch_shared_routing = false;
    spec
}

fn tiny_net(seed: u64) -> CapsNet {
    CapsNet::seeded(&per_sample_spec(), seed).unwrap()
}

fn images(n: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
}

fn pool_cfg(replicas: usize, policy: RoutingPolicy) -> ReplicaSetConfig {
    ReplicaSetConfig {
        replicas,
        policy,
        serve: ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 64,
            workers: 1,
            admission: pim_serve::AdmissionPolicy::QueueBound,
        },
        fault: pim_serve::FaultToleranceConfig::default(),
        cache: None,
    }
}

#[test]
fn round_robin_spreads_traffic_and_stays_bitwise() {
    let net = tiny_net(1);
    let set = ReplicaSet::from_net(
        "rr",
        &net,
        &ExactMath,
        pool_cfg(3, RoutingPolicy::RoundRobin),
    )
    .unwrap();
    let (outcomes, report) = set.run(|pool| {
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                let t = pool
                    .submit(Request::new(i % 4, 0, images(1, i as u64)))
                    .unwrap();
                (i as u64, t)
            })
            .collect();
        tickets
            .into_iter()
            .map(|(seed, t)| (seed, t.replica(), t.wait().unwrap()))
            .collect::<Vec<_>>()
    });
    assert_eq!(outcomes.len(), 12);
    assert_eq!(report.requests, 12);
    assert_eq!(report.failed_requests, 0);
    // Round-robin over 3 replicas must touch all of them.
    let mut used = [false; 3];
    for (_, replica, _) in &outcomes {
        used[*replica] = true;
    }
    assert_eq!(used, [true, true, true], "round robin must use the fleet");
    // Every response is bit-identical to a direct forward.
    for (seed, _, response) in &outcomes {
        let serial = net.forward(&images(1, *seed), &ExactMath).unwrap();
        assert_eq!(response.predictions, serial.predictions());
        for (a, b) in response
            .class_norms_sq
            .iter()
            .zip(serial.class_norms_sq.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn least_queued_routes_and_completes() {
    let net = tiny_net(3);
    let set = ReplicaSet::from_net(
        "lq",
        &net,
        &ExactMath,
        pool_cfg(2, RoutingPolicy::LeastQueued),
    )
    .unwrap();
    let ((), report) = set.run(|pool| {
        let tickets: Vec<_> = (0..16)
            .map(|i| pool.submit(Request::new(0, 0, images(1, i))).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(pool.outstanding(0) + pool.outstanding(1), 0);
    });
    assert_eq!(report.requests, 16);
}

/// Regression (outstanding-count race): `LeastQueued` used to increment a
/// replica's outstanding count only *after* the mailbox rendezvous, so a
/// burst of concurrent submitters all read the same stale counts and
/// herded onto one replica. Routing now reserves the slot atomically
/// (compare-exchange against the observed minimum) before any job is
/// pushed, so every commit lands on a replica whose count was `<=` all
/// others — a burst of `replicas * k` held-ticket submissions must spread
/// to exactly `k` per replica, however the threads interleave.
#[test]
fn least_queued_spreads_concurrent_bursts_exactly() {
    const REPLICAS: usize = 3;
    const PER_REPLICA: usize = 4;
    let net = tiny_net(11);
    let set = ReplicaSet::from_net(
        "lq_burst",
        &net,
        &ExactMath,
        pool_cfg(REPLICAS, RoutingPolicy::LeastQueued),
    )
    .unwrap();
    let ((), report) = set.run(|pool| {
        let barrier = std::sync::Barrier::new(REPLICAS * PER_REPLICA);
        let placements = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..REPLICAS * PER_REPLICA {
                let (barrier, placements) = (&barrier, &placements);
                scope.spawn(move || {
                    barrier.wait();
                    let ticket = pool
                        .submit(Request::new(i, 0, images(1, i as u64)))
                        .unwrap();
                    // Record the placement while still HOLDING the ticket:
                    // outstanding counts only drop when tickets resolve, so
                    // counts are monotone for the whole burst and the
                    // balanced-commit invariant applies to every pick.
                    placements.lock().unwrap().push(ticket.replica());
                    barrier.wait();
                    ticket.wait().unwrap();
                });
            }
        });
        let mut per_replica = [0usize; REPLICAS];
        for replica in placements.into_inner().unwrap() {
            per_replica[replica] += 1;
        }
        assert_eq!(
            per_replica, [PER_REPLICA; REPLICAS],
            "a concurrent burst must spread exactly across the fleet"
        );
    });
    assert_eq!(report.requests as usize, REPLICAS * PER_REPLICA);
    assert_eq!(report.failed_requests, 0);
}

/// Regression: a pool submit is admitted into the replica's scheduler on
/// the caller's thread, so it never queues behind a control job. Here the
/// control thread is blocked in a hot swap that waits for the worker's
/// forming batch (held open by a 500 ms coalescing wait) to close, and a
/// concurrent submit must still return at once.
#[test]
fn pool_submit_never_waits_on_the_control_thread() {
    let net = tiny_net(12);
    let mut cfg = pool_cfg(1, RoutingPolicy::RoundRobin);
    cfg.serve.max_batch = 8;
    cfg.serve.max_wait = Duration::from_millis(500);
    let set = ReplicaSet::from_net("busy", &net, &ExactMath, cfg).unwrap();
    set.run(|pool| {
        // The worker takes this request and holds its batch open.
        let first = pool.submit_to(0, Request::new(0, 0, images(1, 1))).unwrap();
        std::thread::scope(|scope| {
            let swap = scope.spawn(|| pool.swap_replica_net(0, tiny_net(13)));
            std::thread::sleep(Duration::from_millis(50));
            let started = Instant::now();
            let second = pool.submit_to(0, Request::new(1, 0, images(1, 2)));
            let waited = started.elapsed();
            let second = second.expect("admitted while the control thread is busy");
            assert!(
                waited < Duration::from_millis(50),
                "submit waited {waited:?} behind the control thread"
            );
            assert_eq!(swap.join().unwrap().unwrap(), 2);
            first.wait().unwrap();
            second.wait().unwrap();
        });
    });
}

/// The next forward after arming panics; every other one is exact.
struct PanicOnce {
    armed: AtomicBool,
}

impl MathBackend for PanicOnce {
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

/// Regression: a replica's metrics recorder lives in its scheduler, which
/// outlives a restart, so its report counts the work of every life — not
/// only the last one's.
#[test]
fn restarted_replica_report_keeps_its_earlier_lives() {
    const BEFORE: u64 = 5;
    const AFTER: u64 = 4;
    let net = tiny_net(14);
    let math = PanicOnce {
        armed: AtomicBool::new(false),
    };
    let cfg = pool_cfg(1, RoutingPolicy::RoundRobin);
    let set = ReplicaSet::from_net("lives", &net, &math, cfg).unwrap();
    let ((), report) = set.run(|pool| {
        let serve = |seed| {
            let request = Request::new(0, 0, images(1, seed));
            pool.submit_to(0, request).unwrap().wait()
        };
        for i in 0..BEFORE {
            serve(i).unwrap();
        }
        math.armed.store(true, SeqCst);
        let killed = serve(100).expect_err("the scripted forward panics");
        assert!(matches!(killed, ServeError::Forward(_)), "{killed}");
        for i in 0..AFTER {
            serve(200 + i).unwrap();
        }
        assert_eq!(pool.restarts(0), 1);
    });
    let replica = &report.per_replica[0];
    assert_eq!(replica.requests, BEFORE + AFTER, "every life's completions");
    assert_eq!(replica.failed_requests, 1, "the killed batch");
    assert_eq!(report.restarts, 1);
}

/// Holds every forward while `hold` is set, so a test can look at the
/// pool while a worker is provably busy.
struct Holdable {
    hold: AtomicBool,
    entered: AtomicBool,
}

impl MathBackend for Holdable {
    fn name(&self) -> &'static str {
        "holdable-exact"
    }
    fn exp(&self, x: f32) -> f32 {
        while self.hold.load(SeqCst) {
            self.entered.store(true, SeqCst);
            std::thread::sleep(Duration::from_micros(50));
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

/// `ReplicaSetHandle::snapshot` answers while a replica's worker is held
/// inside a forward; successive snapshots, then the final report, never
/// count less; and the window-wide percentiles come from the replicas'
/// merged histograms, so they lie between the replicas' own.
#[test]
fn pool_snapshots_are_live_monotone_and_merged() {
    let net = tiny_net(15);
    let math = Holdable {
        hold: AtomicBool::new(false),
        entered: AtomicBool::new(false),
    };
    let cfg = pool_cfg(2, RoutingPolicy::RoundRobin);
    let set = ReplicaSet::from_net("snap", &net, &math, cfg).unwrap();
    let serve = |pool: &pim_serve::ReplicaSetHandle<'_>, seed| {
        let request = Request::new(0, 0, images(1, seed));
        pool.submit(request).unwrap().wait().unwrap();
    };
    let ((held, served), last) = set.run(|pool| {
        for i in 0..8 {
            serve(pool, i);
        }
        math.hold.store(true, SeqCst);
        let busy = pool
            .submit_to(0, Request::new(1, 0, images(1, 100)))
            .unwrap();
        while !math.entered.load(SeqCst) {
            std::thread::yield_now();
        }
        let held = pool.snapshot();
        math.hold.store(false, SeqCst);
        busy.wait().unwrap();
        for i in 0..8 {
            serve(pool, 200 + i);
        }
        (held, pool.snapshot())
    });
    // A batch is recorded just after its tickets resolve, so a snapshot
    // may trail the last waits; the final report counts everything.
    assert!(held.requests <= 8, "the held forward has not completed");
    assert!(served.requests <= 17);
    assert_eq!(last.requests, 17);
    let counts = |r: &pim_serve::ReplicaSetReport| {
        let per_replica: Vec<_> = r
            .per_replica
            .iter()
            .map(|m| (m.requests, m.batches))
            .collect();
        (
            r.requests,
            r.samples,
            r.batches,
            r.failed_requests,
            per_replica,
        )
    };
    for (earlier, later) in [(&held, &served), (&served, &last)] {
        let (earlier, later) = (counts(earlier), counts(later));
        assert!(earlier.0 <= later.0 && earlier.1 <= later.1 && earlier.2 <= later.2);
        assert!(earlier.3 <= later.3);
        for (a, b) in earlier.4.iter().zip(&later.4) {
            assert!(a.0 <= b.0 && a.1 <= b.1, "{a:?} then {b:?}");
        }
    }
    for report in [&held, &served, &last] {
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
        let replicas = &report.per_replica;
        for (window, per_replica) in [
            (
                report.p50_us,
                replicas.iter().map(|r| r.p50_us).collect::<Vec<_>>(),
            ),
            (report.p99_us, replicas.iter().map(|r| r.p99_us).collect()),
        ] {
            let lo = *per_replica.iter().min().unwrap();
            let hi = *per_replica.iter().max().unwrap();
            // Within the replicas' range, up to one bucket (1/64) above it.
            assert!(
                lo <= window && window * 64 <= hi * 65,
                "{window} vs {per_replica:?}"
            );
        }
    }
}

/// The streaming model's layer shapes in miniature: each vault partition
/// of the primary and caps weights is a whole number of 64-byte alignment
/// units, and conv1's 100-byte rows are not.
fn vault_spec() -> CapsNetSpec {
    let mut spec = per_sample_spec();
    spec.conv1_channels = 16;
    spec.h_caps = 10;
    spec.ch_dim = 16;
    spec
}

/// Both layouts: the packed writer stores every tensor contiguously, so a
/// replica owns no weight bytes at all. The vault-aligned writer pads
/// between vault partitions, so a tensor whose partitions are not whole
/// alignment units (conv1's) is gathered into an owned copy per replica;
/// the caps weight must still be one shared view under the whole fleet.
#[test]
fn artifact_pool_shares_one_mapping_across_replicas() {
    let dir = tmp_dir("share");
    let net = CapsNet::seeded(&vault_spec(), 4).unwrap();
    let caps_bytes = net
        .named_weights()
        .into_iter()
        .find(|(n, _)| n == "caps.weight")
        .map(|(_, t)| t.size_bytes())
        .unwrap();

    for (layout, writer) in [
        ("packed", ModelWriter::new()),
        ("vault_aligned", ModelWriter::vault_aligned()),
    ] {
        let path = dir.join(format!("{layout}.pimcaps"));
        writer.save(&net, &path).unwrap();
        let set = ReplicaSet::from_shared(
            "shared",
            &MappedModel::open(&path).unwrap(),
            &ExactMath,
            pool_cfg(3, RoutingPolicy::RoundRobin),
        )
        .unwrap();

        // Every replica's caps weight is a zero-copy view of ONE mapping:
        // the same physical bytes, whatever else the layout copies.
        let mut caps_ptrs = Vec::new();
        for i in 0..3 {
            let handle = set.registry(i).unwrap().current(0).unwrap();
            let census = handle.net().weight_storage();
            if layout == "packed" {
                assert_eq!(
                    census.owned_bytes, 0,
                    "{layout}: replica {i} owns weight bytes: {census:?}"
                );
            } else {
                assert!(
                    census.owned_bytes * 10 < caps_bytes,
                    "{layout}: replica {i} owns {} of {caps_bytes} caps-weight bytes: {census:?}",
                    census.owned_bytes
                );
            }
            let (_, caps) = handle
                .net()
                .named_weights()
                .into_iter()
                .find(|(n, _)| n == "caps.weight")
                .unwrap();
            assert!(caps.is_shared(), "{layout}: replica {i} copied caps.weight");
            caps_ptrs.push(caps.expect_f32().as_slice().as_ptr());
        }
        assert!(
            caps_ptrs.windows(2).all(|w| w[0] == w[1]),
            "{layout}: replicas must read weights from the same physical bytes"
        );

        // And the pool serves bit-identically to the source network.
        let (ok, _) = set.run(|pool| {
            (0..9u64).all(|i| {
                let response = pool
                    .submit(Request::new(i as usize % 3, 0, images(1, i)))
                    .unwrap()
                    .wait()
                    .unwrap();
                let serial = net.forward(&images(1, i), &ExactMath).unwrap();
                response
                    .class_norms_sq
                    .iter()
                    .zip(serial.class_norms_sq.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
        assert!(ok, "{layout}: the pool diverged from the source network");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rolling_rollout_updates_every_replica() {
    let dir = tmp_dir("rollout_ok");
    let v1 = tiny_net(5);
    let v2 = perturbed(&v1, 1e-4);
    let v1_path = dir.join("v1.pimcaps");
    let v2_path = dir.join("v2.pimcaps");
    ModelWriter::vault_aligned().save(&v1, &v1_path).unwrap();
    ModelWriter::vault_aligned().save(&v2, &v2_path).unwrap();

    let set = ReplicaSet::from_shared(
        "roll",
        &MappedModel::open(&v1_path).unwrap(),
        &ExactMath,
        pool_cfg(3, RoutingPolicy::RoundRobin),
    )
    .unwrap();
    let (report, metrics) = set.run(|pool| {
        let new = MappedModel::open(&v2_path).unwrap();
        let cfg = RolloutConfig::new(images(1, 99), 0.05);
        let report = pool.rolling_rollout(&new, &cfg).unwrap();
        // Post-rollout traffic serves the new weights.
        for i in 0..6u64 {
            let r = pool
                .submit(Request::new(i as usize, 0, images(1, i)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.model_version, 2, "fleet must serve version 2");
            let serial = v2.forward(&images(1, i), &ExactMath).unwrap();
            for (a, b) in r
                .class_norms_sq
                .iter()
                .zip(serial.class_norms_sq.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        report
    });
    assert!(!report.rolled_back);
    assert_eq!(report.updated(), 3);
    assert_eq!(report.steps.len(), 3);
    for step in &report.steps {
        assert_eq!(step.outcome, ReplicaOutcome::Updated);
        assert_eq!(step.from_version, 1);
        assert_eq!(step.to_version, 2);
        let d = step.divergence.expect("canary measured");
        assert!(d > 0.0 && d <= 0.05, "divergence {d}");
        assert!(step.pause_us > 0);
    }
    assert_eq!(metrics.swaps, 3, "one drained swap per replica");
    assert_eq!(metrics.failed_requests, 0);
}

#[test]
fn canary_divergence_rolls_the_fleet_back() {
    let dir = tmp_dir("rollout_back");
    let v1 = tiny_net(6);
    let bad = tiny_net(777); // unrelated weights: maximal divergence
    let v1_path = dir.join("v1.pimcaps");
    let bad_path = dir.join("bad.pimcaps");
    ModelWriter::vault_aligned().save(&v1, &v1_path).unwrap();
    ModelWriter::vault_aligned().save(&bad, &bad_path).unwrap();

    let set = ReplicaSet::from_shared(
        "guard",
        &MappedModel::open(&v1_path).unwrap(),
        &ExactMath,
        pool_cfg(3, RoutingPolicy::RoundRobin),
    )
    .unwrap();
    let (report, _) = set.run(|pool| {
        let new = MappedModel::open(&bad_path).unwrap();
        let cfg = RolloutConfig::new(images(2, 55), 0.05);
        let report = pool.rolling_rollout(&new, &cfg).unwrap();
        // The fleet still serves v1's *weights* (versions moved forward:
        // swap in, roll back = two bumps on the touched replica).
        for i in 0..6u64 {
            let r = pool
                .submit(Request::new(i as usize, 0, images(1, i)))
                .unwrap()
                .wait()
                .unwrap();
            let serial = v1.forward(&images(1, i), &ExactMath).unwrap();
            for (a, b) in r
                .class_norms_sq
                .iter()
                .zip(serial.class_norms_sq.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "fleet must be back on v1");
            }
        }
        // Versions never went backwards on any replica.
        for i in 0..pool.replicas() {
            assert!(pool.version(i) >= 1);
        }
        report
    });
    assert!(report.rolled_back, "canary must have tripped");
    assert_eq!(
        report.updated(),
        0,
        "no replica may stay on the bad version"
    );
    // Replica 0 swapped (v2) then rolled back (v3); versions are monotone.
    let first = &report.steps[0];
    assert_eq!(first.outcome, ReplicaOutcome::RolledBack);
    assert_eq!(first.from_version, 1);
    assert_eq!(first.to_version, 3);
    assert!(first.divergence.unwrap() > 0.05);
    // Untouched replicas were never visited: the rollout stopped.
    assert_eq!(report.steps.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A submitter keeps traffic flowing while the fleet takes a healthy
/// rollout (v1 → v2, canary passes) and then a poisoned one (v2 → an
/// unrelated net, canary trips, fleet rolls back) on three replicas. No
/// ticket is dropped, no replica's version goes backwards in dispatch
/// order, and every response is bitwise one that v1, v2 or the poisoned
/// net computes: nothing is served that was never installed.
#[test]
fn rollouts_under_traffic_drop_nothing_and_serve_only_installed_weights() {
    const REQUESTS: usize = 90;
    let dir = tmp_dir("rollout_traffic");
    let v1 = tiny_net(10);
    let v2 = perturbed(&v1, 1e-4);
    let poisoned = tiny_net(778);
    let [v1_path, v2_path, bad_path] =
        ["v1", "v2", "bad"].map(|v| dir.join(format!("{v}.pimcaps")));
    for (net, path) in [(&v1, &v1_path), (&v2, &v2_path), (&poisoned, &bad_path)] {
        ModelWriter::vault_aligned().save(net, path).unwrap();
    }
    let set = ReplicaSet::from_shared(
        "traffic",
        &MappedModel::open(&v1_path).unwrap(),
        &ExactMath,
        pool_cfg(3, RoutingPolicy::RoundRobin),
    )
    .unwrap();

    let submitted = AtomicUsize::new(0);
    let ((served, good, bad), metrics) = set.run(|pool| {
        std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                let mut tickets = Vec::with_capacity(REQUESTS);
                for i in 0..REQUESTS {
                    let ticket = loop {
                        match pool.submit(Request::new(i % 4, 0, images(1, i as u64))) {
                            Ok(ticket) => break ticket,
                            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                            Err(why) => panic!("request {i} rejected: {why}"),
                        }
                    };
                    tickets.push((i, ticket.replica(), ticket));
                    submitted.store(i + 1, SeqCst);
                    std::thread::sleep(Duration::from_micros(200));
                }
                tickets
                    .into_iter()
                    .map(|(i, replica, ticket)| (i, replica, ticket.wait()))
                    .collect::<Vec<_>>()
            });
            let wait_until = |n: usize| {
                while submitted.load(SeqCst) < n && !submitter.is_finished() {
                    std::thread::yield_now();
                }
            };
            let rollout = |path: &std::path::Path| {
                let new = MappedModel::open(path).unwrap();
                pool.rolling_rollout(&new, &RolloutConfig::new(images(1, 0xCA), 0.1))
                    .unwrap()
            };
            wait_until(REQUESTS / 3);
            let good = rollout(&v2_path);
            wait_until(2 * REQUESTS / 3);
            let bad = rollout(&bad_path);
            (submitter.join().unwrap(), good, bad)
        })
    });

    assert!(!good.rolled_back && good.updated() == 3, "{good:?}");
    assert!(bad.rolled_back && bad.updated() == 0, "{bad:?}");
    let paused = good.steps.iter().chain(&bad.steps).all(|s| s.pause_us > 0);
    assert!(paused, "a step took no replica out of rotation");
    assert_eq!(served.len(), REQUESTS);
    assert_eq!(metrics.failed_requests, 0);
    let mut per_replica = vec![Vec::new(); 3];
    for (i, replica, result) in served {
        let response = result.unwrap_or_else(|e| panic!("request {i} dropped: {e}"));
        let attributed = [&v1, &v2, &poisoned].iter().any(|net| {
            let serial = net.forward(&images(1, i as u64), &ExactMath).unwrap();
            response.predictions == serial.predictions()
                && response
                    .class_norms_sq
                    .iter()
                    .zip(serial.class_norms_sq.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        assert!(attributed, "request {i} served weights never installed");
        per_replica[replica].push(response);
    }
    for (replica, mut stream) in per_replica.into_iter().enumerate() {
        stream.sort_by_key(|r| (r.batch_seq, r.batch_offset));
        let versions: Vec<u64> = stream.iter().map(|r| r.model_version).collect();
        assert!(
            versions.windows(2).all(|w| w[0] <= w[1]),
            "replica {replica} went backwards: {versions:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn geometry_changing_rollout_is_caught_by_the_canary() {
    // The canary for the old geometry is rejected at submit on the new
    // spec — treated as maximal divergence, so the rollout rolls back
    // rather than leaving a replica serving a model its tenants cannot
    // call.
    let dir = tmp_dir("rollout_geom");
    let v1 = tiny_net(7);
    let mut other_spec = per_sample_spec();
    other_spec.input_hw = (14, 14);
    let other = CapsNet::seeded(&other_spec, 8).unwrap();
    let v1_path = dir.join("v1.pimcaps");
    let other_path = dir.join("other.pimcaps");
    ModelWriter::new().save(&v1, &v1_path).unwrap();
    ModelWriter::new().save(&other, &other_path).unwrap();

    let set = ReplicaSet::from_shared(
        "geom",
        &MappedModel::open(&v1_path).unwrap(),
        &ExactMath,
        pool_cfg(2, RoutingPolicy::RoundRobin),
    )
    .unwrap();
    let (report, _) = set.run(|pool| {
        let new = MappedModel::open(&other_path).unwrap();
        let cfg = RolloutConfig::new(images(1, 1), 0.5);
        pool.rolling_rollout(&new, &cfg).unwrap()
    });
    assert!(report.rolled_back);
    assert_eq!(report.steps[0].outcome, ReplicaOutcome::RolledBack);
    assert_eq!(report.steps[0].divergence, None, "canary failed outright");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_replica_pools_are_rejected() {
    let net = tiny_net(9);
    let err = ReplicaSet::from_net(
        "bad",
        &net,
        &ExactMath,
        pool_cfg(0, RoutingPolicy::RoundRobin),
    );
    assert!(err.is_err());
}

#[test]
fn panicking_closure_propagates_instead_of_hanging() {
    // Regression: a panic inside the run closure must close the replica
    // mailboxes on the way out (drop guard). Before the fix the replica
    // threads slept forever in their mailbox waits and the scope hung
    // joining them instead of propagating the panic.
    let net = tiny_net(10);
    let set = ReplicaSet::from_net(
        "boom",
        &net,
        &ExactMath,
        pool_cfg(2, RoutingPolicy::RoundRobin),
    )
    .unwrap();
    let outcome = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = set.run(|_pool| panic!("closure failed"));
        })
        .join()
    });
    assert!(outcome.is_err(), "the closure's panic must propagate");
}
