//! Rollout infrastructure-failure paths: the canary's bounded retry
//! budget against a saturated replica, and partial-fleet reporting when
//! swaps or reverts fail mid-rollout.

use std::collections::BTreeMap;
use std::time::Duration;

use capsnet::{CapsNet, CapsNetSpec, ExactMath, MathBackend};
use pim_serve::{
    AdmissionPolicy, FaultToleranceConfig, ReplicaOutcome, ReplicaSet, ReplicaSetConfig, Request,
    RetryBudget, RolloutConfig, RoutingPolicy, ServeConfig, ServeError, SubmitError,
};
use pim_store::{MappedModel, ModelWriter};
use pim_tensor::Tensor;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_serve_faults_{tag}_{}", std::process::id()));
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

/// A copy of `net` with every weight nudged slightly — a healthy "new
/// version" whose canary divergence is small.
fn perturbed(net: &CapsNet, factor: f32) -> CapsNet {
    let mut weights: BTreeMap<String, Tensor> = net
        .named_weights()
        .into_iter()
        .map(|(name, t)| (name, t.expect_f32().map(|x| x * (1.0 + factor))))
        .collect();
    CapsNet::from_views(net.spec(), &mut weights).unwrap()
}

/// `ExactMath` with a per-`exp` sleep: the tiny spec runs ~144 routing
/// `exp` calls per sample, so one forward reliably occupies the worker
/// for tens of milliseconds — long enough that a canary retry budget in
/// the hundreds of microseconds exhausts deterministically while the
/// (one-slot) queue stays full.
struct SlowMath;

impl MathBackend for SlowMath {
    fn name(&self) -> &'static str {
        "slow-exact"
    }
    fn exp(&self, x: f32) -> f32 {
        std::thread::sleep(Duration::from_micros(200));
        ExactMath.exp(x)
    }
    fn inv_sqrt(&self, x: f32) -> f32 {
        ExactMath.inv_sqrt(x)
    }
    fn div(&self, a: f32, b: f32) -> f32 {
        ExactMath.div(a, b)
    }
}

/// Regression (canary busy-spin livelock): against a saturated replica the
/// canary used to retry `QueueFull` forever in an unbounded `yield_now`
/// loop, pegging a core with the rollout making no progress. It now
/// carries a [`RetryBudget`] and fails the rollout with the typed
/// [`ServeError::Overloaded`] once the budget is spent.
#[test]
fn canary_against_saturated_replica_fails_typed_not_livelocked() {
    let dir = tmp_dir("overload");
    let v1 = tiny_net(21);
    let v2_path = dir.join("v2.pimcaps");
    ModelWriter::vault_aligned()
        .save(&perturbed(&v1, 1e-4), &v2_path)
        .unwrap();

    let cfg = ReplicaSetConfig {
        replicas: 1,
        policy: RoutingPolicy::RoundRobin,
        serve: ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 1, // one waiting sample: the burst saturates it
            workers: 1,
            admission: AdmissionPolicy::QueueBound,
        },
        fault: FaultToleranceConfig::default(),
        cache: None,
    };
    let set = ReplicaSet::from_net("sat", &v1, &SlowMath, cfg).unwrap();
    let (err, _report) = set.run(|pool| {
        // Saturate: one request on the worker (a multi-ms SlowMath
        // forward), one filling the single queue slot. Submission itself
        // races the worker's first take, so the burst retries briefly.
        let mut tickets = Vec::new();
        for i in 0..2u64 {
            loop {
                match pool.submit(Request::new(1, 0, images(1, i))) {
                    Ok(t) => break tickets.push(t),
                    Err(SubmitError::QueueFull { .. }) => continue,
                    Err(e) => panic!("unexpected reject: {e}"),
                }
            }
        }

        let new = MappedModel::open(&v2_path).unwrap();
        let mut rollout_cfg = RolloutConfig::new(images(1, 99), 0.05);
        rollout_cfg.canary_retry = RetryBudget {
            attempts: 4,
            backoff: Duration::from_micros(200),
        };
        let err = pool
            .rolling_rollout(&new, &rollout_cfg)
            .expect_err("the baseline canary cannot be admitted");
        // The saturated tickets still resolve (drained at window close).
        for t in tickets {
            t.wait().unwrap();
        }
        err
    });

    match err.error {
        ServeError::Overloaded { attempts, .. } => assert_eq!(attempts, 4),
        other => panic!("expected Overloaded, got: {other}"),
    }
    assert!(err.report.steps.is_empty(), "no replica was touched");
    assert!(!err.report.rolled_back);
    assert!(err.to_string().contains("0 steps recorded"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression (silent partial rollback): a revert failure used to abort
/// `revert_fleet` via `?`, dropping every recorded step — the report
/// claimed a clean fleet while replicas were stuck on the new version.
/// The rollout now records every attempted step (failed swaps and failed
/// reverts included) and surfaces them inside [`pim_serve::RolloutError`].
#[test]
fn failed_reverts_are_recorded_not_silently_dropped() {
    let dir = tmp_dir("partial");
    let v1 = tiny_net(22);
    let v2_path = dir.join("v2.pimcaps");
    ModelWriter::vault_aligned()
        .save(&perturbed(&v1, 1e-4), &v2_path)
        .unwrap();

    let cfg = ReplicaSetConfig {
        replicas: 3,
        policy: RoutingPolicy::RoundRobin,
        serve: ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 64,
            workers: 1,
            admission: AdmissionPolicy::QueueBound,
        },
        fault: FaultToleranceConfig::default(),
        cache: None,
    };
    let set = ReplicaSet::from_net("stuck", &v1, &ExactMath, cfg).unwrap();
    let (err, _report) = set.run(|pool| {
        let new = MappedModel::open(&v2_path).unwrap();
        let rollout_cfg = RolloutConfig::new(images(1, 7), 0.05);
        // Fault injection: the moment replica 1 is updated, decommission
        // replicas 0 and 2. Replica 2's forward swap then fails (its
        // mailbox is closed), forcing a fleet revert in which replica 1
        // reverts fine but replica 0 cannot.
        pool.rolling_rollout_observed(&new, &rollout_cfg, |step| {
            if step.replica == 1 && step.outcome == ReplicaOutcome::Updated {
                pool.decommission(0);
                pool.decommission(2);
            }
        })
        .expect_err("replica 2's swap must fail")
    });

    // The first infrastructure failure (replica 2's swap) is the error.
    assert!(matches!(err.error, ServeError::InvalidConfig(_)), "{err}");
    let outcomes: Vec<(usize, ReplicaOutcome)> = err
        .report
        .steps
        .iter()
        .map(|s| (s.replica, s.outcome))
        .collect();
    assert_eq!(
        outcomes,
        vec![
            (0, ReplicaOutcome::Updated),
            (1, ReplicaOutcome::Updated),
            (2, ReplicaOutcome::SwapFailed),
            (1, ReplicaOutcome::RevertedWithFleet),
            (0, ReplicaOutcome::RevertFailed),
        ],
        "every attempted step must be recorded: {:?}",
        err.report.steps
    );
    assert!(err.report.rolled_back);
    assert_eq!(err.report.failed_reverts(), 1);
    // Replica 0 is stuck serving the new version and the report says so.
    assert_eq!(err.report.updated(), 1);
    // The failed swap left replica 2 on its old version.
    let swap_failed = &err.report.steps[2];
    assert_eq!(swap_failed.from_version, swap_failed.to_version);
    assert!(err.to_string().contains("1 failed reverts"));
    std::fs::remove_dir_all(&dir).unwrap();
}
