//! The `rolling_rollout` traffic scenario: a replica pool serving seeded
//! Poisson traffic while the supervisor rolls model versions across the
//! fleet — one healthy rollout (small weight update, canary passes) and
//! one poisoned rollout (divergent weights, canary trips, fleet rolls
//! back).
//!
//! The scenario's invariants are the replication tier's acceptance bar:
//!
//! * **zero dropped tickets** — every submitted request resolves, through
//!   both rollouts;
//! * **per-replica version monotonicity** — sorting each replica's
//!   responses by dispatch order, `model_version` never decreases;
//! * **rollback exercised** — the poisoned rollout reports
//!   `rolled_back`, and post-rollback traffic serves the pre-poison
//!   weights bit-exactly;
//! * **bitwise attribution** — every response matches one of the three
//!   candidate networks (v1, v2, poisoned) bit-exactly; nothing is served
//!   that was never installed.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_serve::{
    ReplicaSet, ReplicaSetConfig, Request, RolloutConfig, RolloutReport, RoutingPolicy, ServeConfig,
};
use pim_store::{MappedModel, ModelWriter, StoreError};
use pim_tensor::Tensor;

use crate::drive::{bitwise_eq, drive, Arrivals, Backpressure, Drive, Ledger};
use crate::traffic::{request_images, TrafficConfig};

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct RolloutScenarioConfig {
    /// Replicas in the pool (the acceptance bar runs ≥ 3).
    pub replicas: usize,
    /// Requests in the Poisson stream.
    pub requests: usize,
    /// Mean arrival rate, requests per second.
    pub rate_hz: f64,
    /// Tenants issuing requests.
    pub tenants: usize,
    /// Canary divergence tolerance for both rollouts.
    pub tolerance: f32,
    /// Master seed.
    pub seed: u64,
    /// Per-replica scheduler knobs.
    pub serve: ServeConfig,
}

impl Default for RolloutScenarioConfig {
    fn default() -> Self {
        RolloutScenarioConfig {
            replicas: 3,
            requests: 120,
            rate_hz: 2_000.0,
            tenants: 4,
            tolerance: 0.1,
            seed: 0x0110,
            serve: ServeConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(300),
                queue_capacity: 256,
                workers: 1,
                admission: pim_serve::AdmissionPolicy::QueueBound,
            },
        }
    }
}

/// What one scenario run observed.
#[derive(Debug, Clone)]
pub struct RolloutScenarioReport {
    /// Replicas in the pool.
    pub replicas: usize,
    /// Where every arrival ended up (`QueueFull` retried, so zero dropped
    /// tickets ⇔ `completed + failed() == submitted`; failures expected 0
    /// — the scenario never changes geometry).
    pub ledger: Ledger,
    /// `true` when every replica's response stream was version-monotone
    /// in dispatch order.
    pub versions_monotone: bool,
    /// `true` when every response was bit-identical to one of the three
    /// candidate networks.
    pub bitwise_attributed: bool,
    /// The healthy rollout's report.
    pub good_rollout: RolloutReport,
    /// The poisoned rollout's report (must say `rolled_back`).
    pub poisoned_rollout: RolloutReport,
    /// Failed requests the pool metrics recorded.
    pub metric_failed_requests: u64,
}

impl RolloutScenarioReport {
    /// The acceptance predicate: zero drops, monotone versions, rollback
    /// exercised, bitwise attribution, healthy rollout updated the fleet.
    pub fn holds(&self) -> bool {
        self.ledger.reconciles()
            && self.ledger.completed == self.ledger.submitted
            && self.versions_monotone
            && self.bitwise_attributed
            && !self.good_rollout.rolled_back
            && self.good_rollout.updated() == self.replicas
            && self.poisoned_rollout.rolled_back
            && self.poisoned_rollout.updated() == 0
    }
}

/// A copy of `net` with every weight element scaled by `1 + factor` — the
/// "honest small update" (tiny `factor`) or a stand-in for a corrupted
/// training run (large `factor`).
fn perturbed(net: &CapsNet, factor: f32) -> CapsNet {
    let mut weights: std::collections::BTreeMap<String, Tensor> = net
        .named_weights()
        .into_iter()
        .map(|(name, t)| (name, t.expect_f32().map(|x| x * (1.0 + factor))))
        .collect();
    CapsNet::from_views(net.spec(), &mut weights).expect("same spec, same shapes")
}

/// Runs the scenario on `spec`: builds v1 (seeded), v2 (v1 perturbed by
/// `1e-4`) and a poisoned network (independent seed), saves all three as
/// vault-aligned artifacts under `dir`, then serves the Poisson stream
/// through a [`ReplicaSet`] while rolling v1 → v2 (canary passes) and
/// v2 → poisoned (canary trips, fleet rolls back).
///
/// # Errors
///
/// [`StoreError`] from artifact writes/opens, or a wrapped serve error if
/// the pool cannot be built.
pub fn rolling_rollout(
    spec: &CapsNetSpec,
    dir: &Path,
    cfg: &RolloutScenarioConfig,
) -> Result<RolloutScenarioReport, StoreError> {
    assert!(
        !spec.batch_shared_routing,
        "scenario coalesces across requests; spec must route per sample"
    );
    std::fs::create_dir_all(dir)?;
    let v1 = CapsNet::seeded(spec, cfg.seed ^ 0x21).map_err(StoreError::CapsNet)?;
    let v2 = perturbed(&v1, 1e-4);
    let poisoned = CapsNet::seeded(spec, cfg.seed ^ 0xBAD).map_err(StoreError::CapsNet)?;
    let v1_path = dir.join("rollout_v1.pimcaps");
    let v2_path = dir.join("rollout_v2.pimcaps");
    let bad_path = dir.join("rollout_poisoned.pimcaps");
    ModelWriter::vault_aligned().save(&v1, &v1_path)?;
    ModelWriter::vault_aligned().save(&v2, &v2_path)?;
    ModelWriter::vault_aligned().save(&poisoned, &bad_path)?;

    let traffic = TrafficConfig {
        rate_hz: cfg.rate_hz,
        requests: cfg.requests,
        tenants: cfg.tenants,
        models: 1,
        max_samples: 2,
        seed: cfg.seed,
    };
    let arrivals = traffic.arrivals();

    let pool_cfg = ReplicaSetConfig {
        replicas: cfg.replicas,
        policy: RoutingPolicy::RoundRobin,
        serve: cfg.serve,
        fault: pim_serve::FaultToleranceConfig::default(),
        cache: None,
    };
    let set = ReplicaSet::from_artifact(spec.name.clone(), &v1_path, &ExactMath, pool_cfg)
        .map_err(|e| StoreError::Corrupt(format!("pool setup: {e}")))?;

    let submitted = AtomicUsize::new(0);
    let ((driven, good_rollout, poisoned_rollout), metrics) = set.run(|pool| {
        std::thread::scope(|scope| {
            // Open-loop Poisson submitter: paced to each arrival's
            // timestamp, per-replica backpressure retried, every ticket
            // kept and waited on once the stream is in.
            let submitter = scope.spawn(|| {
                drive(
                    pool,
                    &arrivals,
                    Drive {
                        arrivals: Arrivals::Paced,
                        backpressure: Backpressure::Retry,
                        keep_responses: true,
                    },
                    |_, a| Request::new(a.tenant, 0, request_images(spec, a.samples, a.image_seed)),
                    |i, _| submitted.store(i, Ordering::Relaxed),
                )
            });

            // The supervisor: wait until a third of the stream is in,
            // roll out v2; at two thirds, roll out the poisoned build.
            let wait_until = |n: usize| {
                while submitted.load(Ordering::Relaxed) < n {
                    std::thread::yield_now();
                }
            };
            let canary = request_images(spec, 1, cfg.seed ^ 0xCA_9A_12);
            wait_until(cfg.requests / 3);
            let good = pool
                .rolling_rollout(
                    &MappedModel::open(&v2_path).expect("v2 artifact opens"),
                    &RolloutConfig::new(canary.clone(), cfg.tolerance),
                )
                .expect("healthy rollout completes");
            wait_until(2 * cfg.requests / 3);
            let bad = pool
                .rolling_rollout(
                    &MappedModel::open(&bad_path).expect("poisoned artifact opens"),
                    &RolloutConfig::new(canary, cfg.tolerance),
                )
                .expect("poisoned rollout completes (by rolling back)");

            (submitter.join().expect("submitter"), good, bad)
        })
    });

    // ── invariant checks over the collected stream ──────────────────────
    let served = || {
        driven
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| (o, r)))
    };

    // Per-replica version monotonicity in dispatch order.
    let mut versions_monotone = true;
    for replica in 0..cfg.replicas {
        let mut stream: Vec<_> = served()
            .filter(|(o, _)| o.replica == replica)
            .map(|(_, r)| r)
            .collect();
        stream.sort_by_key(|r| (r.batch_seq, r.batch_offset));
        let mut last = 0u64;
        for r in stream {
            if r.model_version < last {
                versions_monotone = false;
            }
            last = last.max(r.model_version);
        }
    }

    // Bitwise attribution: every successful response matches one of the
    // three candidate networks exactly.
    let candidates = [&v1, &v2, &poisoned];
    let bitwise_attributed = served().all(|(o, response)| {
        let a = &arrivals[o.arrival];
        let images = request_images(spec, a.samples, a.image_seed);
        candidates.iter().any(|net| {
            let serial = net.forward(&images, &ExactMath).expect("candidate forward");
            bitwise_eq(
                response,
                &serial.predictions(),
                serial.class_norms_sq.as_slice(),
            )
        })
    });

    Ok(RolloutScenarioReport {
        replicas: cfg.replicas,
        ledger: driven.ledger,
        versions_monotone,
        bitwise_attributed,
        good_rollout,
        poisoned_rollout,
        metric_failed_requests: metrics.failed_requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::tiny_persist_spec;

    #[test]
    fn tiny_rollout_scenario_holds() {
        let dir =
            std::env::temp_dir().join(format!("pim_workloads_rollout_{}", std::process::id()));
        let spec = tiny_persist_spec();
        let report = rolling_rollout(&spec, &dir, &RolloutScenarioConfig::default()).unwrap();
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.ledger.submitted, 120);
        assert_eq!(report.ledger.completed, 120, "zero dropped tickets");
        assert_eq!(report.ledger.failed(), 0);
        assert_eq!(report.metric_failed_requests, 0);
        assert_eq!(report.good_rollout.updated(), 3);
        assert!(report.poisoned_rollout.rolled_back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perturbation_is_small_but_real() {
        let spec = tiny_persist_spec();
        let net = CapsNet::seeded(&spec, 3).unwrap();
        let near = perturbed(&net, 1e-4);
        let images = request_images(&spec, 2, 9);
        let a = net.forward(&images, &ExactMath).unwrap();
        let b = near.forward(&images, &ExactMath).unwrap();
        let mut max_rel = 0.0f32;
        let mut any_diff = false;
        for (x, y) in a
            .class_norms_sq
            .as_slice()
            .iter()
            .zip(b.class_norms_sq.as_slice())
        {
            any_diff |= x != y;
            max_rel = max_rel.max((x - y).abs() / (x.abs() + 1e-9));
        }
        assert!(any_diff, "perturbation must change outputs");
        assert!(max_rel < 0.1, "perturbation too coarse: {max_rel}");
    }
}
