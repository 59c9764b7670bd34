//! The replicated-serving gate on the streaming model: shared-versus-owned
//! weight-byte accounting over a pool whose replicas all wrap **one**
//! mapped artifact, and the rolling-rollout scenario's invariants and
//! pause times. Shared by the `replica_scale` binary and the
//! `BENCH_replica.json` golden test.
//!
//! No samples/s-versus-replica-count row: the capsule layer already shards
//! across this host's two cores, so replicas cannot buy throughput here,
//! and the one-replica pool rate is the benchmark's `driver.pool_sat_sps`
//! (`bash benchmark/run.sh --workload micro_pool`). The row returns when a
//! host can show it.

use std::path::Path;

use capsnet::ExactMath;
use capsnet_workloads::rollout::{rolling_rollout, RolloutScenarioConfig, RolloutScenarioReport};
use capsnet_workloads::traffic::streaming_spec;
use pim_serve::{ReplicaSet, ReplicaSetConfig, ServeConfig};
use pim_store::MappedModel;

use crate::check::check_replica;
use crate::emit::{ledger_value, write_json_artifact, BenchHost};
use crate::jsonlite::{Object, Value};

/// Fleet size the shared-mapping accounting is taken over.
const SHARING_REPLICAS: usize = 4;

/// Where the fleet's weight bytes physically live.
pub struct SharedBytesAccounting {
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
    /// Bytes of the single shared file image — counted **once** for the
    /// whole fleet, however many replicas wrap it.
    pub mapped_bytes_total: usize,
    /// Caps-layer weight footprint, bytes (the eligible weight that must
    /// never be copied per replica).
    pub caps_weight_bytes: u64,
    /// Weight bytes each replica's network borrows from the shared
    /// mapping (zero-copy views).
    pub per_replica_shared_bytes: usize,
    /// Weight bytes each replica materializes as owned copies (only
    /// small tensors whose vault partitions are padding-separated).
    pub per_replica_owned_bytes: usize,
    /// `true` when the eligible caps weight is a shared view on every
    /// replica.
    pub caps_weight_shared: bool,
    /// Replicas the accounting was taken over.
    pub replicas: usize,
}

/// Everything one `replica_scale` run measured.
pub struct ReplicaBenchResult {
    /// Shared-mapping accounting over `SHARING_REPLICAS` replicas.
    pub sharing: SharedBytesAccounting,
    /// The rolling-rollout scenario's observations (streaming model).
    pub rollout: RolloutScenarioReport,
}

/// Takes the shared-bytes accounting over an `n`-replica pool.
fn account_sharing(artifact: &MappedModel, artifact_bytes: u64, n: usize) -> SharedBytesAccounting {
    let spec = streaming_spec();
    let caps_weight_bytes = (spec.l_caps().expect("valid")
        * spec.cl_dim
        * spec.h_caps
        * spec.ch_dim
        * std::mem::size_of::<f32>()) as u64;
    let cfg = ReplicaSetConfig {
        replicas: n,
        ..ReplicaSetConfig::default()
    };
    let set = ReplicaSet::from_shared(spec.name.clone(), artifact, &ExactMath, cfg)
        .expect("streaming artifact rebuilds");
    // Worst case across the fleet: the minimum shared and the maximum
    // owned bytes any replica reports, so a regression on a single
    // replica (e.g. an alignment fallback hit only once) cannot hide
    // behind its healthier siblings.
    let mut shared_bytes = usize::MAX;
    let mut owned_bytes = 0usize;
    let mut caps_weight_shared = true;
    for i in 0..n {
        let handle = set
            .registry(i)
            .and_then(|r| r.current(0))
            .expect("replica registry populated");
        let census = handle.net().weight_storage();
        shared_bytes = shared_bytes.min(census.shared_bytes);
        owned_bytes = owned_bytes.max(census.owned_bytes);
        caps_weight_shared &= handle
            .net()
            .named_weights()
            .iter()
            .find(|(name, _)| name == "caps.weight")
            .map(|(_, t)| t.is_shared())
            .unwrap_or(false);
    }
    SharedBytesAccounting {
        artifact_bytes,
        mapped_bytes_total: artifact.image_len(),
        caps_weight_bytes,
        per_replica_shared_bytes: shared_bytes,
        per_replica_owned_bytes: owned_bytes,
        caps_weight_shared,
        replicas: n,
    }
}

/// The rollout scenario configuration the bench pins (streaming model,
/// three replicas, modest Poisson stream).
fn bench_rollout_config() -> RolloutScenarioConfig {
    RolloutScenarioConfig {
        replicas: 3,
        requests: 36,
        rate_hz: 60.0,
        tenants: 4,
        tolerance: 0.1,
        seed: 0x0110,
        serve: ServeConfig {
            max_batch: 4,
            max_wait: std::time::Duration::from_micros(500),
            queue_capacity: 256,
            workers: 1,
            admission: pim_serve::AdmissionPolicy::QueueBound,
        },
    }
}

/// Runs the full gate: saves the streaming artifact under `dir`, accounts
/// the sharing, and runs the rollout scenario. The bars are applied by
/// [`check_replica`] when the record is written.
pub fn run_replica_bench(dir: &Path) -> ReplicaBenchResult {
    let spec = streaming_spec();
    println!("[replica_scale] building + saving {} artifact", spec.name);
    let net = capsnet::CapsNet::seeded(&spec, 42).expect("streaming spec valid");
    let path = dir.join("replica_streaming.pimcaps");
    let save = pim_store::ModelWriter::vault_aligned()
        .save(&net, &path)
        .expect("save streaming artifact");
    drop(net); // the fleet serves off the mapping, not this copy
    let artifact = MappedModel::open(&path).expect("open shared artifact");

    let sharing = account_sharing(&artifact, save.bytes, SHARING_REPLICAS);
    println!(
        "[replica_scale] sharing over {} replicas: mapped {} MB once, per-replica shared {} MB / owned {} KB, caps shared: {}",
        sharing.replicas,
        sharing.mapped_bytes_total >> 20,
        sharing.per_replica_shared_bytes >> 20,
        sharing.per_replica_owned_bytes >> 10,
        sharing.caps_weight_shared,
    );

    println!("[replica_scale] rolling rollout scenario (streaming model, 3 replicas)");
    let rollout = rolling_rollout(&spec, dir, &bench_rollout_config()).expect("rollout scenario");
    println!(
        "[replica_scale] rollout: {}/{} completed, monotone: {}, rollback exercised: {}, good max pause {} us",
        rollout.ledger.completed,
        rollout.ledger.submitted,
        rollout.versions_monotone,
        rollout.poisoned_rollout.rolled_back,
        rollout.good_rollout.max_pause_us(),
    );
    ReplicaBenchResult { sharing, rollout }
}

impl ReplicaBenchResult {
    /// The `BENCH_replica.json` record, measured on `host`.
    pub fn to_value(&self, host: &BenchHost) -> Value {
        let (sharing, rollout) = (&self.sharing, &self.rollout);
        let model = Object::new()
            .with("name", streaming_spec().name)
            .with("artifact_bytes", sharing.artifact_bytes)
            .with("caps_weight_bytes", sharing.caps_weight_bytes);
        let shared_mapping = Object::new()
            .with("replicas", sharing.replicas)
            .with("mapped_bytes_total", sharing.mapped_bytes_total)
            .with("per_replica_shared_bytes", sharing.per_replica_shared_bytes)
            .with("per_replica_owned_bytes", sharing.per_replica_owned_bytes)
            .with("caps_weight_shared", sharing.caps_weight_shared);
        let rollout = Object::new()
            .with("replicas", rollout.replicas)
            .with("ledger", ledger_value(&rollout.ledger))
            .with("failed_requests", rollout.metric_failed_requests)
            .with("versions_monotone", rollout.versions_monotone)
            .with("bitwise_attributed", rollout.bitwise_attributed)
            .with("rollback_exercised", rollout.poisoned_rollout.rolled_back)
            .with("invariants_hold", rollout.holds())
            .with("good_rollout_updated", rollout.good_rollout.updated())
            .with(
                "good_rollout_max_pause_us",
                rollout.good_rollout.max_pause_us(),
            )
            .with(
                "poisoned_rollout_max_pause_us",
                rollout.poisoned_rollout.max_pause_us(),
            );
        Object::new()
            .with("host", host)
            .with("model", model)
            .with("shared_mapping", shared_mapping)
            .with("rollout", rollout)
            .into()
    }

    /// Writes `BENCH_replica.json`.
    ///
    /// # Panics
    ///
    /// Panics (before writing) when a bar of [`check_replica`] fails: a
    /// per-replica copy of the weights, a dropped ticket, a non-monotone
    /// version stream, an unattributed response, or a rollback that was
    /// not exercised.
    pub fn report_and_write(&self) {
        let record = self.to_value(&BenchHost::detect());
        write_json_artifact("BENCH_replica.json", &record, check_replica);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet_workloads::drive::Ledger;
    use pim_serve::{ReplicaOutcome, ReplicaRollout, RolloutReport};

    fn synthetic_result() -> ReplicaBenchResult {
        let step = |replica, outcome| ReplicaRollout {
            replica,
            from_version: 1,
            to_version: 2,
            divergence: Some(0.01),
            outcome,
            pause_us: 1500,
        };
        ReplicaBenchResult {
            sharing: SharedBytesAccounting {
                artifact_bytes: 297 << 20,
                mapped_bytes_total: 297 << 20,
                caps_weight_bytes: 292 << 20,
                per_replica_shared_bytes: 292 << 20,
                per_replica_owned_bytes: 4096,
                caps_weight_shared: true,
                replicas: 4,
            },
            rollout: RolloutScenarioReport {
                replicas: 3,
                ledger: Ledger {
                    submitted: 36,
                    completed: 36,
                    ..Default::default()
                },
                versions_monotone: true,
                bitwise_attributed: true,
                good_rollout: RolloutReport {
                    steps: vec![
                        step(0, ReplicaOutcome::Updated),
                        step(1, ReplicaOutcome::Updated),
                        step(2, ReplicaOutcome::Updated),
                    ],
                    rolled_back: false,
                },
                poisoned_rollout: RolloutReport {
                    steps: vec![ReplicaRollout {
                        replica: 0,
                        from_version: 2,
                        to_version: 4,
                        divergence: Some(0.9),
                        outcome: ReplicaOutcome::RolledBack,
                        pause_us: 2500,
                    }],
                    rolled_back: true,
                },
                metric_failed_requests: 0,
            },
        }
    }

    #[test]
    fn replica_json_schema_is_stable() {
        let host = BenchHost {
            simd: "avx2+fma",
            threads: 4,
        };
        let verdict = |r: &ReplicaBenchResult| check_replica(&r.to_value(&host));
        assert_eq!(verdict(&synthetic_result()), Ok(()));

        // Each kept gate fails the record when violated.
        let mut copied = synthetic_result();
        copied.sharing.per_replica_owned_bytes = 1 << 20;
        assert!(verdict(&copied).is_err());
        let mut dropped = synthetic_result();
        dropped.rollout.ledger.completed -= 1;
        assert!(verdict(&dropped).is_err());
        let mut regressed = synthetic_result();
        regressed.rollout.versions_monotone = false;
        assert!(verdict(&regressed).is_err());
        let mut foreign = synthetic_result();
        foreign.rollout.bitwise_attributed = false;
        assert!(verdict(&foreign).is_err());
        let mut sticky = synthetic_result();
        sticky.rollout.poisoned_rollout.rolled_back = false;
        assert!(verdict(&sticky).is_err());
    }
}
