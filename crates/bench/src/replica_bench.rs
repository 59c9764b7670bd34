//! The replicated-serving measurement: samples/s versus replica count on
//! the streaming model (all replicas sharing **one** mapped artifact),
//! shared-versus-owned weight-byte accounting, and the rolling-rollout
//! scenario's invariants and pause times. Shared by the `replica_scale`
//! binary and the `BENCH_replica.json` golden schema test.

use std::path::Path;

use capsnet::ExactMath;
use capsnet_workloads::rollout::{rolling_rollout, RolloutScenarioConfig, RolloutScenarioReport};
use capsnet_workloads::traffic::{request_images, streaming_spec};
use pim_serve::{ReplicaSet, ReplicaSetConfig, Request, RoutingPolicy, ServeConfig, SubmitError};
use pim_store::SharedArtifact;

use crate::emit::{write_json_artifact, BenchHost};

/// Throughput at one fleet size.
pub struct ReplicaCountMeasurement {
    /// Replicas serving.
    pub replicas: usize,
    /// Fleet throughput, samples per second.
    pub samples_per_s: f64,
    /// Requests driven through the fleet.
    pub requests: usize,
}

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
    /// Throughput per fleet size, ascending replica count.
    pub scaling: Vec<ReplicaCountMeasurement>,
    /// Shared-mapping accounting at the largest fleet size.
    pub sharing: SharedBytesAccounting,
    /// The rolling-rollout scenario's observations (streaming model).
    pub rollout: RolloutScenarioReport,
}

/// Per-replica scheduler knobs for the scaling sweep: one worker per
/// replica, knobs pinned for cross-PR comparability. (Each replica's
/// capsule layer still shards across the host's cores, so replica count is
/// not the only parallelism axis on a multi-core host.)
pub fn scaling_serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait: std::time::Duration::from_millis(2),
        queue_capacity: 256,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    }
}

/// Drives `requests` single-sample requests through an `n`-replica pool
/// mapped onto `artifact` and returns the measurement.
fn measure_fleet(artifact: &SharedArtifact, n: usize, requests: usize) -> ReplicaCountMeasurement {
    let cfg = ReplicaSetConfig {
        replicas: n,
        policy: RoutingPolicy::RoundRobin,
        serve: scaling_serve_config(),
        fault: pim_serve::FaultToleranceConfig::default(),
        cache: None,
    };
    let spec = streaming_spec();
    let set = ReplicaSet::from_shared(spec.name.clone(), artifact, &ExactMath, cfg)
        .expect("streaming artifact rebuilds");
    let ((), report) = set.run(|pool| {
        let tickets: Vec<_> = (0..requests)
            .map(|i| loop {
                match pool.submit(Request::new(
                    i % 4,
                    0,
                    request_images(&spec, 1, 0xF1EE7 ^ i as u64),
                )) {
                    Ok(t) => break t,
                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected reject: {e}"),
                }
            })
            .collect();
        for t in tickets {
            t.wait().expect("fleet forward");
        }
    });
    assert_eq!(report.requests as usize, requests);
    ReplicaCountMeasurement {
        replicas: n,
        samples_per_s: report.samples_per_s(),
        requests,
    }
}

/// Takes the shared-bytes accounting over an `n`-replica pool.
fn account_sharing(
    artifact: &SharedArtifact,
    artifact_bytes: u64,
    n: usize,
) -> SharedBytesAccounting {
    let spec = streaming_spec();
    let caps_weight_bytes = (spec.l_caps().expect("valid")
        * spec.cl_dim
        * spec.h_caps
        * spec.ch_dim
        * std::mem::size_of::<f32>()) as u64;
    let cfg = ReplicaSetConfig {
        replicas: n,
        policy: RoutingPolicy::RoundRobin,
        serve: scaling_serve_config(),
        fault: pim_serve::FaultToleranceConfig::default(),
        cache: None,
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
pub fn bench_rollout_config() -> RolloutScenarioConfig {
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

/// Runs the full measurement: saves the streaming artifact under `dir`,
/// sweeps the fleet sizes, accounts the sharing, runs the rollout
/// scenario, and asserts the scenario's acceptance predicate.
pub fn run_replica_bench(dir: &Path, counts: &[usize], requests: usize) -> ReplicaBenchResult {
    let spec = streaming_spec();
    println!("[replica_scale] building + saving {} artifact", spec.name);
    let net = capsnet::CapsNet::seeded(&spec, 42).expect("streaming spec valid");
    let path = dir.join("replica_streaming.pimcaps");
    let save = pim_store::ModelWriter::vault_aligned()
        .save(&net, &path)
        .expect("save streaming artifact");
    drop(net); // the fleet serves off the mapping, not this copy
    let artifact = SharedArtifact::open(&path).expect("open shared artifact");

    let scaling: Vec<ReplicaCountMeasurement> = counts
        .iter()
        .map(|&n| {
            let m = measure_fleet(&artifact, n, requests);
            println!(
                "[replica_scale] {} replica(s): {:>7.2} samples/s ({} requests)",
                m.replicas, m.samples_per_s, m.requests
            );
            m
        })
        .collect();

    let max_replicas = counts.iter().copied().max().unwrap_or(1);
    let sharing = account_sharing(&artifact, save.bytes, max_replicas);
    println!(
        "[replica_scale] sharing over {} replicas: mapped {} MB once, per-replica shared {} MB / owned {} KB, caps shared: {}",
        sharing.replicas,
        sharing.mapped_bytes_total >> 20,
        sharing.per_replica_shared_bytes >> 20,
        sharing.per_replica_owned_bytes >> 10,
        sharing.caps_weight_shared,
    );
    assert!(
        sharing.caps_weight_shared,
        "eligible weights must be served zero-copy from the shared mapping"
    );
    assert!(
        (sharing.per_replica_owned_bytes as u64) < sharing.caps_weight_bytes / 1000,
        "per-replica owned weight bytes ({}) must be negligible next to the caps weight ({})",
        sharing.per_replica_owned_bytes,
        sharing.caps_weight_bytes
    );

    println!("[replica_scale] rolling rollout scenario (streaming model, 3 replicas)");
    let rollout = rolling_rollout(&spec, dir, &bench_rollout_config()).expect("rollout scenario");
    println!(
        "[replica_scale] rollout: {}/{} resolved, monotone: {}, rollback exercised: {}, good max pause {} us",
        rollout.resolved,
        rollout.submitted,
        rollout.versions_monotone,
        rollout.poisoned_rollout.rolled_back,
        rollout.good_rollout.max_pause_us(),
    );
    assert!(
        rollout.holds(),
        "rollout scenario invariants must hold: {rollout:?}"
    );

    ReplicaBenchResult {
        scaling,
        sharing,
        rollout,
    }
}

impl ReplicaBenchResult {
    /// Throughput of the largest fleet relative to one replica.
    pub fn scaling_max_vs_one(&self) -> f64 {
        let one = self
            .scaling
            .iter()
            .find(|m| m.replicas == 1)
            .map(|m| m.samples_per_s)
            .unwrap_or(f64::NAN);
        let max = self
            .scaling
            .iter()
            .max_by_key(|m| m.replicas)
            .map(|m| m.samples_per_s)
            .unwrap_or(f64::NAN);
        max / one
    }

    /// Renders `BENCH_replica.json`.
    pub fn to_json(&self, host: &BenchHost) -> String {
        let spec = streaming_spec();
        let mut json = format!(
            "{{\n  \"host\": {{\"simd\": \"{}\", \"threads\": {}}},\n  \"model\": {{\"name\": \"{}\", \"artifact_bytes\": {}, \"caps_weight_bytes\": {}}},\n  \"scaling\": [\n",
            host.simd,
            host.threads,
            spec.name,
            self.sharing.artifact_bytes,
            self.sharing.caps_weight_bytes
        );
        for (i, m) in self.scaling.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"replicas\": {}, \"samples_per_s\": {:.2}, \"requests\": {}}}{}\n",
                m.replicas,
                m.samples_per_s,
                m.requests,
                if i + 1 == self.scaling.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            concat!(
                "  ],\n",
                "  \"scaling_max_vs_one\": {:.4},\n",
                "  \"shared_mapping\": {{\"replicas\": {}, \"mapped_bytes_total\": {}, ",
                "\"per_replica_shared_bytes\": {}, \"per_replica_owned_bytes\": {}, ",
                "\"caps_weight_shared\": {}}},\n",
            ),
            self.scaling_max_vs_one(),
            self.sharing.replicas,
            self.sharing.mapped_bytes_total,
            self.sharing.per_replica_shared_bytes,
            self.sharing.per_replica_owned_bytes,
            self.sharing.caps_weight_shared,
        ));
        json.push_str(&format!(
            concat!(
                "  \"rollout\": {{\"replicas\": {}, \"submitted\": {}, \"resolved\": {}, ",
                "\"dropped_tickets\": {}, \"failed_requests\": {}, ",
                "\"versions_monotone\": {}, \"rollback_exercised\": {}, ",
                "\"good_rollout_updated\": {}, \"good_rollout_max_pause_us\": {}, ",
                "\"poisoned_rollout_max_pause_us\": {}}}\n}}\n",
            ),
            self.rollout.replicas,
            self.rollout.submitted,
            self.rollout.resolved,
            self.rollout.submitted - self.rollout.resolved,
            self.rollout.metric_failed_requests,
            self.rollout.versions_monotone,
            self.rollout.poisoned_rollout.rolled_back,
            self.rollout.good_rollout.updated(),
            self.rollout.good_rollout.max_pause_us(),
            self.rollout.poisoned_rollout.max_pause_us(),
        ));
        json
    }

    /// Prints the summary and writes `BENCH_replica.json`.
    pub fn report_and_write(&self) {
        println!(
            "[replica_scale] scaling max fleet vs one replica: {:.2}x",
            self.scaling_max_vs_one()
        );
        write_json_artifact("BENCH_replica.json", &self.to_json(&BenchHost::detect()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            scaling: vec![
                ReplicaCountMeasurement {
                    replicas: 1,
                    samples_per_s: 25.0,
                    requests: 48,
                },
                ReplicaCountMeasurement {
                    replicas: 4,
                    samples_per_s: 80.0,
                    requests: 48,
                },
            ],
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
                submitted: 36,
                resolved: 36,
                failed: 0,
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
                samples_per_s: 30.0,
                metric_failed_requests: 0,
            },
        }
    }

    #[test]
    fn replica_json_schema_is_stable() {
        let result = synthetic_result();
        assert!((result.scaling_max_vs_one() - 3.2).abs() < 1e-9);
        let host = BenchHost {
            simd: "avx2+fma",
            threads: 4,
        };
        let v = crate::jsonlite::parse(&result.to_json(&host)).unwrap();
        let scaling = v.get("scaling").unwrap().as_array().unwrap();
        assert_eq!(scaling.len(), 2);
        assert_eq!(scaling[1].get("replicas").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("scaling_max_vs_one").unwrap().as_f64(), Some(3.2));
        let sharing = v.get("shared_mapping").unwrap();
        assert_eq!(
            sharing.get("caps_weight_shared").unwrap().as_bool(),
            Some(true)
        );
        let rollout = v.get("rollout").unwrap();
        assert_eq!(rollout.get("dropped_tickets").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            rollout.get("rollback_exercised").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(
            rollout.get("versions_monotone").unwrap().as_bool(),
            Some(true)
        );
    }
}
