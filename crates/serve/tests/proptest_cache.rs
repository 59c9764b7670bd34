//! Property tests for the content-addressed response cache through the
//! serving tier, across artifact dtypes and hot-swaps:
//!
//! 1. **cached == fresh, bitwise**: whatever mix of repeats, swaps, and
//!    artifact storage (pure f32, fp16-, or int8-quantized weights), every
//!    response is bit-identical to a per-request forward on the network of
//!    the version it reports;
//! 2. **never stale**: served sequentially, every response carries the
//!    version current at submit time — a post-swap request can never
//!    observe a pre-swap payload;
//! 3. **exact hit accounting**: the number of fast-path completions equals
//!    a replayed model of the cache (same-content repeat within the same
//!    version epoch ⇔ hit), and `completions == requests + cache_hits`;
//! 4. **one cache per replica pool**: with replicas swapped one at a time
//!    between two networks, every response — filled or hit, through either
//!    replica — is bitwise the forward of the network its version names,
//!    and hits follow the pool-wide replay model.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_serve::{
    CacheConfig, ModelRegistry, ReplicaSet, ReplicaSetConfig, Request, ServeCache, ServeConfig,
    ServedModel, Server,
};
use pim_tensor::{QuantDType, Tensor};
use proptest::prelude::*;

fn images(samples: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[samples, 1, 12, 12], 0.0, 1.0, seed)
}

/// Two alternating serve versions per storage dtype (index 0 = pure f32,
/// 1 = fp16 artifact round-trip, 2 = int8 artifact round-trip), built once
/// — artifact IO per proptest case would dominate the suite's runtime.
/// The quantized variants really serve their quantized storage: the nets
/// are reloaded from artifacts written with the corresponding
/// [`pim_store::QuantSpec`].
fn dtype_nets() -> &'static [[CapsNet; 2]; 3] {
    static NETS: OnceLock<[[CapsNet; 2]; 3]> = OnceLock::new();
    NETS.get_or_init(|| {
        let mut spec = CapsNetSpec::tiny_for_tests();
        spec.batch_shared_routing = false;
        let base = [
            CapsNet::seeded(&spec, 31).unwrap(),
            CapsNet::seeded(&spec, 32).unwrap(),
        ];
        let dir = std::env::temp_dir().join(format!("pim_cache_prop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let requant = |dtype: QuantDType, tag: &str| -> [CapsNet; 2] {
            [0usize, 1].map(|i| {
                let path = dir.join(format!("{tag}_{i}.pimcaps"));
                pim_store::ModelWriter::vault_aligned()
                    .with_quant(pim_store::QuantSpec::weights(dtype))
                    .save(&base[i], &path)
                    .unwrap();
                pim_store::MappedModel::open(&path)
                    .unwrap()
                    .capsnet()
                    .unwrap()
            })
        };
        let out = [
            base.clone(),
            requant(QuantDType::F16, "f16"),
            requant(QuantDType::I8, "i8"),
        ];
        let _ = std::fs::remove_dir_all(&dir); // nets are owned copies now
        out
    })
}

/// One generated step: a submission (content key + size) or a hot-swap.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit { seed: u64, samples: usize },
    Swap,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // kind 0..5 ⇒ submit (5:1 weight keeps swap epochs long enough to
    // accumulate repeats), kind 5 ⇒ swap.
    (0u8..6, 0u64..4, 1usize..=2).prop_map(|(kind, seed, samples)| {
        if kind == 5 {
            Op::Swap
        } else {
            Op::Submit { seed, samples }
        }
    })
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_wait: Duration::ZERO,
        queue_capacity: 16,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    }
}

/// One generated step on a two-replica pool: a submission to one replica,
/// or a swap of one replica to the next of two alternating networks.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    Submit { replica: usize, seed: u64 },
    Swap { replica: usize },
}

fn pool_op_strategy() -> impl Strategy<Value = PoolOp> {
    (0u8..4, 0usize..2, 0u64..3).prop_map(|(kind, replica, seed)| {
        if kind == 3 {
            PoolOp::Swap { replica }
        } else {
            PoolOp::Submit { replica, seed }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_equals_fresh_bitwise_across_dtypes_and_swaps(
        dtype in 0usize..3,
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let nets = &dtype_nets()[dtype];
        let registry =
            ModelRegistry::from_models([ServedModel::new("prop", nets[0].clone())]);
        let cache = Arc::new(ServeCache::new(CacheConfig::default(), 1));
        let server = Server::new(&registry, &ExactMath, serve_cfg())
            .unwrap()
            .with_cache(Arc::clone(&cache));

        // Replay model of the cache: within one version epoch, a repeat of
        // `(seed, samples)` must hit; a swap opens a fresh epoch.
        let mut version = 1u64;
        let mut swaps = 0usize;
        let mut filled: HashSet<(u64, u64, usize)> = HashSet::new();
        let mut expected_hits = 0u64;
        let mut submitted = 0u64;

        let outcome = server.run(|handle| {
            for op in &ops {
                match *op {
                    Op::Swap => {
                        swaps += 1;
                        let installed = nets[swaps % 2].clone();
                        version = handle.swap_model(0, installed).unwrap();
                        prop_assert_eq!(version, 1 + swaps as u64);
                    }
                    Op::Submit { seed, samples } => {
                        submitted += 1;
                        if !filled.insert((version, seed, samples)) {
                            expected_hits += 1;
                        }
                        let r = handle
                            .submit(Request::new(0, 0, images(samples, seed)))
                            .unwrap()
                            .wait()
                            .unwrap();
                        // Never stale: sequential submission must observe
                        // the version current at submit time.
                        prop_assert_eq!(r.model_version, version);
                        // Bitwise: hit or miss, quantized or not, the
                        // payload equals a fresh forward on that version.
                        let net = &nets[(r.model_version as usize - 1) % 2];
                        let fresh = net.forward(&images(samples, seed), &ExactMath).unwrap();
                        prop_assert_eq!(&r.predictions, &fresh.predictions());
                        for (a, b) in
                            r.class_norms_sq.iter().zip(fresh.class_norms_sq.as_slice())
                        {
                            prop_assert_eq!(a.to_bits(), b.to_bits(), "cached != fresh");
                        }
                    }
                }
            }
            Ok(())
        });
        outcome.0?;
        let metrics = outcome.1;

        // Exact fast-path accounting against the replay model.
        prop_assert_eq!(metrics.cache_hits, expected_hits);
        prop_assert_eq!(metrics.completions(), submitted);
        prop_assert_eq!(metrics.requests, submitted - expected_hits);
        prop_assert_eq!(cache.report().hits, expected_hits);
    }

    #[test]
    fn pool_cache_serves_the_network_each_version_names(
        ops in proptest::collection::vec(pool_op_strategy(), 1..32),
    ) {
        let nets = &dtype_nets()[0];
        let cfg = ReplicaSetConfig {
            replicas: 2,
            serve: serve_cfg(),
            cache: Some(CacheConfig::default()),
            ..ReplicaSetConfig::default()
        };
        let set = ReplicaSet::from_net("prop-pool", &nets[0], &ExactMath, cfg).unwrap();

        // The swaps alternate the two networks across the pool, whichever
        // replica they land on, so the replicas' networks drift apart.
        let mut swaps = 0usize;
        let mut serving = [(1u64, 0usize); 2];
        let mut named: HashMap<u64, usize> = HashMap::from([(1, 0)]);
        let mut filled: HashSet<(u64, u64)> = HashSet::new();
        let mut expected_hits = 0u64;
        let mut submitted = 0u64;

        let (outcome, report) = set.run(|pool| {
            for op in &ops {
                match *op {
                    PoolOp::Swap { replica } => {
                        swaps += 1;
                        let net = swaps % 2;
                        let version = pool.swap_replica_net(replica, nets[net].clone()).unwrap();
                        prop_assert!(version > serving[replica].0, "versions went backwards");
                        named.entry(version).or_insert(net);
                        serving[replica] = (version, net);
                    }
                    PoolOp::Submit { replica, seed } => {
                        submitted += 1;
                        let (version, net) = serving[replica];
                        if !filled.insert((version, seed)) {
                            expected_hits += 1;
                        }
                        let r = pool
                            .submit_to(replica, Request::new(0, 0, images(1, seed)))
                            .unwrap()
                            .wait()
                            .unwrap();
                        prop_assert_eq!(r.model_version, version);
                        // The version names one network pool-wide, and it
                        // is the one this replica serves.
                        prop_assert_eq!(named.get(&version), Some(&net));
                        let fresh = nets[net].forward(&images(1, seed), &ExactMath).unwrap();
                        prop_assert_eq!(&r.predictions, &fresh.predictions());
                        for (a, b) in
                            r.class_norms_sq.iter().zip(fresh.class_norms_sq.as_slice())
                        {
                            prop_assert_eq!(a.to_bits(), b.to_bits(), "response != its net's forward");
                        }
                    }
                }
            }
            Ok(())
        });
        outcome?;
        prop_assert_eq!(report.cache_hits, expected_hits);
        prop_assert_eq!(report.requests, submitted - expected_hits);
    }
}
