//! **pim-capsnet-suite** — facade for the PIM-CapsNet (HPCA 2020)
//! reproduction.
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `pim-tensor` | dense f32 tensors, matmul, conv |
//! | [`approx`] | `pim-approx` | bit-level FP32 approximations (§5.2.2) |
//! | [`capsnet`] | `capsnet` | CapsNet layers, dynamic & EM routing, op census |
//! | [`gpu`] | `gpu-sim` | GPU timing/energy characterization model |
//! | [`hmc`] | `hmc-sim` | HMC vaults/banks/crossbar/PE simulator |
//! | [`pim`] | `pim-capsnet` | the paper's architecture: distributor, RMAS, engine |
//! | [`workloads`] | `capsnet-workloads` | Table 1 suite, synthetic data, accuracy harness |
//! | [`cache`] | `pim-cache` | content-addressed response cache (bloom + CLOCK) |
//!
//! # Quickstart
//!
//! ```
//! use pim_capsnet_suite::prelude::*;
//!
//! // Price Caps-MN1 on the baseline GPU and on PIM-CapsNet.
//! let bench = &workload_benchmarks()[0];
//! let census = NetworkCensus::from_spec(&bench.spec(), bench.batch_size).unwrap();
//! let platform = Platform::paper_default();
//! let base = evaluate(&census, &platform, DesignVariant::Baseline);
//! let pim = evaluate(&census, &platform, DesignVariant::PimCapsNet);
//! assert!(pim.rp_time_s < base.rp_time_s);
//! ```

pub use capsnet;
pub use capsnet_workloads as workloads;
pub use gpu_sim as gpu;
pub use hmc_sim as hmc;
pub use pim_approx as approx;
pub use pim_cache as cache;
pub use pim_capsnet as pim;
pub use pim_serve as serve;
pub use pim_store as store;
pub use pim_tensor as tensor;

/// Convenience prelude with the most-used types across the suite.
pub mod prelude {
    pub use capsnet::{
        ApproxMath, CapsNet, CapsNetSpec, ExactMath, ForwardArena, ForwardView, MathBackend,
        NetworkCensus, RoutingAlgorithm, RoutingScratch, RpCensus,
    };
    pub use capsnet_workloads::accuracy::AccuracyExperiment;
    pub use capsnet_workloads::report::Table;
    pub use capsnet_workloads::{benchmarks as workload_benchmarks, Benchmark, Dataset};
    pub use gpu_sim::{GpuSpec, GpuTimingModel, MemorySpec};
    pub use hmc_sim::{HmcConfig, PhaseEngine};
    pub use pim_approx::ApproxProfile;
    pub use pim_cache::{CacheConfig, CacheReport};
    pub use pim_capsnet::{
        evaluate, evaluate_with_dimension, DesignVariant, Dimension, EvalResult, Platform,
    };
    pub use pim_serve::{
        AdmissionPolicy, MetricsReport, ModelRegistry, Priority, ReplicaSet, ReplicaSetConfig,
        Request, Response, RolloutConfig, RoutingPolicy, ServeCache, ServeConfig, ServedModel,
        Server, SloConfig, SubmitError,
    };
    pub use pim_store::{MappedModel, ModelWriter};
    pub use pim_tensor::Tensor;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reaches_every_crate() {
        let _ = Tensor::zeros(&[1]);
        let _ = ApproxProfile::uncalibrated();
        let _ = CapsNetSpec::tiny_for_tests();
        let _ = GpuSpec::p100();
        let _ = HmcConfig::gen3();
        let _ = Platform::paper_default();
        let _ = ServeConfig::default();
        let _ = CacheConfig::default();
        let _ = ModelWriter::vault_aligned();
        assert_eq!(workload_benchmarks().len(), 12);
    }
}
