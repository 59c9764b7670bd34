//! **pim-serve** — batched multi-tenant inference serving for the
//! PIM-CapsNet reproduction.
//!
//! The paper's headline speedup comes from batching routing work until the
//! HMC's internal bandwidth is saturated; the CPU-side analogue is that a
//! capsule layer whose transformation matrix exceeds the last-level cache
//! streams its weights from DRAM **once per request** when requests are
//! served one at a time, but **once per batch** when compatible requests are
//! coalesced. This crate provides the serving layer that performs that
//! coalescing under an explicit latency budget:
//!
//! * a bounded FIFO queue with **typed backpressure**
//!   ([`SubmitError::QueueFull`], never a panic or an unbounded buffer);
//! * **latency-aware coalescing**: a dispatched batch closes when it
//!   reaches [`ServeConfig::max_batch`] samples or when the oldest queued
//!   request has waited [`ServeConfig::max_wait`], whichever comes first.
//!   It waits for companions only while the model's arrivals are at least
//!   one per `max_wait`; a request that arrived alone is dispatched at once
//!   with whatever is queued, so paced traffic does not idle out `max_wait`;
//! * **multi-model, multi-tenant** requests: each request names a
//!   registered model; only same-model requests coalesce, and
//!   per-`(tenant, model)` FIFO dispatch order is preserved;
//! * plain `std::thread::scope` workers — no async runtime — each owning a
//!   warm [`capsnet::ForwardArena`] so steady-state batches allocate almost
//!   nothing;
//! * **SLO-aware admission control** ([`admission`]): priority tiers
//!   ([`Priority`]), per-tenant fairness quotas, and predicted-wait
//!   overload shedding ([`SubmitError::Shed`]) so high-priority p99 stays
//!   bounded while best-effort load is shed under sustained overload;
//! * per-request and per-batch **metrics** in fixed memory: p50/p95/p99
//!   latency from one log-bucketed histogram per priority tier (at most
//!   1/64 above the exact value, never below it), throughput, failure
//!   counters, per-tier shed accounting and a batch-occupancy histogram,
//!   readable mid-run ([`ServerHandle::snapshot`]);
//! * **replicated serving** ([`replica`]): a [`ReplicaSet`] supervisor
//!   running N thread-isolated replicas that share one mapped `pim-store`
//!   artifact (one physical copy of the weights), with pluggable routing
//!   ([`RoutingPolicy`]) and **rolling version rollout** with canary +
//!   rollback ([`rollout`]). A replica runs the same scheduler as a bare
//!   [`Server`]: pool submits enqueue straight into it and resolve through
//!   the same [`Ticket`]; a per-replica mailbox carries control traffic
//!   only (swaps, probes);
//! * **content-addressed response caching** (`pim-cache`, attached via
//!   [`Server::with_cache`]): requests are keyed by a zero-copy XXH64
//!   digest of their input tensor; a hit bypasses queueing and shedding
//!   entirely and is recorded as a typed fast-path completion
//!   ([`MetricsReport::cache_hits`]). Hot-swaps invalidate by version for
//!   free. A replica pool keeps one cache for all its replicas, and its
//!   versions come from one counter, so a hit is the response of the very
//!   network the version names.
//!
//! Batched execution is **bit-identical** to calling [`capsnet::CapsNet::forward`]
//! per request (models route per sample, so no information crosses request
//! boundaries); this crate's tests assert it, and `benchmark/run.sh`
//! checks sampled responses bitwise on every run.
//!
//! # Example
//!
//! ```
//! use capsnet::{CapsNet, CapsNetSpec, ExactMath};
//! use pim_serve::{ModelRegistry, Request, ServeConfig, ServedModel, Server};
//! use pim_tensor::Tensor;
//!
//! let mut spec = CapsNetSpec::tiny_for_tests();
//! spec.batch_shared_routing = false; // requests must not influence each other
//! let registry = ModelRegistry::from_models([ServedModel::new(
//!     "tiny",
//!     CapsNet::seeded(&spec, 1).unwrap(),
//! )]);
//! let server = Server::new(&registry, &ExactMath, ServeConfig::default()).unwrap();
//! let (responses, metrics) = server.run(|handle| {
//!     let tickets: Vec<_> = (0..4)
//!         .map(|tenant| {
//!             let images = Tensor::uniform(&[1, 1, 12, 12], 0.0, 1.0, tenant as u64);
//!             handle
//!                 .submit(Request::new(tenant, 0, images))
//!                 .expect("queue has room")
//!         })
//!         .collect();
//!     tickets
//!         .into_iter()
//!         .map(|t| t.wait().expect("inference succeeds"))
//!         .collect::<Vec<_>>()
//! });
//! assert_eq!(responses.len(), 4);
//! assert_eq!(metrics.requests, 4);
//! ```

pub mod admission;
mod config;
mod error;
mod histogram;
mod metrics;
mod registry;
pub mod replica;
pub mod rollout;
mod server;

pub use admission::{AdmissionPolicy, AdmissionVerdict, Priority, SloConfig, TIERS};
pub use config::ServeConfig;
pub use error::{ServeError, SubmitError};
pub use metrics::{MetricsReport, ModelVersionCount, TierReport};
pub use pim_cache::{CacheConfig, CacheReport};
pub use registry::{ModelHandle, ModelRegistry};
pub use replica::{
    FaultToleranceConfig, HealthState, ReplicaSet, ReplicaSetConfig, ReplicaSetHandle,
    ReplicaSetReport, ReplicaTicket, RoutingPolicy,
};
pub use rollout::{
    ReplicaOutcome, ReplicaRollout, RetryBudget, RolloutConfig, RolloutError, RolloutReport,
};
pub use server::{
    CachedResponse, Request, Response, ServeCache, ServedModel, Server, ServerHandle, Ticket,
};
