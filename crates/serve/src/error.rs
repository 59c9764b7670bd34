//! Typed service errors: admission rejects and server-side failures.

use std::fmt;

use crate::admission::Priority;

/// Why a submission was rejected at admission time. Rejection is the
/// backpressure mechanism — the queue never grows past its bound and the
/// server never panics on overload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue cannot admit this request's samples right now.
    QueueFull {
        /// Configured sample capacity of the queue.
        capacity: usize,
        /// Samples already queued.
        queued: usize,
        /// Samples the rejected request carried.
        requested: usize,
    },
    /// The SLO-aware admission layer shed this request: the predicted
    /// queue delay for its tier exceeded the tier's configured ceiling
    /// ([`crate::SloConfig::shed_wait_us`]). Shedding fires *before* the
    /// queue is full — it is the overload valve that keeps higher-tier
    /// latency bounded.
    Shed {
        /// The shedding tenant.
        tenant: usize,
        /// The request's priority tier.
        priority: Priority,
        /// Predicted queue delay at admission time, microseconds.
        predicted_wait_us: u64,
        /// The tier's configured ceiling, microseconds.
        limit_us: u64,
    },
    /// The tenant already has its full fairness quota of samples queued
    /// ([`crate::SloConfig::tenant_quota`]).
    TenantQuotaExceeded {
        /// The over-quota tenant.
        tenant: usize,
        /// Samples the tenant has queued.
        queued: usize,
        /// The configured per-tenant quota.
        quota: usize,
        /// Samples the rejected request carried.
        requested: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request names a model index that is not registered.
    UnknownModel {
        /// The offending model index.
        model: usize,
        /// Number of registered models.
        registered: usize,
    },
    /// The request's image tensor does not match the model's geometry, or
    /// carries more samples than one batch may hold.
    ShapeMismatch {
        /// Human-readable expectation.
        expected: String,
        /// Offending dimensions.
        actual: Vec<usize>,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull {
                capacity,
                queued,
                requested,
            } => write!(
                f,
                "queue full: {queued}/{capacity} samples queued, request adds {requested}"
            ),
            SubmitError::Shed {
                tenant,
                priority,
                predicted_wait_us,
                limit_us,
            } => write!(
                f,
                "shed: tenant {tenant} ({priority}) predicted wait {predicted_wait_us}us exceeds \
                 {limit_us}us ceiling"
            ),
            SubmitError::TenantQuotaExceeded {
                tenant,
                queued,
                quota,
                requested,
            } => write!(
                f,
                "tenant {tenant} over quota: {queued}/{quota} samples queued, request adds \
                 {requested}"
            ),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::UnknownModel { model, registered } => {
                write!(f, "unknown model {model} ({registered} registered)")
            }
            SubmitError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual:?}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Server construction / execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// No models were registered.
    NoModels,
    /// Inference failed inside a worker (propagated to every ticket of the
    /// affected batch).
    Forward(String),
    /// A model artifact could not be loaded into (or swapped within) the
    /// registry.
    Load(String),
    /// A control-plane operation (e.g. a rollout canary) exhausted its
    /// bounded retry budget against a saturated replica. Carries how hard
    /// it tried so the operator can tell a blip from a stall.
    Overloaded {
        /// Admission attempts made before giving up.
        attempts: u32,
        /// Total time spent retrying, microseconds.
        waited_us: u64,
    },
    /// The request's end-to-end deadline ([`crate::Request::with_deadline`])
    /// elapsed before a response was produced. The deadline is the
    /// *caller's* budget — missing it is not evidence the replica is
    /// unhealthy, so it never feeds the circuit breaker.
    DeadlineExceeded {
        /// How long the caller waited before the deadline fired,
        /// microseconds.
        waited_us: u64,
    },
    /// The serving replica did not resolve this ticket within the
    /// configured per-attempt bound
    /// ([`crate::FaultToleranceConfig::replica_timeout`]) — a stall
    /// signal. Counts against the replica's circuit breaker; the caller
    /// may fail the request over to another replica.
    ReplicaTimeout {
        /// The stalled replica.
        replica: usize,
        /// How long the ticket waited, microseconds.
        waited_us: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ServeError::NoModels => write!(f, "no models registered"),
            ServeError::Forward(msg) => write!(f, "forward pass failed: {msg}"),
            ServeError::Load(msg) => write!(f, "model load failed: {msg}"),
            ServeError::Overloaded {
                attempts,
                waited_us,
            } => write!(
                f,
                "target overloaded: retry budget exhausted after {attempts} attempts over \
                 {waited_us}us"
            ),
            ServeError::DeadlineExceeded { waited_us } => {
                write!(f, "deadline exceeded after {waited_us}us")
            }
            ServeError::ReplicaTimeout { replica, waited_us } => write!(
                f,
                "replica {replica} timed out: ticket unresolved after {waited_us}us"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = SubmitError::QueueFull {
            capacity: 8,
            queued: 7,
            requested: 2,
        };
        assert!(e.to_string().contains("7/8"));
        assert!(SubmitError::ShuttingDown.to_string().contains("shutting"));
        let shed = SubmitError::Shed {
            tenant: 9,
            priority: Priority::Low,
            predicted_wait_us: 7000,
            limit_us: 5000,
        };
        assert!(shed.to_string().contains("tenant 9"));
        assert!(shed.to_string().contains("low"));
        assert!(shed.to_string().contains("7000"));
        let quota = SubmitError::TenantQuotaExceeded {
            tenant: 3,
            queued: 64,
            quota: 64,
            requested: 2,
        };
        assert!(quota.to_string().contains("64/64"));
        assert!(ServeError::Overloaded {
            attempts: 8,
            waited_us: 123,
        }
        .to_string()
        .contains("8 attempts"));
        assert!(ServeError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(ServeError::Forward("boom".into())
            .to_string()
            .contains("boom"));
        assert!(ServeError::DeadlineExceeded { waited_us: 900 }
            .to_string()
            .contains("900us"));
        let timeout = ServeError::ReplicaTimeout {
            replica: 1,
            waited_us: 42,
        };
        assert!(timeout.to_string().contains("replica 1"));
    }
}
