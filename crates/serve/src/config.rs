//! Scheduler configuration: the latency budget and capacity knobs. A
//! forming batch waits up to `max_wait` for companions only while its
//! model's arrivals are at least one per `max_wait`; a request that arrived
//! alone is dispatched with whatever is queued.

use std::time::Duration;

use crate::admission::AdmissionPolicy;
use crate::error::ServeError;

/// Scheduler knobs: the latency budget (`max_batch` × `max_wait`), the
/// backpressure bound, and the worker pool size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum samples per dispatched batch. A batch dispatches as soon as
    /// it reaches this size.
    pub max_batch: usize,
    /// Maximum time the *oldest* request of a forming batch may wait for
    /// companions before the batch dispatches anyway — the latency half of
    /// the budget. The batch waits only while the model's arrivals are at
    /// least one per `max_wait`: when the oldest request came more than
    /// `max_wait` after the model's previous admission, the worker sweeps
    /// the queue once and dispatches. A model's first admission waits.
    /// `Duration::ZERO` disables coalescing waits entirely (each worker
    /// dispatches whatever is queued).
    pub max_wait: Duration,
    /// Bound on queued (admitted but not yet dispatched) samples. Submits
    /// that would exceed it are rejected with
    /// [`crate::SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads running inference.
    pub workers: usize,
    /// Admission policy: the legacy queue bound, or SLO-aware shedding
    /// with priority tiers and per-tenant quotas (see [`crate::admission`]).
    pub admission: AdmissionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            workers: 1,
            admission: AdmissionPolicy::QueueBound,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when a bound is zero or the
    /// queue cannot hold even one full batch.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_capacity < self.max_batch {
            return Err(ServeError::InvalidConfig(format!(
                "queue_capacity {} cannot hold one max_batch {}",
                self.queue_capacity, self.max_batch
            )));
        }
        if let AdmissionPolicy::SloAware(slo) = &self.admission {
            if slo.tenant_quota == 0 {
                return Err(ServeError::InvalidConfig(
                    "tenant_quota must be >= 1".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_bounds_are_rejected() {
        let c = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ServeConfig {
            queue_capacity: ServeConfig::default().max_batch - 1,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_tenant_quota_is_rejected() {
        let c = ServeConfig {
            admission: AdmissionPolicy::SloAware(crate::SloConfig {
                tenant_quota: 0,
                ..crate::SloConfig::default()
            }),
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            admission: AdmissionPolicy::SloAware(crate::SloConfig::default()),
            ..ServeConfig::default()
        };
        c.validate().unwrap();
    }
}
