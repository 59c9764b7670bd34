//! The Runtime Memory Access Scheduler (RMAS, §5.3.2).
//!
//! With CapsNet pipelined across the GPU and the HMC, both sides issue
//! requests into the same vaults. The RMAS quantifies the cost of granting
//! the GPU priority in `n_h` of the `n_max` vaults it targets (paper
//! Eq 15):
//!
//! ```text
//! κ = γ_v · n_h · Q  +  γ_h · n_max / n_h
//! ```
//!
//! and grants priority in the minimizing `n_h* = sqrt(n_max·γ_h / (Q·γ_v))`,
//! clamped to `[0, n_max]` (choosing vaults with the shortest PE queues
//! first).

use serde::{Deserialize, Serialize};

/// Scheduling policy for GPU-vs-PE vault access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RmasPolicy {
    /// The paper's RMAS: grant the GPU priority in the κ-minimizing number
    /// of vaults.
    #[default]
    Optimal,
    /// Naive: HMC PEs always win (the paper's RMAS-PIM comparison point).
    AlwaysPim,
    /// Naive: the GPU always wins (RMAS-GPU).
    AlwaysGpu,
}

/// Inputs to the κ model, collected at runtime by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RmasInputs {
    /// Average number of queued PE requests in the targeted vaults (`Q`).
    pub queue_depth: f64,
    /// Number of vaults the GPU's current operations target (`n_max`).
    pub n_max: f64,
    /// Impact factor of the HMC-side issued operations (`γ_v`), larger for
    /// memory-intensive phases.
    pub gamma_v: f64,
    /// Impact factor of the GPU-side issued operations (`γ_h`).
    pub gamma_h: f64,
}

impl RmasInputs {
    /// Eq 15's κ for a given `n_h`.
    ///
    /// `n_h = 0` means the GPU waits entirely: its term is charged at the
    /// `n_h → 0⁺` limit via a large constant, matching the paper's
    /// definition domain `n_h ∈ [0, n_max]` where 0 defers all GPU
    /// requests behind the PE queues.
    fn kappa(&self, n_h: f64) -> f64 {
        let gpu_term = if n_h <= 0.0 {
            // All target vaults drain PE queues first: the GPU waits the
            // full queue depth in every vault.
            self.gamma_h * self.n_max * self.queue_depth.max(1.0)
        } else {
            self.gamma_h * self.n_max / n_h
        };
        self.gamma_v * n_h * self.queue_depth + gpu_term
    }

    /// The κ-minimizing `n_h*` (continuous, clamped to `[0, n_max]`).
    fn optimal_nh(&self) -> f64 {
        if self.gamma_v <= 0.0 || self.queue_depth <= 0.0 {
            return self.n_max;
        }
        (self.n_max * self.gamma_h / (self.queue_depth * self.gamma_v))
            .sqrt()
            .clamp(0.0, self.n_max)
    }

    /// κ for a policy.
    fn kappa_for(&self, policy: RmasPolicy) -> f64 {
        match policy {
            RmasPolicy::Optimal => self.kappa(self.optimal_nh()),
            RmasPolicy::AlwaysPim => self.kappa(0.0),
            RmasPolicy::AlwaysGpu => self.kappa(self.n_max),
        }
    }

    /// The *relative* contention penalty of a policy against the optimum:
    /// `κ_policy / κ_opt − 1 ≥ 0`. The engine converts this into stall
    /// seconds on the side the policy starves.
    pub fn penalty(&self, policy: RmasPolicy) -> f64 {
        let opt = self.kappa_for(RmasPolicy::Optimal);
        if opt <= 0.0 {
            return 0.0;
        }
        (self.kappa_for(policy) / opt - 1.0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> RmasInputs {
        RmasInputs {
            queue_depth: 8.0,
            n_max: 6.0,
            gamma_v: 1.0,
            gamma_h: 4.0,
        }
    }

    #[test]
    fn optimal_nh_matches_closed_form() {
        let i = inputs();
        // sqrt(6·4 / (8·1)) = sqrt(3) ≈ 1.732
        assert!((i.optimal_nh() - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn optimal_is_a_minimum() {
        let i = inputs();
        let opt = i.optimal_nh();
        let k_opt = i.kappa(opt);
        for nh in [0.5, 1.0, 2.0, 3.0, 4.5, 6.0] {
            assert!(
                k_opt <= i.kappa(nh) + 1e-9,
                "κ({nh}) = {} < κ(opt) = {k_opt}",
                i.kappa(nh)
            );
        }
    }

    #[test]
    fn clamping_at_boundaries() {
        // Tiny queues → GPU should get everything.
        let free = RmasInputs {
            queue_depth: 0.0,
            ..inputs()
        };
        assert_eq!(free.optimal_nh(), free.n_max);
        // Huge queues → GPU gets (almost) nothing.
        let busy = RmasInputs {
            queue_depth: 1e9,
            ..inputs()
        };
        assert!(busy.optimal_nh() < 0.01);
    }

    #[test]
    fn naive_policies_are_never_better() {
        let i = inputs();
        assert!(i.penalty(RmasPolicy::AlwaysPim) >= 0.0);
        assert!(i.penalty(RmasPolicy::AlwaysGpu) >= 0.0);
        assert_eq!(i.penalty(RmasPolicy::Optimal), 0.0);
        // With these inputs, both naive policies are strictly worse.
        assert!(i.penalty(RmasPolicy::AlwaysPim) > 0.0);
        assert!(i.penalty(RmasPolicy::AlwaysGpu) > 0.0);
    }

    #[test]
    fn memory_intensive_hmc_phase_raises_gpu_share_cost() {
        let base = inputs();
        let mem_heavy = RmasInputs {
            gamma_v: 4.0,
            ..base
        };
        // With γ_v larger, granting the GPU the same vaults hurts more, so
        // the optimal n_h shrinks.
        assert!(mem_heavy.optimal_nh() < base.optimal_nh());
    }
}
