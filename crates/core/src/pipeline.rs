//! Host ↔ HMC batch pipelining (§4, Fig 8).
//!
//! While the HMC executes batch *k*'s routing procedure, the GPU processes
//! batch *k+1*'s Conv/PrimaryCaps layers and batch *k−1*'s FC decoder. In
//! steady state the per-batch latency is the slower stage; fill/drain add
//! one traversal of the faster stages.

/// Per-batch amortized time in an infinite stream (the number the paper's
/// per-benchmark speedups reflect).
pub fn steady_state_batch_time(gpu_s: f64, hmc_s: f64) -> f64 {
    gpu_s.max(hmc_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottleneck_dominates_long_streams() {
        assert_eq!(steady_state_batch_time(1.0, 4.0), 4.0);
        assert_eq!(steady_state_batch_time(7.0, 2.0), 7.0);
    }
}
