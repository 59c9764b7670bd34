//! DRAM bank timing: per-block service times with row-buffer behaviour.

use serde::{Deserialize, Serialize};

/// DRAM timing constants for one bank (DDR3-class dies stacked in the HMC).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Service time for a block hitting the open row, ns (burst-limited).
    pub t_row_hit_ns: f64,
    /// Service time for a block that must activate a new row, ns
    /// (precharge + activate + CAS).
    pub t_row_miss_ns: f64,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_row_hit_ns: 5.0,
            t_row_miss_ns: 47.0,
        }
    }
}

impl DramTiming {
    /// Average ns per block at a given row-hit rate.
    fn ns_per_block(&self, row_hit_rate: f64) -> f64 {
        let h = row_hit_rate.clamp(0.0, 1.0);
        h * self.t_row_hit_ns + (1.0 - h) * self.t_row_miss_ns
    }
}

/// A bank's aggregate service model for phase-level simulation.
#[derive(Debug, Clone, Copy)]
pub struct BankModel {
    timing: DramTiming,
    block_bytes: u64,
}

impl BankModel {
    /// Creates a bank model.
    pub fn new(timing: DramTiming, block_bytes: u64) -> Self {
        BankModel {
            timing,
            block_bytes,
        }
    }

    /// Time (seconds) for this bank to serve `bytes` at `row_hit_rate`.
    pub fn service_time_s(&self, bytes: u64, row_hit_rate: f64) -> f64 {
        let blocks = bytes.div_ceil(self.block_bytes);
        blocks as f64 * self.timing.ns_per_block(row_hit_rate) * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_bounds_service_time() {
        let t = DramTiming::default();
        assert_eq!(t.ns_per_block(1.0), 5.0);
        assert_eq!(t.ns_per_block(0.0), 47.0);
        assert!((t.ns_per_block(0.5) - 26.0).abs() < 1e-9);
        // Clamping.
        assert_eq!(t.ns_per_block(2.0), 5.0);
    }

    #[test]
    fn sixteen_streaming_banks_exceed_tsv() {
        // Sanity: with good mapping, a vault's 16 banks can feed the TSV
        // link (16 GB/s), so banks are not the bottleneck — conflicts are.
        let t = DramTiming::default();
        let aggregate = 16.0 * 16.0 / (t.ns_per_block(0.95) * 1e-9);
        assert!(aggregate > 16e9, "aggregate bank rate {aggregate}");
    }

    #[test]
    fn service_time_rounds_blocks() {
        let b = BankModel::new(DramTiming::default(), 16);
        let t17 = b.service_time_s(17, 1.0); // 2 blocks
        let t32 = b.service_time_s(32, 1.0);
        assert!((t17 - t32).abs() < 1e-15);
        assert_eq!(b.service_time_s(0, 1.0), 0.0);
    }
}
