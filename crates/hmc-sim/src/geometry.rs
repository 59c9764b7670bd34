//! HMC cube geometry and rates (HMC Gen3 / specification 2.1, §4 + Table 4).

use serde::{Deserialize, Serialize};

/// Static description of the modeled cube.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmcConfig {
    /// Number of vaults (32 in Gen3).
    pub vaults: usize,
    /// DRAM banks per vault (16).
    pub banks_per_vault: usize,
    /// Total capacity in bytes (8 GB).
    pub capacity_bytes: u64,
    /// External (SerDes link) bandwidth, GB/s (320).
    pub external_gbps: f64,
    /// Aggregate internal TSV bandwidth, GB/s (512).
    pub internal_gbps: f64,
    /// Crossbar switch capacity, GB/s.
    pub xbar_gbps: f64,
    /// Processing elements per vault (16, §5.2.1).
    pub pes_per_vault: usize,
    /// PE clock in GHz (312.5 MHz, Table 4).
    pub pe_clock_ghz: f64,
    /// Concurrent issue lanes per PE. The Fig 11(c) PE owns several adder/
    /// multiplier banks but steers one operation flow through them via
    /// muxes, so the paper-faithful configuration is 1.
    pub pe_lanes: usize,
    /// Memory access granularity — one block (16 B).
    pub block_bytes: u64,
    /// Packet head+tail overhead per inter-vault message, bytes
    /// (`SIZE_pkt` in the paper's Eqs 8/10/12).
    pub packet_overhead_bytes: u64,
}

impl HmcConfig {
    /// The paper's configuration (Table 4).
    pub fn gen3() -> Self {
        HmcConfig {
            vaults: 32,
            banks_per_vault: 16,
            capacity_bytes: 8 * 1024 * 1024 * 1024,
            external_gbps: 320.0,
            internal_gbps: 512.0,
            xbar_gbps: 512.0,
            pes_per_vault: 16,
            pe_clock_ghz: 0.3125,
            pe_lanes: 1,
            block_bytes: 16,
            packet_overhead_bytes: 16,
        }
    }

    /// Internal bandwidth available to a single vault, GB/s.
    pub fn per_vault_gbps(&self) -> f64 {
        self.internal_gbps / self.vaults as f64
    }

    /// Total PEs in the cube.
    pub fn total_pes(&self) -> usize {
        self.vaults * self.pes_per_vault
    }

    /// Returns a copy with a different PE clock (Fig 18's frequency sweep:
    /// 312.5 / 625 / 937.5 MHz).
    pub fn with_pe_clock_ghz(mut self, ghz: f64) -> Self {
        self.pe_clock_ghz = ghz;
        self
    }

    /// Bytes of capacity per vault.
    pub fn vault_capacity_bytes(&self) -> u64 {
        self.capacity_bytes / self.vaults as u64
    }
}

impl Default for HmcConfig {
    fn default() -> Self {
        Self::gen3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_matches_table4() {
        let c = HmcConfig::gen3();
        assert_eq!(c.vaults, 32);
        assert_eq!(c.banks_per_vault, 16);
        assert_eq!(c.capacity_bytes, 8 << 30);
        assert_eq!(c.external_gbps, 320.0);
        assert_eq!(c.internal_gbps, 512.0);
        assert_eq!(c.pes_per_vault, 16);
        assert!((c.pe_clock_ghz - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn derived_rates() {
        let c = HmcConfig::gen3();
        assert_eq!(c.per_vault_gbps(), 16.0);
        assert_eq!(c.total_pes(), 512);
    }

    #[test]
    fn clock_sweep_builder() {
        let c = HmcConfig::gen3().with_pe_clock_ghz(0.9375);
        assert_eq!(c.pe_clock_ghz, 0.9375);
        assert_eq!(c.total_pes(), HmcConfig::gen3().total_pes());
    }
}
