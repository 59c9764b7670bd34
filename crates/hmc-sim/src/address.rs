//! Memory address mapping (§5.3.1, Fig 13).
//!
//! Memory access granularity is a 16-byte **block**; a **sub-page**
//! (the spec's MAX block) groups 16 B–256 B of consecutive blocks served by
//! one bank at a time.
//!
//! * [`DefaultMapping`] — HMC Gen3 default (Fig 13a): consecutive sub-pages
//!   interleave first across **vaults**, then across banks. Great for host
//!   bandwidth, terrible for vault-local PIM work.
//! * [`PimMapping`] — the paper's scheme (Fig 13b): the vault ID moves to
//!   the top bits so a contiguous allocation stays in one vault, the bank ID
//!   sits directly above the (dynamically sized) sub-page so concurrent PE
//!   requests spread across banks, and the sub-page size adapts to the
//!   request size of each variable so one PE's consecutive blocks stay in
//!   one bank.
//! * [`NaiveVaultMapping`] — vault ID on top but banks filled sequentially;
//!   this is what the **PIM-Inter** comparison design uses, and why it
//!   drowns in bank conflicts (Fig 16a's VRS bars).

use crate::geometry::HmcConfig;

/// Where a block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockLocation {
    /// Vault index.
    pub vault: usize,
    /// Bank index within the vault.
    pub bank: usize,
    /// Row identifier within the bank (used for row-hit modeling).
    pub row: u64,
}

/// DRAM row size used for row-hit accounting.
const ROW_BYTES: u64 = 2048;

/// An address-mapping scheme.
pub trait AddressMapping {
    /// Maps a byte address to its block location.
    fn locate(&self, byte_addr: u64) -> BlockLocation;

    /// Short scheme name.
    fn name(&self) -> &'static str;

    /// Distribution of a contiguous byte range over (vault, bank) pairs:
    /// returns bytes per (vault, bank).
    fn span_distribution(&self, start: u64, len: u64, cfg: &HmcConfig) -> Vec<Vec<u64>> {
        let mut out = vec![vec![0u64; cfg.banks_per_vault]; cfg.vaults];
        let block = cfg.block_bytes;
        let mut addr = start - start % block;
        while addr < start + len {
            let loc = self.locate(addr);
            out[loc.vault][loc.bank] += block;
            addr += block;
        }
        out
    }
}

fn bits_for(n: usize) -> u32 {
    debug_assert!(n.is_power_of_two(), "geometry extents must be powers of 2");
    n.trailing_zeros()
}

/// The default HMC Gen3 mapping (Fig 13a): from low to high bits of the
/// block address — block-in-sub-page, vault ID, bank ID, sub-page ID.
#[derive(Debug, Clone)]
pub struct DefaultMapping {
    vault_bits: u32,
    bank_bits: u32,
    subpage_block_bits: u32,
    block_bytes: u64,
}

impl DefaultMapping {
    /// Creates the default mapping with the spec's 128 B sub-page.
    pub fn new(cfg: &HmcConfig) -> Self {
        Self::with_subpage(cfg, 128)
    }

    /// Creates the default mapping with an explicit sub-page size.
    ///
    /// # Panics
    ///
    /// Panics if `subpage_bytes` is not a power-of-two multiple of the
    /// block size.
    fn with_subpage(cfg: &HmcConfig, subpage_bytes: u64) -> Self {
        assert!(subpage_bytes >= cfg.block_bytes);
        assert!(subpage_bytes.is_power_of_two());
        DefaultMapping {
            vault_bits: bits_for(cfg.vaults),
            bank_bits: bits_for(cfg.banks_per_vault),
            subpage_block_bits: (subpage_bytes / cfg.block_bytes).trailing_zeros(),
            block_bytes: cfg.block_bytes,
        }
    }
}

impl AddressMapping for DefaultMapping {
    fn locate(&self, byte_addr: u64) -> BlockLocation {
        let block = byte_addr / self.block_bytes;
        let after_sub = block >> self.subpage_block_bits;
        let vault = after_sub & ((1 << self.vault_bits) - 1);
        let after_vault = after_sub >> self.vault_bits;
        let bank = after_vault & ((1 << self.bank_bits) - 1);
        let subpage_id = after_vault >> self.bank_bits;
        BlockLocation {
            vault: vault as usize,
            bank: bank as usize,
            row: subpage_id * (self.block_bytes << self.subpage_block_bits) / ROW_BYTES,
        }
    }

    fn name(&self) -> &'static str {
        "hmc-default"
    }
}

/// The paper's PIM mapping (Fig 13b): vault ID at the top, bank ID directly
/// above a dynamically sized sub-page.
#[derive(Debug, Clone)]
pub struct PimMapping {
    vault_bits: u32,
    bank_bits: u32,
    subpage_block_bits: u32,
    block_bytes: u64,
    vault_region_blocks: u64,
}

impl PimMapping {
    /// Creates the PIM mapping with the sub-page sized for `request_bytes`
    /// (the per-PE data request size this allocation serves; the paper's
    /// indicator bits express 16 B–256 B).
    ///
    /// # Panics
    ///
    /// Panics if the derived sub-page is not a power of two.
    pub fn new(cfg: &HmcConfig, request_bytes: u64) -> Self {
        let clamped = request_bytes
            .next_power_of_two()
            .clamp(cfg.block_bytes, 256);
        PimMapping {
            vault_bits: bits_for(cfg.vaults),
            bank_bits: bits_for(cfg.banks_per_vault),
            subpage_block_bits: (clamped / cfg.block_bytes).trailing_zeros(),
            block_bytes: cfg.block_bytes,
            vault_region_blocks: cfg.vault_capacity_bytes() / cfg.block_bytes,
        }
    }

    /// The dynamic sub-page size chosen for this allocation.
    pub fn subpage_bytes(&self) -> u64 {
        self.block_bytes << self.subpage_block_bits
    }
}

impl AddressMapping for PimMapping {
    fn locate(&self, byte_addr: u64) -> BlockLocation {
        let block = byte_addr / self.block_bytes;
        let vault = (block / self.vault_region_blocks) & ((1 << self.vault_bits) - 1);
        let within = block % self.vault_region_blocks;
        let after_sub = within >> self.subpage_block_bits;
        let bank = after_sub & ((1 << self.bank_bits) - 1);
        let subpage_id = after_sub >> self.bank_bits;
        BlockLocation {
            vault: vault as usize,
            bank: bank as usize,
            row: subpage_id * (self.block_bytes << self.subpage_block_bits) / ROW_BYTES,
        }
    }

    fn name(&self) -> &'static str {
        "pim-capsnet"
    }
}

/// Vault-local but bank-naive mapping: vault ID at the top (so data stays
/// vault-local), banks filled **sequentially** — consecutive data occupies
/// one bank until its 16 MB region is full. Concurrent PEs working on one
/// tensor shard therefore pile onto the same bank; this is the addressing
/// behaviour of the PIM-Inter comparison point (§6.2.2).
#[derive(Debug, Clone)]
pub struct NaiveVaultMapping {
    vault_bits: u32,
    block_bytes: u64,
    vault_region_blocks: u64,
    bank_region_blocks: u64,
}

impl NaiveVaultMapping {
    /// Creates the naive vault-local mapping.
    pub fn new(cfg: &HmcConfig) -> Self {
        let vault_region_blocks = cfg.vault_capacity_bytes() / cfg.block_bytes;
        NaiveVaultMapping {
            vault_bits: bits_for(cfg.vaults),
            block_bytes: cfg.block_bytes,
            vault_region_blocks,
            bank_region_blocks: vault_region_blocks / cfg.banks_per_vault as u64,
        }
    }
}

impl AddressMapping for NaiveVaultMapping {
    fn locate(&self, byte_addr: u64) -> BlockLocation {
        let block = byte_addr / self.block_bytes;
        let vault = (block / self.vault_region_blocks) & ((1 << self.vault_bits) - 1);
        let within = block % self.vault_region_blocks;
        let bank = within / self.bank_region_blocks;
        let row = (within % self.bank_region_blocks) * self.block_bytes / ROW_BYTES;
        BlockLocation {
            vault: vault as usize,
            bank: bank as usize,
            row,
        }
    }

    fn name(&self) -> &'static str {
        "naive-vault-local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HmcConfig {
        HmcConfig::gen3()
    }

    #[test]
    fn default_interleaves_vaults_first() {
        let m = DefaultMapping::new(&cfg());
        // Consecutive sub-pages (128 B apart) hit consecutive vaults.
        let locs: Vec<usize> = (0..32).map(|i| m.locate(i * 128).vault).collect();
        for (i, &v) in locs.iter().enumerate() {
            assert_eq!(v, i, "sub-page {i} should land in vault {i}");
        }
        // Blocks inside one sub-page share a vault and bank.
        let a = m.locate(0);
        let b = m.locate(112);
        assert_eq!(a.vault, b.vault);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn default_rotates_banks_after_vaults() {
        let m = DefaultMapping::new(&cfg());
        // After 32 sub-pages (one full vault rotation) the bank advances.
        let first = m.locate(0);
        let wrapped = m.locate(32 * 128);
        assert_eq!(wrapped.vault, first.vault);
        assert_eq!(wrapped.bank, first.bank + 1);
    }

    #[test]
    fn pim_keeps_contiguous_data_vault_local() {
        let m = PimMapping::new(&cfg(), 64);
        assert_eq!(m.subpage_bytes(), 64);
        // A 1 MB range stays entirely in vault 0.
        for off in (0..1_048_576).step_by(4096) {
            assert_eq!(m.locate(off).vault, 0);
        }
        // The next vault region starts 256 MB later.
        assert_eq!(m.locate(cfg().vault_capacity_bytes()).vault, 1);
    }

    #[test]
    fn pim_spreads_consecutive_subpages_over_banks() {
        let m = PimMapping::new(&cfg(), 64);
        let banks: Vec<usize> = (0..16).map(|i| m.locate(i * 64).bank).collect();
        for (i, &b) in banks.iter().enumerate() {
            assert_eq!(b, i, "sub-page {i} should land in bank {i}");
        }
    }

    #[test]
    fn pim_subpage_clamps_to_spec_range() {
        assert_eq!(PimMapping::new(&cfg(), 8).subpage_bytes(), 16);
        assert_eq!(PimMapping::new(&cfg(), 100).subpage_bytes(), 128);
        assert_eq!(PimMapping::new(&cfg(), 5000).subpage_bytes(), 256);
    }

    #[test]
    fn naive_mapping_concentrates_banks() {
        let m = NaiveVaultMapping::new(&cfg());
        // A 4 MB shard sits in a single bank (bank region = 16 MB).
        let dist = m.span_distribution(0, 4 << 20, &cfg());
        let used: usize = dist[0].iter().filter(|&&b| b > 0).count();
        assert_eq!(used, 1, "naive mapping should use one bank for 4 MB");
        assert!(dist.iter().skip(1).all(|v| v.iter().all(|&b| b == 0)));
    }

    #[test]
    fn pim_distribution_covers_all_banks() {
        let c = cfg();
        let m = PimMapping::new(&c, 64);
        let dist = m.span_distribution(0, 1 << 20, &c);
        let used: usize = dist[0].iter().filter(|&&b| b > 0).count();
        assert_eq!(used, c.banks_per_vault, "PIM mapping should use all banks");
        // Bytes spread evenly (within one sub-page).
        let max = dist[0].iter().max().unwrap();
        let min = dist[0].iter().min().unwrap();
        assert!(max - min <= 64);
    }

    #[test]
    fn default_distribution_covers_all_vaults() {
        let c = cfg();
        let m = DefaultMapping::new(&c);
        let dist = m.span_distribution(0, 1 << 20, &c);
        for (v, banks) in dist.iter().enumerate() {
            assert!(
                banks.iter().sum::<u64>() > 0,
                "vault {v} received no data under default interleave"
            );
        }
    }

    #[test]
    fn rows_advance_within_bank() {
        let c = cfg();
        let m = NaiveVaultMapping::new(&c);
        let r0 = m.locate(0).row;
        let r1 = m.locate(ROW_BYTES).row;
        assert_eq!(r1, r0 + 1);
    }
}
