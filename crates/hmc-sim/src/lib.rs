//! Hybrid Memory Cube (HMC) simulator — the in-memory substrate of
//! PIM-CapsNet.
//!
//! Models an HMC Gen3-class cube per the paper's §4/Table 4: 8 GB, 32
//! vaults × 16 banks, 320 GB/s external links, 512 GB/s aggregate internal
//! (TSV) bandwidth, a crossbar connecting SerDes links and vaults, and 16
//! processing elements (PEs) on each vault's logic layer.
//!
//! Two fidelity levels:
//!
//! * [`PhaseEngine`] — deterministic queueing on aggregated per-bank /
//!   per-link demand; fast enough for the full Table 1 suite. Reports the
//!   execution / crossbar / vault-request-stall (VRS) breakdown of Fig 16a
//!   and the energy split of Fig 16b.
//! * [`event::EventSim`] — request-level simulation used in tests to
//!   validate the phase engine's queueing approximations.
//!
//! Address mapping follows Fig 13: the default HMC interleave spreads
//! consecutive sub-pages across vaults; the PIM mapping hoists the vault ID
//! to the top bits (keeping RP data vault-local) and spreads consecutive
//! blocks across banks with a dynamically sized sub-page.
//!
//! # Example
//!
//! ```
//! use hmc_sim::{AddressMapping, DefaultMapping, HmcConfig, PimMapping};
//!
//! let cfg = HmcConfig::gen3();
//! let default_map = DefaultMapping::new(&cfg);
//! let pim_map = PimMapping::new(&cfg, 64);
//! // Consecutive sub-pages land in different vaults under the default map…
//! let a = default_map.locate(0);
//! let b = default_map.locate(128);
//! assert_ne!(a.vault, b.vault);
//! // …but stay in one vault (different banks) under the PIM map.
//! let c = pim_map.locate(0);
//! let d = pim_map.locate(64);
//! assert_eq!(c.vault, d.vault);
//! assert_ne!(c.bank, d.bank);
//! ```

mod address;
mod dram;
mod energy;
pub mod event;
mod geometry;
mod pe;
mod phase;

pub use address::{AddressMapping, BlockLocation, DefaultMapping, NaiveVaultMapping, PimMapping};
pub use dram::{BankModel, DramTiming};
pub use energy::{EnergyBreakdown, EnergyParams};
pub use geometry::HmcConfig;
pub use pe::{PeOp, PeProgram};
pub use phase::{Phase, PhaseEngine, PhaseResult, VaultWork};
