//! **pim-store** — zero-copy model persistence for the PIM-CapsNet
//! reproduction.
//!
//! The paper's central observation is that CapsNet weights and routing
//! intermediates dwarf on-chip storage, so *where data lives* is the
//! architecture: PIM-CapsNet distributes the routing procedure's operands
//! across HMC vaults (§5.1) and lays vault data out bank-by-bank (§5.3.1).
//! This crate is the serving-tier analogue of that discipline. Instead of
//! rebuilding multi-hundred-MB weight tensors from an RNG on every process
//! start, models are persisted once as a **versioned, checksummed binary
//! artifact** and loaded back through one reader, [`MappedModel`], over
//! one of two backings:
//!
//! * **mapped** ([`MappedModel::open`]): `mmap` the artifact and run the
//!   network off [`pim_tensor::Tensor::from_shared`] views borrowing the
//!   page cache — cold loads are bounded by checksum bandwidth rather than
//!   RNG throughput, warm loads by page-table work, and N processes
//!   serving the same model share one physical copy of the weights;
//! * **owned** ([`MappedModel::read`]): read + verify the file image into
//!   owned memory once (the portable path, and `open`'s fallback where the
//!   platform has no mmap).
//!
//! Either way every network [`MappedModel::capsnet`] builds borrows the
//! one backing buffer, so N in-process serve replicas built from one
//! `MappedModel` share a *single* verified image.
//!
//! The optional **vault-aligned layout** ([`Layout::VaultAligned`]) stores
//! eligible weight tensors pre-partitioned along their leading dimension
//! into [`DEFAULT_VAULT_WAYS`] aligned sections, using the same even-shares
//! rule as `pim_capsnet::distribution::vault_shares` — the stored bytes
//! mirror the paper's per-vault weight partitioning, and
//! [`MappedModel::vault_partitions`] carves the per-vault shares out of
//! the mapping with zero copies (e.g. to drive an `hmc-sim` workload
//! straight from an artifact).
//!
//! Format details live in [`format`]; every artifact carries a magic,
//! a format version, and hand-rolled XXH64-style checksums ([`hash`])
//! over the header, the section table, and each tensor's data, all
//! verified on open. Writes are atomic (temp file + rename), so a serving
//! process hot-reloading a path can never observe a torn artifact.
//!
//! # Example
//!
//! ```
//! use capsnet::{CapsNet, CapsNetSpec, ExactMath};
//! use pim_store::{MappedModel, ModelWriter};
//!
//! let dir = std::env::temp_dir().join(format!("pim_store_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.pimcaps");
//!
//! let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 7).unwrap();
//! ModelWriter::vault_aligned().save(&net, &path).unwrap();
//!
//! let mapped = MappedModel::open(&path).unwrap();
//! let loaded = mapped.capsnet().unwrap();
//! let images = pim_tensor::Tensor::uniform(&[2, 1, 12, 12], 0.0, 1.0, 9);
//! let a = net.forward(&images, &ExactMath).unwrap();
//! let b = loaded.forward(&images, &ExactMath).unwrap();
//! assert_eq!(a.class_norms_sq, b.class_norms_sq); // bit-identical
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

mod error;
pub mod format;
pub mod hash;
mod mmap;
mod reader;
mod writer;

pub use error::StoreError;
pub use format::{
    Layout, Partition, QuantParams, SectionDtype, TensorRecord, DEFAULT_VAULT_WAYS, FORMAT_VERSION,
    FORMAT_VERSION_F32,
};
pub use reader::{MappedModel, VaultPartition};
pub use writer::{ModelWriter, QuantSpec, SaveReport};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
