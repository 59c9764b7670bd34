//! The artifact reader: [`MappedModel`], one checksum-verified artifact
//! over one of two backings.
//!
//! [`MappedModel::open`] maps the file and hands out
//! [`Tensor::from_shared`] views straight over the page cache;
//! [`MappedModel::read`] copies the file image into owned words once (the
//! portable path, and `open`'s fallback where the platform has no mmap)
//! and hands out the same views over that copy. Tensors whose stored
//! partitions are not contiguous (vault-aligned padding) are gathered into
//! owned copies per tensor on either backing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use capsnet::{CapsNet, CapsNetError, CapsNetSpec, WeightSource, WeightView};
use pim_tensor::{ByteBuf, QuantBlock, QuantTensor, Tensor, TensorBuf};

use crate::error::StoreError;
use crate::format::{
    decode_spec, decode_table, Header, Layout, SectionDtype, TensorRecord, DATA_ALIGN, HEADER_LEN,
};
use crate::hash::Hasher;
use crate::mmap::{map_file, Mmap};

/// Parsed-and-verified artifact metadata.
#[derive(Debug)]
struct Metadata {
    header: Header,
    spec: CapsNetSpec,
    records: Vec<TensorRecord>,
    by_name: BTreeMap<String, usize>,
}

/// Parses header, spec and section table out of the full file image and
/// verifies **every** checksum (header, table, and each tensor's data).
fn parse_and_verify(bytes: &[u8]) -> Result<Metadata, StoreError> {
    let header = Header::decode(bytes)?;
    // Every writer pads the image to a whole number of data-alignment
    // units; the owned backing and the `f32` view of a mapping rely on it.
    if header.file_len % DATA_ALIGN as u64 != 0 {
        return Err(StoreError::Corrupt(format!(
            "committed length {} is not a multiple of {DATA_ALIGN}",
            header.file_len
        )));
    }
    if (bytes.len() as u64) < header.file_len {
        return Err(StoreError::Truncated {
            expected: header.file_len,
            actual: bytes.len() as u64,
        });
    }
    if (bytes.len() as u64) > header.file_len {
        return Err(StoreError::Corrupt(format!(
            "file has {} trailing bytes beyond the committed length",
            bytes.len() as u64 - header.file_len
        )));
    }
    let spec_end = (HEADER_LEN as u64)
        .checked_add(header.spec_len)
        .and_then(|e| e.checked_add(8).map(|with_sum| (e, with_sum)))
        .filter(|&(_, with_sum)| with_sum <= header.file_len)
        .map(|(e, _)| e)
        .ok_or_else(|| StoreError::Corrupt("spec extends past end of file".into()))?;
    if header.table_off < spec_end + 8 {
        return Err(StoreError::Corrupt(
            "section table overlaps the spec".into(),
        ));
    }
    let spec_payload = &bytes[HEADER_LEN..spec_end as usize];
    let stored_spec_sum = u64::from_le_bytes(
        bytes[spec_end as usize..spec_end as usize + 8]
            .try_into()
            // LINT-ALLOW(R2): the 8-byte digest tail was length-checked two lines above
            .expect("8 bytes"),
    );
    if crate::hash::hash64(spec_payload) != stored_spec_sum {
        return Err(StoreError::Corrupt("spec checksum mismatch".into()));
    }
    let table_end = header
        .table_off
        .checked_add(header.table_len)
        .filter(|&e| e <= header.file_len)
        .ok_or_else(|| StoreError::Corrupt("section table extends past end of file".into()))?;
    let spec = decode_spec(spec_payload)?;
    spec.validate()?;
    let records = decode_table(
        &bytes[header.table_off as usize..table_end as usize],
        header.tensor_count,
        header.version,
    )?;

    let mut by_name = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if by_name.insert(r.name.clone(), i).is_some() {
            return Err(StoreError::Corrupt(format!(
                "duplicate tensor name {:?}",
                r.name
            )));
        }
        // A quantized partition is one block of affine parameters, and the
        // kernels read each row of the leading dimension with one block's
        // parameters: a boundary inside a row is a forged table. (A zero
        // leading dim lets the trailing dims overflow; no partition fits
        // such a row.)
        let row = r
            .dims
            .iter()
            .skip(1)
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64));
        let row = row.unwrap_or(u64::MAX).max(1);
        let mut hasher = Hasher::new();
        let elem_bytes = r.elem_bytes();
        for p in &r.partitions {
            if r.dtype != SectionDtype::F32 && (p.elems == 0 || p.elems % row != 0) {
                return Err(StoreError::Corrupt(format!(
                    "tensor {:?}: quantized partition of {} elements splits a row of {row}",
                    r.name, p.elems
                )));
            }
            if p.offset < table_end || p.offset % 4 != 0 {
                return Err(StoreError::Corrupt(format!(
                    "tensor {:?}: partition offset {} invalid (data area starts at {table_end})",
                    r.name, p.offset
                )));
            }
            let end = p
                .offset
                .checked_add(p.elems.checked_mul(elem_bytes).ok_or_else(|| {
                    StoreError::Corrupt(format!("tensor {:?}: element count overflow", r.name))
                })?)
                .filter(|&e| e <= header.file_len)
                .ok_or(StoreError::Truncated {
                    expected: p.offset.saturating_add(p.elems.saturating_mul(elem_bytes)),
                    actual: header.file_len,
                })?;
            hasher.update(&bytes[p.offset as usize..end as usize]);
        }
        if hasher.finish() != r.checksum {
            return Err(StoreError::Corrupt(format!(
                "tensor {:?}: data checksum mismatch",
                r.name
            )));
        }
    }
    Ok(Metadata {
        header,
        spec,
        records,
        by_name,
    })
}

/// The quantization blocks of a quantized record: one per stored
/// partition, carrying that partition's inline affine parameters (int8) or
/// the neutral pair (f16).
fn record_blocks(record: &TensorRecord) -> Vec<QuantBlock> {
    let mut start = 0usize;
    record
        .partitions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (scale, zero_point) = match record.dtype {
                SectionDtype::I8 => (record.quant[i].scale, record.quant[i].zero_point),
                _ => (1.0, 0),
            };
            let block = QuantBlock {
                start,
                elems: p.elems as usize,
                scale,
                zero_point,
            };
            start += p.elems as usize;
            block
        })
        .collect()
}

/// The backing storage of a [`MappedModel`]: the live mapping, or the
/// verified file image copied into owned words.
enum ArtifactBuf {
    Mapped(Mmap),
    OwnedWords(Vec<f32>),
}

impl ByteBuf for ArtifactBuf {
    fn as_bytes(&self) -> &[u8] {
        match self {
            ArtifactBuf::Mapped(m) => m.as_bytes(),
            // SAFETY: any &[f32] is a valid &[u8] view of the same memory
            // (alignment 1 ≤ 4, length v.len() * 4 in bounds, u8 has no
            // invalid bit patterns); the artifact image is byte-exact in
            // the owned words because `parse_and_verify` admits only
            // lengths that are a multiple of `DATA_ALIGN`.
            ArtifactBuf::OwnedWords(v) => unsafe {
                std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4)
            },
        }
    }
}

impl TensorBuf for ArtifactBuf {
    fn as_f32(&self) -> &[f32] {
        match self {
            ArtifactBuf::Mapped(m) => {
                let bytes = m.as_bytes();
                debug_assert_eq!(bytes.as_ptr().align_offset(4), 0);
                debug_assert_eq!(bytes.len() % 4, 0);
                // SAFETY: a mapping starts on a page boundary, and
                // `parse_and_verify` admitted its length only as a multiple
                // of `DATA_ALIGN`; f32 has no invalid bit patterns; the
                // mapping is immutable and lives as long as self.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) }
            }
            ArtifactBuf::OwnedWords(v) => v,
        }
    }
}

/// One vault's stored share of a vault-aligned weight tensor.
#[derive(Debug, Clone)]
pub struct VaultPartition {
    /// Vault index (0-based).
    pub vault: usize,
    /// Rows of the tensor's leading dimension stored in this vault.
    pub rows: usize,
    /// The partition's data, shaped `[rows, trailing dims…]`. A shared
    /// zero-copy view whenever the backing store allows it.
    pub tensor: Tensor,
}

/// A verified model artifact, opened for **zero-copy** access.
///
/// Weight tensors are handed out as [`Tensor::from_shared`] windows over
/// the one backing buffer — no per-tensor allocation, no copy. Networks
/// built by [`MappedModel::capsnet`] hold an `Arc` to that buffer, so any
/// number of them (one per serve replica, say) share one physical copy of
/// the weights, and repeated opens of the same artifact share the OS page
/// cache. Every checksum (header, table, all tensor data) is verified when
/// the artifact is opened or read.
pub struct MappedModel {
    buf: Arc<ArtifactBuf>,
    path: PathBuf,
    spec: CapsNetSpec,
    layout: Layout,
    records: Vec<TensorRecord>,
    by_name: BTreeMap<String, usize>,
}

impl std::fmt::Debug for MappedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedModel")
            .field("path", &self.path)
            .field("spec", &self.spec.name)
            .field("layout", &self.layout)
            .field("tensors", &self.records.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl MappedModel {
    /// Maps and verifies the artifact at `path`.
    ///
    /// Falls back to [`MappedModel::read`] when the platform has no mmap —
    /// the result is then identical in behavior, just not zero-copy (see
    /// [`MappedModel::is_mapped`]).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: i/o, magic/version mismatch, truncation, or
    /// checksum failure.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mapping = match map_file(path) {
            Ok(mapping) => mapping,
            Err(StoreError::MmapUnsupported) => return Self::read(path),
            Err(e) => return Err(e),
        };
        let meta = parse_and_verify(mapping.as_bytes())?;
        Ok(Self::new(path, ArtifactBuf::Mapped(mapping), meta))
    }

    /// Reads and verifies the artifact at `path` into an owned copy of
    /// the file image; tensors then borrow that copy.
    ///
    /// # Errors
    ///
    /// As [`MappedModel::open`].
    pub fn read(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        let meta = parse_and_verify(&bytes)?;
        let words = bytes
            .chunks_exact(4)
            // LINT-ALLOW(R2): chunks_exact(4) yields exactly 4-byte slices by contract
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(Self::new(path, ArtifactBuf::OwnedWords(words), meta))
    }

    fn new(path: &Path, buf: ArtifactBuf, meta: Metadata) -> Self {
        MappedModel {
            buf: Arc::new(buf),
            path: path.to_path_buf(),
            spec: meta.spec,
            layout: meta.header.layout,
            records: meta.records,
            by_name: meta.by_name,
        }
    }

    /// The path the artifact was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The stored network specification.
    pub fn spec(&self) -> &CapsNetSpec {
        &self.spec
    }

    /// The artifact's data layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// `true` when the artifact is served by a live memory mapping
    /// (`false` for an owned image from [`MappedModel::read`]).
    pub fn is_mapped(&self) -> bool {
        matches!(*self.buf, ArtifactBuf::Mapped(_))
    }

    /// Length of the backing file image in bytes — counted once, however
    /// many networks borrow it.
    // LINT-ALLOW(R6): `roundtrip::shared_artifact_backs_many_networks_with_one_mapping` reads the one image's length.
    pub fn image_len(&self) -> usize {
        self.buf.as_bytes().len()
    }

    fn record(&self, name: &str) -> Result<&TensorRecord, StoreError> {
        self.by_name
            .get(name)
            .map(|&i| &self.records[i])
            .ok_or_else(|| StoreError::MissingTensor(name.to_string()))
    }

    /// The tensor stored under `name` as dense `f32`. Zero-copy (shared
    /// storage) when the section is `f32` with contiguous partitions; an
    /// owned gather otherwise. **Quantized sections are dequantized into an
    /// owned copy**; [`MappedModel::capsnet`] keeps them in byte form
    /// (and zero-copy).
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingTensor`] for unknown names.
    pub fn tensor(&self, name: &str) -> Result<Tensor, StoreError> {
        match self.weight_view(name)? {
            WeightView::F32(t) => Ok(t),
            WeightView::Quant(q) => Ok(q.dequantize()),
        }
    }

    /// The typed weight view stored under `name`: dense `f32`, or the
    /// quantized bytes with their per-partition affine parameters. Both
    /// kinds are zero-copy windows over the backing buffer when the stored
    /// partitions are contiguous; the vault-aligned padding case gathers
    /// owned (still without dequantizing).
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingTensor`] for unknown names.
    fn weight_view(&self, name: &str) -> Result<WeightView, StoreError> {
        let record = self.record(name)?;
        let first = record.partitions[0].offset as usize;
        Ok(match (record.dtype.quant(), record.is_contiguous()) {
            (None, true) => {
                let buf: Arc<dyn TensorBuf> = Arc::clone(&self.buf) as Arc<dyn TensorBuf>;
                WeightView::F32(Tensor::from_shared(buf, first / 4, &record.dims)?)
            }
            (Some(dtype), true) => {
                let buf: Arc<dyn ByteBuf> = Arc::clone(&self.buf) as Arc<dyn ByteBuf>;
                WeightView::Quant(QuantTensor::from_shared(
                    dtype,
                    buf,
                    first,
                    &record.dims,
                    record_blocks(record),
                )?)
            }
            // Padded between vault partitions: gather owned.
            (None, false) => {
                let words = self.buf.as_f32();
                let mut data = Vec::with_capacity(record.elems() as usize);
                for p in &record.partitions {
                    let start = p.offset as usize / 4;
                    data.extend_from_slice(&words[start..start + p.elems as usize]);
                }
                WeightView::F32(Tensor::from_vec(data, &record.dims)?)
            }
            (Some(dtype), false) => {
                let (bytes, eb) = (self.buf.as_bytes(), dtype.elem_bytes());
                let mut data = Vec::with_capacity(record.elems() as usize * eb);
                for p in &record.partitions {
                    let start = p.offset as usize;
                    data.extend_from_slice(&bytes[start..start + p.elems as usize * eb]);
                }
                WeightView::Quant(QuantTensor::from_bytes(
                    dtype,
                    data,
                    &record.dims,
                    record_blocks(record),
                )?)
            }
        })
    }

    /// The per-vault shares of a stored tensor: one zero-copy view per
    /// stored partition, shaped `[rows, trailing dims…]`. Tensors stored
    /// whole return a single share on vault 0. This is the handle a
    /// `hmc-sim` workload uses to drive per-vault traffic straight off
    /// the artifact.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingTensor`] for unknown names.
    // LINT-ALLOW(R6): the per-vault reader the layout tests hold the vault-aligned writer to; the parked sharded-serving seam.
    pub fn vault_partitions(&self, name: &str) -> Result<Vec<VaultPartition>, StoreError> {
        let record = self.record(name)?;
        let row_stride: usize = record.dims[1..].iter().product::<usize>().max(1);
        let blocks = record_blocks(record);
        let mut out = Vec::with_capacity(record.partitions.len());
        for (vault, p) in record.partitions.iter().enumerate() {
            let rows = p.elems as usize / row_stride;
            let mut dims = record.dims.clone();
            dims[0] = rows;
            let tensor = match record.dtype.quant() {
                None => {
                    let buf: Arc<dyn TensorBuf> = Arc::clone(&self.buf) as Arc<dyn TensorBuf>;
                    Tensor::from_shared(buf, p.offset as usize / 4, &dims)?
                }
                Some(dtype) => {
                    // One self-contained shard: its own bytes, its own
                    // affine parameters. Dequantized per partition (the
                    // per-vault consumers want dense rows).
                    let buf: Arc<dyn ByteBuf> = Arc::clone(&self.buf) as Arc<dyn ByteBuf>;
                    let block = QuantBlock {
                        start: 0,
                        ..blocks[vault]
                    };
                    QuantTensor::from_shared(dtype, buf, p.offset as usize, &dims, vec![block])?
                        .dequantize()
                }
            };
            out.push(VaultPartition {
                vault,
                rows,
                tensor,
            });
        }
        Ok(out)
    }

    /// Rebuilds a runnable [`CapsNet`] whose weights **borrow** this
    /// artifact's buffer (zero-copy where the layout allows). Quantized
    /// sections are handed to the network in byte form — the capsule
    /// layer dequantizes them on the fly inside the fused kernels,
    /// so no f32 copy of a quantized weight is ever materialized. The
    /// network holds an `Arc` to the buffer, so it stays valid after the
    /// `MappedModel` is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingTensor`] / [`StoreError::CapsNet`] when the
    /// artifact does not contain what the spec requires.
    pub fn capsnet(&self) -> Result<CapsNet, StoreError> {
        struct Source<'a>(&'a MappedModel);
        impl WeightSource for Source<'_> {
            fn contains(&self, name: &str) -> bool {
                self.0.by_name.contains_key(name)
            }
            fn tensor(&mut self, name: &str, _dims: &[usize]) -> Result<Tensor, CapsNetError> {
                self.0
                    .tensor(name)
                    .map_err(|e| CapsNetError::InvalidSpec(e.to_string()))
            }
            fn weight(&mut self, name: &str, _dims: &[usize]) -> Result<WeightView, CapsNetError> {
                self.0
                    .weight_view(name)
                    .map_err(|e| CapsNetError::InvalidSpec(e.to_string()))
            }
        }
        Ok(CapsNet::from_views(&self.spec, &mut Source(self))?)
    }
}
