//! Artifact readers: checksum-verified **owned** loading and **zero-copy
//! mmap** loading.
//!
//! [`StoredModel`] reads the whole file and materializes owned tensors —
//! the portable, always-works path. [`MappedModel`] maps the file and
//! hands out [`Tensor::from_shared`] views straight over the page cache;
//! tensors whose stored partitions are not contiguous (vault-aligned
//! padding) or whose data cannot be viewed as aligned `f32`s fall back to
//! owned copies per tensor, so the API never fails over alignment — it
//! only loses the zero-copy property where the bytes make it impossible.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use capsnet::{CapsNet, CapsNetError, CapsNetSpec, WeightSource, WeightView};
use pim_tensor::{ByteBuf, QuantBlock, QuantTensor, Tensor, TensorBuf};

use crate::error::StoreError;
use crate::format::{
    decode_spec, decode_table, Header, Layout, SectionDtype, TensorRecord, HEADER_LEN,
};
use crate::hash::Hasher;
use crate::mmap::{map_file, Mmap};

/// Parsed-and-verified artifact metadata, shared by both readers.
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
        let mut hasher = Hasher::new();
        let elem_bytes = r.elem_bytes();
        for p in &r.partitions {
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

/// Decodes a partition's bytes into `out` (fast memcpy path on aligned
/// little-endian input, per-element decode otherwise).
fn extend_f32_from_bytes(out: &mut Vec<f32>, bytes: &[u8]) {
    debug_assert_eq!(bytes.len() % 4, 0);
    let n = bytes.len() / 4;
    #[cfg(target_endian = "little")]
    if bytes.as_ptr().align_offset(std::mem::align_of::<f32>()) == 0 {
        // SAFETY: pointer is 4-aligned (checked above), length n * 4 bytes
        // is in bounds, and f32 has no invalid bit patterns.
        let words = unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), n) };
        out.extend_from_slice(words);
        return;
    }
    out.extend(
        bytes
            .chunks_exact(4)
            // LINT-ALLOW(R2): chunks_exact(4) yields exactly 4-byte slices by contract
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes")))),
    );
}

/// Materializes one f32 record's tensor as owned storage from the file
/// image.
fn gather_owned(bytes: &[u8], record: &TensorRecord) -> Result<Tensor, StoreError> {
    let mut data = Vec::with_capacity(record.elems() as usize);
    for p in &record.partitions {
        let start = p.offset as usize;
        extend_f32_from_bytes(&mut data, &bytes[start..start + p.elems as usize * 4]);
    }
    Ok(Tensor::from_vec(data, &record.dims)?)
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

/// Materializes one record as an owned [`WeightView`] from the file image
/// — f32 records become dense tensors, quantized records keep their byte
/// payloads (and per-partition affine parameters).
fn gather_owned_weight(bytes: &[u8], record: &TensorRecord) -> Result<WeightView, StoreError> {
    let Some(dtype) = record.dtype.quant() else {
        return Ok(WeightView::F32(gather_owned(bytes, record)?));
    };
    let eb = dtype.elem_bytes();
    let mut data = Vec::with_capacity(record.elems() as usize * eb);
    for p in &record.partitions {
        let start = p.offset as usize;
        data.extend_from_slice(&bytes[start..start + p.elems as usize * eb]);
    }
    Ok(WeightView::Quant(QuantTensor::from_bytes(
        dtype,
        data,
        &record.dims,
        record_blocks(record),
    )?))
}

/// Shape-checks a loaded view against what the model spec requires.
fn check_dims(name: &str, view: &WeightView, dims: &[usize]) -> Result<(), CapsNetError> {
    if view.dims() != dims {
        return Err(CapsNetError::InvalidSpec(format!(
            "stored tensor {name:?} has shape {:?}, model needs {dims:?}",
            view.dims()
        )));
    }
    Ok(())
}

// ── owned loading ───────────────────────────────────────────────────────

/// A fully-materialized (owned) model artifact. Quantized sections stay
/// in their stored byte form (a [`WeightView::Quant`]); use
/// [`StoredModel::tensor`] only for `f32` sections and
/// [`StoredModel::weight`] for the typed view.
#[derive(Debug)]
pub struct StoredModel {
    spec: CapsNetSpec,
    layout: Layout,
    tensors: BTreeMap<String, WeightView>,
}

impl StoredModel {
    /// Reads and verifies `path`, materializing every tensor into owned
    /// memory.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: i/o, magic/version mismatch, truncation, or
    /// checksum failure.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        let meta = parse_and_verify(&bytes)?;
        let mut tensors = BTreeMap::new();
        for r in &meta.records {
            tensors.insert(r.name.clone(), gather_owned_weight(&bytes, r)?);
        }
        Ok(StoredModel {
            spec: meta.spec,
            layout: meta.header.layout,
            tensors,
        })
    }

    /// The stored network specification.
    pub fn spec(&self) -> &CapsNetSpec {
        &self.spec
    }

    /// The artifact's data layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// A stored `f32` tensor by name (`None` for unknown names **and** for
    /// quantized sections — those have no dense tensor to borrow; see
    /// [`StoredModel::weight`]).
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.tensors.get(name).and_then(WeightView::as_f32)
    }

    /// A stored weight's typed view by name.
    pub fn weight(&self, name: &str) -> Option<&WeightView> {
        self.tensors.get(name)
    }

    /// Rebuilds the network from the stored spec and weights, moving each
    /// tensor out (no second copy of multi-hundred-MB weights — the
    /// `BTreeMap` `WeightSource` impl would clone). Quantized weights move
    /// straight into the network's fused dequant-on-the-fly path for the
    /// layers that stream them; small quantized tensors requested as dense
    /// `f32` (conv kernels, biases) are dequantized here.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`StoreError::CapsNet`].
    pub fn into_capsnet(self) -> Result<CapsNet, StoreError> {
        struct TakeSource(BTreeMap<String, WeightView>);
        impl TakeSource {
            fn take(&mut self, name: &str) -> Result<WeightView, CapsNetError> {
                self.0
                    .remove(name)
                    .ok_or_else(|| CapsNetError::InvalidSpec(format!("missing weight {name:?}")))
            }
        }
        impl WeightSource for TakeSource {
            fn contains(&self, name: &str) -> bool {
                self.0.contains_key(name)
            }
            fn tensor(&mut self, name: &str, dims: &[usize]) -> Result<Tensor, CapsNetError> {
                let view = self.take(name)?;
                check_dims(name, &view, dims)?;
                Ok(match view {
                    WeightView::F32(t) => t,
                    WeightView::Quant(q) => q.dequantize(),
                })
            }
            fn weight(&mut self, name: &str, dims: &[usize]) -> Result<WeightView, CapsNetError> {
                let view = self.take(name)?;
                check_dims(name, &view, dims)?;
                Ok(view)
            }
        }
        Ok(CapsNet::from_views(
            &self.spec,
            &mut TakeSource(self.tensors),
        )?)
    }
}

// ── zero-copy mapped loading ────────────────────────────────────────────

/// The backing storage of a [`MappedModel`]: the live mapping, or (on
/// platforms/files where an aligned `f32` view is impossible) the file
/// image copied into owned words.
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
            // the owned words because the file length is 64-byte aligned.
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
                // Invariants established at open: 4-aligned base pointer,
                // length a multiple of 4.
                debug_assert_eq!(bytes.as_ptr().align_offset(4), 0);
                debug_assert_eq!(bytes.len() % 4, 0);
                // SAFETY: alignment and length verified at construction
                // (misaligned mappings are converted to OwnedWords); f32
                // has no invalid bit patterns; the mapping is immutable
                // and lives as long as self.
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

/// A model artifact opened for **zero-copy** access.
///
/// Weight tensors are handed out as [`Tensor::from_shared`] windows over
/// the mapping — no per-tensor allocation, no copy, and repeated opens of
/// the same artifact share the OS page cache. Every checksum (header,
/// table, all tensor data) is verified at open.
pub struct MappedModel {
    buf: Arc<ArtifactBuf>,
    spec: CapsNetSpec,
    layout: Layout,
    records: Vec<TensorRecord>,
    by_name: BTreeMap<String, usize>,
    mapped: bool,
}

impl std::fmt::Debug for MappedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedModel")
            .field("spec", &self.spec.name)
            .field("layout", &self.layout)
            .field("tensors", &self.records.len())
            .field("mapped", &self.mapped)
            .finish()
    }
}

impl MappedModel {
    /// Maps and verifies the artifact at `path`.
    ///
    /// Falls back to an owned in-memory copy when the platform has no
    /// mmap or the mapping cannot be viewed as aligned `f32`s — the
    /// result is then identical in behavior, just not zero-copy (see
    /// [`MappedModel::is_mapped`]).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: i/o, magic/version mismatch, truncation, or
    /// checksum failure.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        match map_file(path) {
            Ok(mapping) => {
                let meta = parse_and_verify(mapping.as_bytes())?;
                let bytes = mapping.as_bytes();
                let aligned = bytes.as_ptr().align_offset(std::mem::align_of::<f32>()) == 0
                    && bytes.len() % 4 == 0;
                let (buf, mapped) = if aligned {
                    (ArtifactBuf::Mapped(mapping), true)
                } else {
                    // Misalignment fallback: copy the image into owned
                    // words once; all tensor views then borrow that copy.
                    let mut words = Vec::with_capacity(bytes.len() / 4);
                    extend_f32_from_bytes(&mut words, &bytes[..bytes.len() - bytes.len() % 4]);
                    (ArtifactBuf::OwnedWords(words), false)
                };
                Ok(MappedModel {
                    buf: Arc::new(buf),
                    spec: meta.spec,
                    layout: meta.header.layout,
                    records: meta.records,
                    by_name: meta.by_name,
                    mapped,
                })
            }
            Err(StoreError::MmapUnsupported) => {
                let bytes = std::fs::read(path)?;
                let meta = parse_and_verify(&bytes)?;
                let mut words = Vec::with_capacity(bytes.len() / 4);
                extend_f32_from_bytes(&mut words, &bytes);
                Ok(MappedModel {
                    buf: Arc::new(ArtifactBuf::OwnedWords(words)),
                    spec: meta.spec,
                    layout: meta.header.layout,
                    records: meta.records,
                    by_name: meta.by_name,
                    mapped: false,
                })
            }
            Err(e) => Err(e),
        }
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
    /// (`false` after the owned fallback).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Length of the backing file image in bytes (the mapped extent, or
    /// the owned copy's size after a fallback).
    pub fn image_len(&self) -> usize {
        match &*self.buf {
            ArtifactBuf::Mapped(m) => m.len(),
            ArtifactBuf::OwnedWords(v) => v.len() * 4,
        }
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
    /// owned copy** — use [`MappedModel::weight_view`] to keep them in
    /// byte form (and zero-copy).
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
    /// kinds are zero-copy windows over the mapping when the stored
    /// partitions are contiguous; the vault-aligned padding case gathers
    /// owned (still without dequantizing).
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingTensor`] for unknown names.
    pub fn weight_view(&self, name: &str) -> Result<WeightView, StoreError> {
        let record = self.record(name)?;
        match record.dtype.quant() {
            None => {
                if record.is_contiguous() {
                    let offset_elems = record.partitions[0].offset as usize / 4;
                    let buf: Arc<dyn TensorBuf> = Arc::clone(&self.buf) as Arc<dyn TensorBuf>;
                    return Ok(WeightView::F32(Tensor::from_shared(
                        buf,
                        offset_elems,
                        &record.dims,
                    )?));
                }
                // Non-contiguous (padded between vault partitions): gather
                // owned.
                let words = self.buf.as_f32();
                let mut data = Vec::with_capacity(record.elems() as usize);
                for p in &record.partitions {
                    let start = p.offset as usize / 4;
                    data.extend_from_slice(&words[start..start + p.elems as usize]);
                }
                Ok(WeightView::F32(Tensor::from_vec(data, &record.dims)?))
            }
            Some(dtype) => {
                if record.is_contiguous() {
                    let offset = record.partitions[0].offset as usize;
                    let buf: Arc<dyn ByteBuf> = Arc::clone(&self.buf) as Arc<dyn ByteBuf>;
                    return Ok(WeightView::Quant(QuantTensor::from_shared(
                        dtype,
                        buf,
                        offset,
                        &record.dims,
                        record_blocks(record),
                    )?));
                }
                Ok(gather_owned_weight(self.buf.as_bytes(), record)?)
            }
        }
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
    /// mapping (zero-copy where the layout allows). Quantized sections are
    /// handed to the network in byte form — the capsule and decoder layers
    /// dequantize them on the fly inside the fused kernels, so no f32 copy
    /// of a quantized weight is ever materialized. The network holds an
    /// `Arc` to the mapping, so it stays valid after the `MappedModel` is
    /// dropped.
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
            fn tensor(&mut self, name: &str, dims: &[usize]) -> Result<Tensor, CapsNetError> {
                let t = self
                    .0
                    .tensor(name)
                    .map_err(|e| CapsNetError::InvalidSpec(e.to_string()))?;
                if t.shape().dims() != dims {
                    return Err(CapsNetError::InvalidSpec(format!(
                        "stored tensor {name:?} has shape {:?}, model needs {dims:?}",
                        t.shape().dims()
                    )));
                }
                Ok(t)
            }
            fn weight(&mut self, name: &str, dims: &[usize]) -> Result<WeightView, CapsNetError> {
                let view = self
                    .0
                    .weight_view(name)
                    .map_err(|e| CapsNetError::InvalidSpec(e.to_string()))?;
                check_dims(name, &view, dims)?;
                Ok(view)
            }
        }
        let spec = self.spec.clone();
        Ok(CapsNet::from_views(&spec, &mut Source(self))?)
    }
}

// ── shared artifact handle ──────────────────────────────────────────────

/// A cheaply cloneable handle letting **many consumers wrap one mapping**.
///
/// `MappedModel::open` creates one `mmap` per call; N serve replicas each
/// opening the same path would hold N mappings (the page cache still
/// dedups the physical pages, but each handle re-verifies every checksum
/// and owns its own VMA). A `SharedArtifact` opens and verifies the
/// artifact **once** and shares the single [`MappedModel`] behind an
/// `Arc`: every [`SharedArtifact::capsnet`] call hands out networks whose
/// weight tensors are windows into the *same* buffer, so a whole replica
/// pool serves one physical copy of the weights.
///
/// The handle records the path it was opened from so supervisors can
/// re-open (or roll back to) the same artifact later.
#[derive(Debug, Clone)]
pub struct SharedArtifact {
    model: Arc<MappedModel>,
    path: std::path::PathBuf,
}

impl SharedArtifact {
    /// Opens and fully verifies the artifact at `path` once; clones of the
    /// returned handle share the mapping.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from [`MappedModel::open`].
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Ok(SharedArtifact {
            model: Arc::new(MappedModel::open(path)?),
            path: path.to_path_buf(),
        })
    }

    /// The shared mapped model.
    pub fn model(&self) -> &MappedModel {
        &self.model
    }

    /// The path the artifact was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The stored network specification.
    pub fn spec(&self) -> &CapsNetSpec {
        self.model.spec()
    }

    /// `true` when the shared image is a live memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.model.is_mapped()
    }

    /// Bytes of the single shared file image (counted **once**, however
    /// many handles or networks wrap it).
    pub fn image_len(&self) -> usize {
        self.model.image_len()
    }

    /// How many `SharedArtifact` handles currently share this mapping.
    /// Networks built by [`SharedArtifact::capsnet`] keep the underlying
    /// buffer alive independently of this count.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.model)
    }

    /// Builds a runnable network off the shared mapping — same semantics
    /// as [`MappedModel::capsnet`], but every network from every clone of
    /// this handle shares one backing buffer.
    ///
    /// # Errors
    ///
    /// See [`MappedModel::capsnet`].
    pub fn capsnet(&self) -> Result<CapsNet, StoreError> {
        self.model.capsnet()
    }
}
