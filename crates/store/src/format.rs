//! The on-disk artifact format: header, spec codec, tensor section table.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (64 B): magic "PIMCAPS\0" · version · layout · vaults │
//! │                tensor count · spec/table offsets · file len  │
//! │                header checksum                               │
//! ├──────────────────────────────────────────────────────────────┤
//! │ spec: the CapsNetSpec, hand-rolled little-endian binary,    │
//! │       followed by an 8-byte spec checksum                    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: per tensor — name · dtype · dims ·            │
//! │                partitions (offset, elems[, scale, zp])… ·    │
//! │                data checksum … then a table checksum         │
//! ├──────────────────────────────────────────────────────────────┤
//! │ data sections: little-endian payloads (f32 words, int8       │
//! │                bytes, or binary16 pairs), every partition    │
//! │                64-byte aligned (zero padding between)        │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Data offsets are absolute file offsets
//! and multiples of `DATA_ALIGN`, so an mmapped file can hand out `&[f32]`
//! views directly (the mapping base is page-aligned). Checksums are the
//! [`crate::hash`] 64-bit digest.
//!
//! # Versions
//!
//! * **v1** — every section is `f32`. Still written whenever no tensor is
//!   quantized, so unquantized artifacts stay byte-identical to what v1
//!   writers produced, and still read by this crate.
//! * **v2** — adds quantized section dtypes: `int8` (affine, with a
//!   per-partition `scale`/`zero_point` pair inline in the table record,
//!   so every vault shard stays self-contained) and `fp16` (IEEE binary16,
//!   no parameters). `f32` records encode identically in both versions.

use capsnet::{CapsNetSpec, RoutingAlgorithm};
use pim_tensor::QuantDType;

use crate::error::StoreError;

/// Artifact magic bytes.
const MAGIC: [u8; 8] = *b"PIMCAPS\0";
/// Current format version (v2: quantized section dtypes).
pub const FORMAT_VERSION: u32 = 2;
/// The original all-`f32` format version, still emitted for unquantized
/// artifacts (byte-identical output keeps old readers working).
pub const FORMAT_VERSION_F32: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Alignment of every tensor-partition data offset (and of the total file
/// length). 64 bytes covers a cache line and any SIMD load the kernels
/// use, and divides the 4 KiB pages mmap hands back.
pub(crate) const DATA_ALIGN: usize = 64;
/// The number of weight partitions the vault-aligned layout produces per
/// eligible tensor: one per vault, matching the 16 PEs/banks per vault of
/// the paper's intra-vault design (`hmc-sim` geometry, §5.2.1).
pub const DEFAULT_VAULT_WAYS: usize = 16;

/// How tensor data is laid out in the data area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every tensor is one contiguous section.
    Packed,
    /// Tensors whose leading dimension holds at least `vaults` rows are
    /// split into `vaults` partitions along that dimension using the same
    /// even-shares rule as `pim_capsnet::distribution::vault_shares`, each
    /// partition `DATA_ALIGN`-aligned — the stored image of the paper's
    /// per-vault weight partitioning, so per-vault slices can be carved
    /// out of the mapped file with zero copies.
    VaultAligned {
        /// Number of partitions (vault ways).
        vaults: usize,
    },
}

impl Layout {
    /// Wire encoding of the layout discriminant.
    pub(crate) fn code(&self) -> u32 {
        match self {
            Layout::Packed => 0,
            Layout::VaultAligned { .. } => 1,
        }
    }
}

/// Rounds `offset` up to the next `DATA_ALIGN` boundary.
pub fn align_up(offset: usize) -> usize {
    offset.div_ceil(DATA_ALIGN) * DATA_ALIGN
}

/// One stored partition of a tensor's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Absolute file offset of the partition's first byte (multiple of
    /// `DATA_ALIGN`).
    pub offset: u64,
    /// Elements in the partition (element size per [`SectionDtype`]).
    pub elems: u64,
}

/// Element type of a stored tensor section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionDtype {
    /// IEEE-754 single precision — the only v1 dtype.
    F32,
    /// Affine int8 with per-partition scale/zero-point (v2+).
    I8,
    /// IEEE-754 binary16 (v2+).
    F16,
}

impl SectionDtype {
    /// Wire code of the dtype.
    pub fn code(self) -> u8 {
        match self {
            SectionDtype::F32 => DTYPE_F32,
            SectionDtype::I8 => DTYPE_I8,
            SectionDtype::F16 => DTYPE_F16,
        }
    }

    /// Stored bytes per element.
    pub fn elem_bytes(self) -> usize {
        match self {
            SectionDtype::F32 => 4,
            SectionDtype::I8 => 1,
            SectionDtype::F16 => 2,
        }
    }

    /// The quantized element type, when this section is quantized.
    pub fn quant(self) -> Option<QuantDType> {
        match self {
            SectionDtype::F32 => None,
            SectionDtype::I8 => Some(QuantDType::I8),
            SectionDtype::F16 => Some(QuantDType::F16),
        }
    }
}

impl From<QuantDType> for SectionDtype {
    fn from(d: QuantDType) -> Self {
        match d {
            QuantDType::I8 => SectionDtype::I8,
            QuantDType::F16 => SectionDtype::F16,
        }
    }
}

/// The affine dequantization parameters of one stored int8 partition
/// (inline in its table record, so a vault shard is self-contained).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Affine scale.
    pub scale: f32,
    /// Affine zero point.
    pub zero_point: i32,
}

/// One tensor's section-table record.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorRecord {
    /// Canonical weight name (see `CapsNet::named_weights`).
    pub name: String,
    /// Stored element type.
    pub dtype: SectionDtype,
    /// Logical tensor dims (padding lives between partitions, never inside
    /// the recorded element counts).
    pub dims: Vec<usize>,
    /// The stored partitions, in logical element order.
    pub partitions: Vec<Partition>,
    /// Per-partition affine parameters — parallel to `partitions` for
    /// [`SectionDtype::I8`], empty otherwise.
    pub quant: Vec<QuantParams>,
    /// Checksum over the tensor's logical data bytes (partitions
    /// concatenated, padding excluded).
    pub checksum: u64,
}

impl TensorRecord {
    /// Total logical elements.
    pub fn elems(&self) -> u64 {
        self.partitions.iter().map(|p| p.elems).sum()
    }

    /// Stored bytes per element.
    pub fn elem_bytes(&self) -> u64 {
        self.dtype.elem_bytes() as u64
    }

    /// `true` when the partitions tile one contiguous byte range (so the
    /// whole tensor can be viewed zero-copy, not just its partitions).
    pub fn is_contiguous(&self) -> bool {
        self.partitions
            .windows(2)
            .all(|w| w[0].offset + w[0].elems * self.elem_bytes() == w[1].offset)
    }
}

/// The parsed artifact header.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Format version.
    pub version: u32,
    /// Data layout.
    pub layout: Layout,
    /// Tensor count.
    pub tensor_count: u32,
    /// Spec byte length (the spec always starts at [`HEADER_LEN`]).
    pub spec_len: u64,
    /// Section-table offset.
    pub table_off: u64,
    /// Section-table byte length (records plus trailing checksum).
    pub table_len: u64,
    /// Total file length the header commits to.
    pub file_len: u64,
}

impl Header {
    /// Serializes the header (exactly [`HEADER_LEN`] bytes, checksum last).
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.layout.code().to_le_bytes());
        let vaults = match self.layout {
            Layout::Packed => 0u32,
            Layout::VaultAligned { vaults } => vaults as u32,
        };
        out[16..20].copy_from_slice(&vaults.to_le_bytes());
        out[20..24].copy_from_slice(&self.tensor_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.spec_len.to_le_bytes());
        out[32..40].copy_from_slice(&self.table_off.to_le_bytes());
        out[40..48].copy_from_slice(&self.table_len.to_le_bytes());
        out[48..56].copy_from_slice(&self.file_len.to_le_bytes());
        let checksum = crate::hash::hash64(&out[..56]);
        out[56..64].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and validates a header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when `bytes` is shorter than the header,
    /// [`StoreError::BadMagic`] / [`StoreError::UnsupportedVersion`] /
    /// [`StoreError::Corrupt`] for the respective violations.
    pub fn decode(bytes: &[u8]) -> Result<Header, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        // LINT-ALLOW(R2): fixed-width header slice: the length check at fn entry proves 64 bytes
        let stored = u64::from_le_bytes(bytes[56..64].try_into().expect("8 bytes"));
        let computed = crate::hash::hash64(&bytes[..56]);
        if stored != computed {
            return Err(StoreError::Corrupt("header checksum mismatch".into()));
        }
        // LINT-ALLOW(R2): fixed-width header slice: the length check at fn entry proves 64 bytes
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version == 0 || version > FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        // LINT-ALLOW(R2): fixed-width header slice: the length check at fn entry proves 64 bytes
        let layout_code = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        // LINT-ALLOW(R2): fixed-width header slice: the length check at fn entry proves 64 bytes
        let vaults = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let layout = match layout_code {
            0 => Layout::Packed,
            1 if vaults >= 1 => Layout::VaultAligned {
                vaults: vaults as usize,
            },
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown layout code {other} (vaults {vaults})"
                )))
            }
        };
        Ok(Header {
            version,
            layout,
            // LINT-ALLOW(R2): fixed-width header slices: the length check at fn entry proves 64 bytes
            tensor_count: u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")),
            // LINT-ALLOW(R2): fixed-width header slice, same 64-byte bound
            spec_len: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
            // LINT-ALLOW(R2): fixed-width header slice, same 64-byte bound
            table_off: u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes")),
            // LINT-ALLOW(R2): fixed-width header slice, same 64-byte bound
            table_len: u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes")),
            // LINT-ALLOW(R2): fixed-width header slice, same 64-byte bound
            file_len: u64::from_le_bytes(bytes[48..56].try_into().expect("8 bytes")),
        })
    }
}

// ── little-endian cursor helpers ────────────────────────────────────────

/// Bounded little-endian reader over a byte slice.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Truncated {
                expected: (self.pos as u64).saturating_add(n as u64),
                actual: self.bytes.len() as u64,
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, StoreError> {
        // LINT-ALLOW(R2): take(2) just bounds-checked the slice to exactly 2 bytes
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        // LINT-ALLOW(R2): take(4) just bounds-checked the slice to exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        // LINT-ALLOW(R2): take(8) just bounds-checked the slice to exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub(crate) fn str(&mut self, len: usize) -> Result<String, StoreError> {
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("non-UTF-8 string in artifact".into()))
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }
}

// ── spec codec ──────────────────────────────────────────────────────────

fn push_u32(out: &mut Vec<u8>, v: usize) {
    // LINT-ALLOW(R2): callers pass lengths of in-memory spec fields, all far below u32::MAX
    out.extend_from_slice(&u32::try_from(v).expect("spec field fits u32").to_le_bytes());
}

/// Serializes a [`CapsNetSpec`] into the artifact's binary spec section.
pub fn encode_spec(spec: &CapsNetSpec) -> Vec<u8> {
    let mut out = Vec::new();
    push_u32(&mut out, spec.name.len());
    out.extend_from_slice(spec.name.as_bytes());
    for field in [
        spec.input_channels,
        spec.input_hw.0,
        spec.input_hw.1,
        spec.conv1_channels,
        spec.conv1_kernel,
        spec.conv1_stride,
        spec.primary_channels,
        spec.cl_dim,
        spec.primary_kernel,
        spec.primary_stride,
        spec.h_caps,
        spec.ch_dim,
        spec.routing_iterations,
    ] {
        push_u32(&mut out, field);
    }
    out.push(match spec.routing {
        RoutingAlgorithm::Dynamic => 0,
        RoutingAlgorithm::Em => 1,
    });
    out.push(u8::from(spec.batch_shared_routing));
    out.extend_from_slice(&spec.routing_sharpness.to_bits().to_le_bytes());
    push_u32(&mut out, spec.decoder_dims.len());
    for &d in &spec.decoder_dims {
        push_u32(&mut out, d);
    }
    out
}

/// Parses the binary spec section back into a [`CapsNetSpec`].
///
/// # Errors
///
/// [`StoreError::Truncated`] / [`StoreError::Corrupt`] on malformed input.
pub fn decode_spec(bytes: &[u8]) -> Result<CapsNetSpec, StoreError> {
    let mut c = Cursor::new(bytes);
    let name_len = c.u32()? as usize;
    let name = c.str(name_len)?;
    let mut fields = [0usize; 13];
    for f in &mut fields {
        *f = c.u32()? as usize;
    }
    let routing = match c.u8()? {
        0 => RoutingAlgorithm::Dynamic,
        1 => RoutingAlgorithm::Em,
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown routing algorithm code {other}"
            )))
        }
    };
    let batch_shared_routing = c.u8()? != 0;
    let routing_sharpness = c.f32()?;
    let decoder_count = c.u32()? as usize;
    if decoder_count > 1024 {
        return Err(StoreError::Corrupt(format!(
            "implausible decoder layer count {decoder_count}"
        )));
    }
    let mut decoder_dims = Vec::with_capacity(decoder_count);
    for _ in 0..decoder_count {
        decoder_dims.push(c.u32()? as usize);
    }
    if c.position() != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after spec".into()));
    }
    Ok(CapsNetSpec {
        name,
        input_channels: fields[0],
        input_hw: (fields[1], fields[2]),
        conv1_channels: fields[3],
        conv1_kernel: fields[4],
        conv1_stride: fields[5],
        primary_channels: fields[6],
        cl_dim: fields[7],
        primary_kernel: fields[8],
        primary_stride: fields[9],
        h_caps: fields[10],
        ch_dim: fields[11],
        routing_iterations: fields[12],
        routing,
        decoder_dims,
        routing_sharpness,
        batch_shared_routing,
    })
}

// ── section-table codec ─────────────────────────────────────────────────

/// dtype code for `f32` (the only supported element type in v1).
const DTYPE_F32: u8 = 1;
/// dtype code for affine int8 sections (v2+).
const DTYPE_I8: u8 = 2;
/// dtype code for binary16 sections (v2+).
const DTYPE_F16: u8 = 3;

/// Serializes the section table (records then table checksum). `f32`
/// records encode byte-identically in every version; int8 records carry a
/// `(scale, zero_point)` pair after each partition's `(offset, elems)`.
pub fn encode_table(records: &[TensorRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(
            &u16::try_from(r.name.len())
                // LINT-ALLOW(R2): name length is capped by the writer's validation before encoding
                .expect("weight names are short")
                .to_le_bytes(),
        );
        out.extend_from_slice(r.name.as_bytes());
        out.push(r.dtype.code());
        // LINT-ALLOW(R2): rank is capped at MAX_RANK (well under 255) by spec validation
        out.push(u8::try_from(r.dims.len()).expect("rank fits u8"));
        for &d in &r.dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(
            &u32::try_from(r.partitions.len())
                // LINT-ALLOW(R2): partition count is bounded by the vault count, a u32 by construction
                .expect("partition count fits u32")
                .to_le_bytes(),
        );
        if r.dtype == SectionDtype::I8 {
            assert_eq!(
                r.quant.len(),
                r.partitions.len(),
                "int8 record needs one affine parameter pair per partition"
            );
        }
        for (i, p) in r.partitions.iter().enumerate() {
            out.extend_from_slice(&p.offset.to_le_bytes());
            out.extend_from_slice(&p.elems.to_le_bytes());
            if r.dtype == SectionDtype::I8 {
                out.extend_from_slice(&r.quant[i].scale.to_bits().to_le_bytes());
                out.extend_from_slice(&r.quant[i].zero_point.to_le_bytes());
            }
        }
        out.extend_from_slice(&r.checksum.to_le_bytes());
    }
    let table_checksum = crate::hash::hash64(&out);
    out.extend_from_slice(&table_checksum.to_le_bytes());
    out
}

/// Parses and validates the section table. `version` gates which dtype
/// codes are admissible: v1 tables may only hold `f32` sections (anything
/// else is corruption, exactly as the v1 reader judged it), while v2
/// tables admit the quantized dtypes and report genuinely unknown codes as
/// the typed [`StoreError::UnsupportedDtype`] — a checksum-valid artifact
/// from a future format version is not "corrupt".
///
/// # Errors
///
/// [`StoreError::Truncated`] / [`StoreError::Corrupt`] /
/// [`StoreError::UnsupportedDtype`] on malformed input.
pub fn decode_table(
    bytes: &[u8],
    tensor_count: u32,
    version: u32,
) -> Result<Vec<TensorRecord>, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated {
            expected: 8,
            actual: bytes.len() as u64,
        });
    }
    let (body, stored_tail) = bytes.split_at(bytes.len() - 8);
    // LINT-ALLOW(R2): fixed-width trailer slice: the record length check above proves 8 bytes
    let stored = u64::from_le_bytes(stored_tail.try_into().expect("8 bytes"));
    if crate::hash::hash64(body) != stored {
        return Err(StoreError::Corrupt(
            "section-table checksum mismatch".into(),
        ));
    }
    // Bound the count against the smallest possible record before trusting
    // it with an allocation (every other count field is similarly bounded).
    let min_record_bytes = 2 + 1 + 1 + 4 + 16 + 8;
    if tensor_count as usize > body.len() / min_record_bytes {
        return Err(StoreError::Corrupt(format!(
            "tensor count {tensor_count} impossible for a {}-byte table",
            body.len()
        )));
    }
    let mut c = Cursor::new(body);
    let mut records = Vec::with_capacity(tensor_count as usize);
    for _ in 0..tensor_count {
        let name_len = c.u16()? as usize;
        let name = c.str(name_len)?;
        let code = c.u8()?;
        let dtype = match code {
            DTYPE_F32 => SectionDtype::F32,
            DTYPE_I8 | DTYPE_F16 if version >= 2 => {
                if code == DTYPE_I8 {
                    SectionDtype::I8
                } else {
                    SectionDtype::F16
                }
            }
            _ if version == 1 => {
                // v1 committed to f32-only; any other code means the table
                // bytes are lying about their version.
                return Err(StoreError::Corrupt(format!(
                    "tensor {name:?}: unsupported dtype code {code}"
                )));
            }
            _ => return Err(StoreError::UnsupportedDtype { name, code }),
        };
        let rank = c.u8()? as usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(c.u64()? as usize);
        }
        let parts = c.u32()? as usize;
        if parts == 0 || parts > 65_536 {
            return Err(StoreError::Corrupt(format!(
                "tensor {name:?}: implausible partition count {parts}"
            )));
        }
        let mut partitions = Vec::with_capacity(parts);
        let mut quant = Vec::new();
        for _ in 0..parts {
            partitions.push(Partition {
                offset: c.u64()?,
                elems: c.u64()?,
            });
            if dtype == SectionDtype::I8 {
                let scale = c.f32()?;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(StoreError::Corrupt(format!(
                        "tensor {name:?}: non-positive int8 scale {scale}"
                    )));
                }
                let zero_point = c.u32()? as i32;
                if !(-128..=127).contains(&zero_point) {
                    return Err(StoreError::Corrupt(format!(
                        "tensor {name:?}: int8 zero point {zero_point} out of range"
                    )));
                }
                quant.push(QuantParams { scale, zero_point });
            }
        }
        let checksum = c.u64()?;
        let record = TensorRecord {
            name,
            dtype,
            dims,
            partitions,
            quant,
            checksum,
        };
        // Both reductions are over forgeable values: a crafted table can
        // carry dims or partition element counts near u64::MAX, so plain
        // product/sum would abort debug builds on overflow instead of
        // returning the typed error.
        let volume = record
            .dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64));
        let elems = record
            .partitions
            .iter()
            .try_fold(0u64, |acc, p| acc.checked_add(p.elems));
        match (volume, elems) {
            (Some(v), Some(e)) if v == e => {}
            _ => {
                return Err(StoreError::Corrupt(format!(
                    "tensor {:?}: dims {:?} disagree with stored partitions (or overflow)",
                    record.name, record.dims,
                )));
            }
        }
        records.push(record);
    }
    if c.position() != body.len() {
        return Err(StoreError::Corrupt(
            "trailing bytes after section table".into(),
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            version: FORMAT_VERSION,
            layout: Layout::VaultAligned { vaults: 16 },
            tensor_count: 9,
            spec_len: 90,
            table_off: 154,
            table_len: 400,
            file_len: 4096,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn header_rejects_corruption() {
        let h = header();
        let good = h.encode();
        assert!(matches!(
            Header::decode(&good[..HEADER_LEN - 1]),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad_magic = good;
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Header::decode(&bad_magic),
            Err(StoreError::BadMagic)
        ));
        // A flipped payload byte fails the header checksum…
        let mut flipped = h.encode();
        flipped[21] ^= 0x01;
        assert!(matches!(
            Header::decode(&flipped),
            Err(StoreError::Corrupt(_))
        ));
        // …and a wrong version (with a recomputed checksum) is refused.
        let mut future = h;
        future.version = FORMAT_VERSION + 7;
        assert!(matches!(
            Header::decode(&future.encode()),
            Err(StoreError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 7
        ));
    }

    #[test]
    fn spec_roundtrip() {
        let mut spec = capsnet::CapsNetSpec::tiny_for_tests();
        spec.routing_sharpness = 2.75;
        spec.batch_shared_routing = false;
        let decoded = decode_spec(&encode_spec(&spec)).unwrap();
        assert_eq!(decoded, spec);
        let mut em = capsnet::CapsNetSpec::mnist();
        em.routing = RoutingAlgorithm::Em;
        assert_eq!(decode_spec(&encode_spec(&em)).unwrap(), em);
    }

    #[test]
    fn spec_rejects_truncation_and_garbage() {
        let spec = capsnet::CapsNetSpec::tiny_for_tests();
        let bytes = encode_spec(&spec);
        assert!(decode_spec(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_spec(&trailing).is_err());
    }

    #[test]
    fn table_roundtrip_and_checksum() {
        let records = vec![
            TensorRecord {
                name: "caps.weight".into(),
                dtype: SectionDtype::F32,
                dims: vec![16, 4, 18],
                partitions: vec![
                    Partition {
                        offset: 512,
                        elems: 576,
                    },
                    Partition {
                        offset: 512 + 576 * 4,
                        elems: 576,
                    },
                ],
                quant: vec![],
                checksum: 0xDEAD_BEEF,
            },
            TensorRecord {
                name: "conv1.bias".into(),
                dtype: SectionDtype::F32,
                dims: vec![8],
                partitions: vec![Partition {
                    offset: 5120,
                    elems: 8,
                }],
                quant: vec![],
                checksum: 7,
            },
        ];
        let bytes = encode_table(&records);
        // f32-only tables decode identically under both format versions.
        assert_eq!(decode_table(&bytes, 2, 1).unwrap(), records);
        assert_eq!(decode_table(&bytes, 2, 2).unwrap(), records);
        assert!(records[0].is_contiguous());
        // Flip one byte anywhere: the table checksum must catch it.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                decode_table(&bad, 2, 2).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn quantized_table_roundtrip() {
        let records = vec![
            TensorRecord {
                name: "caps.weight".into(),
                dtype: SectionDtype::I8,
                dims: vec![16, 4, 18],
                partitions: vec![
                    Partition {
                        offset: 512,
                        elems: 576,
                    },
                    Partition {
                        offset: 512 + 576,
                        elems: 576,
                    },
                ],
                quant: vec![
                    QuantParams {
                        scale: 0.01,
                        zero_point: -3,
                    },
                    QuantParams {
                        scale: 0.02,
                        zero_point: 17,
                    },
                ],
                checksum: 0xFEED,
            },
            TensorRecord {
                name: "decoder.0.weight".into(),
                dtype: SectionDtype::F16,
                dims: vec![8, 4],
                partitions: vec![Partition {
                    offset: 2048,
                    elems: 32,
                }],
                quant: vec![],
                checksum: 9,
            },
        ];
        let bytes = encode_table(&records);
        let decoded = decode_table(&bytes, 2, 2).unwrap();
        assert_eq!(decoded, records);
        // int8 partitions tile contiguously at 1 byte/elem.
        assert!(decoded[0].is_contiguous());
        assert_eq!(decoded[0].elem_bytes(), 1);
        assert_eq!(decoded[1].elem_bytes(), 2);
        // A v1 reader judges quantized dtypes as corruption (v1 committed
        // to f32-only)…
        assert!(matches!(
            decode_table(&bytes, 2, 1),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_future_dtype_is_typed_not_corrupt() {
        // A checksum-valid v2 table declaring a dtype this reader has
        // never heard of: typed UnsupportedDtype, not Corrupt.
        let records = vec![TensorRecord {
            name: "w".into(),
            dtype: SectionDtype::F32,
            dims: vec![4],
            partitions: vec![Partition {
                offset: 64,
                elems: 4,
            }],
            quant: vec![],
            checksum: 0,
        }];
        let mut bytes = encode_table(&records);
        // name_len(2) + "w"(1) → dtype at offset 3; re-seal the checksum.
        bytes[3] = 9;
        let body_len = bytes.len() - 8;
        let sum = crate::hash::hash64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        match decode_table(&bytes, 1, 2) {
            Err(StoreError::UnsupportedDtype { name, code }) => {
                assert_eq!(name, "w");
                assert_eq!(code, 9);
            }
            other => panic!("expected UnsupportedDtype, got {other:?}"),
        }
    }

    #[test]
    fn int8_table_rejects_garbage_affine_params() {
        let mk = |scale: f32, zp: i32| {
            let records = vec![TensorRecord {
                name: "w".into(),
                dtype: SectionDtype::I8,
                dims: vec![4],
                partitions: vec![Partition {
                    offset: 64,
                    elems: 4,
                }],
                quant: vec![QuantParams {
                    scale,
                    zero_point: zp,
                }],
                checksum: 0,
            }];
            decode_table(&encode_table(&records), 1, 2)
        };
        assert!(mk(0.5, 0).is_ok());
        for (scale, zp) in [
            (0.0, 0),
            (-1.0, 0),
            (f32::NAN, 0),
            (f32::INFINITY, 0),
            (0.5, 128),
            (0.5, -129),
        ] {
            assert!(
                matches!(mk(scale, zp), Err(StoreError::Corrupt(_))),
                "scale {scale} zp {zp} accepted"
            );
        }
    }

    #[test]
    fn table_rejects_dim_partition_disagreement() {
        let records = vec![TensorRecord {
            name: "w".into(),
            dtype: SectionDtype::F32,
            dims: vec![4, 4],
            partitions: vec![Partition {
                offset: 64,
                elems: 15,
            }],
            quant: vec![],
            checksum: 0,
        }];
        let bytes = encode_table(&records);
        assert!(matches!(
            decode_table(&bytes, 1, 2),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn alignment_helper() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
    }
}
