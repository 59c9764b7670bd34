//! The artifact writer: plans the layout, streams the weights out with
//! checksums, and publishes the file atomically (write-temp-then-rename),
//! so a reader — or a serving process hot-reloading the path — never
//! observes a half-written artifact.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;

use capsnet::{CapsNet, WeightRef};
use pim_capsnet::distribution::vault_shares;
use pim_tensor::{encode_block_f16, quantize_block_i8, QuantDType};

use crate::error::StoreError;
use crate::format::{
    align_up, encode_spec, encode_table, Header, Layout, Partition, QuantParams, SectionDtype,
    TensorRecord, DEFAULT_VAULT_WAYS, FORMAT_VERSION, FORMAT_VERSION_F32, HEADER_LEN,
};
use crate::hash::Hasher;

/// Which weights to quantize at save time, and how.
///
/// Quantization happens **per stored vault partition**: each partition of
/// an int8 section gets its own affine `scale`/`zero_point` fitted over
/// just its rows (recorded inline in the section table), so every vault
/// shard dequantizes without touching any other shard's metadata.
///
/// # Examples
///
/// ```
/// use pim_store::QuantSpec;
/// use pim_tensor::QuantDType;
///
/// // Every rank ≥ 2 `*.weight` tensor becomes int8; biases stay f32.
/// let all_i8 = QuantSpec::weights(QuantDType::I8);
/// assert!(all_i8.resolve("caps.weight", &[16, 4, 18]).is_some());
/// assert!(all_i8.resolve("conv1.bias", &[16]).is_none());
/// assert!(QuantSpec::new().resolve("caps.weight", &[16, 4, 18]).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QuantSpec {
    dtype: Option<QuantDType>,
}

impl QuantSpec {
    /// An empty spec: nothing is quantized (pure-f32, v1 artifact).
    pub fn new() -> Self {
        QuantSpec::default()
    }

    /// Every `*.weight` tensor of rank ≥ 2 is stored as `dtype`. Biases
    /// and other vectors always stay f32 — they are tiny, and keeping them
    /// exact costs nothing.
    pub fn weights(dtype: QuantDType) -> Self {
        QuantSpec { dtype: Some(dtype) }
    }

    /// `true` when no weight would be quantized.
    pub fn is_empty(&self) -> bool {
        self.dtype.is_none()
    }

    /// The stored dtype for `name` with logical `dims`, if quantized.
    pub fn resolve(&self, name: &str, dims: &[usize]) -> Option<QuantDType> {
        self.dtype
            .filter(|_| name.ends_with(".weight") && dims.len() >= 2)
    }
}

/// What one [`ModelWriter::save`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Total artifact size on disk, bytes (including alignment padding).
    pub bytes: u64,
    /// Tensors written.
    pub tensors: usize,
    /// Partitions written (> `tensors` in vault-aligned mode).
    pub partitions: usize,
}

/// Writes [`CapsNet`] weight artifacts.
///
/// # Examples
///
/// ```no_run
/// use capsnet::{CapsNet, CapsNetSpec};
/// use pim_store::ModelWriter;
///
/// let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 1).unwrap();
/// ModelWriter::new().save(&net, "model.pimcaps".as_ref()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ModelWriter {
    layout: Layout,
    quant: QuantSpec,
}

impl Default for ModelWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelWriter {
    /// A writer using the packed layout (each tensor one contiguous
    /// section).
    pub fn new() -> Self {
        ModelWriter {
            layout: Layout::Packed,
            quant: QuantSpec::new(),
        }
    }

    /// A writer using the vault-aligned layout with the default
    /// [`DEFAULT_VAULT_WAYS`]-way partitioning (the per-vault PE count of
    /// the paper's intra-vault design).
    pub fn vault_aligned() -> Self {
        Self::new().with_layout(Layout::VaultAligned {
            vaults: DEFAULT_VAULT_WAYS,
        })
    }

    /// Overrides the layout.
    fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Quantizes weights at save time per `spec`. With a non-empty spec
    /// the artifact is written as format v2; an empty spec keeps the
    /// byte-identical v1 output.
    pub fn with_quant(mut self, spec: QuantSpec) -> Self {
        self.quant = spec;
        self
    }

    /// The layout this writer produces.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The quantization spec applied at save time.
    pub fn quant(&self) -> &QuantSpec {
        &self.quant
    }

    /// Serializes `net` (spec + every weight) to `path`, atomically: the
    /// bytes land in a sibling temp file first and are renamed over `path`
    /// only after a successful flush + fsync.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::Corrupt`]
    /// if the vault count is zero, or when `net` holds weights that are
    /// *already* quantized (quantization is lossy — a faithful re-save
    /// needs the f32 source model).
    pub fn save(&self, net: &CapsNet, path: &Path) -> Result<SaveReport, StoreError> {
        if let Layout::VaultAligned { vaults } = self.layout {
            if vaults == 0 {
                return Err(StoreError::Corrupt("vault count must be >= 1".into()));
            }
        }
        let weights = net.named_weights();
        let spec_bytes = encode_spec(net.spec());

        // Plan partition element counts (offsets come after we know the
        // table length, which is itself independent of the offset values —
        // offsets are fixed-width). Quantized payloads are produced here
        // too: partition boundaries are also quantization-block
        // boundaries, so each vault shard is fitted (and later
        // dequantized) independently.
        let mut records: Vec<TensorRecord> = Vec::with_capacity(weights.len());
        let mut payloads: Vec<Option<Vec<Vec<u8>>>> = Vec::with_capacity(weights.len());
        for (name, weight) in &weights {
            let tensor = match weight {
                WeightRef::F32(t) => t,
                WeightRef::Quant(q) => {
                    return Err(StoreError::Corrupt(format!(
                        "weight {name:?} is held as {} quantized bytes; saving a                          quantized network would re-quantize lossy data — save from                          the f32 source model instead",
                        q.dtype().label()
                    )))
                }
            };
            let dims = tensor.shape().dims().to_vec();
            let partitions = plan_partitions(&dims, self.layout);
            match self.quant.resolve(name, &dims) {
                None => {
                    let mut hasher = Hasher::new();
                    hasher.update(&f32_le_bytes(tensor.as_slice()));
                    records.push(TensorRecord {
                        name: name.to_string(),
                        dtype: SectionDtype::F32,
                        dims,
                        partitions,
                        quant: vec![],
                        checksum: hasher.finish(),
                    });
                    payloads.push(None);
                }
                Some(dtype) => {
                    let data = tensor.as_slice();
                    let mut hasher = Hasher::new();
                    let mut parts = Vec::with_capacity(partitions.len());
                    let mut params = Vec::new();
                    let mut consumed = 0usize;
                    for p in &partitions {
                        let values = &data[consumed..consumed + p.elems as usize];
                        consumed += values.len();
                        let bytes = match dtype {
                            QuantDType::I8 => {
                                let (bytes, scale, zero_point) = quantize_block_i8(values);
                                params.push(QuantParams { scale, zero_point });
                                bytes
                            }
                            QuantDType::F16 => encode_block_f16(values),
                        };
                        hasher.update(&bytes);
                        parts.push(bytes);
                    }
                    records.push(TensorRecord {
                        name: name.to_string(),
                        dtype: dtype.into(),
                        dims,
                        partitions,
                        quant: params,
                        checksum: hasher.finish(),
                    });
                    payloads.push(Some(parts));
                }
            }
        }
        // Unquantized artifacts keep the v1 wire format bit-for-bit (f32
        // records encode identically in both versions); any quantized
        // section bumps the artifact to v2.
        let version = if records.iter().any(|r| r.dtype != SectionDtype::F32) {
            FORMAT_VERSION
        } else {
            FORMAT_VERSION_F32
        };

        // Assign aligned data offsets. The spec section carries an 8-byte
        // trailing checksum (header and table have their own).
        let table_off = HEADER_LEN + spec_bytes.len() + 8;
        let table_len = encode_table(&records).len();
        let mut offset = align_up(table_off + table_len);
        let mut partitions = 0usize;
        for r in &mut records {
            let elem_bytes = r.dtype.elem_bytes();
            for p in &mut r.partitions {
                offset = align_up(offset);
                p.offset = offset as u64;
                offset += p.elems as usize * elem_bytes;
                partitions += 1;
            }
        }
        let file_len = align_up(offset);

        let header = Header {
            version,
            layout: self.layout,
            tensor_count: records.len() as u32,
            spec_len: spec_bytes.len() as u64,
            table_off: table_off as u64,
            table_len: table_len as u64,
            file_len: file_len as u64,
        };

        // Stream everything into a temp file next to the destination.
        let tmp = temp_sibling(path);
        let result = (|| -> Result<(), StoreError> {
            let file = std::fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
            w.write_all(&header.encode())?;
            w.write_all(&spec_bytes)?;
            w.write_all(&crate::hash::hash64(&spec_bytes).to_le_bytes())?;
            let table = encode_table(&records);
            debug_assert_eq!(table.len(), table_len);
            w.write_all(&table)?;
            let mut written = table_off + table_len;
            for ((r, (_, weight)), payload) in records.iter().zip(&weights).zip(&payloads) {
                match payload {
                    Some(parts) => {
                        for (p, bytes) in r.partitions.iter().zip(parts) {
                            let pad = p.offset as usize - written;
                            w.write_all(&vec![0u8; pad])?;
                            w.write_all(bytes)?;
                            written = p.offset as usize + bytes.len();
                        }
                    }
                    None => {
                        let data = weight.expect_f32().as_slice();
                        let mut consumed = 0usize;
                        for p in &r.partitions {
                            let pad = p.offset as usize - written;
                            w.write_all(&vec![0u8; pad])?;
                            let part = &data[consumed..consumed + p.elems as usize];
                            w.write_all(&f32_le_bytes(part))?;
                            written = p.offset as usize + part.len() * 4;
                            consumed += part.len();
                        }
                    }
                }
            }
            w.write_all(&vec![0u8; file_len - written])?;
            let file = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
            file.sync_all()?;
            Ok(())
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, path)?;
        Ok(SaveReport {
            bytes: file_len as u64,
            tensors: records.len(),
            partitions,
        })
    }
}

/// Splits a tensor into stored partitions per the layout. Vault-aligned
/// partitioning applies to weight matrices/tensors (rank ≥ 2) whose
/// leading dimension can feed every vault; everything else stays whole.
fn plan_partitions(dims: &[usize], layout: Layout) -> Vec<Partition> {
    let volume: usize = dims.iter().product();
    match layout {
        Layout::VaultAligned { vaults } if dims.len() >= 2 && dims[0] >= vaults && volume > 0 => {
            let row_stride: usize = dims[1..].iter().product();
            vault_shares(dims[0], vaults)
                .into_iter()
                .map(|rows| Partition {
                    offset: 0,
                    elems: (rows * row_stride) as u64,
                })
                .collect()
        }
        _ => vec![Partition {
            offset: 0,
            elems: volume as u64,
        }],
    }
}

/// The little-endian byte image of an `f32` slice. Borrowed (zero-copy)
/// on little-endian hosts; converted on big-endian ones so artifacts are
/// portable.
fn f32_le_bytes(data: &[f32]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: f32 and [u8; 4] have the same size; u8 has alignment 1,
        // so any f32 pointer is valid for the reinterpretation, and the
        // lifetime is tied to `data` by the signature.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 4)
        })
    }
    #[cfg(target_endian = "big")]
    {
        let mut out = Vec::with_capacity(data.len() * 4);
        for x in data {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Cow::Owned(out)
    }
}

/// A unique temp path next to `path` (same filesystem, so the final
/// rename is atomic).
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".into());
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    path.with_file_name(format!(".{file_name}.tmp.{}.{nonce}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_planning() {
        // Packed: always one partition.
        assert_eq!(plan_partitions(&[100, 8], Layout::Packed).len(), 1);
        // Vault-aligned splits rank-2+ tensors with enough rows…
        let parts = plan_partitions(&[100, 8], Layout::VaultAligned { vaults: 16 });
        assert_eq!(parts.len(), 16);
        let total: u64 = parts.iter().map(|p| p.elems).sum();
        assert_eq!(total, 800);
        // ⌈100/16⌉ = 7 rows → 56 elems max share, matching vault_shares.
        assert_eq!(parts.iter().map(|p| p.elems).max(), Some(56));
        // …but biases and thin tensors stay whole.
        assert_eq!(
            plan_partitions(&[8], Layout::VaultAligned { vaults: 16 }).len(),
            1
        );
        assert_eq!(
            plan_partitions(&[10, 4], Layout::VaultAligned { vaults: 16 }).len(),
            1
        );
    }

    #[test]
    fn le_bytes_roundtrip() {
        let data = [1.5f32, -0.0, f32::NAN, f32::INFINITY];
        let bytes = f32_le_bytes(&data);
        assert_eq!(bytes.len(), 16);
        for (i, x) in data.iter().enumerate() {
            let bits = u32::from_le_bytes(bytes[i * 4..(i + 1) * 4].try_into().unwrap());
            assert_eq!(bits, x.to_bits());
        }
    }
}
