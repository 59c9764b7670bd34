//! Quantized weight storage: int8 affine and IEEE-754 half precision.
//!
//! The streaming serve model's capsule weights (≈292 MB of `f32`) exceed
//! the last-level cache, so steady-state serving is memory-bandwidth-bound
//! — shrinking the bytes moved per forward pass is a direct speedup. This
//! module provides the storage side of that trade: a [`QuantTensor`] that
//! keeps weights in their quantized byte form (owned, or shared zero-copy
//! over an mmapped artifact via [`ByteBuf`]) plus the scalar reference
//! codecs. The register tile's strip loaders under [`crate::uhat_project`]
//! dequantize as they accumulate; quantized weights are never materialized
//! as an `f32` copy on the forward path.
//!
//! Quantization granularity is one affine `(scale, zero_point)` pair per
//! **vault partition** (the stored split of a weight's leading dimension),
//! mirroring the paper's per-vault weight distribution so every vault
//! shard stays self-contained. A block always covers whole rows of that
//! leading dimension.

use std::sync::Arc;

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;

// ── f16 codec ───────────────────────────────────────────────────────────
//
// Hand-rolled IEEE-754 binary16 conversions (the container has no `half`
// crate and none may be added). Decode is exact; encode rounds to nearest
// even, matching the hardware `VCVTPS2PH` rounding so the scalar path and
// the F16C path produce identical bytes.

/// Decodes one IEEE-754 binary16 value (given as its bit pattern) to f32.
/// Exact for every input: normals, subnormals, ±0, ±∞ and NaN.
#[inline]
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits >> 15) << 31;
    let exp = (bits >> 10) & 0x1F;
    let man = u32::from(bits & 0x3FF);
    let word = match (exp, man) {
        (0, 0) => sign, // signed zero
        (0, _) => {
            // Subnormal (value = man · 2⁻²⁴): normalize into f32. With the
            // mantissa MSB at bit 31 − lz, the unbiased exponent is
            // (31 − lz) − 24, i.e. a biased f32 exponent of 134 − lz.
            let lz = man.leading_zeros();
            let man32 = (man << (lz - 8)) & 0x007F_FFFF;
            sign | ((134 - lz) << 23) | man32
        }
        (0x1F, 0) => sign | 0x7F80_0000,               // infinity
        (0x1F, _) => sign | 0x7FC0_0000 | (man << 13), // NaN, payload preserved
        _ => sign | ((u32::from(exp) + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(word)
}

/// Encodes an `f32` to IEEE-754 binary16 bits, rounding to nearest even —
/// the same rounding the F16C `VCVTPS2PH` instruction uses, so artifacts
/// written by this codec dequantize identically through the scalar and
/// AVX2 kernels. NaNs are canonicalized to `0x7E00` (sign preserved) so a
/// stored NaN can never differ between decode paths over quiet bits.
#[inline]
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF {
        return if man == 0 {
            sign | 0x7C00 // infinity
        } else {
            sign | 0x7E00 // canonical quiet NaN
        };
    }
    let e = exp - 112; // biased binary16 exponent (15 - 127 offset)
    if e >= 0x1F {
        return sign | 0x7C00; // overflow to infinity
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow to signed zero
        }
        // Subnormal result: shift the (implicit-one restored) mantissa.
        let m = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let half = 1u32 << (shift - 1);
        let rounded = (m + half - 1 + ((m >> shift) & 1)) >> shift;
        return sign | rounded as u16;
    }
    // Normal result: round-to-nearest-even on the 13 dropped bits. A
    // mantissa carry propagates into the exponent arithmetically (possibly
    // up to infinity), which is exactly the IEEE behavior.
    let half = 1u32 << 12;
    let rounded = (man + half - 1 + ((man >> 13) & 1)) >> 13;
    sign | ((((e as u32) << 10) + rounded) as u16)
}

// ── block quantization ──────────────────────────────────────────────────

/// Element type of a quantized tensor section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantDType {
    /// Affine int8: `value = (q - zero_point) * scale` per block.
    I8,
    /// IEEE-754 binary16 (no affine parameters).
    F16,
}

impl QuantDType {
    /// Stored bytes per element.
    pub fn elem_bytes(self) -> usize {
        match self {
            QuantDType::I8 => 1,
            QuantDType::F16 => 2,
        }
    }

    /// Human-readable dtype label (used in bench JSON and error text).
    pub fn label(self) -> &'static str {
        match self {
            QuantDType::I8 => "int8",
            QuantDType::F16 => "fp16",
        }
    }
}

/// One quantization block: a contiguous run of elements sharing affine
/// parameters (one block per stored vault partition; `scale = 1`,
/// `zero_point = 0` for f16 where the parameters are unused).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantBlock {
    /// First logical element index covered by this block.
    pub start: usize,
    /// Elements in the block.
    pub elems: usize,
    /// Affine scale (int8 only; 1.0 otherwise).
    pub scale: f32,
    /// Affine zero point (int8 only; 0 otherwise).
    pub zero_point: i32,
}

/// Computes the affine parameters for one int8 block: a symmetric-free
/// min/max fit over the finite values, with the range widened to include
/// zero so `x = 0` quantizes to exactly `zero_point` (and dequantizes to
/// exactly `0.0` — the capsule kernels skip zero coefficients).
fn i8_block_params(values: &[f32]) -> (f32, i32) {
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    // The span is computed in f64: `hi - lo` can overflow f32 to +∞ when
    // the block spans ±f32::MAX, and an infinite scale poisons every
    // dequantization.
    let scale = if hi > lo {
        ((f64::from(hi) - f64::from(lo)) / 255.0) as f32
    } else {
        1.0
    };
    let scale = if scale > 0.0 && scale.is_finite() {
        scale
    } else {
        1.0
    };
    let zp = (-lo / scale).round() as i32 - 128;
    (scale, zp.clamp(-128, 127))
}

/// Quantizes one value with the block's affine parameters. NaN maps to the
/// zero point (dequantizes to exactly `0.0`); ±∞ saturate.
#[inline]
fn quantize_i8(x: f32, scale: f32, zero_point: i32) -> i8 {
    if x.is_nan() {
        return zero_point as i8;
    }
    if x == f32::INFINITY {
        return 127;
    }
    if x == f32::NEG_INFINITY {
        return -128;
    }
    ((x / scale).round() as i64 + i64::from(zero_point)).clamp(-128, 127) as i8
}

/// Dequantizes one int8 value (the scalar reference the strip loaders are
/// bit-exact to): an exact integer subtract, an exact int→f32 convert, and
/// one IEEE multiply.
#[inline]
fn dequantize_i8(q: i8, scale: f32, zero_point: i32) -> f32 {
    (i32::from(q) - zero_point) as f32 * scale
}

/// Quantizes a block of values to int8 bytes plus its affine parameters.
pub fn quantize_block_i8(values: &[f32]) -> (Vec<u8>, f32, i32) {
    let (scale, zp) = i8_block_params(values);
    let bytes = values
        .iter()
        .map(|&x| quantize_i8(x, scale, zp) as u8)
        .collect();
    (bytes, scale, zp)
}

/// Encodes a block of values as little-endian binary16 bytes.
pub fn encode_block_f16(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for &x in values {
        out.extend_from_slice(&f32_to_f16(x).to_le_bytes());
    }
    out
}

// ── quantized tensor storage ────────────────────────────────────────────

/// A shareable byte buffer backing zero-copy [`QuantTensor`] views — the
/// byte-oriented sibling of [`crate::TensorBuf`]. `Send + Sync` so shared
/// quantized weights cross the serving layer's worker threads.
pub trait ByteBuf: Send + Sync {
    /// The buffer's raw bytes (stable for the lifetime of the value).
    fn as_bytes(&self) -> &[u8];
}

impl ByteBuf for Vec<u8> {
    fn as_bytes(&self) -> &[u8] {
        self
    }
}

#[derive(Clone)]
enum QuantStorage {
    Owned(Vec<u8>),
    Shared {
        buf: Arc<dyn ByteBuf>,
        /// Byte offset of the tensor's payload inside the buffer.
        offset: usize,
        /// Payload length in bytes.
        len: usize,
    },
}

impl std::fmt::Debug for QuantStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantStorage::Owned(b) => write!(f, "Owned({} B)", b.len()),
            QuantStorage::Shared { offset, len, .. } => {
                write!(f, "Shared {{ offset: {offset}, len: {len} }}")
            }
        }
    }
}

/// A tensor stored in quantized byte form, dequantized on the fly by the
/// strip loaders under [`crate::uhat_project`] — the "typed quant view" the model layers
/// and the artifact readers exchange. Clones of shared-backed tensors are
/// `Arc` bumps, never byte copies (mirroring [`Tensor`]).
#[derive(Debug, Clone)]
pub struct QuantTensor {
    dtype: QuantDType,
    shape: Shape,
    storage: QuantStorage,
    blocks: Vec<QuantBlock>,
}

impl QuantTensor {
    fn validate(
        dtype: QuantDType,
        dims: &[usize],
        payload_len: usize,
        blocks: &[QuantBlock],
    ) -> Result<Shape, TensorError> {
        let shape = Shape::new(dims);
        let volume = shape.volume();
        if payload_len != volume * dtype.elem_bytes() {
            return Err(TensorError::LengthMismatch {
                expected: volume * dtype.elem_bytes(),
                actual: payload_len,
            });
        }
        // Blocks must tile 0..volume contiguously, in whole rows of the
        // leading dimension (so every start is a row boundary too): the
        // kernels read each row with one block's parameters.
        let row: usize = dims
            .get(1..)
            .map_or(1, |d| d.iter().product::<usize>().max(1));
        let mut next = 0usize;
        for b in blocks {
            if b.start != next || b.elems == 0 {
                return Err(TensorError::LengthMismatch {
                    expected: next,
                    actual: b.start,
                });
            }
            if b.elems % row != 0 {
                return Err(TensorError::LengthMismatch {
                    expected: b.elems.next_multiple_of(row),
                    actual: b.elems,
                });
            }
            next += b.elems;
        }
        if next != volume {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: next,
            });
        }
        Ok(shape)
    }

    /// A quantized tensor owning its payload bytes.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] when the payload length does not
    /// match `dims` × element size, or the blocks do not tile the volume
    /// in whole rows of the leading dimension.
    pub fn from_bytes(
        dtype: QuantDType,
        bytes: Vec<u8>,
        dims: &[usize],
        blocks: Vec<QuantBlock>,
    ) -> Result<Self, TensorError> {
        let shape = Self::validate(dtype, dims, bytes.len(), &blocks)?;
        Ok(QuantTensor {
            dtype,
            shape,
            storage: QuantStorage::Owned(bytes),
            blocks,
        })
    }

    /// A zero-copy quantized view over a shared byte buffer (the mmapped
    /// artifact path).
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] when the window exceeds the buffer
    /// or the blocks do not tile the volume in whole rows of the leading
    /// dimension.
    pub fn from_shared(
        dtype: QuantDType,
        buf: Arc<dyn ByteBuf>,
        offset: usize,
        dims: &[usize],
        blocks: Vec<QuantBlock>,
    ) -> Result<Self, TensorError> {
        let len = Shape::new(dims).volume() * dtype.elem_bytes();
        let avail = buf.as_bytes().len();
        if offset.checked_add(len).is_none_or(|end| end > avail) {
            return Err(TensorError::LengthMismatch {
                expected: offset + len,
                actual: avail,
            });
        }
        let shape = Self::validate(dtype, dims, len, &blocks)?;
        Ok(QuantTensor {
            dtype,
            shape,
            storage: QuantStorage::Shared { buf, offset, len },
            blocks,
        })
    }

    /// The element type.
    pub fn dtype(&self) -> QuantDType {
        self.dtype
    }

    /// The logical shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.shape.volume()
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes actually stored (the quantized footprint).
    pub fn size_bytes(&self) -> usize {
        self.len() * self.dtype.elem_bytes()
    }

    /// `true` when the payload is a zero-copy window over a shared buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self.storage, QuantStorage::Shared { .. })
    }

    /// The quantized payload bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.storage {
            QuantStorage::Owned(b) => b,
            QuantStorage::Shared { buf, offset, len } => &buf.as_bytes()[*offset..offset + len],
        }
    }

    /// The quantization blocks, in element order.
    pub fn blocks(&self) -> &[QuantBlock] {
        &self.blocks
    }

    /// The block covering logical element `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn block_at(&self, index: usize) -> &QuantBlock {
        assert!(index < self.len(), "element index out of range");
        let i = self.blocks.partition_point(|b| b.start + b.elems <= index);
        &self.blocks[i]
    }

    /// Materializes the tensor as owned `f32`s via the scalar reference
    /// codecs (load-time eager dequantization — the forward path never
    /// calls this).
    pub fn dequantize(&self) -> Tensor {
        let bytes = self.bytes();
        let mut data = Vec::with_capacity(self.len());
        match self.dtype {
            QuantDType::I8 => {
                for b in &self.blocks {
                    for &q in &bytes[b.start..b.start + b.elems] {
                        data.push(dequantize_i8(q as i8, b.scale, b.zero_point));
                    }
                }
            }
            QuantDType::F16 => {
                for pair in bytes.chunks_exact(2) {
                    data.push(f16_to_f32(u16::from_le_bytes([pair[0], pair[1]])));
                }
            }
        }
        // LINT-ALLOW(R2): dequantized length equals shape volume by construction of the quantized buffer
        Tensor::from_vec(data, self.shape.dims()).expect("volume matches by construction")
    }

    /// Quantizes an `f32` slice into a new owned tensor, one affine block
    /// per entry of `block_rows` (a split of the leading dimension, as the
    /// vault-aligned store layout produces). Pass a single block covering
    /// every row for per-tensor granularity.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] when `block_rows` does not sum to
    /// the leading dimension.
    pub fn quantize(
        dtype: QuantDType,
        data: &[f32],
        dims: &[usize],
        block_rows: &[usize],
    ) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        let leading = dims.first().copied().unwrap_or(1);
        let row_stride: usize = dims
            .get(1..)
            .map(|d| d.iter().product())
            .unwrap_or(1)
            .max(1);
        if block_rows.iter().sum::<usize>() != leading {
            return Err(TensorError::LengthMismatch {
                expected: leading,
                actual: block_rows.iter().sum(),
            });
        }
        let mut bytes = Vec::with_capacity(data.len() * dtype.elem_bytes());
        let mut blocks = Vec::with_capacity(block_rows.len());
        let mut start = 0usize;
        for &rows in block_rows {
            let elems = rows * row_stride;
            let chunk = &data[start..start + elems];
            match dtype {
                QuantDType::I8 => {
                    let (payload, scale, zp) = quantize_block_i8(chunk);
                    bytes.extend_from_slice(&payload);
                    blocks.push(QuantBlock {
                        start,
                        elems,
                        scale,
                        zero_point: zp,
                    });
                }
                QuantDType::F16 => {
                    bytes.extend_from_slice(&encode_block_f16(chunk));
                    blocks.push(QuantBlock {
                        start,
                        elems,
                        scale: 1.0,
                        zero_point: 0,
                    });
                }
            }
            start += elems;
        }
        Self::from_bytes(dtype, bytes, dims, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_decode_encode_roundtrips_every_bit_pattern() {
        // Exhaustive: decode must be exact, and encoding the decoded value
        // must restore the original bits (modulo NaN canonicalization).
        for bits in 0..=u16::MAX {
            let x = f16_to_f32(bits);
            let back = f32_to_f16(x);
            if x.is_nan() {
                let sign = bits & 0x8000;
                assert_eq!(back, sign | 0x7E00, "NaN 0x{bits:04X} not canonical");
            } else {
                assert_eq!(back, bits, "0x{bits:04X} -> {x} -> 0x{back:04X}");
            }
        }
    }

    #[test]
    fn f16_decode_known_values() {
        assert_eq!(f16_to_f32(0x3C00), 1.0);
        assert_eq!(f16_to_f32(0xC000), -2.0);
        assert_eq!(f16_to_f32(0x7BFF), 65504.0); // largest finite half
        assert_eq!(f16_to_f32(0x0001), 5.960_464_5e-8); // smallest subnormal
        assert_eq!(f16_to_f32(0x0400), 6.103_515_6e-5); // smallest normal
        assert_eq!(f16_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_to_f32(0x7C00), f32::INFINITY);
        assert_eq!(f16_to_f32(0xFC00), f32::NEG_INFINITY);
        assert!(f16_to_f32(0x7E00).is_nan());
    }

    #[test]
    fn f16_encode_rounds_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // ties go to the even mantissa (1.0).
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11)), 0x3C00);
        // Just above the tie rounds up.
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11) + 2f32.powi(-20)), 0x3C01);
        // Overflow saturates to infinity.
        assert_eq!(f32_to_f16(70000.0), 0x7C00);
        assert_eq!(f32_to_f16(-70000.0), 0xFC00);
        // 65520 is the rounding boundary to infinity.
        assert_eq!(f32_to_f16(65519.9), 0x7BFF);
        assert_eq!(f32_to_f16(65520.0), 0x7C00);
        // Tiny values underflow to signed zero.
        assert_eq!(f32_to_f16(1e-10), 0x0000);
        assert_eq!(f32_to_f16(-1e-10), 0x8000);
        // Subnormal edge: the largest subnormal stays subnormal, and a
        // value past the midpoint carries into the normal range (the
        // mantissa-carry-into-exponent path).
        assert_eq!(f32_to_f16(6.097_6e-5), 0x03FF);
        assert_eq!(f32_to_f16(6.100_6e-5), 0x0400);
    }

    #[test]
    fn i8_params_survive_full_f32_range() {
        // hi - lo overflows f32 here; the f64 path must keep scale finite.
        let (scale, zp) = i8_block_params(&[f32::MAX, f32::MIN, 0.0]);
        assert!(scale.is_finite() && scale > 0.0);
        assert!((-128..=127).contains(&zp));
        let q = quantize_i8(f32::MAX, scale, zp);
        assert!(dequantize_i8(q, scale, zp).is_finite());
    }

    #[test]
    fn i8_quantization_semantics() {
        let (scale, zp) = i8_block_params(&[-1.0, 0.0, 3.0]);
        // Range [-1, 3] over 255 steps.
        assert!((scale - 4.0 / 255.0).abs() < 1e-7);
        // Zero must quantize to the zero point and dequantize to exactly 0.
        assert_eq!(quantize_i8(0.0, scale, zp), zp as i8);
        assert_eq!(dequantize_i8(zp as i8, scale, zp), 0.0);
        // Specials are deterministic.
        assert_eq!(quantize_i8(f32::NAN, scale, zp), zp as i8);
        assert_eq!(quantize_i8(f32::INFINITY, scale, zp), 127);
        assert_eq!(quantize_i8(f32::NEG_INFINITY, scale, zp), -128);
        // Degenerate block (all zeros / non-finite) stays well-defined.
        let (s, z) = i8_block_params(&[0.0, f32::NAN]);
        assert_eq!((s, z), (1.0, -128));
        // Round-trip error is bounded by half a step.
        for &x in &[-1.0f32, -0.4, 0.0, 0.7, 2.9, 3.0] {
            let q = quantize_i8(x, scale, zp);
            assert!((dequantize_i8(q, scale, zp) - x).abs() <= scale * 0.5 + 1e-7);
        }
    }

    #[test]
    fn quantize_roundtrip_and_blocks() {
        let data: Vec<f32> = (0..48).map(|i| (i as f32 - 11.0) * 0.37).collect();
        let q = QuantTensor::quantize(QuantDType::I8, &data, &[6, 8], &[2, 2, 2]).unwrap();
        assert_eq!(q.blocks().len(), 3);
        assert_eq!(q.size_bytes(), 48);
        assert!(!q.is_shared());
        assert_eq!(q.block_at(0).start, 0);
        assert_eq!(q.block_at(16).start, 16);
        assert_eq!(q.block_at(47).start, 32);
        let deq = q.dequantize();
        assert_eq!(deq.shape().dims(), &[6, 8]);
        for (i, (a, b)) in deq.as_slice().iter().zip(&data).enumerate() {
            assert!((a - b).abs() <= q.block_at(i).scale, "{a} vs {b}");
        }

        let h = QuantTensor::quantize(QuantDType::F16, &data, &[6, 8], &[6]).unwrap();
        assert_eq!(h.size_bytes(), 96);
        for (a, b) in h.dequantize().as_slice().iter().zip(&data) {
            assert!((a - b).abs() <= b.abs() * 1e-3);
        }
    }

    #[test]
    fn shared_views_window_a_byte_buffer() {
        let data = vec![0.5f32; 16];
        let owned = QuantTensor::quantize(QuantDType::F16, &data, &[4, 4], &[4]).unwrap();
        let mut image = vec![0xAAu8; 8];
        image.extend_from_slice(owned.bytes());
        let buf: Arc<dyn ByteBuf> = Arc::new(image);
        let shared = QuantTensor::from_shared(
            QuantDType::F16,
            Arc::clone(&buf),
            8,
            &[4, 4],
            owned.blocks().to_vec(),
        )
        .unwrap();
        assert!(shared.is_shared());
        assert_eq!(shared.bytes(), owned.bytes());
        assert_eq!(
            shared.dequantize().as_slice(),
            owned.dequantize().as_slice()
        );
        // Windows past the end are rejected.
        assert!(QuantTensor::from_shared(
            QuantDType::F16,
            buf,
            12,
            &[4, 4],
            owned.blocks().to_vec(),
        )
        .is_err());
    }

    #[test]
    fn invalid_blocks_are_rejected() {
        let data = vec![1.0f32; 8];
        // Rows not summing to the leading dim.
        assert!(QuantTensor::quantize(QuantDType::I8, &data, &[4, 2], &[3]).is_err());
        // Gap between blocks.
        let bad = vec![
            QuantBlock {
                start: 0,
                elems: 4,
                scale: 1.0,
                zero_point: 0,
            },
            QuantBlock {
                start: 5,
                elems: 3,
                scale: 1.0,
                zero_point: 0,
            },
        ];
        assert!(QuantTensor::from_bytes(QuantDType::I8, vec![0; 8], &[8], bad).is_err());
        // Payload length mismatch.
        assert!(QuantTensor::from_bytes(
            QuantDType::F16,
            vec![0; 8],
            &[8],
            vec![QuantBlock {
                start: 0,
                elems: 8,
                scale: 1.0,
                zero_point: 0
            }],
        )
        .is_err());
    }

    #[test]
    fn blocks_splitting_a_leading_row_are_rejected() {
        // A [2, 3, 4] weight has 12-element rows; a block boundary at 10
        // would give the first row's last two elements the second block's
        // parameters.
        let block = |start, elems| QuantBlock {
            start,
            elems,
            scale: 0.5,
            zero_point: 3,
        };
        let split = vec![block(0, 10), block(10, 14)];
        let whole = vec![block(0, 12), block(12, 12)];
        let dims = [2, 3, 4];
        assert!(
            QuantTensor::from_bytes(QuantDType::I8, vec![0; 24], &dims, split.clone()).is_err()
        );
        assert!(QuantTensor::from_bytes(QuantDType::I8, vec![0; 24], &dims, whole.clone()).is_ok());
        let buf: Arc<dyn ByteBuf> = Arc::new(vec![0u8; 48]);
        for (dtype, blocks, ok) in [
            (QuantDType::I8, split.clone(), false),
            (QuantDType::F16, split, false),
            (QuantDType::I8, whole.clone(), true),
            (QuantDType::F16, whole, true),
        ] {
            let got = QuantTensor::from_shared(dtype, Arc::clone(&buf), 0, &dims, blocks);
            assert_eq!(got.is_ok(), ok, "{dtype:?}");
        }
    }

    #[test]
    fn quant_tensors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantTensor>();
    }
}
