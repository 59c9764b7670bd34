//! Typed weight views: every layer weight is either a dense `f32`
//! [`Tensor`] or a [`QuantTensor`] whose bytes are dequantized on the fly
//! by the fused [`pim_tensor::simd`] kernels.
//!
//! [`WeightView`] is the owned storage the layers hold; [`WeightRef`] is
//! the borrowed form [`crate::CapsNet::named_weights`] hands out so
//! writers and censuses can account for both storage kinds without
//! materializing `f32` copies of quantized weights.

use pim_tensor::{QuantTensor, Tensor};

/// An owned (or zero-copy shared) weight: dense `f32` or quantized bytes.
#[derive(Debug, Clone)]
pub enum WeightView {
    /// Dense IEEE-754 single precision (the default).
    F32(Tensor),
    /// Quantized storage (int8 affine or fp16), dequantized on the fly.
    Quant(QuantTensor),
}

impl WeightView {
    /// The logical tensor dims.
    pub fn dims(&self) -> &[usize] {
        match self {
            WeightView::F32(t) => t.shape().dims(),
            WeightView::Quant(q) => q.shape().dims(),
        }
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        match self {
            WeightView::F32(t) => t.len(),
            WeightView::Quant(q) => q.len(),
        }
    }

    /// `true` when the weight has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes actually stored (4 per element for `f32`, 1–2 when quantized).
    pub fn size_bytes(&self) -> usize {
        match self {
            WeightView::F32(t) => t.size_bytes(),
            WeightView::Quant(q) => q.size_bytes(),
        }
    }

    /// `true` when the storage is a zero-copy window over a shared buffer.
    pub fn is_shared(&self) -> bool {
        match self {
            WeightView::F32(t) => t.is_shared(),
            WeightView::Quant(q) => q.is_shared(),
        }
    }

    /// The dense tensor, when this view is `f32`.
    pub fn as_f32(&self) -> Option<&Tensor> {
        match self {
            WeightView::F32(t) => Some(t),
            WeightView::Quant(_) => None,
        }
    }

    /// The dense tensor's data slice.
    ///
    /// # Panics
    ///
    /// Panics when the weight is quantized — callers that can meet a
    /// quantized weight must match on the view instead.
    pub fn as_slice(&self) -> &[f32] {
        self.expect_f32().as_slice()
    }

    /// The dense tensor.
    ///
    /// # Panics
    ///
    /// Panics when the weight is quantized.
    pub fn expect_f32(&self) -> &Tensor {
        match self {
            WeightView::F32(t) => t,
            WeightView::Quant(q) => panic!(
                "expected an f32 weight, found {} quantized storage",
                q.dtype().label()
            ),
        }
    }

    /// A borrowed [`WeightRef`] of this view.
    pub fn as_ref(&self) -> WeightRef<'_> {
        match self {
            WeightView::F32(t) => WeightRef::F32(t),
            WeightView::Quant(q) => WeightRef::Quant(q),
        }
    }
}

impl From<Tensor> for WeightView {
    fn from(t: Tensor) -> Self {
        WeightView::F32(t)
    }
}

impl From<QuantTensor> for WeightView {
    fn from(q: QuantTensor) -> Self {
        WeightView::Quant(q)
    }
}

/// A borrowed weight: what [`crate::CapsNet::named_weights`] yields.
#[derive(Debug, Clone, Copy)]
pub enum WeightRef<'a> {
    /// Dense `f32` storage.
    F32(&'a Tensor),
    /// Quantized storage.
    Quant(&'a QuantTensor),
}

impl<'a> WeightRef<'a> {
    /// The logical tensor dims.
    pub fn dims(&self) -> &[usize] {
        match self {
            WeightRef::F32(t) => t.shape().dims(),
            WeightRef::Quant(q) => q.shape().dims(),
        }
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        match self {
            WeightRef::F32(t) => t.len(),
            WeightRef::Quant(q) => q.len(),
        }
    }

    /// `true` when the weight has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes actually stored.
    pub fn size_bytes(&self) -> usize {
        match self {
            WeightRef::F32(t) => t.size_bytes(),
            WeightRef::Quant(q) => q.size_bytes(),
        }
    }

    /// `true` when the storage is a zero-copy shared window.
    pub fn is_shared(&self) -> bool {
        match self {
            WeightRef::F32(t) => t.is_shared(),
            WeightRef::Quant(q) => q.is_shared(),
        }
    }

    /// The dense tensor, when this ref is `f32`.
    pub fn as_f32(&self) -> Option<&'a Tensor> {
        match self {
            WeightRef::F32(t) => Some(t),
            WeightRef::Quant(_) => None,
        }
    }

    /// The dense tensor.
    ///
    /// # Panics
    ///
    /// Panics when the weight is quantized.
    pub fn expect_f32(&self) -> &'a Tensor {
        match self {
            WeightRef::F32(t) => t,
            WeightRef::Quant(q) => panic!(
                "expected an f32 weight, found {} quantized storage",
                q.dtype().label()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_tensor::QuantDType;

    #[test]
    fn view_accounting_covers_both_kinds() {
        let t = Tensor::uniform(&[4, 8], -1.0, 1.0, 7);
        let q = QuantTensor::quantize(QuantDType::I8, t.as_slice(), &[4, 8], &[4]).unwrap();
        let dense = WeightView::from(t.clone());
        let quant = WeightView::from(q);
        assert_eq!(dense.dims(), quant.dims());
        assert_eq!(dense.len(), 32);
        assert_eq!(dense.size_bytes(), 128);
        assert_eq!(quant.size_bytes(), 32);
        assert!(dense.as_f32().is_some() && quant.as_f32().is_none());
        assert!(matches!(quant, WeightView::Quant(_)));
        assert_eq!(dense.as_slice(), t.as_slice());
        assert!(!dense.is_shared() && !quant.is_shared());
        assert_eq!(quant.as_ref().size_bytes(), 32);
        assert!(matches!(quant.as_ref(), WeightRef::Quant(_)));
    }

    #[test]
    #[should_panic(expected = "expected an f32 weight")]
    fn expect_f32_panics_on_quantized() {
        let q = QuantTensor::quantize(QuantDType::F16, &[1.0, 2.0], &[2], &[2]).unwrap();
        let _ = WeightView::from(q).as_slice();
    }
}
