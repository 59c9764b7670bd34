//! Fully-connected decoder layers (Fig 2's reconstruction stack).

use pim_tensor::{matmul_into, simd, QuantDType, Tensor};

use crate::error::CapsNetError;
use crate::layers::conv::Activation;
use crate::weights::{WeightRef, WeightView};

/// A dense layer `y = act(x·W + b)`.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weight: WeightView, // [in, out]
    bias: Tensor,       // [out]
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with seeded Xavier-style weights.
    pub fn seeded(input: usize, output: usize, activation: Activation, seed: u64) -> Self {
        let std = (1.0 / input as f32).sqrt();
        DenseLayer {
            weight: WeightView::F32(Tensor::randn(&[input, output], std, seed)),
            bias: Tensor::zeros(&[output]),
            activation,
        }
    }

    /// Creates a layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] when the weight is not a
    /// matrix or the bias length does not match its output width.
    pub fn from_weights(
        weight: Tensor,
        bias: Tensor,
        activation: Activation,
    ) -> Result<Self, CapsNetError> {
        Self::from_weight_view(WeightView::F32(weight), bias, activation)
    }

    /// [`Self::from_weights`] over a typed [`WeightView`] — the path
    /// quantized artifacts load through. Quantized weights stay in byte
    /// form and dequantize on the fly inside [`Self::forward_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] when the weight is not a
    /// matrix or the bias length does not match its output width.
    pub fn from_weight_view(
        weight: WeightView,
        bias: Tensor,
        activation: Activation,
    ) -> Result<Self, CapsNetError> {
        let dims = weight.dims().to_vec();
        if dims.len() != 2 {
            return Err(CapsNetError::InvalidSpec(format!(
                "dense weight must be [in, out], got {dims:?}"
            )));
        }
        if bias.len() != dims[1] {
            return Err(CapsNetError::InvalidSpec(format!(
                "dense bias length {} != output width {}",
                bias.len(),
                dims[1]
            )));
        }
        Ok(DenseLayer {
            weight,
            bias,
            activation,
        })
    }

    /// The weight matrix `[in, out]`.
    pub fn weight(&self) -> &WeightView {
        &self.weight
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The activation applied after the affine map.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Input width.
    fn input_dim(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Forward pass `[B, in] -> [B, out]`.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, CapsNetError> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Self::forward`]: writes the activations into `out`
    /// (resized in place), with the GEMM running through
    /// [`pim_tensor::matmul_into`] so a warm buffer makes the whole layer
    /// zero-allocation.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward_into(&self, input: &Tensor, out: &mut Tensor) -> Result<(), CapsNetError> {
        let dims = input.shape().dims();
        let (input_dim, output_dim) = (self.input_dim(), self.output_dim());
        if dims.len() != 2 || dims[1] != input_dim {
            return Err(CapsNetError::InputMismatch {
                expected: format!("[B, {input_dim}]"),
                actual: dims.to_vec(),
            });
        }
        let rows = dims[0];
        out.resize_for(&[rows, output_dim]);
        match self.weight.as_ref() {
            WeightRef::F32(w) => {
                matmul_into(
                    input.as_slice(),
                    w.as_slice(),
                    out.as_mut_slice(),
                    rows,
                    input_dim,
                    output_dim,
                );
            }
            WeightRef::Quant(q) => {
                // Row-major W [in, out]: accumulate x[r][k] · W[k, :] into
                // out[r, :] through the fused dequantize kernels — the
                // quantized rows stream straight from the stored bytes.
                let bytes = q.bytes();
                let eb = q.dtype().elem_bytes();
                let x = input.as_slice();
                let data = out.as_mut_slice();
                data.fill(0.0);
                for r in 0..rows {
                    let orow = &mut data[r * output_dim..(r + 1) * output_dim];
                    for k in 0..input_dim {
                        let xv = x[r * input_dim + k];
                        if xv == 0.0 {
                            continue;
                        }
                        let block = q.block_at(k * output_dim);
                        let off = k * output_dim * eb;
                        match q.dtype() {
                            QuantDType::I8 => simd::axpy_i8(
                                xv,
                                &bytes[off..off + output_dim],
                                block.scale,
                                block.zero_point,
                                orow,
                            ),
                            QuantDType::F16 => {
                                simd::axpy_f16(xv, &bytes[off..off + output_dim * 2], orow)
                            }
                        }
                    }
                }
            }
        }
        let bias = self.bias.as_slice();
        let data = out.as_mut_slice();
        for r in 0..rows {
            for c in 0..output_dim {
                data[r * output_dim + c] += bias[c];
            }
        }
        self.activation.apply_in_place(out.as_mut_slice());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let layer = DenseLayer::seeded(8, 4, Activation::Relu, 1);
        let x = Tensor::uniform(&[3, 8], -1.0, 1.0, 2);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[3, 4]);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
        assert_eq!(layer.input_dim(), 8);
        assert_eq!(layer.output_dim(), 4);
    }

    #[test]
    fn forward_into_matches_owned_and_reuses_buffer() {
        let layer = DenseLayer::seeded(8, 4, Activation::Relu, 1);
        let x = Tensor::uniform(&[3, 8], -1.0, 1.0, 2);
        let owned = layer.forward(&x).unwrap();
        let mut out = Tensor::zeros(&[0]);
        layer.forward_into(&x, &mut out).unwrap();
        assert_eq!(owned, out);
        // Second pass into the warm buffer: same result, shape preserved.
        layer.forward_into(&x, &mut out).unwrap();
        assert_eq!(owned, out);
        assert!(layer
            .forward_into(&Tensor::zeros(&[3, 7]), &mut out)
            .is_err());
    }

    #[test]
    fn wrong_input_width_errors() {
        let layer = DenseLayer::seeded(8, 4, Activation::Linear, 1);
        let x = Tensor::zeros(&[3, 7]);
        assert!(layer.forward(&x).is_err());
    }

    #[test]
    fn quantized_weight_forward_tracks_dequantized_f32() {
        use pim_tensor::QuantTensor;
        let layer = DenseLayer::seeded(8, 4, Activation::Sigmoid, 5);
        let x = Tensor::uniform(&[3, 8], -1.0, 1.0, 6);
        let w = layer.weight().expect_f32();
        for dtype in [QuantDType::I8, QuantDType::F16] {
            let q = QuantTensor::quantize(dtype, w.as_slice(), w.shape().dims(), &[5, 3]).unwrap();
            let deq =
                DenseLayer::from_weights(q.dequantize(), layer.bias().clone(), Activation::Sigmoid)
                    .unwrap();
            let ql = DenseLayer::from_weight_view(
                crate::WeightView::Quant(q),
                layer.bias().clone(),
                Activation::Sigmoid,
            )
            .unwrap();
            assert_eq!(ql.input_dim(), 8);
            assert_eq!(ql.output_dim(), 4);
            let want = deq.forward(&x).unwrap();
            let got = ql.forward(&x).unwrap();
            for (g, w_) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (g - w_).abs() <= 1e-5,
                    "fused dequant dense diverged: {g} vs {w_} ({dtype:?})"
                );
            }
        }
    }

    #[test]
    fn quantized_weight_rejects_bias_mismatch() {
        use pim_tensor::QuantTensor;
        let q = QuantTensor::quantize(QuantDType::F16, &[0.25; 32], &[8, 4], &[8]).unwrap();
        assert!(DenseLayer::from_weight_view(
            crate::WeightView::Quant(q),
            Tensor::zeros(&[3]),
            Activation::Linear
        )
        .is_err());
    }

    #[test]
    fn sigmoid_output_bounded() {
        let layer = DenseLayer::seeded(4, 4, Activation::Sigmoid, 3);
        let x = Tensor::uniform(&[2, 4], -10.0, 10.0, 4);
        let y = layer.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
