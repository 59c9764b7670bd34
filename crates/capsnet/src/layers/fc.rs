//! Fully-connected decoder layers (Fig 2's reconstruction stack).

use pim_tensor::{matmul_into, uhat_project, Tensor, UhatWeights};

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

    /// [`Self::forward`] into a caller buffer: writes the activations into
    /// `out` (resized in place). An `f32` weight runs the GEMM through
    /// [`pim_tensor::matmul_into`], so a warm buffer makes the layer
    /// zero-allocation.
    ///
    /// A quantized weight runs through [`pim_tensor::uhat_project`] as one
    /// capsule instead. Each output accumulates `fma(x, w, acc)` over the
    /// `in` rows in ascending order from `+0.0`, with `w` dequantized by the
    /// tile's strip loaders, so the result does not depend on the SIMD
    /// level. Zero inputs are not skipped: an fp16 weight of ±Inf or NaN
    /// makes a `x == 0.0` term NaN, as it does in û. That path allocates
    /// the projection's per-call window list; the decoder runs only in
    /// `CapsNet::reconstruct`, so it is not held to zero allocation.
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
            // The weight as one capsule (`L = 1`, `C_L = in`, `N = out`)
            // on the û tile: its strip loaders decode the stored bytes.
            WeightRef::Quant(q) => uhat_project(
                input.as_slice(),
                UhatWeights::Quant(q),
                out.as_mut_slice(),
                (rows, 1, input_dim, output_dim),
            ),
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
    use pim_tensor::{f16_to_f32, QuantDType, QuantTensor};

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
    fn quantized_forward_matches_the_row_axpy_loop_bitwise() {
        // Three unequal affine blocks over the 11 input rows.
        let (input, block_rows) = (11usize, [2usize, 5, 4]);
        for out_dim in [1usize, 15, 16, 17, 40] {
            let w = Tensor::uniform(&[input, out_dim], -0.7, 0.7, out_dim as u64);
            let bias = Tensor::uniform(&[out_dim], -0.1, 0.1, 3);
            for dtype in [QuantDType::I8, QuantDType::F16] {
                let q = QuantTensor::quantize(dtype, w.as_slice(), &[input, out_dim], &block_rows)
                    .unwrap();
                let layer = DenseLayer::from_weight_view(
                    crate::WeightView::Quant(q.clone()),
                    bias.clone(),
                    Activation::Linear,
                )
                .unwrap();
                let bytes = q.bytes();
                let deq = |e: usize| match dtype {
                    QuantDType::I8 => {
                        let p = q.block_at(e);
                        (i32::from(bytes[e] as i8) - p.zero_point) as f32 * p.scale
                    }
                    QuantDType::F16 => {
                        f16_to_f32(u16::from_le_bytes([bytes[2 * e], bytes[2 * e + 1]]))
                    }
                };
                for batch in [1usize, 5, 6, 7, 13] {
                    let mut x = Tensor::uniform(&[batch, input], -1.0, 1.0, batch as u64);
                    for (k, v) in x.as_mut_slice().iter_mut().enumerate() {
                        match k % 5 {
                            1 => *v = 0.0,
                            3 => *v = -0.0,
                            _ => {}
                        }
                    }
                    // The old decoder loop: per sample and input row, skip
                    // `x == 0.0`, else one fused multiply-add per output.
                    let mut want = vec![0.0f32; batch * out_dim];
                    for r in 0..batch {
                        let orow = &mut want[r * out_dim..(r + 1) * out_dim];
                        for k in 0..input {
                            let xv = x.as_slice()[r * input + k];
                            if xv == 0.0 {
                                continue;
                            }
                            for (c, o) in orow.iter_mut().enumerate() {
                                *o = xv.mul_add(deq(k * out_dim + c), *o);
                            }
                        }
                        for (o, b) in orow.iter_mut().zip(bias.as_slice()) {
                            *o += b;
                        }
                    }
                    let got = layer.forward(&x).unwrap();
                    for (k, (g, w_)) in got.as_slice().iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w_.to_bits(),
                            "{dtype:?} out={out_dim} batch={batch} element {k}: {g} vs {w_}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_weight_rejects_bias_mismatch() {
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
