//! Plain convolutional layer (the CNN-type layer that stays on the GPU in
//! the paper's hybrid design).

use pim_tensor::{conv2d_pretransposed_into, Conv2dScratch, Conv2dSpec, Tensor};
use serde::{Deserialize, Serialize};

use crate::error::CapsNetError;

/// Pointwise activation applied after a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// No activation.
    #[default]
    Linear,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Applies the activation elementwise in place.
    fn apply_in_place(&self, data: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for x in data {
                    *x = x.max(0.0);
                }
            }
        }
    }
}

/// A 2D convolutional layer with optional bias and activation.
///
/// The weight is also cached pre-reshaped+transposed (`[in*k*k, out]`) so
/// the forward GEMM never re-derives it — the transpose the seed code paid
/// per `forward` call now happens once at construction.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    weight: Tensor,
    weight_t: Tensor,
    bias: Option<Tensor>,
    spec: Conv2dSpec,
    activation: Activation,
}

impl Conv2dLayer {
    /// Creates a layer with deterministic seeded weights (He-style scale).
    pub fn seeded(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        activation: Activation,
        seed: u64,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Tensor::randn(&[out_channels, in_channels, kernel, kernel], std, seed);
        let weight_t = transpose_weight(&weight);
        Conv2dLayer {
            weight,
            weight_t,
            bias: Some(Tensor::zeros(&[out_channels])),
            spec: Conv2dSpec::new(kernel, stride, 0),
            activation,
        }
    }

    /// Creates a layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] when the weight tensor is not
    /// rank 4 or bias length mismatches.
    pub fn from_weights(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        activation: Activation,
    ) -> Result<Self, CapsNetError> {
        let dims = weight.shape().dims().to_vec();
        if dims.len() != 4 || dims[2] != dims[3] {
            return Err(CapsNetError::InvalidSpec(format!(
                "conv weight must be [out,in,k,k], got {dims:?}"
            )));
        }
        if let Some(b) = &bias {
            if b.len() != dims[0] {
                return Err(CapsNetError::InvalidSpec(format!(
                    "bias length {} != out channels {}",
                    b.len(),
                    dims[0]
                )));
            }
        }
        let weight_t = transpose_weight(&weight);
        Ok(Conv2dLayer {
            spec: Conv2dSpec::new(dims[2], stride, 0),
            weight,
            weight_t,
            bias,
            activation,
        })
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// The weight tensor `[out, in, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `[out]`, when the layer has one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// Forward pass, `[B, in, H, W] -> [B, out, H', W']`: writes into `out`
    /// (resized in place) using caller-owned scratch, allocation-free once
    /// both are warm.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        scratch: &mut Conv2dScratch,
    ) -> Result<(), CapsNetError> {
        conv2d_pretransposed_into(
            input,
            &self.weight_t,
            self.bias.as_ref(),
            self.spec,
            out,
            scratch,
        )?;
        self.activation.apply_in_place(out.as_mut_slice());
        Ok(())
    }
}

/// `[out, in, k, k]` → `[in*k*k, out]`, the GEMM-ready layout.
fn transpose_weight(weight: &Tensor) -> Tensor {
    let dims = weight.shape().dims();
    let out_c = dims[0];
    let ckk: usize = dims[1..].iter().product();
    weight
        .reshape(&[out_c, ckk])
        .and_then(|w| w.transpose())
        .expect("conv weight is rank 4 by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let layer = Conv2dLayer::seeded(1, 4, 3, 1, Activation::Relu, 1);
        let input = Tensor::uniform(&[2, 1, 8, 8], 0.0, 1.0, 2);
        let mut out = Tensor::default();
        layer
            .forward_into(&input, &mut out, &mut Conv2dScratch::default())
            .unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 6, 6]);
        // ReLU guarantees non-negative outputs.
        assert!(out.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn from_weights_validates() {
        let w = Tensor::zeros(&[4, 1, 3, 3]);
        assert!(Conv2dLayer::from_weights(w.clone(), None, 1, Activation::Linear).is_ok());
        let bad_bias = Tensor::zeros(&[5]);
        assert!(Conv2dLayer::from_weights(w, Some(bad_bias), 1, Activation::Linear).is_err());
        let non_square = Tensor::zeros(&[4, 1, 3, 5]);
        assert!(Conv2dLayer::from_weights(non_square, None, 1, Activation::Linear).is_err());
    }

    #[test]
    fn activations_apply() {
        let apply = |activation: Activation| {
            let mut data = [-1.0f32, 2.0];
            activation.apply_in_place(&mut data);
            data
        };
        assert_eq!(apply(Activation::Relu), [0.0, 2.0]);
        assert_eq!(apply(Activation::Linear), [-1.0, 2.0]);
    }

    #[test]
    fn seeded_weights_are_deterministic() {
        let a = Conv2dLayer::seeded(2, 3, 3, 1, Activation::Linear, 9);
        let b = Conv2dLayer::seeded(2, 3, 3, 1, Activation::Linear, 9);
        assert_eq!(a.weight().as_slice(), b.weight().as_slice());
    }
}
