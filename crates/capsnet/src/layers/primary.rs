//! The PrimaryCaps layer: a convolution whose output channels are grouped
//! into capsule vectors, squashed per capsule (Fig 2's "PrimaryCaps Layer").

use pim_tensor::{Conv2dScratch, Tensor};

use crate::backend::MathBackend;
use crate::error::CapsNetError;
use crate::layers::conv::{Activation, Conv2dLayer};
use crate::squash::squash_in_place;

/// PrimaryCaps: conv → reshape into `[B, L, C_L]` capsules → squash.
#[derive(Debug, Clone)]
pub struct PrimaryCapsLayer {
    conv: Conv2dLayer,
    caps_channels: usize,
    cl_dim: usize,
}

impl PrimaryCapsLayer {
    /// Creates the layer with seeded weights.
    ///
    /// The convolution produces `caps_channels * cl_dim` output channels;
    /// each group of `cl_dim` channels at each spatial location is one
    /// low-level capsule.
    pub fn seeded(
        in_channels: usize,
        caps_channels: usize,
        cl_dim: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Self {
        PrimaryCapsLayer {
            conv: Conv2dLayer::seeded(
                in_channels,
                caps_channels * cl_dim,
                kernel,
                stride,
                Activation::Linear,
                seed,
            ),
            caps_channels,
            cl_dim,
        }
    }

    /// Creates the layer around an existing convolution (the
    /// weight-loading path).
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] when the convolution's output
    /// channels are not `caps_channels · cl_dim`.
    pub fn from_conv(
        conv: Conv2dLayer,
        caps_channels: usize,
        cl_dim: usize,
    ) -> Result<Self, CapsNetError> {
        let out_channels = conv.weight().shape().dims()[0];
        if out_channels != caps_channels * cl_dim {
            return Err(CapsNetError::InvalidSpec(format!(
                "primary conv has {out_channels} output channels, expected \
                 {caps_channels} capsule groups × {cl_dim} dims"
            )));
        }
        Ok(PrimaryCapsLayer {
            conv,
            caps_channels,
            cl_dim,
        })
    }

    /// The underlying convolution.
    pub fn conv(&self) -> &Conv2dLayer {
        &self.conv
    }

    /// Capsule dimension `C_L`.
    pub fn cl_dim(&self) -> usize {
        self.cl_dim
    }

    /// Forward pass: `[B, in, H, W] -> [B, L, C_L]` with
    /// `L = caps_channels · H' · W'`, squash applied per capsule.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward<B: MathBackend + ?Sized>(
        &self,
        input: &Tensor,
        backend: &B,
    ) -> Result<Tensor, CapsNetError> {
        let mut out = Tensor::zeros(&[0]);
        let mut conv_buf = Tensor::zeros(&[0]);
        let mut scratch = Conv2dScratch::default();
        self.forward_into(input, backend, &mut out, &mut conv_buf, &mut scratch)?;
        Ok(out)
    }

    /// Allocation-free forward pass: the convolution output lands in
    /// `conv_buf`, the squashed capsules in `out` (both resized in place).
    /// Same math as [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward_into<B: MathBackend + ?Sized>(
        &self,
        input: &Tensor,
        backend: &B,
        out: &mut Tensor,
        conv_buf: &mut Tensor,
        scratch: &mut Conv2dScratch,
    ) -> Result<(), CapsNetError> {
        self.conv.forward_into(input, conv_buf, scratch)?; // [B, caps*cl, H', W']
        let dims = conv_buf.shape().dims().to_vec();
        let (b, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let l = self.caps_channels * h * w;
        // Regroup [B, caps*cl, H, W] -> [B, L, CL] where capsule index runs
        // over (channel_group, y, x).
        out.resize_for(&[b, l, self.cl_dim]);
        let dst = out.as_mut_slice();
        let src = conv_buf.as_slice();
        for bi in 0..b {
            for g in 0..self.caps_channels {
                for y in 0..h {
                    for x in 0..w {
                        let cap = (g * h + y) * w + x;
                        for d in 0..self.cl_dim {
                            let ch = g * self.cl_dim + d;
                            dst[(bi * l + cap) * self.cl_dim + d] =
                                src[((bi * dims[1] + ch) * h + y) * w + x];
                        }
                    }
                }
            }
        }
        // Squash each capsule vector.
        for cap in dst.chunks_mut(self.cl_dim) {
            squash_in_place(cap, backend);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactMath;

    #[test]
    fn forward_shape_and_norms() {
        let layer = PrimaryCapsLayer::seeded(2, 3, 4, 3, 2, 5);
        let input = Tensor::uniform(&[2, 2, 9, 9], -1.0, 1.0, 6);
        let out = layer.forward(&input, &ExactMath).unwrap();
        // 9 -> (9-3)/2+1 = 4; L = 3*4*4 = 48.
        assert_eq!(out.shape().dims(), &[2, 48, 4]);
        // All capsule norms must be < 1 after squashing.
        for cap in out.as_slice().chunks(4) {
            let n: f32 = cap.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(n < 1.0, "capsule norm {n} >= 1");
        }
    }

    #[test]
    fn capsule_grouping_is_channelwise() {
        // With identity-like behaviour hard to arrange through conv, at
        // least check determinism and that different seeds differ.
        let input = Tensor::uniform(&[1, 1, 7, 7], 0.0, 1.0, 1);
        let a = PrimaryCapsLayer::seeded(1, 2, 2, 3, 2, 10)
            .forward(&input, &ExactMath)
            .unwrap();
        let b = PrimaryCapsLayer::seeded(1, 2, 2, 3, 2, 10)
            .forward(&input, &ExactMath)
            .unwrap();
        let c = PrimaryCapsLayer::seeded(1, 2, 2, 3, 2, 11)
            .forward(&input, &ExactMath)
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cl_dim_accessor() {
        let layer = PrimaryCapsLayer::seeded(1, 2, 8, 3, 1, 0);
        assert_eq!(layer.cl_dim(), 8);
    }
}
