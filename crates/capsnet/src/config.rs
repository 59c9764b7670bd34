//! Network specification: the static description from which both the
//! functional model and the op census are built.

use pim_tensor::Conv2dSpec;
use serde::{Deserialize, Serialize};

use crate::error::CapsNetError;

/// Which routing algorithm connects the PrimaryCaps layer to the final Caps
/// layer (§2.2: "There have been several routing algorithms … such as
/// Dynamic Routing and Expectation-Maximization routing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RoutingAlgorithm {
    /// Dynamic routing (Sabour et al. 2017), Algorithm 1 in the paper.
    #[default]
    Dynamic,
    /// Simplified Expectation-Maximization routing (Hinton et al. 2018).
    Em,
}

/// Full static description of a CapsNet (Fig 2 geometry).
///
/// The encoder is `Conv1 → PrimaryCaps → (routing) → final Caps layer`; the
/// decoder is a stack of fully-connected layers. Everything the op census
/// and the simulators need is derivable from this struct.
///
/// # Examples
///
/// ```
/// use capsnet::CapsNetSpec;
///
/// let spec = CapsNetSpec::mnist();
/// assert_eq!(spec.l_caps().unwrap(), 1152); // 6*6*32 primary capsules
/// assert_eq!(spec.h_caps, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapsNetSpec {
    /// Human-readable name (e.g. `Caps-MN1`).
    pub name: String,
    /// Input image channels (1 for MNIST-like, 3 for CIFAR/SVHN-like).
    pub input_channels: usize,
    /// Input image height and width.
    pub input_hw: (usize, usize),
    /// Output channels of the first convolution.
    pub conv1_channels: usize,
    /// Kernel side of the first convolution.
    pub conv1_kernel: usize,
    /// Stride of the first convolution.
    pub conv1_stride: usize,
    /// Number of primary-capsule channel groups (32 in CapsNet-MNIST).
    pub primary_channels: usize,
    /// Dimension `C_L` of each low-level capsule (8 in CapsNet-MNIST).
    pub cl_dim: usize,
    /// Kernel side of the PrimaryCaps convolution.
    pub primary_kernel: usize,
    /// Stride of the PrimaryCaps convolution.
    pub primary_stride: usize,
    /// Number of high-level capsules `N_H` (one per class).
    pub h_caps: usize,
    /// Dimension `C_H` of each high-level capsule (16 in CapsNet-MNIST).
    pub ch_dim: usize,
    /// Routing iterations (3 in the original; Table 1 sweeps 3/6/9).
    pub routing_iterations: usize,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Hidden/output sizes of the FC decoder (e.g. `[512, 1024, 784]`).
    /// The op census prices it (Fig 4's `fc` column); inference predicts
    /// argmax ‖v_j‖ and never runs it, so a [`crate::CapsNet`] holds no
    /// decoder weights.
    pub decoder_dims: Vec<usize>,
    /// Scale applied to the Caps-layer weights (and therefore the
    /// prediction vectors û). Trained CapsNets produce large agreement
    /// logits and near-one-hot routing coefficients; seeded random networks
    /// default to 1.0 (soft routing) and the Table 5 harness raises this to
    /// emulate a trained network's routing confidence.
    #[serde(default = "default_sharpness")]
    pub routing_sharpness: f32,
    /// `true` (the paper's configuration) shares the routing coefficients
    /// across the batch (Eq 4 aggregates over k); `false` routes each
    /// sample independently (the original Sabour et al. formulation). The
    /// accuracy harness uses per-sample routing so that each prediction
    /// depends only on its own input.
    #[serde(default = "default_batch_shared")]
    pub batch_shared_routing: bool,
}

fn default_sharpness() -> f32 {
    1.0
}

fn default_batch_shared() -> bool {
    true
}

impl CapsNetSpec {
    /// The CapsNet-MNIST reference network of Fig 2.
    pub fn mnist() -> Self {
        CapsNetSpec {
            name: "CapsNet-MNIST".into(),
            input_channels: 1,
            input_hw: (28, 28),
            conv1_channels: 256,
            conv1_kernel: 9,
            conv1_stride: 1,
            primary_channels: 32,
            cl_dim: 8,
            primary_kernel: 9,
            primary_stride: 2,
            h_caps: 10,
            ch_dim: 16,
            routing_iterations: 3,
            routing: RoutingAlgorithm::Dynamic,
            decoder_dims: vec![512, 1024, 784],
            routing_sharpness: 1.0,
            batch_shared_routing: true,
        }
    }

    /// A very small network for unit tests: same structure, tiny extents.
    pub fn tiny_for_tests() -> Self {
        CapsNetSpec {
            name: "tiny".into(),
            input_channels: 1,
            input_hw: (12, 12),
            conv1_channels: 8,
            conv1_kernel: 5,
            conv1_stride: 1,
            primary_channels: 4,
            cl_dim: 4,
            primary_kernel: 5,
            primary_stride: 2,
            h_caps: 3,
            ch_dim: 6,
            routing_iterations: 3,
            routing: RoutingAlgorithm::Dynamic,
            decoder_dims: vec![16, 32, 144],
            routing_sharpness: 1.0,
            batch_shared_routing: true,
        }
    }

    /// Spatial size after the first convolution.
    pub fn conv1_out_hw(&self) -> Result<(usize, usize), CapsNetError> {
        let f = |d| conv_extent("conv1", "input", d, self.conv1_kernel, self.conv1_stride);
        Ok((f(self.input_hw.0)?, f(self.input_hw.1)?))
    }

    /// Spatial grid of the PrimaryCaps layer.
    pub fn primary_grid(&self) -> Result<(usize, usize), CapsNetError> {
        let (h, w) = self.conv1_out_hw()?;
        let f = |d| {
            let (kernel, stride) = (self.primary_kernel, self.primary_stride);
            conv_extent("primary", "conv1 output", d, kernel, stride)
        };
        Ok((f(h)?, f(w)?))
    }

    /// Total number of low-level capsules `N_L = grid_h · grid_w · channels`.
    pub fn l_caps(&self) -> Result<usize, CapsNetError> {
        let (gh, gw) = self.primary_grid()?;
        Ok(gh * gw * self.primary_channels)
    }

    /// Number of input pixels (`channels · h · w`), the decoder target size.
    pub fn input_pixels(&self) -> usize {
        self.input_channels * self.input_hw.0 * self.input_hw.1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CapsNetError> {
        if self.conv1_channels == 0 {
            return Err(CapsNetError::InvalidSpec(
                "conv1_channels must be > 0".into(),
            ));
        }
        if self.cl_dim == 0 || self.ch_dim == 0 {
            return Err(CapsNetError::InvalidSpec(
                "capsule dimensions must be > 0".into(),
            ));
        }
        if self.routing_iterations == 0 {
            return Err(CapsNetError::InvalidSpec(
                "routing_iterations must be >= 1".into(),
            ));
        }
        if self.h_caps == 0 {
            return Err(CapsNetError::InvalidSpec("h_caps must be > 0".into()));
        }
        // PrimaryCaps conv output channels = primary_channels * cl_dim.
        let _ = self.l_caps()?;
        if self.decoder_dims.is_empty() {
            return Err(CapsNetError::InvalidSpec(
                "decoder needs at least one layer".into(),
            ));
        }
        Ok(())
    }
}

/// Output extent of the `layer` convolution (no padding) over an input
/// extent `d`, the `input` of the message.
///
/// # Errors
///
/// [`CapsNetError::InvalidSpec`] for a zero kernel or stride, or a kernel
/// wider than `d`.
fn conv_extent(
    layer: &str,
    input: &str,
    d: usize,
    kernel: usize,
    stride: usize,
) -> Result<usize, CapsNetError> {
    if kernel == 0 || stride == 0 {
        return Err(CapsNetError::InvalidSpec(format!(
            "{layer} kernel and stride must be > 0, not {kernel} and {stride}"
        )));
    }
    Conv2dSpec::new(kernel, stride, 0)
        .output_dim(d)
        .ok_or_else(|| {
            CapsNetError::InvalidSpec(format!("{layer} kernel {kernel} larger than {input} {d}"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_geometry_matches_paper() {
        let s = CapsNetSpec::mnist();
        assert_eq!(s.conv1_out_hw().unwrap(), (20, 20));
        assert_eq!(s.primary_grid().unwrap(), (6, 6));
        assert_eq!(s.l_caps().unwrap(), 1152);
        assert_eq!(s.input_pixels(), 784);
        s.validate().unwrap();
    }

    #[test]
    fn tiny_is_valid() {
        let s = CapsNetSpec::tiny_for_tests();
        s.validate().unwrap();
        // 12 -> conv5/s1 -> 8 -> conv5/s2 -> 2; 2*2*4 = 16 L capsules.
        assert_eq!(s.primary_grid().unwrap(), (2, 2));
        assert_eq!(s.l_caps().unwrap(), 16);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = CapsNetSpec::tiny_for_tests();
        s.routing_iterations = 0;
        assert!(s.validate().is_err());

        let mut s = CapsNetSpec::tiny_for_tests();
        s.conv1_kernel = 99;
        assert!(s.validate().is_err());

        let mut s = CapsNetSpec::tiny_for_tests();
        s.decoder_dims.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn zero_kernels_and_strides_are_invalid_specs() {
        type Field = fn(&mut CapsNetSpec) -> &mut usize;
        let fields: [(&str, Field); 4] = [
            ("conv1_kernel", |s| &mut s.conv1_kernel),
            ("conv1_stride", |s| &mut s.conv1_stride),
            ("primary_kernel", |s| &mut s.primary_kernel),
            ("primary_stride", |s| &mut s.primary_stride),
        ];
        for (name, field) in fields {
            let mut s = CapsNetSpec::tiny_for_tests();
            *field(&mut s) = 0;
            match s.validate() {
                Err(CapsNetError::InvalidSpec(msg)) => {
                    assert!(msg.contains("must be > 0"), "{name}: {msg}")
                }
                other => panic!("{name} = 0: expected InvalidSpec, got {other:?}"),
            }
            assert!(s.l_caps().is_err(), "{name} = 0");
        }
    }

    #[test]
    fn spec_types_are_serde() {
        fn assert_serde<T: serde::Serialize + for<'a> serde::Deserialize<'a>>() {}
        assert_serde::<CapsNetSpec>();
        assert_serde::<RoutingAlgorithm>();
    }
}
