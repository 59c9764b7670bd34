//! 2D convolution via im2col + GEMM, the same lowering CuDNN-era GPU kernels
//! use for CapsNet's Conv and PrimaryCaps layers.

use crate::error::TensorError;
use crate::matmul::matmul_into;
use crate::tensor::Tensor;

/// Static description of a 2D convolution.
///
/// All CapsNet convolutions in the paper are square-kernel, zero-padding,
/// unit-dilation, so this spec only carries kernel size, stride and padding.
///
/// # Examples
///
/// ```
/// use pim_tensor::Conv2dSpec;
///
/// // Conv1 of CapsNet-MNIST: 9x9 kernel, stride 1, no padding.
/// let spec = Conv2dSpec::new(9, 1, 0);
/// assert_eq!(spec.output_dim(28), Some(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding added on every side.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial extent for an input extent, or `None` if the kernel
    /// does not fit.
    pub fn output_dim(&self, input: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < self.kernel {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }
}

/// Unfolds an input image batch into convolution columns.
///
/// Input layout `[batch, channels, height, width]`; output layout
/// `[batch, out_h * out_w, channels * kernel * kernel]`, i.e. one GEMM row
/// per output pixel.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input and
/// [`TensorError::InvalidConv`] when the kernel does not fit.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros(&[0]);
    im2col_into(input, spec, &mut out)?;
    Ok(out)
}

/// Allocation-reusing [`im2col`]: unfolds into `out`, which is resized in
/// place to `[batch, out_h * out_w, channels * kernel * kernel]` — a warm
/// buffer incurs no heap traffic.
///
/// # Errors
///
/// Same conditions as [`im2col`].
pub fn im2col_into(input: &Tensor, spec: Conv2dSpec, out: &mut Tensor) -> Result<(), TensorError> {
    let geometry = Im2colGeometry::of(input, spec)?;
    let Im2colGeometry { b, c, oh, ow, .. } = geometry;
    out.resize_for_overwrite(&[b, oh * ow, c * spec.kernel * spec.kernel]);
    geometry.unfold(input.as_slice(), spec, out.as_mut_slice());
    Ok(())
}

/// Validated extents of one unfold: input `[b, c, h, w]` → `oh × ow`
/// output pixels.
#[derive(Clone, Copy)]
struct Im2colGeometry {
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl Im2colGeometry {
    fn of(input: &Tensor, spec: Conv2dSpec) -> Result<Self, TensorError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: dims.len(),
            });
        }
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let oh = spec.output_dim(h).ok_or_else(|| {
            TensorError::InvalidConv(format!("kernel {} > height {}", spec.kernel, h))
        })?;
        let ow = spec.output_dim(w).ok_or_else(|| {
            TensorError::InvalidConv(format!("kernel {} > width {}", spec.kernel, w))
        })?;
        Ok(Im2colGeometry { b, c, h, w, oh, ow })
    }

    /// Elements of the unfolded `[b, oh·ow, c·k·k]` matrix.
    fn cols_len(&self, spec: Conv2dSpec) -> usize {
        self.b * self.oh * self.ow * self.c * spec.kernel * spec.kernel
    }

    /// Writes the columns into `dst` (`cols_len` elements, contents
    /// unspecified on entry). Without padding every element is written;
    /// with padding the out-of-image taps are the zeros filled here first.
    fn unfold(&self, src: &[f32], spec: Conv2dSpec, dst_buf: &mut [f32]) {
        let Im2colGeometry { b, c, h, w, oh, ow } = *self;
        let k = spec.kernel;
        let cols_per_row = c * k * k;
        let pad = spec.padding as isize;
        if spec.padding > 0 {
            dst_buf.fill(0.0);
        }
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row_base = ((bi * oh + oy) * ow + ox) * cols_per_row;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * spec.stride + ky) as isize - pad;
                            for kx in 0..k {
                                let ix = (ox * spec.stride + kx) as isize - pad;
                                let dst = row_base + (ci * k + ky) * k + kx;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    dst_buf[dst] =
                                        src[((bi * c + ci) * h + iy as usize) * w + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Reusable buffers for [`conv2d_pretransposed_into`]: the im2col columns
/// and the per-batch GEMM output. After warm-up no further heap allocation
/// occurs for same-or-smaller problem sizes.
///
/// The column storage is a slab: a convolution unfolds into a prefix of
/// it and never shrinks it, so one scratch can serve convolutions of
/// different geometries back to back.
#[derive(Debug, Clone, Default)]
pub struct Conv2dScratch {
    cols: Tensor,
    gemm: Vec<f32>,
}

impl Conv2dScratch {
    /// The column slab. It is dead between convolutions, so the scratch's
    /// owner may lend it to a later stage as a temporary of any shape (the
    /// capsnet forward arena writes `û` here); the next convolution
    /// overwrites whatever it finds.
    pub fn slab_mut(&mut self) -> &mut Tensor {
        &mut self.cols
    }

    /// Bytes of heap capacity the scratch holds.
    pub fn capacity_bytes(&self) -> usize {
        (self.cols.capacity() + self.gemm.capacity()) * std::mem::size_of::<f32>()
    }
}

/// Allocation-free convolution core: same math as [`conv2d`] but the weight
/// arrives already reshaped+transposed to `[in_c*k*k, out_c]` (layers cache
/// this at construction) and the output/scratch buffers are caller-owned.
///
/// `out` is resized in place to `[batch, out_c, out_h, out_w]`.
///
/// # Errors
///
/// Propagates shape errors from [`im2col_into`] and validates the
/// transposed-weight/bias shapes against the input.
pub fn conv2d_pretransposed_into(
    input: &Tensor,
    weight_t: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut Tensor,
    scratch: &mut Conv2dScratch,
) -> Result<(), TensorError> {
    let wt_dims = weight_t.shape().dims();
    if wt_dims.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: wt_dims.len(),
        });
    }
    let (ckk, out_c) = (wt_dims[0], wt_dims[1]);
    let geometry = Im2colGeometry::of(input, spec)?;
    let Im2colGeometry { b, c, oh, ow, .. } = geometry;
    if ckk != c * spec.kernel * spec.kernel {
        return Err(TensorError::InvalidConv(format!(
            "transposed weight rows {ckk} != in_c*k*k = {}",
            c * spec.kernel * spec.kernel
        )));
    }
    if let Some(bs) = bias {
        if bs.len() != out_c {
            return Err(TensorError::InvalidConv(format!(
                "bias length {} != out channels {out_c}",
                bs.len()
            )));
        }
    }
    let cols_len = geometry.cols_len(spec);
    if scratch.cols.len() < cols_len {
        scratch.cols.resize_for_overwrite(&[cols_len]);
    }
    let cols_slice = &mut scratch.cols.as_mut_slice()[..cols_len];
    geometry.unfold(input.as_slice(), spec, cols_slice);
    let pixels = oh * ow;
    out.resize_for_overwrite(&[b, out_c, oh, ow]);
    let out_buf = out.as_mut_slice();
    scratch.gemm.clear();
    scratch.gemm.resize(pixels * out_c, 0.0);
    for bi in 0..b {
        let col_block = &cols_slice[bi * pixels * ckk..(bi + 1) * pixels * ckk];
        matmul_into(
            col_block,
            weight_t.as_slice(),
            &mut scratch.gemm,
            pixels,
            ckk,
            out_c,
        );
        // gemm is [oh*ow, out_c]; transpose into [out_c, oh, ow].
        for p in 0..pixels {
            for oc in 0..out_c {
                let v = scratch.gemm[p * out_c + oc] + bias.map_or(0.0, |bsx| bsx.as_slice()[oc]);
                out_buf[((bi * out_c + oc) * pixels) + p] = v;
            }
        }
    }
    Ok(())
}

/// 2D convolution forward pass.
///
/// * `input`: `[batch, in_c, h, w]`
/// * `weight`: `[out_c, in_c, k, k]`
/// * `bias`: optional `[out_c]`
///
/// Returns `[batch, out_c, out_h, out_w]`.
///
/// # Errors
///
/// Propagates shape errors from [`im2col`] and validates the weight/bias
/// shapes against the input.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor, TensorError> {
    let in_dims = input.shape().dims();
    let w_dims = weight.shape().dims();
    if w_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: w_dims.len(),
        });
    }
    if in_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: in_dims.len(),
        });
    }
    let in_c = in_dims[1];
    let (out_c, w_in_c, k, k2) = (w_dims[0], w_dims[1], w_dims[2], w_dims[3]);
    if w_in_c != in_c || k != k2 || k != spec.kernel {
        return Err(TensorError::InvalidConv(format!(
            "weight shape {w_dims:?} incompatible with input channels {in_c} / kernel {}",
            spec.kernel
        )));
    }
    if let Some(bs) = bias {
        if bs.len() != out_c {
            return Err(TensorError::InvalidConv(format!(
                "bias length {} != out channels {out_c}",
                bs.len()
            )));
        }
    }
    let ckk = in_c * k * k;
    // GEMM per batch item: cols [oh*ow, ckk] x weight^T [ckk, out_c].
    // Pre-transpose the weight once.
    let wt = weight.reshape(&[out_c, ckk])?.transpose()?; // [ckk, out_c]
    let mut out = Tensor::zeros(&[0]);
    let mut scratch = Conv2dScratch::default();
    conv2d_pretransposed_into(input, &wt, bias, spec, &mut out, &mut scratch)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (naive) convolution used as a test oracle.
    fn conv2d_naive(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let in_dims = input.shape().dims();
        let w_dims = weight.shape().dims();
        let (b, in_c, h, w) = (in_dims[0], in_dims[1], in_dims[2], in_dims[3]);
        let (out_c, _, k, _) = (w_dims[0], w_dims[1], w_dims[2], w_dims[3]);
        let oh = spec.output_dim(h).unwrap();
        let ow = spec.output_dim(w).unwrap();
        let mut out = Tensor::zeros(&[b, out_c, oh, ow]);
        let pad = spec.padding as isize;
        for bi in 0..b {
            for oc in 0..out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |bsx| bsx.as_slice()[oc]);
                        for ci in 0..in_c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * spec.stride + ky) as isize - pad;
                                    let ix = (ox * spec.stride + kx) as isize - pad;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += input.at(&[bi, ci, iy as usize, ix as usize])
                                            * weight.at(&[oc, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[bi, oc, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_dims() {
        assert_eq!(Conv2dSpec::new(9, 1, 0).output_dim(28), Some(20));
        assert_eq!(Conv2dSpec::new(9, 2, 0).output_dim(20), Some(6));
        assert_eq!(Conv2dSpec::new(3, 1, 1).output_dim(8), Some(8));
        assert_eq!(Conv2dSpec::new(5, 1, 0).output_dim(3), None);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = Conv2dSpec::new(3, 0, 0);
    }

    #[test]
    fn im2col_shape_and_content() {
        // 1 batch, 1 channel, 3x3 input, 2x2 kernel, stride 1.
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let cols = im2col(&input, Conv2dSpec::new(2, 1, 0)).unwrap();
        assert_eq!(cols.shape().dims(), &[1, 4, 4]);
        // First output pixel sees the top-left 2x2 patch.
        assert_eq!(&cols.as_slice()[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // Last output pixel sees the bottom-right patch.
        assert_eq!(&cols.as_slice()[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn conv_matches_naive_no_padding() {
        let input = Tensor::uniform(&[2, 3, 8, 8], -1.0, 1.0, 1);
        let weight = Tensor::uniform(&[4, 3, 3, 3], -0.5, 0.5, 2);
        let bias = Tensor::uniform(&[4], -0.1, 0.1, 3);
        let spec = Conv2dSpec::new(3, 1, 0);
        let fast = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let slow = conv2d_naive(&input, &weight, Some(&bias), spec);
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_matches_naive_strided_padded() {
        let input = Tensor::uniform(&[1, 2, 9, 9], -1.0, 1.0, 4);
        let weight = Tensor::uniform(&[3, 2, 3, 3], -0.5, 0.5, 5);
        let spec = Conv2dSpec::new(3, 2, 1);
        let fast = conv2d(&input, &weight, None, spec).unwrap();
        let slow = conv2d_naive(&input, &weight, None, spec);
        assert_eq!(fast.shape().dims(), &[1, 3, 5, 5]);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_validates_shapes() {
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let bad_weight = Tensor::zeros(&[4, 2, 3, 3]); // wrong in_c
        assert!(conv2d(&input, &bad_weight, None, Conv2dSpec::new(3, 1, 0)).is_err());
        let weight = Tensor::zeros(&[4, 3, 3, 3]);
        let bad_bias = Tensor::zeros(&[5]);
        assert!(conv2d(&input, &weight, Some(&bad_bias), Conv2dSpec::new(3, 1, 0)).is_err());
    }

    #[test]
    fn capsnet_mnist_conv_dims() {
        // The exact front-end geometry from Fig.2: 28x28 -> 20x20x256 -> 6x6x256.
        let input = Tensor::zeros(&[1, 1, 28, 28]);
        let w1 = Tensor::zeros(&[8, 1, 9, 9]); // 8 channels stand in for 256
        let c1 = conv2d(&input, &w1, None, Conv2dSpec::new(9, 1, 0)).unwrap();
        assert_eq!(c1.shape().dims(), &[1, 8, 20, 20]);
        let w2 = Tensor::zeros(&[8, 8, 9, 9]);
        let c2 = conv2d(&c1, &w2, None, Conv2dSpec::new(9, 2, 0)).unwrap();
        assert_eq!(c2.shape().dims(), &[1, 8, 6, 6]);
    }
}
