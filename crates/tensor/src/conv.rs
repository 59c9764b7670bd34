//! 2D convolution as one GEMM over all `batch · out_h · out_w` rows whose
//! broadcast operand is the feature map itself: the tile reads each
//! unfolded row's taps from the image in place ([`crate::matmul`]'s image
//! operand), so no im2col matrix is materialized, and the store writes
//! `[batch, out_c, out_h, out_w]` directly. It is the im2col + GEMM
//! lowering CuDNN-era GPU kernels use for CapsNet's Conv and PrimaryCaps
//! layers, bitwise: the same operand values in the same reduction order.
//! [`im2col_into`] remains as the explicit unfold.

use crate::error::TensorError;
use crate::matmul::{Gemm, Image, Operand};
use crate::simd::{self, SimdLevel};
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

/// Unfolds an input image batch into convolution columns, the matrix the
/// convolution's GEMM reads in place from the image: `out` is resized in
/// place to `[batch, out_h * out_w, channels * kernel * kernel]`, one GEMM
/// row per output pixel, from input `[batch, channels, height, width]` — a
/// warm buffer incurs no heap traffic.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input and
/// [`TensorError::InvalidConv`] when the kernel does not fit.
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

    /// Writes the columns into `dst` (`[b, oh·ow, c·k·k]`, contents
    /// unspecified on entry). Without padding every element is written;
    /// with padding the out-of-image taps are the zeros filled here first.
    /// Each kernel row is one copy of its in-image run of up to `k` taps.
    fn unfold(&self, src: &[f32], spec: Conv2dSpec, dst: &mut [f32]) {
        let Im2colGeometry {
            c, h, w, oh, ow, ..
        } = *self;
        let (k, pad) = (spec.kernel, spec.padding);
        if pad > 0 {
            dst.fill(0.0);
        }
        let rows = dst.chunks_exact_mut((c * k * k).max(1));
        for (pixel, row) in rows.enumerate() {
            let (bi, oy, ox) = (pixel / (oh * ow), pixel / ow % oh, pixel % ow);
            // Tap `kx` reads input column `x0 + kx - pad`: in the image for
            // `kx` in `lo..hi`.
            let x0 = ox * spec.stride;
            let (lo, hi) = (pad.saturating_sub(x0), k.min((w + pad).saturating_sub(x0)));
            for (ci, plane) in row.chunks_exact_mut(k * k).enumerate() {
                for (ky, taps) in plane.chunks_exact_mut(k).enumerate() {
                    let iy = oy * spec.stride + ky;
                    if lo < hi && (pad..h + pad).contains(&iy) {
                        let from = ((bi * c + ci) * h + iy - pad) * w + x0 + lo - pad;
                        taps[lo..hi].copy_from_slice(&src[from..from + hi - lo]);
                    }
                }
            }
        }
    }
}

/// Reusable buffer for [`conv2d_pretransposed_into`]: a padded
/// convolution's zero-padded copy of its input. An unpadded convolution
/// reads its input in place and leaves the scratch empty. After warm-up no
/// further heap allocation occurs for same-or-smaller problem sizes.
#[derive(Debug, Clone, Default)]
pub struct Conv2dScratch {
    padded: Tensor,
}

impl Conv2dScratch {
    /// Bytes of heap capacity the scratch holds.
    pub fn capacity_bytes(&self) -> usize {
        self.padded.capacity() * std::mem::size_of::<f32>()
    }

    /// `src` (`[b, c, h, w]` per `geometry`) copied into the middle of a
    /// zeroed `[b, c, h + 2·pad, w + 2·pad]` image, returned with its dims.
    fn pad(&mut self, src: &[f32], geometry: Im2colGeometry, pad: usize) -> ([usize; 4], &[f32]) {
        let Im2colGeometry { b, c, h, w, .. } = geometry;
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        self.padded.resize_for(&[b, c, ph, pw]);
        let dst = self.padded.as_mut_slice();
        if h * w > 0 {
            for (plane, src) in src.chunks_exact(h * w).enumerate() {
                for (y, row) in src.chunks_exact(w).enumerate() {
                    let at = (plane * ph + y + pad) * pw + pad;
                    dst[at..at + w].copy_from_slice(row);
                }
            }
        }
        ([b, c, ph, pw], self.padded.as_slice())
    }
}

/// Allocation-free 2D convolution: the weight arrives already
/// reshaped+transposed to `[in_c*k*k, out_c]` (layers cache
/// this at construction) and the output/scratch buffers are caller-owned.
///
/// `out` is resized in place to `[batch, out_c, out_h, out_w]`.
///
/// # Errors
///
/// Returns the shape errors of [`im2col_into`] and validates the
/// transposed-weight/bias shapes against the input.
pub fn conv2d_pretransposed_into(
    input: &Tensor,
    weight_t: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut Tensor,
    scratch: &mut Conv2dScratch,
) -> Result<(), TensorError> {
    conv_on(
        input,
        (weight_t, bias),
        spec,
        (out, scratch),
        None,
        simd::active_level(),
    )
}

/// [`conv2d_pretransposed_into`] with the GEMM's shard count (`None`:
/// planned) and SIMD level pinned.
fn conv_on(
    input: &Tensor,
    (weight_t, bias): (&Tensor, Option<&Tensor>),
    spec: Conv2dSpec,
    (out, scratch): (&mut Tensor, &mut Conv2dScratch),
    shards: Option<usize>,
    level: SimdLevel,
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
    let Im2colGeometry { b, c, h, w, oh, ow } = geometry;
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
    let (dims, image) = if spec.padding == 0 {
        ([b, c, h, w], input.as_slice())
    } else {
        scratch.pad(input.as_slice(), geometry, spec.padding)
    };
    // One GEMM over all `b·oh·ow` rows, read from the image; its store
    // writes `[b, out_c, oh, ow]` directly and adds the bias.
    out.resize_for_overwrite(&[b, out_c, oh, ow]);
    let product = Gemm {
        a: Operand::Image(Image::new(image, dims, spec.kernel, spec.stride)),
        b: weight_t.as_slice(),
        bias: bias.map(Tensor::as_slice),
        dims: (b * oh * ow, ckk, out_c),
        pixels: oh * ow,
    };
    product.run_on(out.as_mut_slice(), shards, level);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convolution with an `[out_c, in_c, k, k]` weight, through the
    /// production path (`conv2d_pretransposed_into`).
    fn conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Result<Tensor, TensorError> {
        let out_c = weight.shape().dims()[0];
        let wt = weight
            .reshape(&[out_c, weight.len() / out_c.max(1)])?
            .transpose()?;
        let mut out = Tensor::zeros(&[0]);
        conv2d_pretransposed_into(
            input,
            &wt,
            bias,
            spec,
            &mut out,
            &mut Conv2dScratch::default(),
        )?;
        Ok(out)
    }

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
        let mut cols = Tensor::zeros(&[0]);
        im2col_into(&input, Conv2dSpec::new(2, 1, 0), &mut cols).unwrap();
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
    fn one_gemm_over_all_samples_matches_naive_on_a_warm_scratch() {
        // Output pixels per sample: 49 with padding, 36 (row blocks tile a
        // sample), 9 (they straddle samples), 1 (every row is a sample), 9
        // with padding. The larger padded image comes first and the
        // scratch is poisoned between runs: nothing stale may reach the
        // fused store, and a padded border must be re-zeroed.
        let mut scratch = Conv2dScratch::default();
        let mut out = Tensor::zeros(&[0]);
        for (seed, &(b, c, hw, oc, k, stride, pad)) in [
            (2usize, 3usize, 5usize, 7usize, 3usize, 1usize, 2usize),
            (8, 3, 8, 20, 3, 1, 0),
            (3, 4, 7, 33, 3, 2, 0),
            (5, 2, 3, 17, 3, 1, 0),
            (2, 2, 5, 6, 3, 2, 1),
        ]
        .iter()
        .enumerate()
        {
            let seed = 10 * seed as u64;
            let input = Tensor::uniform(&[b, c, hw, hw], -1.0, 1.0, seed);
            let weight = Tensor::uniform(&[oc, c, k, k], -0.5, 0.5, seed + 1);
            let bias = Tensor::uniform(&[oc], -0.1, 0.1, seed + 2);
            let spec = Conv2dSpec::new(k, stride, pad);
            let wt = weight
                .reshape(&[oc, c * k * k])
                .unwrap()
                .transpose()
                .unwrap();
            scratch.padded.as_mut_slice().fill(f32::NAN);
            conv2d_pretransposed_into(&input, &wt, Some(&bias), spec, &mut out, &mut scratch)
                .unwrap();
            let slow = conv2d_naive(&input, &weight, Some(&bias), spec);
            assert_eq!(out.shape(), slow.shape());
            for (a, b) in out.as_slice().iter().zip(slow.as_slice()) {
                assert!((a - b).abs() < 1e-4, "geometry {seed}: {a} vs {b}");
            }
        }
    }

    use crate::simd::host_levels as levels;

    /// The unfold this module replaced, as the bitwise reference: the
    /// explicit columns of [`im2col_into`] through the dense GEMM walk.
    fn unfolded_conv(
        level: SimdLevel,
        input: &Tensor,
        weight_t: &Tensor,
        bias: &Tensor,
        spec: Conv2dSpec,
    ) -> Vec<f32> {
        let mut cols = Tensor::zeros(&[0]);
        im2col_into(input, spec, &mut cols).unwrap();
        let dims = cols.shape().dims();
        let (m, pixels, ckk) = (dims[0] * dims[1], dims[1], dims[2]);
        let n = weight_t.shape().dims()[1];
        let mut out = vec![0.0f32; m * n];
        let product = Gemm {
            a: Operand::Matrix(cols.as_slice()),
            b: weight_t.as_slice(),
            bias: Some(bias.as_slice()),
            dims: (m, ckk, n),
            pixels,
        };
        product.run_on(&mut out, Some(1), level);
        out
    }

    #[test]
    fn the_image_operand_matches_im2col_and_the_dense_walk_bitwise() {
        // (batches, c, hw, k, stride, pad): c·k² of 1 023, 1 024, 1 025
        // and 20 736 (CapsNet-MNIST's primary convolution) around the
        // 1 024-step panel; 1, 9 and 36 pixels a sample, so that row
        // blocks of every height from 1 to 6 tile or straddle samples;
        // stride 1 and 2, padding 0, 1 and 2.
        let geometries = [
            (&[1, 2, 3, 4, 5, 6, 7][..], 1023, 1, 1, 1, 0),
            (&[1, 3][..], 16, 10, 8, 1, 0),
            (&[1, 2][..], 41, 13, 5, 2, 1),
            (&[2][..], 256, 11, 9, 2, 0),
            (&[2][..], 3, 5, 3, 1, 2),
            (&[4][..], 2, 7, 3, 2, 0),
            (&[3][..], 4, 2, 3, 1, 1),
        ];
        let mut scratch = Conv2dScratch::default();
        let mut out = Tensor::zeros(&[0]);
        for (g, &(batches, c, hw, k, stride, pad)) in geometries.iter().enumerate() {
            let spec = Conv2dSpec::new(k, stride, pad);
            let oc = [20, 17, 33][g % 3];
            let weight_t = Tensor::uniform(&[c * k * k, oc], -0.5, 0.5, 100 + g as u64);
            let bias = Tensor::uniform(&[oc], -0.1, 0.1, 200 + g as u64);
            for &b in batches {
                let mut input = Tensor::uniform(&[b, c, hw, hw], -1.0, 1.0, (g * 10 + b) as u64);
                if b % 2 == 1 {
                    // Exact zeros, as a ReLU leaves them.
                    input
                        .as_mut_slice()
                        .iter_mut()
                        .for_each(|v| *v = v.max(0.0));
                }
                for level in levels() {
                    let want = unfolded_conv(level, &input, &weight_t, &bias, spec);
                    for shards in 1..=3 {
                        out.as_mut_slice().fill(f32::NAN);
                        scratch.padded.as_mut_slice().fill(f32::NAN);
                        conv_on(
                            &input,
                            (&weight_t, Some(&bias)),
                            spec,
                            (&mut out, &mut scratch),
                            Some(shards),
                            level,
                        )
                        .unwrap();
                        let got = out.as_slice();
                        assert_eq!(got.len(), want.len());
                        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "c={c} hw={hw} k={k} s={stride} pad={pad} b={b} \
                                 {level:?} shards={shards}: element {i}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_avx512_image_walk_matches_the_avx2_walk_bitwise() {
        if !simd::avx512_or_skip("the_avx512_image_walk_matches_the_avx2_walk_bitwise") {
            return;
        }
        // Output channels that run 32-wide strips alone, a 16-wide
        // remainder, a scalar tail, and all three, through the image
        // operand: c·k² of 144 (one wide panel), 1 025 (three) and 24;
        // 64, 4 and 49 pixels a sample; stride 1 and 2, padding 0 and 1.
        let geometries = [
            (&[1, 3][..], 16, 8, 3, 1, 1),
            (&[1, 2][..], 41, 7, 5, 2, 0),
            (&[2][..], 6, 14, 2, 2, 0),
        ];
        let mut scratch = Conv2dScratch::default();
        let (mut want, mut got) = (Tensor::zeros(&[0]), Tensor::zeros(&[0]));
        for (g, &(batches, c, hw, k, stride, pad)) in geometries.iter().enumerate() {
            let spec = Conv2dSpec::new(k, stride, pad);
            for &oc in &[16usize, 31, 32, 48, 160, 256, 992, 8192] {
                let weight_t = Tensor::uniform(&[c * k * k, oc], -0.5, 0.5, (g + oc) as u64);
                let bias = Tensor::uniform(&[oc], -0.1, 0.1, oc as u64);
                for &b in batches {
                    let input = Tensor::uniform(&[b, c, hw, hw], -1.0, 1.0, (g * 10 + b) as u64);
                    let conv = |out: &mut Tensor, scratch: &mut Conv2dScratch, shards, level| {
                        out.as_mut_slice().fill(f32::NAN);
                        let at = (out, scratch);
                        conv_on(&input, (&weight_t, Some(&bias)), spec, at, shards, level)
                    };
                    conv(&mut want, &mut scratch, Some(1), SimdLevel::Avx2Fma).unwrap();
                    for shards in 1..=3 {
                        conv(&mut got, &mut scratch, Some(shards), SimdLevel::Avx512).unwrap();
                        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "c={c} k={k} oc={oc} b={b} shards={shards}: element {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_batch_is_an_empty_output() {
        let weight = Tensor::uniform(&[4, 3, 3, 3], -0.5, 0.5, 2);
        let bias = Tensor::uniform(&[4], -0.1, 0.1, 3);
        let spec = Conv2dSpec::new(3, 1, 0);
        let out = conv2d(&Tensor::zeros(&[0, 3, 8, 8]), &weight, Some(&bias), spec).unwrap();
        assert_eq!(out.shape().dims(), &[0, 4, 6, 6]);
    }

    #[test]
    fn no_input_channels_is_the_bias() {
        let bias = Tensor::uniform(&[3], -0.1, 0.1, 3);
        let spec = Conv2dSpec::new(3, 1, 0);
        let input = Tensor::zeros(&[2, 0, 4, 4]);
        let out = conv2d(&input, &Tensor::zeros(&[3, 0, 3, 3]), Some(&bias), spec).unwrap();
        assert_eq!(out.shape().dims(), &[2, 3, 2, 2]);
        for (i, v) in out.as_slice().iter().enumerate() {
            assert_eq!(*v, bias.as_slice()[i / 4 % 3]);
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
