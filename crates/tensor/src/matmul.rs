//! Matrix products on the crate's one GEMM kernel: the `R × 16` register
//! tile of [`crate::tile`], walked in `k` panels.
//!
//! **Walk.** For each panel of [`PANEL`] reduction steps, each 16-column
//! strip of `b` and each block of four rows of `a`, the tile's accumulators
//! are read back from the output (zero on the first panel), advanced over
//! the panel and stored (plus the bias on the last). A panel of a strip
//! stays in L1 for every row block; holding the accumulators across all of
//! `k` instead walks `k` lines `n` floats apart per row block, which at the
//! CapsNet-MNIST primary convolution (`k` = 20 736, `n` = 256) thrashes L1
//! and the TLB: 16.7–20 GFLOP/s against 37 with panels on one thread.
//!
//! **Arithmetic contract.** Every output element accumulates its `k`
//! products in ascending `p` from `+0.0`: one fused multiply-add per step
//! at [`SimdLevel::Avx2Fma`] (column tails use scalar `mul_add`, the same
//! rounding), an unfused multiply then add at [`SimdLevel::Scalar`]; the
//! bias is added after the reduction. The round trip through the output is
//! exact, so results are bitwise independent of panel length, row position,
//! batch size and shard count at a given level. Terms with `a == 0.0` are
//! not skipped, which is bit-safe for finite `b`: an accumulator that
//! starts at `+0.0` and adds `±0` stays `+0.0`.
//!
//! **Output and shards.** [`Gemm::pixels`] consecutive rows are a sample and
//! the output is `[m / pixels, n, pixels]`: `1` is the row-major product,
//! `out_h·out_w` the convolution's `[batch, out_c, out_h, out_w]`, stored
//! from the tile with no staging buffer or transpose pass. Several samples
//! shard between samples, one sample between column strips — a contiguous
//! output window either way — as [`plan_threads`] grants.

use std::ops::Range;

use crate::error::TensorError;
use crate::par::{for_each_shard, plan_threads};
use crate::simd::{self, SimdLevel};
use crate::tensor::Tensor;
use crate::tile::{self, F32Strip, Lhs, ROWS, STRIP};

/// Reduction steps per panel. A panel of one strip is `PANEL` 64-byte lines
/// of `b` (32 KB) plus four `PANEL`-float runs of `a` (8 KB), which every
/// row block of the strip reuses from the reference host's 48 KB L1 (the
/// strip's tail from L2 on a 32 KB part), and the accumulators' round trip
/// is 128 loads and stores against the tile's 4 096 FMAs. Measured at `k` =
/// 20 736, `n` = 256: 128 is 25% slower, 256 7% slower, 1 024 level, and
/// 2 048 was 25% slower in the sizing runs.
const PANEL: usize = 512;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// One call of the crate's GEMM kernel (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::MatmulDims`] when the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (a_dims, b_dims) = (self.shape().dims(), other.shape().dims());
        if a_dims.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: a_dims.len(),
            });
        }
        if b_dims.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: b_dims.len(),
            });
        }
        let (m, k) = (a_dims[0], a_dims[1]);
        let (k2, n) = (b_dims[0], b_dims[1]);
        if k != k2 {
            return Err(TensorError::MatmulDims {
                left: (m, k),
                right: (k2, n),
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_into(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }
}

/// Core GEMM: `out[m,n] = a[m,k] * b[k,n]`, writing into the provided slice
/// (every element is overwritten, none is read). Public so allocation-free
/// callers (the capsnet forward arena) can reuse their own output buffers.
///
/// # Panics
///
/// Panics when a slice length does not match `m`/`k`/`n`.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let product = Gemm {
        a,
        b,
        bias: None,
        dims: (m, k, n),
        pixels: 1,
    };
    product.run(out);
}

/// One product `a` `[m, k]` × `b` `[k, n]` (+ `bias` `[n]`) with
/// `dims = (m, k, n)`, written as `[m / pixels, n, pixels]`: element
/// `(row, col)` lands at `(row / pixels)·n·pixels + col·pixels +
/// row % pixels`.
#[derive(Clone, Copy)]
pub(crate) struct Gemm<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) b: &'a [f32],
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) dims: (usize, usize, usize),
    pub(crate) pixels: usize,
}

impl Gemm<'_> {
    /// Runs the product into `out` on as many shards as [`plan_threads`]
    /// grants its shape. `m == 0` and `n == 0` touch no memory; `k == 0`
    /// stores the bias (or zeros).
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match `dims` or `pixels` does
    /// not divide `m`.
    pub(crate) fn run(self, out: &mut [f32]) {
        self.run_on(out, None, simd::active_level());
    }

    /// [`Self::run`] with the shard count (`None`: planned) and SIMD level
    /// pinned.
    fn run_on(self, out: &mut [f32], shards: Option<usize>, level: SimdLevel) {
        let ((m, k, n), pixels) = (self.dims, self.pixels);
        // The AVX2 tile indexes with unchecked pointers; these are the
        // checks its SAFETY comments cite.
        assert_eq!(Some(self.a.len()), m.checked_mul(k), "a must be [m, k]");
        assert_eq!(Some(self.b.len()), k.checked_mul(n), "b must be [k, n]");
        assert_eq!(Some(out.len()), m.checked_mul(n), "out must be [m, n]");
        assert!(
            self.bias.is_none_or(|bias| bias.len() == n),
            "bias must be [n]"
        );
        assert!(pixels > 0 && m % pixels == 0, "samples are whole");
        if out.is_empty() {
            return;
        }
        // Several samples split between samples, one sample splits its
        // columns between strips: either way a shard's part of the output
        // is one contiguous window.
        let by_rows = m > pixels;
        let (units, unit_work) = if by_rows {
            (m / pixels, (pixels * k).saturating_mul(n))
        } else {
            (n.div_ceil(STRIP), (m * k).saturating_mul(STRIP))
        };
        let shards = shards.unwrap_or_else(|| plan_threads(units, unit_work));
        let per = units.div_ceil(shards.clamp(1, units));
        let (rows_per, cols_per) = if by_rows {
            (per * pixels, n)
        } else {
            (m, per * STRIP)
        };
        for_each_shard(
            out.chunks_mut(rows_per * cols_per).enumerate(),
            |(t, window)| {
                let (rows, cols) = if by_rows {
                    (t * rows_per..((t + 1) * rows_per).min(m), 0..n)
                } else {
                    (0..m, t * cols_per..((t + 1) * cols_per).min(n))
                };
                let shard = Gemm {
                    a: &self.a[rows.start * k..rows.end * k],
                    dims: (rows.len(), k, n),
                    ..self
                };
                #[cfg(target_arch = "x86_64")]
                if level == SimdLevel::Avx2Fma {
                    // SAFETY: Avx2Fma is only selected after runtime feature
                    // detection (tests guard with
                    // `hardware_supports_avx2_fma`).
                    return unsafe { shard.walk_avx2(window, cols) };
                }
                let _ = level;
                // SAFETY: the scalar walk has no CPU requirement.
                unsafe { shard.walk::<false>(window, cols) };
            },
        );
    }

    /// [`Self::walk`] compiled for AVX2+FMA, so the tile's intrinsics and
    /// the column tail's `mul_add` inline as vector and FMA instructions.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn walk_avx2(&self, window: &mut [f32], cols: Range<usize>) {
        // SAFETY: the caller's contract is `walk::<true>`'s.
        unsafe { self.walk::<true>(window, cols) };
    }

    /// Columns `cols` of every row into `window`, the `[m / pixels,
    /// cols.len(), pixels]` part of the output they own: panels, then
    /// strips, then row blocks. `VECTOR` runs whole strips through the
    /// AVX2 tile and fuses every step; the scalar tile is its column tail
    /// and the whole kernel at [`SimdLevel::Scalar`].
    ///
    /// # Safety
    ///
    /// `VECTOR` requires AVX2+FMA and inlining into a `#[target_feature]`
    /// caller; `a` is `[m, k]` and `b` is `[k, n]`, as [`Self::run_on`]
    /// asserts.
    #[inline(always)]
    unsafe fn walk<const VECTOR: bool>(&self, window: &mut [f32], cols: Range<usize>) {
        let ((m, k, n), pixels) = (self.dims, self.pixels);
        debug_assert_eq!(window.len(), m * cols.len());
        let strip = F32Strip::<VECTOR>(self.b);
        for p0 in (0..k.max(1)).step_by(PANEL) {
            let steps = p0..(p0 + PANEL).min(k);
            let bias = self.bias.filter(|_| steps.end == k);
            for j in cols.clone().step_by(STRIP) {
                let width = STRIP.min(cols.end - j);
                let vector = cfg!(target_arch = "x86_64") && VECTOR && width == STRIP;
                for r0 in (0..m).step_by(ROWS) {
                    let mut acc = [[0.0f32; STRIP]; ROWS];
                    let live = &mut acc[..ROWS.min(m - r0)];
                    // Column `j` of row `r0 + r`; columns are `pixels` apart.
                    let at = |r: usize| {
                        let row = r0 + r;
                        (row / pixels * cols.len() + j - cols.start) * pixels + row % pixels
                    };
                    if p0 > 0 {
                        for (r, a) in live.iter_mut().enumerate() {
                            let base = at(r);
                            for (c, av) in a[..width].iter_mut().enumerate() {
                                *av = window[base + c * pixels];
                            }
                        }
                    }
                    let lhs = Lhs {
                        data: self.a,
                        off: r0 * k,
                        stride: k,
                    };
                    #[cfg(target_arch = "x86_64")]
                    if vector {
                        // A strip's rows sit `n` floats apart, a stride the
                        // hardware prefetcher does not follow: the first row
                        // block hints the lines of the panel's next strip.
                        let hint = (r0 == 0).then_some(j + STRIP);
                        // SAFETY: AVX2+FMA and the operand extents per this
                        // function's contract; `r0 + live.len() ≤ m`,
                        // `j + 16 ≤ n` and `steps.end ≤ k`.
                        unsafe {
                            tile::tile_vector_rows(&strip, (n, j), lhs, steps.clone(), hint, live);
                        }
                    }
                    if !vector {
                        tile::tile_scalar(&strip, (n, j, width), lhs, steps.clone(), live);
                    }
                    for (r, a) in live.iter().enumerate() {
                        let base = at(r);
                        for (c, &av) in a[..width].iter().enumerate() {
                            window[base + c * pixels] = bias.map_or(av, |bias| av + bias[j + c]);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    /// The i-k-j kernel the tile replaced, kept as the bitwise reference
    /// for [`SimdLevel::Scalar`]: one pass over the output row per `p`,
    /// skipping `a == 0.0` terms.
    fn matmul_serial_ikj(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        let m = out.len() / n;
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            out_row.fill(0.0);
            for p in 0..k {
                let aik = a[i * k + p];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// Its AVX2 twin, the reference for [`SimdLevel::Avx2Fma`]: each `p`
    /// step is one FMA `axpy` over the output row.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_serial_ikj_avx2(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        let m = out.len() / n;
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            out_row.fill(0.0);
            for p in 0..k {
                let aik = a[i * k + p];
                if aik == 0.0 {
                    continue;
                }
                // SAFETY: forwarded — the caller guarantees AVX2+FMA.
                unsafe { simd::avx2::axpy(aik, &b[p * n..(p + 1) * n], out_row) };
            }
        }
    }

    /// The levels this host can run.
    fn levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if simd::hardware_supports_avx2_fma() {
            levels.push(SimdLevel::Avx2Fma);
        }
        levels
    }

    /// The reference product at `level` (one of [`levels`]).
    fn reference(
        level: SimdLevel,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        match level {
            SimdLevel::Scalar => matmul_serial_ikj(a, b, &mut out, k, n),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `levels` offers Avx2Fma only when the hardware has it.
            SimdLevel::Avx2Fma => unsafe { matmul_serial_ikj_avx2(a, b, &mut out, k, n) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2Fma => unreachable!("not offered by `levels`"),
        }
        out
    }

    /// `a` with exact zeros of both signs injected (`sparse = false`) or
    /// clamped at zero like a ReLU output (`sparse = true`).
    fn lhs(m: usize, k: usize, sparse: bool) -> Vec<f32> {
        let mut a = Tensor::uniform(&[m, k], -1.0, 1.0, (m * 131 + k) as u64).into_vec();
        for (i, v) in a.iter_mut().enumerate() {
            match (sparse, i % 7) {
                (true, _) => *v = v.max(0.0),
                (false, 0) => *v = 0.0,
                (false, 3) => *v = -0.0,
                _ => {}
            }
        }
        a
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    const KS: [usize; 8] = [1, 9, 25, 144, PANEL - 1, PANEL, PANEL + 1, 3 * PANEL + 7];

    #[test]
    fn tile_walk_matches_the_ikj_kernels_bitwise() {
        let ms = [1usize, 3, 4, 5, 9, 36, 288];
        let ns = [1usize, 4, 5, 16, 31, 33, 256];
        for (mi, &m) in ms.iter().enumerate() {
            for (ni, &n) in ns.iter().enumerate() {
                // Every k meets every m and every n.
                let picks = [KS[(mi + ni) % 8], KS[(mi + 3 * ni + 4) % 8]];
                for (which, &k) in picks.iter().enumerate() {
                    let a = lhs(m, k, which == 1);
                    let b = Tensor::uniform(&[k, n], -1.0, 1.0, (k * n) as u64).into_vec();
                    for level in levels() {
                        let want = reference(level, &a, &b, (m, k, n));
                        for shards in 1..=3 {
                            // Stale contents must not leak into the result.
                            let mut got = vec![f32::NAN; m * n];
                            matmul_with(level, shards, &a, &b, &mut got, (m, k, n));
                            let what = format!("[{m}x{k}x{n}] {level:?} shards={shards}");
                            assert_bits(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn long_reductions_at_the_widest_shapes_match_bitwise() {
        for &(m, k, n) in &[(36usize, KS[7], 256usize), (288, PANEL + 1, 256)] {
            let a = lhs(m, k, true);
            let b = Tensor::uniform(&[k, n], -1.0, 1.0, 77).into_vec();
            for level in levels() {
                let want = reference(level, &a, &b, (m, k, n));
                let mut got = vec![f32::NAN; m * n];
                matmul_with(level, 2, &a, &b, &mut got, (m, k, n));
                assert_bits(&got, &want, &format!("[{m}x{k}x{n}] {level:?}"));
                // The planned entry point, which shards these on a
                // multi-core host.
                if level == simd::active_level() {
                    got.fill(f32::NAN);
                    matmul_into(&a, &b, &mut got, m, k, n);
                    assert_bits(&got, &want, &format!("[{m}x{k}x{n}] planned"));
                }
            }
        }
    }

    #[test]
    fn simd_levels_agree_closely() {
        if !simd::hardware_supports_avx2_fma() {
            return;
        }
        for &(m, k, n) in &[
            (64usize, 25usize, 8usize),
            (4, 200, 16),
            (7, 13, 5),
            (3, 9, 1),
            (16, 16, 33),
            (5, 8, 31),
            (12, 40, 100),
        ] {
            let a = lhs(m, k, false);
            let b = Tensor::uniform(&[k, n], -1.0, 1.0, (k * n) as u64).into_vec();
            let (mut scalar, mut fused) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
            matmul_with(SimdLevel::Scalar, 1, &a, &b, &mut scalar, (m, k, n));
            matmul_with(SimdLevel::Avx2Fma, 1, &a, &b, &mut fused, (m, k, n));
            for (x, r) in fused.iter().zip(&scalar) {
                assert!(
                    (x - r).abs() <= 1e-5 * (1.0 + r.abs()),
                    "[{m}x{k}x{n}] avx2 {x} vs scalar {r}"
                );
            }
        }
    }

    fn matmul_with(
        level: SimdLevel,
        shards: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        dims: (usize, usize, usize),
    ) {
        let g = Gemm {
            a,
            b,
            bias: None,
            dims,
            pixels: 1,
        };
        g.run_on(out, Some(shards), level);
    }

    #[test]
    fn sample_major_store_is_the_transposed_product_plus_bias() {
        // Row blocks straddle samples (pixels = 9, 1) or tile them (36);
        // one sample splits its columns, several split at sample
        // boundaries.
        for &(samples, pixels, k, n) in &[
            (3usize, 9usize, PANEL + 3, 33usize),
            (5, 1, 40, 20),
            (8, 36, 2 * PANEL, 48),
            (1, 9, 70, 100),
            (1, 5, 3, 7),
        ] {
            let m = samples * pixels;
            let a = lhs(m, k, true);
            let b = Tensor::uniform(&[k, n], -1.0, 1.0, 5).into_vec();
            let bias = Tensor::uniform(&[n], -1.0, 1.0, 6).into_vec();
            for level in levels() {
                let plain = reference(level, &a, &b, (m, k, n));
                let mut want = vec![0.0f32; m * n];
                for row in 0..m {
                    for col in 0..n {
                        want[(row / pixels * n + col) * pixels + row % pixels] =
                            plain[row * n + col] + bias[col];
                    }
                }
                for shards in 1..=3 {
                    let mut got = vec![f32::NAN; m * n];
                    let g = Gemm {
                        a: &a,
                        b: &b,
                        bias: Some(&bias),
                        dims: (m, k, n),
                        pixels,
                    };
                    g.run_on(&mut got, Some(shards), level);
                    let what = format!("{samples}x{pixels} k={k} n={n} {level:?} shards={shards}");
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn a_row_does_not_depend_on_its_position() {
        let (m, k, n) = (11usize, PANEL + 9, 37usize);
        let a = lhs(m, k, false);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 8).into_vec();
        for level in levels() {
            let mut fat = vec![0.0f32; m * n];
            matmul_with(level, 2, &a, &b, &mut fat, (m, k, n));
            for r in 0..m {
                let mut alone = vec![0.0f32; n];
                matmul_with(level, 1, &a[r * k..(r + 1) * k], &b, &mut alone, (1, k, n));
                assert_bits(
                    &fat[r * n..(r + 1) * n],
                    &alone,
                    &format!("row {r} {level:?}"),
                );
            }
        }
    }

    #[test]
    fn zero_columns_is_an_empty_product() {
        let c = Tensor::zeros(&[3, 2])
            .matmul(&Tensor::zeros(&[2, 0]))
            .unwrap();
        assert_eq!(c.shape().dims(), &[3, 0]);
    }

    #[test]
    fn zero_rows_is_an_empty_product() {
        let c = Tensor::zeros(&[0, 2])
            .matmul(&Tensor::zeros(&[2, 5]))
            .unwrap();
        assert_eq!(c.shape().dims(), &[0, 5]);
        matmul_into(&[], &[0.0; 10], &mut [], 0, 2, 5);
    }

    #[test]
    fn an_empty_reduction_stores_zeros() {
        for level in levels() {
            let mut out = vec![f32::NAN; 5 * 20];
            matmul_with(level, 2, &[], &[], &mut out, (5, 0, 20));
            assert!(out.iter().all(|v| v.to_bits() == 0), "{level:?}");
        }
        let c = Tensor::zeros(&[3, 0])
            .matmul(&Tensor::zeros(&[0, 2]))
            .unwrap();
        assert_eq!(c.as_slice(), &[0.0; 6]);
        // With a bias the store is the bias, in the sample-major layout.
        let bias: Vec<f32> = (0..20).map(|c| c as f32).collect();
        for level in levels() {
            let mut out = vec![f32::NAN; 6 * 20];
            let g = Gemm {
                a: &[],
                b: &[],
                bias: Some(&bias),
                dims: (6, 0, 20),
                pixels: 3,
            };
            g.run_on(&mut out, Some(2), level);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, bias[i / 3 % 20], "{level:?} element {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out must be [m, n]")]
    fn mismatched_output_length_panics() {
        matmul_into(&[0.0; 6], &[0.0; 6], &mut [0.0; 5], 2, 3, 2);
    }

    #[test]
    fn small_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::uniform(&[7, 7], -1.0, 1.0, 3);
        let c = a.matmul(&Tensor::eye(7)).unwrap();
        for (x, y) in a.as_slice().iter().zip(c.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn dimension_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(a.matmul(&b), Err(TensorError::MatmulDims { .. })));
        assert!(matches!(
            Tensor::zeros(&[2]).matmul(&b),
            Err(TensorError::RankMismatch { .. })
        ));
    }
}
