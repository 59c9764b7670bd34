//! The capsule prediction-vector projection `û = u·W` (paper Eq 1) as one
//! register-tiled, core-sharded kernel.
//!
//! For every low-level capsule `i` the projection is a small GEMM
//! `[B, C_L] × [C_L, N]` (`N = H·C_H`) against that capsule's own weight
//! block, so the whole layer streams `W` exactly once. The kernel walks
//! `W_i` in 16-column strips and, per strip, the batch in balanced blocks
//! of at most six rows: the 6 × 16 outputs live in twelve 8-lane
//! accumulators across the whole `d = 0..C_L` reduction and are stored
//! once. Nothing is read back
//! from `out`, so the caller does not need to zero it.
//!
//! The strip loader is generic — plain `f32` loads, int8 affine
//! dequantize, fp16 convert — so the quantized arms decode a strip once per
//! row block rather than once per sample.
//!
//! **Arithmetic contract.** Every output element accumulates its `C_L`
//! products in ascending `d` from `+0.0`, with the step the previous
//! row-`axpy` loops used: an unfused multiply then add for `f32`
//! (`o += u·w`), one fused multiply-add for int8/fp16 (the
//! [`simd::axpy_i8`] / [`simd::axpy_f16`] step). Results are therefore
//! bitwise independent of SIMD level, batch size, row position and shard
//! count. The old loops skipped `u == 0.0` terms; the tile does not.
//! Dropping the skip is bit-safe for finite weights: the skipped term is
//! `±0`, and an accumulator that starts at `+0.0` can never become `−0.0`.
//!
//! **Sharding** is over the `L` capsules — the paper's inter-vault
//! L-dimension distribution (§5.1): each sample's `[L, N]` output row is
//! split at capsule boundaries, so every worker owns disjoint `&mut`
//! windows and its own contiguous run of `W`.

use std::ops::Range;

use crate::par::{for_each_shard, plan_threads};
use crate::quant::{f16_to_f32, QuantDType, QuantTensor};
use crate::simd::{self, SimdLevel};
use crate::tile::{self, F32Strip, Lhs, Strip, ROWS, STRIP};

/// Columns between a strip and the one its first row block prefetches.
#[cfg(target_arch = "x86_64")]
const LOOKAHEAD: usize = 4 * STRIP;

/// The projection weight `W`, `[L, C_L, N]` row-major.
#[derive(Debug, Clone, Copy)]
pub enum UhatWeights<'a> {
    /// Dense `f32`.
    F32(&'a [f32]),
    /// Quantized bytes; every affine block must cover whole capsules (the
    /// store's vault partitioning splits the leading dimension).
    Quant(&'a QuantTensor),
}

/// `out[b, i, :] = Σ_d u[b, i, d] · W[i, d, :]` for `u` `[B, L, C_L]`, `W`
/// `[L, C_L, N]`, `out` `[B, L, N]`, with `dims = (B, L, C_L, N)`.
///
/// Every element of `out` is written exactly once and never read. The `L`
/// capsules shard across `par::plan_threads(L, B·C_L·N)` workers.
///
/// # Panics
///
/// Panics when a slice length does not match `dims`.
pub fn uhat_project(
    u: &[f32],
    w: UhatWeights<'_>,
    out: &mut [f32],
    dims: (usize, usize, usize, usize),
) {
    let (b, l, cl, n) = dims;
    let shards = plan_threads(l, b.saturating_mul(cl).saturating_mul(n));
    project(u, w, out, dims, shards, simd::active_level());
}

/// [`uhat_project`] with the shard count and SIMD level pinned.
fn project(
    u: &[f32],
    w: UhatWeights<'_>,
    out: &mut [f32],
    dims: (usize, usize, usize, usize),
    shards: usize,
    level: SimdLevel,
) {
    let (b, l, cl, n) = dims;
    let w_len = match w {
        UhatWeights::F32(w) => w.len(),
        UhatWeights::Quant(q) => q.len(),
    };
    // The AVX2 tiles index with unchecked pointers; these are the checks
    // their SAFETY comments cite.
    assert_eq!(u.len(), b * l * cl, "u must be [B, L, C_L]");
    assert_eq!(w_len, l * cl * n, "W must be [L, C_L, N]");
    assert_eq!(out.len(), b * l * n, "out must be [B, L, N]");
    if out.is_empty() {
        return;
    }
    // Split every sample's [L, N] row at capsule boundaries: shard `t`
    // collects window `t` of each row.
    let per = l.div_ceil(shards.clamp(1, l));
    let mut windows: Vec<Vec<&mut [f32]>> = (0..l.div_ceil(per))
        .map(|_| Vec::with_capacity(b))
        .collect();
    for row in out.chunks_mut(l * n) {
        for (shard, window) in windows.iter_mut().zip(row.chunks_mut(per * n)) {
            shard.push(window);
        }
    }
    for_each_shard(windows.into_iter().enumerate(), |(t, mut rows)| {
        let caps = t * per..((t + 1) * per).min(l);
        project_shard(u, w, caps, &mut rows, (l, cl, n), level);
    });
}

/// Projects capsules `caps` for every sample; `rows[k]` is sample `k`'s
/// `[caps.len(), N]` output window.
fn project_shard(
    u: &[f32],
    w: UhatWeights<'_>,
    caps: Range<usize>,
    rows: &mut [&mut [f32]],
    (l, cl, n): (usize, usize, usize),
    level: SimdLevel,
) {
    let first = caps.start;
    // The fp16 strip's vector convert needs F16C on top of AVX2.
    let f16_level = if simd::hardware_supports_f16c() {
        level
    } else {
        SimdLevel::Scalar
    };
    for i in caps {
        let block = i * cl * n..(i + 1) * cl * n;
        let at = Capsule {
            u_off: i * cl,
            u_stride: l * cl,
            out_off: (i - first) * n,
            cl,
            n,
        };
        match w {
            // The `f32` step is unfused: multiply, round, then add.
            UhatWeights::F32(w) => {
                project_capsule(&F32Strip::<false>(&w[block]), u, rows, at, level)
            }
            UhatWeights::Quant(q) => {
                let bytes = q.bytes();
                match q.dtype() {
                    QuantDType::I8 => {
                        let params = q.block_at(block.start);
                        debug_assert!(
                            block.end <= params.start + params.elems,
                            "partition split must fall on capsule boundaries"
                        );
                        let strip = I8Strip {
                            q: &bytes[block],
                            scale: params.scale,
                            zero_point: params.zero_point,
                        };
                        project_capsule(&strip, u, rows, at, level);
                    }
                    QuantDType::F16 => {
                        let strip = F16Strip(&bytes[block.start * 2..block.end * 2]);
                        project_capsule(&strip, u, rows, at, f16_level);
                    }
                }
            }
        }
    }
}

/// Where one capsule's operands sit: sample `k`'s input row starts at
/// `u[k·u_stride + u_off]`, its output row at `rows[k][out_off]`.
#[derive(Clone, Copy)]
struct Capsule {
    u_off: usize,
    u_stride: usize,
    out_off: usize,
    cl: usize,
    n: usize,
}

struct I8Strip<'a> {
    q: &'a [u8],
    scale: f32,
    zero_point: i32,
}

impl Strip for I8Strip<'_> {
    const FUSED: bool = true;

    #[inline(always)]
    fn at(&self, idx: usize) -> f32 {
        (i32::from(self.q[idx] as i8) - self.zero_point) as f32 * self.scale
    }

    // SAFETY: the trait contract — AVX2, `idx + 8` within the block.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(&self, idx: usize) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        debug_assert!(idx + 8 <= self.q.len());
        // SAFETY: the caller keeps `idx + 8` inside the block, so the
        // 8-byte load is in bounds; the rest is register arithmetic — the
        // exact integer subtract, exact convert and one multiply of
        // `simd::axpy_i8`.
        unsafe {
            let raw = _mm_loadl_epi64(self.q.as_ptr().add(idx).cast());
            let ints = _mm256_sub_epi32(
                _mm256_cvtepi8_epi32(raw),
                _mm256_set1_epi32(self.zero_point),
            );
            _mm256_mul_ps(_mm256_cvtepi32_ps(ints), _mm256_set1_ps(self.scale))
        }
    }

    #[inline(always)]
    fn hint(&self, idx: usize) -> *const i8 {
        self.q.as_ptr().wrapping_add(idx).cast()
    }
}

/// Little-endian binary16 byte pairs.
struct F16Strip<'a>(&'a [u8]);

impl Strip for F16Strip<'_> {
    const FUSED: bool = true;
    const F16C: bool = true;

    #[inline(always)]
    fn at(&self, idx: usize) -> f32 {
        f16_to_f32(u16::from_le_bytes([self.0[2 * idx], self.0[2 * idx + 1]]))
    }

    // SAFETY: the trait contract — AVX2 and F16C, `idx + 8` within the
    // block.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(&self, idx: usize) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        debug_assert!(2 * (idx + 8) <= self.0.len());
        // SAFETY: the caller keeps `idx + 8` halves inside the block, so
        // the unaligned 16-byte load is in bounds.
        unsafe { _mm256_cvtph_ps(_mm_loadu_si128(self.0.as_ptr().add(2 * idx).cast())) }
    }

    #[inline(always)]
    fn hint(&self, idx: usize) -> *const i8 {
        self.0.as_ptr().wrapping_add(2 * idx).cast()
    }
}

/// Projects one capsule for every sample at `level`.
fn project_capsule<S: Strip>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
    level: SimdLevel,
) {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2Fma {
        // SAFETY: Avx2Fma is only selected after runtime feature detection
        // (tests guard with `hardware_supports_avx2_fma`), and the fp16
        // strip only reaches here when F16C was detected too.
        return unsafe {
            if S::F16C {
                capsule_avx2_f16c(strip, u, rows, at)
            } else {
                capsule_avx2(strip, u, rows, at)
            }
        };
    }
    let _ = level;
    capsule_tiles(strip, u, rows, at, 0);
}

/// The AVX2+FMA instantiation of the tile walk.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn capsule_avx2<S: Strip>(strip: &S, u: &[f32], rows: &mut [&mut [f32]], at: Capsule) {
    // SAFETY: forwarded — the caller guarantees AVX2+FMA.
    unsafe { capsule_vector(strip, u, rows, at) }
}

/// The AVX2+FMA+F16C instantiation, for the fp16 strip's vector convert.
///
/// # Safety
///
/// Requires AVX2+FMA and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn capsule_avx2_f16c<S: Strip>(strip: &S, u: &[f32], rows: &mut [&mut [f32]], at: Capsule) {
    // SAFETY: forwarded — the caller guarantees the features.
    unsafe { capsule_vector(strip, u, rows, at) }
}

/// Full 16-column strips through the vector tile, the column tail (and
/// nothing else) through the scalar tile — bitwise the same step.
///
/// # Safety
///
/// Requires the CPU features of [`Strip::load8`]; must be inlined into a
/// `#[target_feature]` caller.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn capsule_vector<S: Strip>(strip: &S, u: &[f32], rows: &mut [&mut [f32]], at: Capsule) {
    let full = at.n / STRIP * STRIP;
    let mut j = 0;
    while j < full {
        // A strip's rows sit `N` weights apart — a page-sized stride the
        // hardware prefetcher does not follow — so the strip's first row
        // block hints the lines of the strip `LOOKAHEAD` columns on, which
        // past the last strip is the head of the next capsule's block.
        let ahead = j + LOOKAHEAD;
        let mut hint = Some(if ahead < full {
            ahead
        } else {
            at.cl * at.n + ahead - full
        });
        for block in tile::row_blocks(rows.len()) {
            // SAFETY: features per this function's contract; `j + 16 ≤ n`
            // and `block.end ≤ rows.len()`.
            unsafe {
                tile::with_rows!(block.len(), R => {
                    tile_vector::<S, R>(strip, u, rows, at, block.start, j, hint)
                })
            }
            hint = None;
        }
        j += STRIP;
    }
    capsule_tiles(strip, u, rows, at, full);
}

/// `R` rows × 16 columns: the shared tile from zero across the whole
/// `d = 0..C_L` reduction, stored once.
///
/// # Safety
///
/// Requires the CPU features of [`Strip::load8`], `j + 16 ≤ n`,
/// `r0 + R ≤ rows.len()`, and the operand extents [`project`] asserts.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_vector<S: Strip, const R: usize>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
    r0: usize,
    j: usize,
    hint: Option<usize>,
) {
    use std::arch::x86_64::*;
    debug_assert!(j + STRIP <= at.n && r0 + R <= rows.len());
    let lhs = Lhs {
        data: u,
        off: r0 * at.u_stride + at.u_off,
        stride: at.u_stride,
    };
    // SAFETY: `project` asserted `u` is [B, L, C_L] and `rows` holds B
    // windows of [caps, N], so for k < B the tile's reads `u[k·u_stride +
    // u_off + d]` (d < C_L) and the 16-float stores at `rows[k][out_off +
    // j]` (j + 16 ≤ N) are in bounds, and `C_L·N` is the strip's length.
    unsafe {
        let zero = [[_mm256_setzero_ps(); 2]; R];
        let acc = tile::tile_vector::<S, R>(strip, (at.n, j), lhs, 0..at.cl, hint, zero);
        for (r, a) in acc.iter().enumerate() {
            let dst = rows[r0 + r].as_mut_ptr().add(at.out_off + j);
            _mm256_storeu_ps(dst, a[0]);
            _mm256_storeu_ps(dst.add(8), a[1]);
        }
    }
}

/// The scalar tile walk over columns `from..n`: same strips, same row
/// blocks, same per-element step as the vector tile. It is the whole
/// kernel at [`SimdLevel::Scalar`] and the column tail of the vector walk.
#[inline(always)]
fn capsule_tiles<S: Strip>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
    from: usize,
) {
    let n = at.n;
    let mut j = from;
    while j < n {
        let width = STRIP.min(n - j);
        for (r0, block) in rows.chunks_mut(ROWS).enumerate() {
            let lhs = Lhs {
                data: u,
                off: r0 * ROWS * at.u_stride + at.u_off,
                stride: at.u_stride,
            };
            let mut acc = [[0.0f32; STRIP]; ROWS];
            let live = &mut acc[..block.len()];
            tile::tile_scalar(strip, (n, j, width), lhs, 0..at.cl, live);
            for (row, a) in block.iter_mut().zip(&acc) {
                row[at.out_off + j..at.out_off + j + width].copy_from_slice(&a[..width]);
            }
        }
        j += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// The row-`axpy` loops the tile replaced, kept as the bitwise
    /// reference: per capsule and sample, one pass over the output row per
    /// `d`, skipping `u == 0.0` terms.
    fn reference(
        u: &[f32],
        w: UhatWeights<'_>,
        (b, l, cl, n): (usize, usize, usize, usize),
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; b * l * n];
        for i in 0..l {
            for bi in 0..b {
                let urow = &u[(bi * l + i) * cl..][..cl];
                let orow = &mut out[(bi * l + i) * n..][..n];
                for (d, &uv) in urow.iter().enumerate() {
                    if uv == 0.0 {
                        continue;
                    }
                    let off = (i * cl + d) * n;
                    match w {
                        UhatWeights::F32(w) => {
                            for (o, &wv) in orow.iter_mut().zip(&w[off..off + n]) {
                                *o += uv * wv;
                            }
                        }
                        UhatWeights::Quant(q) => match q.dtype() {
                            QuantDType::I8 => {
                                let p = q.block_at(off);
                                let bytes = &q.bytes()[off..off + n];
                                simd::axpy_i8(uv, bytes, p.scale, p.zero_point, orow);
                            }
                            QuantDType::F16 => {
                                simd::axpy_f16(uv, &q.bytes()[off * 2..(off + n) * 2], orow);
                            }
                        },
                    }
                }
            }
        }
        out
    }

    fn levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if simd::hardware_supports_avx2_fma() {
            levels.push(SimdLevel::Avx2Fma);
        }
        levels
    }

    /// `u` with exact zeros (both signs) injected.
    fn inputs(b: usize, l: usize, cl: usize, seed: u64) -> Vec<f32> {
        let mut u = Tensor::uniform(&[b, l, cl], -1.0, 1.0, seed).into_vec();
        for (k, v) in u.iter_mut().enumerate() {
            match k % 7 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        u
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k}: {g} vs {w}");
        }
    }

    #[test]
    fn tile_matches_the_row_axpy_loop_bitwise() {
        // L = 7 is divisible by neither 2 nor 3; C_L = 9 is odd.
        let (l, cl) = (7usize, 9usize);
        for &n in &[5usize, 16, 31, 160, 992] {
            let w = Tensor::uniform(&[l, cl, n], -0.5, 0.5, n as u64).into_vec();
            // Two affine blocks splitting the capsule dimension, as the
            // store's vault partitioning does.
            let quantized = [QuantDType::I8, QuantDType::F16]
                .map(|dtype| QuantTensor::quantize(dtype, &w, &[l, cl, n], &[3, 4]).unwrap());
            let weights = [
                ("f32", UhatWeights::F32(&w)),
                ("int8", UhatWeights::Quant(&quantized[0])),
                ("fp16", UhatWeights::Quant(&quantized[1])),
            ];
            // Every block height, alone and in balanced splits.
            for b in (1usize..=7).chain([12, 13, 16]) {
                let dims = (b, l, cl, n);
                let u = inputs(b, l, cl, (n * 31 + b) as u64);
                for (name, w) in weights {
                    let want = reference(&u, w, dims);
                    for level in levels() {
                        for shards in 1..=3 {
                            // Stale contents must not leak into the result.
                            let mut got = vec![f32::NAN; b * l * n];
                            project(&u, w, &mut got, dims, shards, level);
                            let what = format!("{name} n={n} b={b} {level:?} shards={shards}");
                            assert_bits(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_row_does_not_depend_on_its_batch() {
        let (b, l, cl, n) = (16usize, 5usize, 12usize, 40usize);
        let w = Tensor::uniform(&[l, cl, n], -0.5, 0.5, 3).into_vec();
        let u = inputs(b, l, cl, 4);
        for level in levels() {
            let mut batch = vec![0.0f32; b * l * n];
            project(
                &u,
                UhatWeights::F32(&w),
                &mut batch,
                (b, l, cl, n),
                2,
                level,
            );
            for k in 0..b {
                let mut alone = vec![0.0f32; l * n];
                let sample = &u[k * l * cl..(k + 1) * l * cl];
                project(
                    sample,
                    UhatWeights::F32(&w),
                    &mut alone,
                    (1, l, cl, n),
                    1,
                    level,
                );
                assert_bits(
                    &batch[k * l * n..(k + 1) * l * n],
                    &alone,
                    &format!("row {k} {level:?}"),
                );
            }
        }
    }

    #[test]
    fn planned_entry_point_handles_degenerate_extents() {
        let w = vec![0.25f32; 2 * 3 * 4];
        // Empty batch: nothing to write.
        uhat_project(&[], UhatWeights::F32(&w), &mut [], (0, 2, 3, 4));
        // C_L = 0: an empty sum is +0.0 everywhere.
        let mut out = vec![f32::NAN; 2 * 2 * 4];
        uhat_project(&[], UhatWeights::F32(&[]), &mut out, (2, 2, 0, 4));
        assert!(out.iter().all(|v| v.to_bits() == 0));
        // More shards than capsules clamps to one capsule per shard.
        let u = inputs(2, 2, 3, 9);
        let want = reference(&u, UhatWeights::F32(&w), (2, 2, 3, 4));
        let mut got = vec![0.0f32; 2 * 2 * 4];
        project(
            &u,
            UhatWeights::F32(&w),
            &mut got,
            (2, 2, 3, 4),
            8,
            SimdLevel::Scalar,
        );
        assert_bits(&got, &want, "8 shards over 2 capsules");
    }

    #[test]
    #[should_panic(expected = "out must be [B, L, N]")]
    fn mismatched_output_length_panics() {
        let w = vec![0.0f32; 2 * 3 * 4];
        uhat_project(&[0.0; 6], UhatWeights::F32(&w), &mut [0.0; 7], (1, 2, 3, 4));
    }
}
