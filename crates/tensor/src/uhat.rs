//! The capsule prediction-vector projection `û = u·W` (paper Eq 1) as one
//! register-tiled, core-sharded kernel.
//!
//! For every low-level capsule `i` the projection is a small GEMM
//! `[B, C_L] × [C_L, N]` (`N = H·C_H`) against that capsule's own weight
//! block, so the whole layer streams `W` exactly once. The kernel walks
//! `W_i` in 16-column strips and, per strip, the batch in balanced blocks
//! of at most six rows: the 6 × 16 outputs live in twelve 8-lane
//! accumulators across the whole `d = 0..C_L` reduction and are stored
//! once. At [`SimdLevel::Avx512`] an `f32` weight is walked in 32-column
//! strips of twelve 16-lane accumulators while they fit, then the 16-column
//! strips; the quantized strips stay 16 wide. The caller does not need to
//! zero `out`.
//!
//! The strip loader is generic — plain `f32` loads, int8 affine
//! dequantize, fp16 convert — so the quantized arms decode a strip once per
//! row block rather than once per sample. These loaders are the crate's
//! only int8 / fp16 decode.
//!
//! An int8 capsule may overlap several affine blocks, as a one-capsule
//! weight (`L = 1`, `C_L = in`) does when its rows are split into vault
//! partitions (one block each). The walk then runs
//! once per block, over that block's run of `d` with its scale and zero
//! point, and each later run starts its accumulators from the output the
//! run before stored, as the GEMM's `k` panels do. The order of the steps
//! is unchanged. Every capsule of a stored `[L, C_L, N]` weight lies inside
//! one block (blocks cover whole rows of `L`), so it runs once, from zero,
//! and never reads `out`.
//!
//! **Arithmetic contract.** Every output element accumulates its `C_L`
//! products in ascending `d` from `+0.0`. The `f32` step is an unfused
//! multiply then add, `o += u·w`. The int8 step is one fused multiply-add
//! `o = fma(u, (q − zero_point)·scale, o)`, where the subtract and convert
//! are exact and the dequantizing multiply rounds once. The fp16 step is
//! `o = fma(u, h, o)` with `h` the exact half-to-single convert. Results are
//! therefore bitwise independent of SIMD level, batch size, row position
//! and shard count. Terms with `u == 0.0` are not skipped, which is
//! bit-safe against a loop that skips them as long as the weight is
//! finite: the skipped term is `±0`, and an accumulator that starts at
//! `+0.0` can never become `−0.0`. An fp16 weight of ±Inf or NaN turns a
//! `u == 0.0` term into NaN.
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
#[cfg(target_arch = "x86_64")]
use crate::tile::{Load, Loads, Vector};

/// Columns between a strip and the one its first row block prefetches.
#[cfg(target_arch = "x86_64")]
const LOOKAHEAD: usize = 4 * STRIP;

/// The projection weight `W`, `[L, C_L, N]` row-major.
#[derive(Debug, Clone, Copy)]
pub enum UhatWeights<'a> {
    /// Dense `f32`.
    F32(&'a [f32]),
    /// Quantized bytes; every affine block must start on a row of `W`
    /// (a multiple of `N` elements), as [`QuantTensor`] guarantees for a
    /// `[L, C_L, N]` or `[C_L, N]` shape.
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
/// Panics when a slice length does not match `dims`, or when an int8
/// block of `W` starts inside a row of `N` elements.
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
    if cl == 0 {
        // An empty sum, and a quantized `W` with no blocks to run.
        out.fill(0.0);
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
                project_capsule::<_, false>(&F32Strip::<false>(&w[block]), u, rows, at, level)
            }
            UhatWeights::Quant(q) => {
                let bytes = q.bytes();
                match q.dtype() {
                    QuantDType::I8 => {
                        let blocks = q.blocks();
                        let lo = blocks.partition_point(|p| p.start + p.elems <= block.start);
                        let overlap = blocks[lo..].iter().take_while(|p| p.start < block.end);
                        for (k, p) in overlap.enumerate() {
                            let from = p.start.max(block.start);
                            let to = (p.start + p.elems).min(block.end);
                            assert!(
                                from % n == 0 && to % n == 0,
                                "an int8 block must start on a row of W"
                            );
                            let strip = I8Strip {
                                q: &bytes[from..to],
                                scale: p.scale,
                                zero_point: p.zero_point,
                            };
                            let run = Capsule {
                                u_off: at.u_off + (from - block.start) / n,
                                cl: (to - from) / n,
                                ..at
                            };
                            if k == 0 {
                                project_capsule::<_, false>(&strip, u, rows, run, level);
                            } else {
                                project_capsule::<_, true>(&strip, u, rows, run, level);
                            }
                        }
                    }
                    QuantDType::F16 => {
                        let strip = F16Strip(&bytes[block.start * 2..block.end * 2]);
                        project_capsule::<_, false>(&strip, u, rows, at, f16_level);
                    }
                }
            }
        }
    }
}

/// Where one capsule's operands (or one run's) sit: sample `k`'s input row
/// starts at `u[k·u_stride + u_off]`, its output row at `rows[k][out_off]`;
/// the reduction has `cl` steps.
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

    #[inline(always)]
    fn hint(&self, idx: usize) -> *const i8 {
        self.q.as_ptr().wrapping_add(idx).cast()
    }
}

#[cfg(target_arch = "x86_64")]
impl Loads for I8Strip<'_> {
    type Wide = std::arch::x86_64::__m256;
}

#[cfg(target_arch = "x86_64")]
impl Load<std::arch::x86_64::__m256> for I8Strip<'_> {
    // SAFETY: the trait contract — AVX2, `idx + 8` within the block.
    #[inline(always)]
    unsafe fn load(&self, idx: usize) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        debug_assert!(idx + 8 <= self.q.len());
        // SAFETY: the caller keeps `idx + 8` inside the block, so the
        // 8-byte load is in bounds; the rest is register arithmetic — the
        // exact integer subtract, exact convert and one multiply of
        // [`Strip::at`].
        unsafe {
            let raw = _mm_loadl_epi64(self.q.as_ptr().add(idx).cast());
            let ints = _mm256_sub_epi32(
                _mm256_cvtepi8_epi32(raw),
                _mm256_set1_epi32(self.zero_point),
            );
            _mm256_mul_ps(_mm256_cvtepi32_ps(ints), _mm256_set1_ps(self.scale))
        }
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

    #[inline(always)]
    fn hint(&self, idx: usize) -> *const i8 {
        self.0.as_ptr().wrapping_add(2 * idx).cast()
    }
}

#[cfg(target_arch = "x86_64")]
impl Loads for F16Strip<'_> {
    type Wide = std::arch::x86_64::__m256;
}

#[cfg(target_arch = "x86_64")]
impl Load<std::arch::x86_64::__m256> for F16Strip<'_> {
    // SAFETY: the trait contract — AVX2 and F16C, `idx + 8` within the
    // block.
    #[inline(always)]
    unsafe fn load(&self, idx: usize) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        debug_assert!(2 * (idx + 8) <= self.0.len());
        // SAFETY: the caller keeps `idx + 8` halves inside the block, so
        // the unaligned 16-byte load is in bounds.
        unsafe { _mm256_cvtph_ps(_mm_loadu_si128(self.0.as_ptr().add(2 * idx).cast())) }
    }
}

/// Projects one capsule for every sample at `level`. With `ACC` the
/// accumulators start from the values in `rows` (a later run of an int8
/// capsule that spans affine blocks) instead of from zero.
fn project_capsule<S: Strip, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
    level: SimdLevel,
) {
    // SAFETY: the vector levels are only selected after runtime feature
    // detection (tests guard with `simd::host_levels`), and the fp16 strip
    // only reaches them when F16C was detected too.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match level {
            // Only a strip with a 512-bit load widens: the quantized
            // decoders run the AVX2 tile at both vector levels.
            SimdLevel::Avx512 if <S::Wide as Vector>::LANES > 8 => {
                return capsule_avx512::<S, ACC>(strip, u, rows, at);
            }
            SimdLevel::Avx512 | SimdLevel::Avx2Fma if S::F16C => {
                return capsule_avx2_f16c::<S, ACC>(strip, u, rows, at);
            }
            SimdLevel::Avx512 | SimdLevel::Avx2Fma => {
                return capsule_avx2::<S, ACC>(strip, u, rows, at);
            }
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    capsule_tiles::<S, ACC>(strip, u, rows, at, 0);
}

/// The AVX2+FMA instantiation of the tile walk.
///
/// # Safety
///
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn capsule_avx2<S: Strip, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
) {
    // SAFETY: forwarded — the caller guarantees AVX2+FMA.
    unsafe { capsule_vector::<std::arch::x86_64::__m256, S, ACC>(strip, u, rows, at) }
}

/// The AVX2+FMA+F16C instantiation, for the fp16 strip's vector convert.
///
/// # Safety
///
/// Requires AVX2+FMA and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn capsule_avx2_f16c<S: Strip, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
) {
    // SAFETY: forwarded — the caller guarantees the features.
    unsafe { capsule_vector::<std::arch::x86_64::__m256, S, ACC>(strip, u, rows, at) }
}

/// The AVX-512F instantiation, for a strip whose widest load is 512-bit.
///
/// # Safety
///
/// Requires AVX-512F and AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn capsule_avx512<S: Strip, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
) {
    // SAFETY: forwarded — the caller guarantees the features.
    unsafe { capsule_vector::<S::Wide, S, ACC>(strip, u, rows, at) }
}

/// Columns in strips two `V` wide while they fit, then 16-column AVX2
/// strips, both through the vector tile; the column tail (and nothing
/// else) through the scalar tile — bitwise the same step.
///
/// # Safety
///
/// Requires the CPU features of `V` and of the strip's loads; must be
/// inlined into a `#[target_feature]` caller.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn capsule_vector<V: Vector, S: Strip + Load<V>, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
) {
    let wide = at.n / (2 * V::LANES) * (2 * V::LANES);
    let full = at.n / STRIP * STRIP;
    // SAFETY: forwarded contract; both runs end at or before `full`.
    unsafe {
        capsule_strips::<V, S, ACC>(strip, u, rows, at, 0..wide, full);
        capsule_strips::<std::arch::x86_64::__m256, S, ACC>(strip, u, rows, at, wide..full, full);
    }
    capsule_tiles::<S, ACC>(strip, u, rows, at, full);
}

/// The vector tile over strips `cols` (whole strips two `V` wide, ending
/// at or before `full`, the end of every vector strip of the capsule).
///
/// # Safety
///
/// As [`capsule_vector`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn capsule_strips<V: Vector, S: Strip + Load<V>, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
    cols: Range<usize>,
    full: usize,
) {
    for j in cols.step_by(2 * V::LANES) {
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
            // SAFETY: features per this function's contract; `j + 2·V::LANES
            // ≤ n` and `block.end ≤ rows.len()`.
            unsafe {
                tile::with_rows!(block.len(), R => {
                    tile_vector::<V, S, R, ACC>(strip, u, rows, at, block.start, j, hint)
                })
            }
            hint = None;
        }
    }
}

/// `R` rows × `2·V::LANES` columns: the shared tile from zero (or, with
/// `ACC`, from the outputs) across the whole `d = 0..C_L` reduction,
/// stored once.
///
/// # Safety
///
/// Requires the CPU features of `V` and of the strip's loads, `j +
/// 2·V::LANES ≤ n`, `r0 + R ≤ rows.len()`, and the operand extents
/// [`project`] asserts.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_vector<V: Vector, S: Strip + Load<V>, const R: usize, const ACC: bool>(
    strip: &S,
    u: &[f32],
    rows: &mut [&mut [f32]],
    at: Capsule,
    r0: usize,
    j: usize,
    hint: Option<usize>,
) {
    let lanes = V::LANES;
    debug_assert!(j + 2 * lanes <= at.n && r0 + R <= rows.len());
    let lhs = Lhs {
        data: u,
        off: r0 * at.u_stride + at.u_off,
        stride: at.u_stride,
    };
    // SAFETY: `project` asserted `u` is [B, L, C_L] and `rows` holds B
    // windows of [caps, N], so for k < B the tile's reads `u[k·u_stride +
    // u_off + d]` (d < C_L) and the `2·lanes`-float loads and stores at
    // `rows[k][out_off + j]` (j + 2·lanes ≤ N) are in bounds, and `C_L·N` is
    // the strip's length.
    unsafe {
        let mut acc = [[V::splat(0.0); 2]; R];
        if ACC {
            for (r, a) in acc.iter_mut().enumerate() {
                let src = rows[r0 + r].as_ptr().add(at.out_off + j);
                *a = [V::load(src), V::load(src.add(lanes))];
            }
        }
        let acc = tile::tile_vector::<V, S, _, R>(strip, (at.n, j), lhs, 0..at.cl, hint, acc);
        for (r, a) in acc.iter().enumerate() {
            let dst = rows[r0 + r].as_mut_ptr().add(at.out_off + j);
            a[0].store(dst);
            a[1].store(dst.add(lanes));
        }
    }
}

/// The scalar tile walk over columns `from..n`: same strips, same row
/// blocks, same per-element step as the vector tile. It is the whole
/// kernel at [`SimdLevel::Scalar`] and the column tail of the vector walk.
#[inline(always)]
fn capsule_tiles<S: Strip, const ACC: bool>(
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
        let cols = at.out_off + j..at.out_off + j + width;
        for (r0, block) in rows.chunks_mut(ROWS).enumerate() {
            let lhs = Lhs {
                data: u,
                off: r0 * ROWS * at.u_stride + at.u_off,
                stride: at.u_stride,
            };
            let mut acc = [[0.0f32; STRIP]; ROWS];
            if ACC {
                for (a, row) in acc.iter_mut().zip(block.iter()) {
                    a[..width].copy_from_slice(&row[cols.clone()]);
                }
            }
            let live = &mut acc[..block.len()];
            tile::tile_scalar(strip, (n, j, width), lhs, 0..at.cl, live);
            for (row, a) in block.iter_mut().zip(&acc) {
                row[cols.clone()].copy_from_slice(&a[..width]);
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
                                for (o, &qb) in orow.iter_mut().zip(&q.bytes()[off..off + n]) {
                                    let deq = (i32::from(qb as i8) - p.zero_point) as f32 * p.scale;
                                    *o = uv.mul_add(deq, *o);
                                }
                            }
                            QuantDType::F16 => {
                                let halves = q.bytes()[off * 2..(off + n) * 2].chunks_exact(2);
                                for (o, h) in orow.iter_mut().zip(halves) {
                                    let deq = f16_to_f32(u16::from_le_bytes([h[0], h[1]]));
                                    *o = uv.mul_add(deq, *o);
                                }
                            }
                        },
                    }
                }
            }
        }
        out
    }

    use crate::simd::host_levels as levels;

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
            // Blocks of rows that end inside capsules, as a vault-partitioned
            // one-capsule weight has: capsule 2 spans rows 18..27 and all
            // three blocks.
            let rows =
                QuantTensor::quantize(QuantDType::I8, &w, &[l * cl, n], &[20, 4, 39]).unwrap();
            let weights = [
                ("f32", UhatWeights::F32(&w)),
                ("int8", UhatWeights::Quant(&quantized[0])),
                ("fp16", UhatWeights::Quant(&quantized[1])),
                ("int8 row blocks", UhatWeights::Quant(&rows)),
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
    fn the_avx512_walk_matches_the_avx2_walk_bitwise() {
        if !simd::avx512_or_skip("the_avx512_walk_matches_the_avx2_walk_bitwise") {
            return;
        }
        // N runs 32-wide strips alone, a 16-wide remainder, a scalar tail,
        // and all three; every block height, alone and in balanced splits.
        let (l, cl) = (3usize, 9usize);
        for &n in &[16usize, 31, 32, 48, 160, 256, 992, 8192] {
            let w = Tensor::uniform(&[l, cl, n], -0.5, 0.5, n as u64).into_vec();
            // The quantized strips run the AVX2 tile at both levels.
            let int8 = QuantTensor::quantize(QuantDType::I8, &w, &[l, cl, n], &[2, 1]).unwrap();
            let weights = [UhatWeights::F32(&w), UhatWeights::Quant(&int8)];
            let batches: &[usize] = if n > 1024 { &[1, 7] } else { &[1, 2, 6, 7, 13] };
            for &b in batches {
                let dims = (b, l, cl, n);
                let u = inputs(b, l, cl, (n + b) as u64);
                for w in weights {
                    let mut want = vec![f32::NAN; b * l * n];
                    project(&u, w, &mut want, dims, 1, SimdLevel::Avx2Fma);
                    for shards in 1..=3 {
                        let mut got = vec![f32::NAN; b * l * n];
                        project(&u, w, &mut got, dims, shards, SimdLevel::Avx512);
                        let what = format!("n={n} b={b} shards={shards}");
                        assert_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "an int8 block must start on a row of W")]
    fn an_int8_block_inside_a_row_panics() {
        // A flat weight admits any block boundary; 0..6 ends mid-row.
        let blocks = [(0, 6), (6, 6)].map(|(start, elems)| crate::quant::QuantBlock {
            start,
            elems,
            scale: 1.0,
            zero_point: 0,
        });
        let q =
            QuantTensor::from_bytes(QuantDType::I8, vec![1; 12], &[12], blocks.to_vec()).unwrap();
        let mut out = vec![0.0f32; 4];
        uhat_project(&[1.0; 3], UhatWeights::Quant(&q), &mut out, (1, 1, 3, 4));
    }

    #[test]
    fn quantized_levels_agree_bitwise_on_special_payloads() {
        let (l, cl, n) = (3usize, 6usize, 21usize);
        let len = l * cl * n;
        let blocks = |scale: f32| {
            (0..l)
                .map(|i| crate::quant::QuantBlock {
                    start: i * cl * n,
                    elems: cl * n,
                    scale: scale * (i + 1) as f32,
                    zero_point: i as i32 * 40 - 40,
                })
                .collect::<Vec<_>>()
        };
        // Every byte value, and halves that mix ordinary values with ±Inf,
        // quiet and signalling NaNs, ±subnormals and ±0.
        let i8_bytes: Vec<u8> = (0..len).map(|k| (k * 37 + 11) as u8).collect();
        let specials = [
            0x7C00u16, 0xFC00, 0x7E00, 0x7C01, 0xFE55, 0x0001, 0x83FF, 0x8000,
        ];
        let f16_bytes: Vec<u8> = (0..len)
            .flat_map(|k| match k % 4 {
                0 => specials[(k / 4) % specials.len()].to_le_bytes().to_vec(),
                _ => crate::quant::encode_block_f16(&[((k as f32) * 0.37).sin() * 3.0]),
            })
            .collect();
        let weights = [
            QuantTensor::from_bytes(QuantDType::I8, i8_bytes, &[l, cl, n], blocks(0.03)),
            QuantTensor::from_bytes(QuantDType::F16, f16_bytes, &[l, cl, n], blocks(1.0)),
        ]
        .map(Result::unwrap);
        for q in &weights {
            for b in [1usize, 6, 7] {
                let dims = (b, l, cl, n);
                let u = inputs(b, l, cl, b as u64);
                let mut want = vec![0.0f32; b * l * n];
                project(
                    &u,
                    UhatWeights::Quant(q),
                    &mut want,
                    dims,
                    1,
                    SimdLevel::Scalar,
                );
                for level in levels() {
                    for shards in 1..=3 {
                        let mut got = vec![0.0f32; b * l * n];
                        project(&u, UhatWeights::Quant(q), &mut got, dims, shards, level);
                        let what = format!("{:?} b={b} {level:?} shards={shards}", q.dtype());
                        assert_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    /// VCVTPH2PS and the scalar codec agree on every half; NaNs stay NaN.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_f16_convert_matches_scalar_codec() {
        use std::arch::x86_64::__m256;
        if !(simd::host_levels().contains(&SimdLevel::Avx2Fma) && simd::hardware_supports_f16c()) {
            return;
        }
        let bytes: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let strip = F16Strip(&bytes);
        for idx in (0..=u16::MAX as usize).step_by(8) {
            let mut hw = [0.0f32; 8];
            // SAFETY: AVX2 and F16C were detected above, and `idx + 8`
            // halves lie inside the 65 536-half strip.
            unsafe { Load::<__m256>::load(&strip, idx).store(hw.as_mut_ptr()) };
            for (k, h) in hw.iter().enumerate() {
                let sw = strip.at(idx + k);
                if sw.is_nan() {
                    assert!(h.is_nan(), "0x{:04X}", idx + k);
                } else {
                    assert_eq!(h.to_bits(), sw.to_bits(), "0x{:04X}", idx + k);
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
