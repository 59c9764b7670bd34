//! Runtime-dispatched SIMD kernels for the routing/GEMM hot paths.
//!
//! The paper's whole argument is that the routing procedure is bound by
//! intra-op parallelism: the same multiply-add applied across a capsule
//! vector, a coupling row, or a GEMM row. On the CPU host that parallelism
//! maps onto SIMD lanes, so this module provides every slice-level kernel
//! the routing engine needs in two implementations:
//!
//! * **scalar** — straightforward loops (and `libm` for `exp`). This is the
//!   bitwise reference: with `PIM_SIMD=scalar` in the environment every
//!   kernel takes this path and results are bit-identical to the
//!   pre-vectorized engine.
//! * **AVX2+FMA** — `std::arch` intrinsics, selected at runtime via
//!   `is_x86_feature_detected!` so one binary runs everywhere. Reassociated
//!   accumulation and a polynomial `exp` change low-order bits; the
//!   equivalence suite pins the drift at ≤1e-5 relative error.
//!
//! A third level, [`SimdLevel::Avx512`], widens the dense register tile
//! (`tile.rs`, under [`crate::matmul_into`], every convolution and the
//! `f32` weights of [`crate::uhat_project`]) to 512-bit vectors, bitwise
//! equal to its AVX2 walk, and runs the softmax inside [`route_rows`] (the
//! per-sample routing step) with a 512-bit `exp` and divide, bitwise equal
//! to [`softmax_row`] ([`avx2::avx512`]). Every other kernel here, Eq 2 and Eq 4
//! included, runs its AVX2 implementation at that level: 512-bit Eq 2 /
//! Eq 4 blocks measured 0.90–1.14x against it at 62 classes and
//! 0.75–0.79x at 10.
//!
//! Dispatch is decided once (first use) and cached; see [`SimdLevel`].
//!
//! Nothing here decodes quantized weights: int8 and fp16 are read only by
//! the register tile's strip loaders under [`crate::uhat_project`], the
//! capsule projection.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as arch;
use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction set a kernel dispatch resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain scalar loops — the bitwise reference path.
    Scalar,
    /// 256-bit AVX2 with fused multiply-add.
    Avx2Fma,
    /// [`SimdLevel::Avx2Fma`] whose dense register tile runs 32-column
    /// strips on 512-bit AVX-512F vectors, bitwise equal to the 16-column
    /// AVX2 tile, and whose [`route_rows`] softmax runs 512-bit, bitwise
    /// equal to [`softmax_row`]; every other kernel runs its AVX2 path.
    Avx512,
}

impl SimdLevel {
    /// Short stable name (recorded in bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

const LEVEL_UNINIT: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_AVX2: u8 = 2;
const LEVEL_AVX512: u8 = 3;

static ACTIVE_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The active kernel path: the best level the host supports, unless the
/// `PIM_SIMD` environment variable forces one (`PIM_SIMD=scalar` pins the
/// bitwise reference path for debugging, `PIM_SIMD=avx2` the 16-column
/// tile on an AVX-512 host). Decided on first call, then cached — changing
/// the environment afterwards has no effect.
pub fn active_level() -> SimdLevel {
    match ACTIVE_LEVEL.load(Ordering::Relaxed) {
        LEVEL_SCALAR => SimdLevel::Scalar,
        LEVEL_AVX2 => SimdLevel::Avx2Fma,
        LEVEL_AVX512 => SimdLevel::Avx512,
        _ => {
            let level = detect_level();
            let code = match level {
                SimdLevel::Scalar => LEVEL_SCALAR,
                SimdLevel::Avx2Fma => LEVEL_AVX2,
                SimdLevel::Avx512 => LEVEL_AVX512,
            };
            ACTIVE_LEVEL.store(code, Ordering::Relaxed);
            level
        }
    }
}

fn detect_level() -> SimdLevel {
    if let Ok(forced) = std::env::var("PIM_SIMD") {
        match forced.to_ascii_lowercase().as_str() {
            "scalar" => return SimdLevel::Scalar,
            "avx2" | "avx2+fma" => {
                if hardware_supports_avx2_fma() {
                    return SimdLevel::Avx2Fma;
                }
                return SimdLevel::Scalar;
            }
            other => {
                // A typo here would otherwise silently run the SIMD path a
                // user was trying to pin off — say so, then auto-detect.
                eprintln!(
                    "[pim-tensor] ignoring unknown PIM_SIMD value {other:?} \
                     (expected \"scalar\" or \"avx2\"); auto-detecting"
                );
            }
        }
    }
    if hardware_supports_avx512() {
        SimdLevel::Avx512
    } else if hardware_supports_avx2_fma() {
        SimdLevel::Avx2Fma
    } else {
        SimdLevel::Scalar
    }
}

/// Whether the host CPU offers the AVX2+FMA path (independent of any
/// `PIM_SIMD` override).
fn hardware_supports_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the host CPU offers the AVX-512 tile on top of AVX2+FMA (the
/// [`SimdLevel::Avx512`] path; independent of any `PIM_SIMD` override).
fn hardware_supports_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        hardware_supports_avx2_fma() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Every level this host can run, scalar first: the sweep of the tile
/// kernels' bitwise suites.
#[cfg(test)]
pub(crate) fn host_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if hardware_supports_avx2_fma() {
        levels.push(SimdLevel::Avx2Fma);
    }
    if hardware_supports_avx512() {
        levels.push(SimdLevel::Avx512);
    }
    levels
}

/// Whether this host runs the AVX-512 tile; if not, prints a note that
/// `test` is skipped.
#[cfg(test)]
pub(crate) fn avx512_or_skip(test: &str) -> bool {
    let runs = hardware_supports_avx512();
    if !runs {
        eprintln!("{test}: skipped, this host has no AVX-512F");
    }
    runs
}

/// Whether the host CPU additionally offers F16C half-precision converts
/// (the fp16 strip loader's vector path under [`crate::uhat_project`];
/// `is_x86_feature_detected!` caches the answer, so this is a load after
/// the first call).
pub fn hardware_supports_f16c() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

macro_rules! dispatch {
    ($scalar:expr, $avx2:expr) => {
        match active_level() {
            SimdLevel::Scalar => $scalar,
            // These kernels run AVX2 at Avx512 too: only the dense tile and
            // `route_rows`' softmax widen there.
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma and Avx512 are only ever selected after
            // `is_x86_feature_detected!` confirmed AVX2 and FMA.
            SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe { $avx2 },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2Fma | SimdLevel::Avx512 => $scalar,
        }
    };
}

/// Dot product `Σ a[i]·b[i]` over the common prefix of the two slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(scalar::dot(a, b), avx2::dot(a, b))
}

/// `y[i] += alpha · x[i]` (BLAS `saxpy`) over the common prefix.
///
/// Elementwise the AVX2 path computes `fma(alpha, x, y)` for every element
/// (the remainder uses scalar `mul_add`, which rounds identically), so two
/// callers slicing the same data differently still agree bitwise.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    dispatch!(scalar::axpy(alpha, x, y), avx2::axpy(alpha, x, y))
}

/// `y[i] = alpha · x[i] + beta · y[i]` (BLAS `saxpby`).
///
/// With `beta == 0.0` the previous contents of `y` are ignored entirely
/// (overwritten, never multiplied), so stale NaN/∞ in an uninitialized
/// buffer cannot leak through — the BLAS `sscal`/`scopy` convention.
#[inline]
pub fn scale_add(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    dispatch!(
        scalar::scale_add(alpha, x, beta, y),
        avx2::scale_add(alpha, x, beta, y)
    )
}

/// `xs[i] = xs[i] / denom` for every element.
#[inline]
pub fn div_slice(xs: &mut [f32], denom: f32) {
    dispatch!(scalar::div_slice(xs, denom), avx2::div_slice(xs, denom))
}

/// `xs[i] = e^xs[i]` for every element.
///
/// The scalar path calls `libm` (`f32::exp`); the AVX2 path evaluates a
/// degree-6 Cephes-style polynomial after Cody–Waite range reduction
/// (relative error ≲ 3e-7 on finite outputs). `NaN` propagates, overflow
/// saturates to `+∞`, and inputs below the normal range flush to `0`.
#[inline]
pub fn exp_slice(xs: &mut [f32]) {
    dispatch!(scalar::exp_slice(xs), avx2::exp_slice(xs))
}

/// Fused, numerically-stable softmax of one row:
/// `out[i] = exp(logits[i] − max) / Σ exp(logits[j] − max)`.
#[inline]
pub fn softmax_row(logits: &[f32], out: &mut [f32]) {
    debug_assert_eq!(logits.len(), out.len());
    dispatch!(
        scalar::softmax_row(logits, out),
        avx2::softmax_row(logits, out)
    )
}

/// Row-scaled accumulation — the Eq 2 weighted-sum kernel:
/// for every row `j`, `s[j·ch .. (j+1)·ch] += c[j] · u[j·ch .. (j+1)·ch]`.
///
/// `u` and `s` are `[rows, ch]` row-major with `rows = c.len()`; one call
/// streams the whole contiguous `[H, C_H]` block.
///
/// # Panics
///
/// If `u` or `s` is not `c.len() · ch` long (checked in every build: the
/// vector path walks raw pointers sized from `c`).
#[inline]
pub fn weighted_sum_block(c: &[f32], u: &[f32], s: &mut [f32], ch: usize) {
    assert_eq!(u.len(), c.len() * ch, "u is [rows, ch]");
    assert_eq!(s.len(), c.len() * ch, "s is [rows, ch]");
    dispatch!(
        scalar::weighted_sum_block(c, u, s, ch),
        avx2::weighted_sum_block(c, u, s, ch)
    )
}

/// Row-wise dot accumulation — the Eq 4 agreement kernel:
/// for every row `j`, `b[j] += ⟨u[j·ch..], v[j·ch..]⟩`.
///
/// # Panics
///
/// If `u` or `v` is not `b.len() · ch` long (checked in every build).
#[inline]
pub fn agreement_block(u: &[f32], v: &[f32], b: &mut [f32], ch: usize) {
    assert_eq!(u.len(), b.len() * ch, "u is [rows, ch]");
    assert_eq!(v.len(), b.len() * ch, "v is [rows, ch]");
    dispatch!(
        scalar::agreement_block(u, v, b, ch),
        avx2::agreement_block(u, v, b, ch)
    )
}

/// The per-sample routing step over consecutive `L` rows of one sample —
/// Eq 4 → Eq 5 → Eq 2 of Algorithm 1 for every row `i`:
///
/// * with `agree = Some((v, b))`, `b[i][j] += ⟨u[i][j], v[j]⟩` (Eq 4 with
///   the previous iteration's `v`), then `c[i] = softmax(b[i])` (Eq 5);
///   with `None`, `c` already holds the rows' coefficients;
/// * then `s[j] += c[i][j] · u[i][j]` (Eq 2), rows in ascending `i`.
///
/// `u` is `[rows, H, C_H]`, `b` and `c` are `[rows, H]`, `v` and `s` are
/// `[H, C_H]` (`H = s.len() / ch`). The result is bitwise that of the
/// per-row composition [`agreement_block`] → [`softmax_row`] →
/// [`weighted_sum_block`] at every level. For `ch` a multiple of 8 up to
/// 32 the vector path walks the rows in blocks of four: Eq 4 loads each
/// `v` vector once per block (every row keeps [`agreement_block`]'s
/// reduction tree) and Eq 2 loads and stores each `s` vector once per
/// block, applying the rows' FMAs in ascending `i`. At
/// [`SimdLevel::Avx512`] the softmax's `exp` and divide run on 512-bit
/// vectors; its max and its denominator keep the 8-lane order. Every other
/// `ch`, and the scalar level, run the per-row composition.
///
/// # Panics
///
/// If `ch` is zero, `s` is empty or not whole capsules, or the other
/// slices do not have the lengths above.
#[inline]
pub fn route_rows(
    u: &[f32],
    agree: Option<(&[f32], &mut [f32])>,
    c: &mut [f32],
    s: &mut [f32],
    ch: usize,
) {
    route_rows_at(active_level(), u, agree, c, s, ch);
}

/// [`route_rows`] at `level`.
#[inline]
fn route_rows_at(
    level: SimdLevel,
    u: &[f32],
    agree: Option<(&[f32], &mut [f32])>,
    c: &mut [f32],
    s: &mut [f32],
    ch: usize,
) {
    // The vector paths walk raw pointers sized from these lengths, so they
    // are checked in every build (once per call, not per row).
    assert!(
        ch > 0 && !s.is_empty() && s.len().is_multiple_of(ch),
        "s is [H, C_H]"
    );
    let nh = s.len() / ch;
    assert!(c.len().is_multiple_of(nh), "c is [rows, H]");
    assert_eq!(u.len(), c.len() * ch, "u is [rows, H, C_H]");
    if let Some((v, b)) = &agree {
        assert_eq!(v.len(), s.len(), "v is [H, C_H]");
        assert_eq!(b.len(), c.len(), "b is [rows, H]");
    }
    match level {
        SimdLevel::Scalar => scalar::route_rows(u, agree, c, s, ch),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only ever selected after
        // `is_x86_feature_detected!` confirmed AVX2 and FMA.
        SimdLevel::Avx2Fma => unsafe { avx2::route_rows(u, agree, c, s, ch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 is only ever selected after
        // `is_x86_feature_detected!` confirmed AVX2, FMA and AVX-512F.
        SimdLevel::Avx512 => unsafe { avx2::avx512::route_rows(u, agree, c, s, ch) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => scalar::route_rows(u, agree, c, s, ch),
    }
}

/// [`route_rows`] row by row through the given row kernels
/// `(agreement_block, softmax_row, weighted_sum_block)`: the path for every
/// `ch` the vector path does not take, the reference it is tested against,
/// and the composition `MathBackend::route_rows` defaults to.
#[inline(always)]
pub fn route_rows_with<A, M, W>(
    u: &[f32],
    agree: Option<(&[f32], &mut [f32])>,
    c: &mut [f32],
    s: &mut [f32],
    ch: usize,
    (agreement, softmax, weighted_sum): (A, M, W),
) where
    A: Fn(&[f32], &[f32], &mut [f32], usize),
    M: Fn(&[f32], &mut [f32]),
    W: Fn(&[f32], &[f32], &mut [f32], usize),
{
    let block = s.len();
    let nh = block / ch;
    let rows = u.chunks_exact(block).zip(c.chunks_exact_mut(nh));
    match agree {
        Some((v, b)) => {
            for ((u_row, c_row), b_row) in rows.zip(b.chunks_exact_mut(nh)) {
                agreement(u_row, v, b_row, ch);
                softmax(b_row, c_row);
                weighted_sum(c_row, u_row, s, ch);
            }
        }
        None => {
            for (u_row, c_row) in rows {
                weighted_sum(c_row, u_row, s, ch);
            }
        }
    }
}

/// [`agreement_block`] over `nb` u-blocks spaced `u_stride` floats apart
/// (the per-`L`-capsule Eq 4 sweep over the whole batch): for each block
/// `k` and row `j`, `b[j] += ⟨u[k·stride + j·ch ..], v[k·rows·ch + j·ch ..]⟩`.
///
/// One dispatch covers the batch, letting the AVX2 path keep its loop
/// state in registers across blocks.
///
/// # Panics
///
/// If the last u-block runs past `u` or `v` is not `nb` blocks long
/// (checked in every build).
#[inline]
pub fn agreement_blocks_strided(
    u: &[f32],
    u_stride: usize,
    v: &[f32],
    nb: usize,
    b: &mut [f32],
    ch: usize,
) {
    let block = b.len() * ch;
    assert!(
        nb == 0 || (nb - 1) * u_stride + block <= u.len(),
        "u holds nb blocks u_stride apart"
    );
    assert_eq!(v.len(), nb * block, "v is nb blocks");
    dispatch!(
        scalar::agreement_blocks_strided(u, u_stride, v, nb, b, ch),
        avx2::agreement_blocks_strided(u, u_stride, v, nb, b, ch)
    )
}

/// [`weighted_sum_block`] over `nb` u/s block pairs, with u-blocks spaced
/// `u_stride` floats apart and s-blocks contiguous (the per-`L`-capsule
/// Eq 2 sweep over the whole batch).
///
/// # Panics
///
/// If the last u-block runs past `u` or `s` is not `nb` blocks long
/// (checked in every build).
#[inline]
pub fn weighted_sum_blocks_strided(
    c: &[f32],
    u: &[f32],
    u_stride: usize,
    s: &mut [f32],
    nb: usize,
    ch: usize,
) {
    let block = c.len() * ch;
    assert!(
        nb == 0 || (nb - 1) * u_stride + block <= u.len(),
        "u holds nb blocks u_stride apart"
    );
    assert_eq!(s.len(), nb * block, "s is nb blocks");
    dispatch!(
        scalar::weighted_sum_blocks_strided(c, u, u_stride, s, nb, ch),
        avx2::weighted_sum_blocks_strided(c, u, u_stride, s, nb, ch)
    )
}

/// Weighted squared-difference accumulation — the EM M-step variance
/// kernel: for every row `j`,
/// `acc[j·ch + d] += r[j] · (u[j·ch + d] − m[j·ch + d])²`.
#[inline]
pub fn sq_diff_axpy_block(r: &[f32], u: &[f32], m: &[f32], acc: &mut [f32], ch: usize) {
    debug_assert_eq!(u.len(), r.len() * ch);
    debug_assert_eq!(m.len(), r.len() * ch);
    debug_assert_eq!(acc.len(), r.len() * ch);
    dispatch!(
        scalar::sq_diff_axpy_block(r, u, m, acc, ch),
        avx2::sq_diff_axpy_block(r, u, m, acc, ch)
    )
}

/// Row-wise diagonal Mahalanobis quadratic forms — the EM E-step kernel:
/// `out[j] = Σ_d (u[j·ch+d] − m[j·ch+d])² / s[j·ch+d]`.
#[inline]
pub fn mahalanobis_block(u: &[f32], m: &[f32], s: &[f32], out: &mut [f32], ch: usize) {
    debug_assert_eq!(u.len(), out.len() * ch);
    debug_assert_eq!(m.len(), out.len() * ch);
    debug_assert_eq!(s.len(), out.len() * ch);
    dispatch!(
        scalar::mahalanobis_block(u, m, s, out, ch),
        avx2::mahalanobis_block(u, m, s, out, ch)
    )
}

/// The scalar reference kernels.
///
/// These are public so equivalence tests can compare the dispatched path
/// against the reference directly, without mutating global dispatch state.
pub mod scalar {
    /// Scalar [`super::dot`].
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Scalar [`super::axpy`].
    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += alpha * xv;
        }
    }

    /// Scalar [`super::scale_add`].
    #[inline]
    pub fn scale_add(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        if beta == 0.0 {
            for (yv, &xv) in y.iter_mut().zip(x) {
                *yv = alpha * xv;
            }
        } else {
            for (yv, &xv) in y.iter_mut().zip(x) {
                *yv = alpha * xv + beta * *yv;
            }
        }
    }

    /// Scalar [`super::div_slice`].
    #[inline]
    pub fn div_slice(xs: &mut [f32], denom: f32) {
        for x in xs {
            *x /= denom;
        }
    }

    /// Scalar [`super::exp_slice`] (`libm`).
    #[inline]
    pub fn exp_slice(xs: &mut [f32]) {
        for x in xs {
            *x = x.exp();
        }
    }

    /// Scalar [`super::softmax_row`].
    #[inline]
    pub fn softmax_row(logits: &[f32], out: &mut [f32]) {
        let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (&l, o) in logits.iter().zip(out.iter_mut()) {
            let e = (l - mx).exp();
            *o = e;
            denom += e;
        }
        for o in out.iter_mut() {
            *o /= denom;
        }
    }

    /// Scalar [`super::weighted_sum_block`].
    #[inline]
    pub fn weighted_sum_block(c: &[f32], u: &[f32], s: &mut [f32], ch: usize) {
        for (j, &cj) in c.iter().enumerate() {
            axpy(cj, &u[j * ch..(j + 1) * ch], &mut s[j * ch..(j + 1) * ch]);
        }
    }

    /// Scalar [`super::agreement_block`].
    #[inline]
    pub fn agreement_block(u: &[f32], v: &[f32], b: &mut [f32], ch: usize) {
        for (j, bj) in b.iter_mut().enumerate() {
            *bj += dot(&u[j * ch..(j + 1) * ch], &v[j * ch..(j + 1) * ch]);
        }
    }

    /// Scalar [`super::route_rows`]: the per-row composition.
    pub fn route_rows(
        u: &[f32],
        agree: Option<(&[f32], &mut [f32])>,
        c: &mut [f32],
        s: &mut [f32],
        ch: usize,
    ) {
        let kernels = (agreement_block, softmax_row, weighted_sum_block);
        super::route_rows_with(u, agree, c, s, ch, kernels);
    }

    /// Scalar [`super::agreement_blocks_strided`]: loops the per-block
    /// kernel, preserving its per-row accumulation order.
    #[inline]
    pub fn agreement_blocks_strided(
        u: &[f32],
        u_stride: usize,
        v: &[f32],
        nb: usize,
        b: &mut [f32],
        ch: usize,
    ) {
        let block = b.len() * ch;
        for k in 0..nb {
            agreement_block(
                &u[k * u_stride..k * u_stride + block],
                &v[k * block..(k + 1) * block],
                b,
                ch,
            );
        }
    }

    /// Scalar [`super::weighted_sum_blocks_strided`]: loops the per-block
    /// kernel.
    #[inline]
    pub fn weighted_sum_blocks_strided(
        c: &[f32],
        u: &[f32],
        u_stride: usize,
        s: &mut [f32],
        nb: usize,
        ch: usize,
    ) {
        let block = c.len() * ch;
        for k in 0..nb {
            weighted_sum_block(
                c,
                &u[k * u_stride..k * u_stride + block],
                &mut s[k * block..(k + 1) * block],
                ch,
            );
        }
    }

    /// Scalar [`super::sq_diff_axpy_block`].
    #[inline]
    pub fn sq_diff_axpy_block(r: &[f32], u: &[f32], m: &[f32], acc: &mut [f32], ch: usize) {
        for (j, &rj) in r.iter().enumerate() {
            let base = j * ch;
            for d in 0..ch {
                let diff = u[base + d] - m[base + d];
                acc[base + d] += rj * diff * diff;
            }
        }
    }

    /// Scalar [`super::mahalanobis_block`].
    #[inline]
    pub fn mahalanobis_block(u: &[f32], m: &[f32], s: &[f32], out: &mut [f32], ch: usize) {
        for (j, o) in out.iter_mut().enumerate() {
            let base = j * ch;
            let mut quad = 0.0f32;
            for d in 0..ch {
                let diff = u[base + d] - m[base + d];
                quad += diff * diff / s[base + d];
            }
            *o = quad;
        }
    }
}

/// AVX2+FMA kernels.
///
/// # Safety
///
/// Every function in this module requires the host to support AVX2 and FMA;
/// callers go through [`active_level`] (or, in tests, check
/// `host_levels`).
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::arch::*;

    const LANES: usize = 8;

    /// Lane-activation masks for partial vectors: `tail_mask(r)` (1 ≤ r < 8)
    /// loads a mask whose first `r` lanes are active.
    static MASK_TABLE: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    // SAFETY: requires AVX2 (callers sit behind the Avx2Fma feature
    // check). The unaligned load reads 8 i32s starting at offset
    // `LANES - r` ∈ [1, 7], and 7 + 8 ≤ 16 table entries, so the read
    // stays inside MASK_TABLE for every permitted `r`.
    #[inline]
    unsafe fn tail_mask(r: usize) -> __m256i {
        debug_assert!((1..LANES).contains(&r));
        _mm256_loadu_si256(MASK_TABLE.as_ptr().add(LANES - r).cast())
    }

    // SAFETY: requires AVX (implied by the callers' AVX2 gate); pure
    // register arithmetic, touches no memory.
    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let sum4 = _mm_add_ps(lo, hi);
        let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
        let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0b01));
        _mm_cvtss_f32(sum1)
    }

    /// AVX2 [`super::dot`]: two 8-lane FMA accumulators + scalar tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 2 * LANES <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            let a1 = _mm256_loadu_ps(a.as_ptr().add(i + LANES));
            let b1 = _mm256_loadu_ps(b.as_ptr().add(i + LANES));
            acc1 = _mm256_fmadd_ps(a1, b1, acc1);
            i += 2 * LANES;
        }
        if i + LANES <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            i += LANES;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            sum = a[i].mul_add(b[i], sum);
            i += 1;
        }
        sum
    }

    /// AVX2 [`super::axpy`]: `fma(alpha, x, y)` per element (`mul_add`
    /// tail rounds identically).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(va, xv, yv));
            i += LANES;
        }
        while i < n {
            y[i] = alpha.mul_add(x[i], y[i]);
            i += 1;
        }
    }

    /// AVX2 [`super::scale_add`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_add(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        let n = x.len().min(y.len());
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        if beta == 0.0 {
            while i + LANES <= n {
                let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_mul_ps(va, xv));
                i += LANES;
            }
            while i < n {
                y[i] = alpha * x[i];
                i += 1;
            }
        } else {
            let vb = _mm256_set1_ps(beta);
            while i + LANES <= n {
                let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                let scaled = _mm256_mul_ps(va, xv);
                _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(vb, yv, scaled));
                i += LANES;
            }
            while i < n {
                y[i] = beta.mul_add(y[i], alpha * x[i]);
                i += 1;
            }
        }
    }

    /// AVX2 [`super::div_slice`] — IEEE divide, bitwise equal to scalar.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn div_slice(xs: &mut [f32], denom: f32) {
        let vd = _mm256_set1_ps(denom);
        let n = xs.len();
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(xs.as_mut_ptr().add(i), _mm256_div_ps(v, vd));
            i += LANES;
        }
        while i < n {
            xs[i] /= denom;
            i += 1;
        }
    }

    // --- Polynomial exp (Cephes expf coefficients) ------------------------

    const EXP_HI: f32 = 88.722_84; // ln(f32::MAX)
    const EXP_LO: f32 = -87.336_55; // below this, e^x underflows the normal range
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_2e-4;
    const P1: f32 = 1.398_2e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_6e-1;
    const P5: f32 = 0.5; // 5.0000001201e-1 rounds to exactly 0.5 in f32

    /// The scalar twin of the vector polynomial: identical operations
    /// (every multiply-add is a fused `mul_add`), so the tail of a slice
    /// rounds exactly like the SIMD lanes.
    #[inline]
    fn exp_poly_scalar(x: f32) -> f32 {
        if x.is_nan() {
            return x;
        }
        if x >= EXP_HI {
            return f32::INFINITY;
        }
        if x < EXP_LO {
            return 0.0;
        }
        let n = x.mul_add(LOG2EF, 0.5).floor();
        let r = (-n).mul_add(LN2_HI, x);
        let r = (-n).mul_add(LN2_LO, r);
        let mut p = P0;
        p = p.mul_add(r, P1);
        p = p.mul_add(r, P2);
        p = p.mul_add(r, P3);
        p = p.mul_add(r, P4);
        p = p.mul_add(r, P5);
        let y = p.mul_add(r * r, r) + 1.0;
        // 2^n via two exponent-field halves so n = 128 (x close to EXP_HI)
        // cannot overflow the bit pattern.
        let n_int = n as i32;
        let e1 = n_int >> 1;
        let e2 = n_int - e1;
        let f1 = f32::from_bits(((e1 + 127) << 23) as u32);
        let f2 = f32::from_bits(((e2 + 127) << 23) as u32);
        y * f1 * f2
    }

    // SAFETY: requires AVX2+FMA per the target_feature attribute; callers
    // are themselves `target_feature(avx2,fma)` fns behind the runtime
    // feature check. Register-only math, no memory access.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let hi_mask = _mm256_cmp_ps(x, _mm256_set1_ps(EXP_HI), _CMP_GE_OQ);
        let lo_mask = _mm256_cmp_ps(x, _mm256_set1_ps(EXP_LO), _CMP_LT_OQ);
        let nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
        // Clamp so the reduction below is well-behaved even for the lanes
        // the masks will overwrite.
        let xc = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(EXP_HI)),
            _mm256_set1_ps(EXP_LO),
        );

        let n = _mm256_floor_ps(_mm256_fmadd_ps(
            xc,
            _mm256_set1_ps(LOG2EF),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), xc);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);

        let mut p = _mm256_set1_ps(P0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(P5));
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), _mm256_set1_ps(1.0));

        // 2^n in two halves (n may reach 128 near EXP_HI).
        let n_int = _mm256_cvtps_epi32(n);
        let e1 = _mm256_srai_epi32(n_int, 1);
        let e2 = _mm256_sub_epi32(n_int, e1);
        let bias = _mm256_set1_epi32(127);
        let f1 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(e1, bias), 23));
        let f2 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(e2, bias), 23));
        let y = _mm256_mul_ps(_mm256_mul_ps(y, f1), f2);

        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), hi_mask);
        let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), lo_mask);
        _mm256_blendv_ps(y, x, nan_mask)
    }

    /// AVX2 [`super::exp_slice`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_slice(xs: &mut [f32]) {
        let n = xs.len();
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(xs.as_mut_ptr().add(i), exp_ps(v));
            i += LANES;
        }
        while i < n {
            xs[i] = exp_poly_scalar(xs[i]);
            i += 1;
        }
    }

    /// The max of a non-empty row, reduced in 8-lane order: NaN and
    /// signed zeros resolve by `_mm256_max_ps`'s operand order, so every
    /// softmax that means to match [`softmax_row`] bitwise reduces here.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_max(logits: &[f32]) -> f32 {
        let n = logits.len();
        let tail = n % LANES;
        let full = n - tail;
        // Inactive tail lanes blend to -∞ (the max identity).
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i < full {
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(logits.as_ptr().add(i)));
            i += LANES;
        }
        if tail > 0 {
            let mask = tail_mask(tail);
            let l = _mm256_maskload_ps(logits.as_ptr().add(full), mask);
            let l = _mm256_blendv_ps(
                _mm256_set1_ps(f32::NEG_INFINITY),
                l,
                _mm256_castsi256_ps(mask),
            );
            vmax = _mm256_max_ps(vmax, l);
        }
        let hi = _mm256_extractf128_ps(vmax, 1);
        let lo = _mm256_castps256_ps128(vmax);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 0b01));
        _mm_cvtss_f32(m1)
    }

    /// AVX2 [`super::softmax_row`]: fused max-reduce, polynomial exp with
    /// running sum, and one broadcast divide. Partial rows run through
    /// masked loads/stores, so even short routing rows (H < 8) stay fully
    /// vectorized with no scalar tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_row(logits: &[f32], out: &mut [f32]) {
        let n = logits.len().min(out.len());
        if n == 0 {
            return;
        }
        let tail = n % LANES;
        let full = n - tail;
        let mx = row_max(&logits[..n]);

        // exp(l - mx) with running sum; masked-out exp lanes zero so the
        // sum is exact.
        let vmx = _mm256_set1_ps(mx);
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0;
        while i < full {
            let l = _mm256_loadu_ps(logits.as_ptr().add(i));
            let e = exp_ps(_mm256_sub_ps(l, vmx));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), e);
            vsum = _mm256_add_ps(vsum, e);
            i += LANES;
        }
        if tail > 0 {
            let mask = tail_mask(tail);
            let l = _mm256_maskload_ps(logits.as_ptr().add(full), mask);
            let e = exp_ps(_mm256_sub_ps(l, vmx));
            let e = _mm256_and_ps(e, _mm256_castsi256_ps(mask));
            _mm256_maskstore_ps(out.as_mut_ptr().add(full), mask, e);
            vsum = _mm256_add_ps(vsum, e);
        }
        let denom = hsum256(vsum);

        // Normalize (IEEE divide — same rounding as the scalar reference).
        let vd = _mm256_set1_ps(denom);
        let mut i = 0;
        while i < full {
            let v = _mm256_loadu_ps(out.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_div_ps(v, vd));
            i += LANES;
        }
        if tail > 0 {
            let mask = tail_mask(tail);
            let v = _mm256_maskload_ps(out.as_ptr().add(full), mask);
            _mm256_maskstore_ps(out.as_mut_ptr().add(full), mask, _mm256_div_ps(v, vd));
        }
    }

    /// AVX2 [`super::weighted_sum_block`].
    ///
    /// For lane-multiple `ch` (the common capsule widths 8/16/32) the whole
    /// `[rows, ch]` block is walked with flat pointers — no per-row slice
    /// setup — which matters because the routing loop calls this once per
    /// `(sample, L-capsule)` pair: up to 32 through `weigh_block`, the
    /// one-row instance of [`super::route_rows`]' Eq 2. Elementwise
    /// identical to the generic path (`fma(c_j, u, s)` per element).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn weighted_sum_block(c: &[f32], u: &[f32], s: &mut [f32], ch: usize) {
        let (cp, up, sp, nh) = (c.as_ptr(), u.as_ptr(), s.as_mut_ptr(), c.len());
        match lane_vecs(ch) {
            Some(1) => return weigh_block::<1, 1>(up, cp, sp, nh),
            Some(2) => return weigh_block::<1, 2>(up, cp, sp, nh),
            Some(3) => return weigh_block::<1, 3>(up, cp, sp, nh),
            Some(_) => return weigh_block::<1, 4>(up, cp, sp, nh),
            None => {}
        }
        if ch.is_multiple_of(LANES) {
            let vecs = ch / LANES;
            let mut up = u.as_ptr();
            let mut sp = s.as_mut_ptr();
            for &cj in c {
                let vc = _mm256_set1_ps(cj);
                for _ in 0..vecs {
                    let sv = _mm256_loadu_ps(sp);
                    _mm256_storeu_ps(sp, _mm256_fmadd_ps(vc, _mm256_loadu_ps(up), sv));
                    up = up.add(LANES);
                    sp = sp.add(LANES);
                }
            }
            return;
        }
        for (j, &cj) in c.iter().enumerate() {
            axpy(cj, &u[j * ch..(j + 1) * ch], &mut s[j * ch..(j + 1) * ch]);
        }
    }

    /// AVX2 [`super::agreement_block`].
    ///
    /// Same flat-walk specialization as [`weighted_sum_block`] for
    /// lane-multiple `ch` (up to 32 through `agree_block`, the one-row
    /// instance of [`super::route_rows`]' Eq 4): one FMA accumulator per
    /// row, four rows' horizontal reduces through one `hadd` tree.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn agreement_block(u: &[f32], v: &[f32], b: &mut [f32], ch: usize) {
        let (up, vp, bp, nh) = (u.as_ptr(), v.as_ptr(), b.as_mut_ptr(), b.len());
        match lane_vecs(ch) {
            Some(1) => return agree_block::<1, 1>(up, vp, bp, nh),
            Some(2) => return agree_block::<1, 2>(up, vp, bp, nh),
            Some(3) => return agree_block::<1, 3>(up, vp, bp, nh),
            Some(_) => return agree_block::<1, 4>(up, vp, bp, nh),
            None => {}
        }
        // `ch` past 32: the same reduction order with a runtime vector count.
        if ch.is_multiple_of(LANES) {
            let vecs = ch / LANES;
            let rows = b.len();
            let mut up = u.as_ptr();
            let mut vp = v.as_ptr();
            let mut j = 0;
            // Four rows at a time: their accumulators reduce together
            // through two hadd levels (one shuffle tree instead of four
            // serial horizontal sums).
            while j + 4 <= rows {
                let mut acc = [_mm256_setzero_ps(); 4];
                for a in acc.iter_mut() {
                    for _ in 0..vecs {
                        *a = _mm256_fmadd_ps(_mm256_loadu_ps(up), _mm256_loadu_ps(vp), *a);
                        up = up.add(LANES);
                        vp = vp.add(LANES);
                    }
                }
                let t0 = _mm256_hadd_ps(acc[0], acc[1]);
                let t1 = _mm256_hadd_ps(acc[2], acc[3]);
                let t2 = _mm256_hadd_ps(t0, t1);
                let sum4 = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
                let bp = b.as_mut_ptr().add(j);
                _mm_storeu_ps(bp, _mm_add_ps(_mm_loadu_ps(bp), sum4));
                j += 4;
            }
            while j < rows {
                let mut acc = _mm256_setzero_ps();
                for _ in 0..vecs {
                    acc = _mm256_fmadd_ps(_mm256_loadu_ps(up), _mm256_loadu_ps(vp), acc);
                    up = up.add(LANES);
                    vp = vp.add(LANES);
                }
                *b.get_unchecked_mut(j) += hsum256(acc);
                j += 1;
            }
            return;
        }
        for (j, bj) in b.iter_mut().enumerate() {
            *bj += dot(&u[j * ch..(j + 1) * ch], &v[j * ch..(j + 1) * ch]);
        }
    }

    /// Vectors per capsule on [`super::route_rows`]' vector path: `ch` a
    /// multiple of 8, up to 32.
    fn lane_vecs(ch: usize) -> Option<usize> {
        (ch.is_multiple_of(LANES) && (LANES..=4 * LANES).contains(&ch)).then_some(ch / LANES)
    }

    /// AVX2 [`super::route_rows`]: blocks of four rows for `ch` a multiple
    /// of 8 up to 32, the per-row composition of this module's kernels for
    /// any other `ch`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn route_rows(
        u: &[f32],
        agree: Option<(&[f32], &mut [f32])>,
        c: &mut [f32],
        s: &mut [f32],
        ch: usize,
    ) {
        match lane_vecs(ch) {
            Some(vecs) => route_lanes::<false>(vecs, u, agree, c, s),
            None => {
                let kernels = (
                    |u: &[f32], v: &[f32], b: &mut [f32], ch| agreement_block(u, v, b, ch),
                    |l: &[f32], o: &mut [f32]| softmax_row(l, o),
                    |c: &[f32], u: &[f32], s: &mut [f32], ch| weighted_sum_block(c, u, s, ch),
                );
                super::route_rows_with(u, agree, c, s, ch, kernels);
            }
        }
    }

    /// [`super::route_rows`]' vector path for `vecs` = `ch / 8` ∈ 1..=4:
    /// blocks of four rows, then the remainder row by row. `WIDE` runs the
    /// softmax on 512-bit vectors ([`avx512::softmax_row`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, and AVX-512F when `WIDE`; the slices have the
    /// lengths [`super::route_rows`] documents for `ch = 8 · vecs`.
    #[inline(always)]
    unsafe fn route_lanes<const WIDE: bool>(
        vecs: usize,
        u: &[f32],
        agree: Option<(&[f32], &mut [f32])>,
        c: &mut [f32],
        s: &mut [f32],
    ) {
        match vecs {
            1 => route_blocks::<1, WIDE>(u, agree, c, s),
            2 => route_blocks::<2, WIDE>(u, agree, c, s),
            3 => route_blocks::<3, WIDE>(u, agree, c, s),
            _ => route_blocks::<4, WIDE>(u, agree, c, s),
        }
    }

    // SAFETY: the contract of `route_lanes` with `ch = 8 · VECS`; the row
    // pointers below step through `u`, `b` and `c` in whole rows and stop
    // at `rows = c.len() / H`.
    #[inline(always)]
    unsafe fn route_blocks<const VECS: usize, const WIDE: bool>(
        u: &[f32],
        agree: Option<(&[f32], &mut [f32])>,
        c: &mut [f32],
        s: &mut [f32],
    ) {
        let block = s.len();
        let nh = block / (VECS * LANES);
        let rows = c.len() / nh;
        let agree = agree.map(|(v, b)| (v.as_ptr(), b.as_mut_ptr()));
        let (u, c, s) = (u.as_ptr(), c.as_mut_ptr(), s.as_mut_ptr());
        let at = |i: usize| agree.map(|(v, b)| (v, b.add(i * nh)));
        let mut i = 0;
        while i + 4 <= rows {
            route_block::<4, VECS, WIDE>(u.add(i * block), at(i), c.add(i * nh), s, nh);
            i += 4;
        }
        while i < rows {
            route_block::<1, VECS, WIDE>(u.add(i * block), at(i), c.add(i * nh), s, nh);
            i += 1;
        }
    }

    // SAFETY: requires AVX2+FMA (and AVX-512F when `WIDE`); `u` points at
    // `ROWS` rows of `nh · 8 · VECS` floats, `c` (and `b`) at `ROWS` rows
    // of `nh`, `v` and `s` at `nh · 8 · VECS` floats each.
    #[inline(always)]
    unsafe fn route_block<const ROWS: usize, const VECS: usize, const WIDE: bool>(
        u: *const f32,
        agree: Option<(*const f32, *mut f32)>,
        c: *mut f32,
        s: *mut f32,
        nh: usize,
    ) {
        if let Some((v, b)) = agree {
            agree_block::<ROWS, VECS>(u, v, b, nh);
            for r in 0..ROWS {
                let logits = std::slice::from_raw_parts(b.add(r * nh), nh);
                let out = std::slice::from_raw_parts_mut(c.add(r * nh), nh);
                if WIDE {
                    avx512::softmax_row(logits, out);
                } else {
                    softmax_row(logits, out);
                }
            }
        }
        weigh_block::<ROWS, VECS>(u, c, s, nh);
    }

    /// Eq 4 for one block of rows: `b[r][j] += ⟨u[r][j], v[j]⟩`. Each `v`
    /// vector is loaded once per block; every row reduces exactly as
    /// [`agreement_block`] does (four `j` through one `hadd` tree, the
    /// remainder through [`hsum256`]), so `b` is bitwise its result.
    // SAFETY: the pointer contract of `route_block`.
    #[inline(always)]
    unsafe fn agree_block<const ROWS: usize, const VECS: usize>(
        u: *const f32,
        v: *const f32,
        b: *mut f32,
        nh: usize,
    ) {
        let ch = VECS * LANES;
        let block = nh * ch;
        let mut j = 0;
        while j + 4 <= nh {
            let mut vj = [[_mm256_setzero_ps(); VECS]; 4];
            for (q, vq) in vj.iter_mut().enumerate() {
                for (d, x) in vq.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(v.add((j + q) * ch + d * LANES));
                }
            }
            for r in 0..ROWS {
                let up = u.add(r * block + j * ch);
                let mut acc = [_mm256_setzero_ps(); 4];
                for (q, a) in acc.iter_mut().enumerate() {
                    for (d, x) in vj[q].iter().enumerate() {
                        let uv = _mm256_loadu_ps(up.add(q * ch + d * LANES));
                        *a = _mm256_fmadd_ps(uv, *x, *a);
                    }
                }
                let t0 = _mm256_hadd_ps(acc[0], acc[1]);
                let t1 = _mm256_hadd_ps(acc[2], acc[3]);
                let t2 = _mm256_hadd_ps(t0, t1);
                let sum4 = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
                let bp = b.add(r * nh + j);
                _mm_storeu_ps(bp, _mm_add_ps(_mm_loadu_ps(bp), sum4));
            }
            j += 4;
        }
        while j < nh {
            let mut vj = [_mm256_setzero_ps(); VECS];
            for (d, x) in vj.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(v.add(j * ch + d * LANES));
            }
            for r in 0..ROWS {
                let up = u.add(r * block + j * ch);
                let mut acc = _mm256_setzero_ps();
                for (d, x) in vj.iter().enumerate() {
                    acc = _mm256_fmadd_ps(_mm256_loadu_ps(up.add(d * LANES)), *x, acc);
                }
                *b.add(r * nh + j) += hsum256(acc);
            }
            j += 1;
        }
    }

    /// Eq 2 for one block of rows: `s[j] += c[r][j] · u[r][j]`. Each `s`
    /// vector is loaded and stored once per block, and the rows' FMAs run
    /// in ascending `r` — per element the chain of [`weighted_sum_block`]
    /// called row by row.
    // SAFETY: the pointer contract of `route_block`.
    #[inline(always)]
    unsafe fn weigh_block<const ROWS: usize, const VECS: usize>(
        u: *const f32,
        c: *const f32,
        s: *mut f32,
        nh: usize,
    ) {
        let ch = VECS * LANES;
        let block = nh * ch;
        for j in 0..nh {
            let mut cj = [_mm256_setzero_ps(); ROWS];
            for (r, x) in cj.iter_mut().enumerate() {
                *x = _mm256_set1_ps(*c.add(r * nh + j));
            }
            for d in 0..VECS {
                let sp = s.add(j * ch + d * LANES);
                let mut acc = _mm256_loadu_ps(sp);
                for (r, x) in cj.iter().enumerate() {
                    let uv = _mm256_loadu_ps(u.add(r * block + j * ch + d * LANES));
                    acc = _mm256_fmadd_ps(*x, uv, acc);
                }
                _mm256_storeu_ps(sp, acc);
            }
        }
    }

    /// Row count up to which the strided agreement sweep keeps one vector
    /// accumulator per row live across the whole batch (10 H capsules is
    /// the common CapsNet geometry; 12 still fits the 16 ymm registers
    /// with load temporaries).
    const AGREEMENT_ACC_ROWS: usize = 12;

    /// AVX2 [`super::agreement_blocks_strided`]: one call sweeps the whole
    /// batch. For few-row blocks with lane-multiple `ch`, per-row vector
    /// accumulators persist across all `nb` blocks and reduce horizontally
    /// **once** at the end — `nb`× fewer shuffle trees than reducing per
    /// block.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn agreement_blocks_strided(
        u: &[f32],
        u_stride: usize,
        v: &[f32],
        nb: usize,
        b: &mut [f32],
        ch: usize,
    ) {
        let rows = b.len();
        let block = rows * ch;
        if ch.is_multiple_of(LANES) && rows <= AGREEMENT_ACC_ROWS {
            let vecs = ch / LANES;
            let mut acc = [_mm256_setzero_ps(); AGREEMENT_ACC_ROWS];
            for k in 0..nb {
                let mut up = u.as_ptr().add(k * u_stride);
                let mut vp = v.as_ptr().add(k * block);
                for a in acc.iter_mut().take(rows) {
                    for _ in 0..vecs {
                        *a = _mm256_fmadd_ps(_mm256_loadu_ps(up), _mm256_loadu_ps(vp), *a);
                        up = up.add(LANES);
                        vp = vp.add(LANES);
                    }
                }
            }
            let mut j = 0;
            while j + 4 <= rows {
                let t0 = _mm256_hadd_ps(acc[j], acc[j + 1]);
                let t1 = _mm256_hadd_ps(acc[j + 2], acc[j + 3]);
                let t2 = _mm256_hadd_ps(t0, t1);
                let sum4 = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
                let bp = b.as_mut_ptr().add(j);
                _mm_storeu_ps(bp, _mm_add_ps(_mm_loadu_ps(bp), sum4));
                j += 4;
            }
            while j < rows {
                *b.get_unchecked_mut(j) += hsum256(acc[j]);
                j += 1;
            }
            return;
        }
        for k in 0..nb {
            agreement_block(
                u.get_unchecked(k * u_stride..k * u_stride + block),
                v.get_unchecked(k * block..(k + 1) * block),
                b,
                ch,
            );
        }
    }

    /// AVX2 [`super::weighted_sum_blocks_strided`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn weighted_sum_blocks_strided(
        c: &[f32],
        u: &[f32],
        u_stride: usize,
        s: &mut [f32],
        nb: usize,
        ch: usize,
    ) {
        let block = c.len() * ch;
        for k in 0..nb {
            weighted_sum_block(
                c,
                u.get_unchecked(k * u_stride..k * u_stride + block),
                s.get_unchecked_mut(k * block..(k + 1) * block),
                ch,
            );
        }
    }

    /// AVX2 [`super::sq_diff_axpy_block`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq_diff_axpy_block(r: &[f32], u: &[f32], m: &[f32], acc: &mut [f32], ch: usize) {
        for (j, &rj) in r.iter().enumerate() {
            let vr = _mm256_set1_ps(rj);
            let base = j * ch;
            let mut d = 0;
            while d + LANES <= ch {
                let uv = _mm256_loadu_ps(u.as_ptr().add(base + d));
                let mv = _mm256_loadu_ps(m.as_ptr().add(base + d));
                let av = _mm256_loadu_ps(acc.as_ptr().add(base + d));
                let diff = _mm256_sub_ps(uv, mv);
                let wdiff = _mm256_mul_ps(vr, diff);
                _mm256_storeu_ps(
                    acc.as_mut_ptr().add(base + d),
                    _mm256_fmadd_ps(wdiff, diff, av),
                );
                d += LANES;
            }
            while d < ch {
                let diff = u[base + d] - m[base + d];
                acc[base + d] = (rj * diff).mul_add(diff, acc[base + d]);
                d += 1;
            }
        }
    }

    /// AVX2 [`super::mahalanobis_block`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mahalanobis_block(u: &[f32], m: &[f32], s: &[f32], out: &mut [f32], ch: usize) {
        for (j, o) in out.iter_mut().enumerate() {
            let base = j * ch;
            let mut acc = _mm256_setzero_ps();
            let mut d = 0;
            while d + LANES <= ch {
                let uv = _mm256_loadu_ps(u.as_ptr().add(base + d));
                let mv = _mm256_loadu_ps(m.as_ptr().add(base + d));
                let sv = _mm256_loadu_ps(s.as_ptr().add(base + d));
                let diff = _mm256_sub_ps(uv, mv);
                let sq = _mm256_mul_ps(diff, diff);
                acc = _mm256_add_ps(acc, _mm256_div_ps(sq, sv));
                d += LANES;
            }
            let mut quad = hsum256(acc);
            while d < ch {
                let diff = u[base + d] - m[base + d];
                quad += diff * diff / s[base + d];
                d += 1;
            }
            *o = quad;
        }
    }

    /// The [`SimdLevel::Avx512`](super::SimdLevel::Avx512) routing
    /// kernels: 512-bit `exp` and divide, bitwise equal to their AVX2 twins.
    ///
    /// # Safety
    ///
    /// Every function in this module requires AVX-512F on top of AVX2 and FMA;
    /// callers go through [`active_level`](super::active_level).
    pub mod avx512 {
        use super::super::arch::*;
        use super::{hsum256, row_max, LANES};
        use super::{EXP_HI, EXP_LO, LN2_HI, LN2_LO, LOG2EF, P0, P1, P2, P3, P4, P5};

        /// Lanes of one 512-bit vector.
        const WIDE: usize = 2 * LANES;

        /// [`super::route_rows`] whose softmax is [`softmax_row`]; Eq 2 and
        /// Eq 4 stay on 256-bit vectors.
        ///
        /// # Safety
        ///
        /// Requires AVX-512F, AVX2 and FMA.
        #[target_feature(enable = "avx512f,avx2,fma")]
        pub unsafe fn route_rows(
            u: &[f32],
            agree: Option<(&[f32], &mut [f32])>,
            c: &mut [f32],
            s: &mut [f32],
            ch: usize,
        ) {
            match super::lane_vecs(ch) {
                Some(vecs) => super::route_lanes::<true>(vecs, u, agree, c, s),
                None => super::route_rows(u, agree, c, s, ch),
            }
        }

        /// [`super::softmax_row`] with `exp` and the divide on 16 lanes, bitwise
        /// equal to it: the max is its 8-lane reduction, each exponent is its
        /// polynomial lane for lane, and the denominator adds the 8-lane halves
        /// in its order before the same horizontal sum. Rows holding NaN or ±∞
        /// therefore match too.
        ///
        /// # Safety
        ///
        /// Requires AVX-512F, AVX2 and FMA.
        #[target_feature(enable = "avx512f,avx2,fma")]
        pub unsafe fn softmax_row(logits: &[f32], out: &mut [f32]) {
            let n = logits.len().min(out.len());
            if n == 0 {
                return;
            }
            let vmx = _mm512_set1_ps(row_max(&logits[..n]));
            let rest = n % WIDE;
            let full = n - rest;
            let mask: __mmask16 = (1 << rest) - 1;

            let mut vsum = _mm256_setzero_ps();
            let mut i = 0;
            while i < full {
                let e = exp_ps(_mm512_sub_ps(_mm512_loadu_ps(logits.as_ptr().add(i)), vmx));
                _mm512_storeu_ps(out.as_mut_ptr().add(i), e);
                vsum = _mm256_add_ps(vsum, low_half(e));
                vsum = _mm256_add_ps(vsum, high_half(e));
                i += WIDE;
            }
            if rest > 0 {
                // Inactive lanes zero, as the AVX2 tail's masked sum.
                let l = _mm512_maskz_loadu_ps(mask, logits.as_ptr().add(full));
                let e = _mm512_maskz_mov_ps(mask, exp_ps(_mm512_sub_ps(l, vmx)));
                _mm512_mask_storeu_ps(out.as_mut_ptr().add(full), mask, e);
                vsum = _mm256_add_ps(vsum, low_half(e));
                if rest > LANES {
                    vsum = _mm256_add_ps(vsum, high_half(e));
                }
            }

            // Normalize (IEEE divide — the same rounding on any width).
            let vd = _mm512_set1_ps(hsum256(vsum));
            let mut i = 0;
            while i < full {
                let p = out.as_mut_ptr().add(i);
                _mm512_storeu_ps(p, _mm512_div_ps(_mm512_loadu_ps(p), vd));
                i += WIDE;
            }
            if rest > 0 {
                let p = out.as_mut_ptr().add(full);
                let e = _mm512_maskz_loadu_ps(mask, p);
                _mm512_mask_storeu_ps(p, mask, _mm512_div_ps(e, vd));
            }
        }

        // SAFETY: requires AVX-512F; register-only.
        #[inline]
        #[target_feature(enable = "avx512f,avx2,fma")]
        unsafe fn low_half(x: __m512) -> __m256 {
            _mm512_castps512_ps256(x)
        }

        // SAFETY: requires AVX-512F; register-only.
        #[inline]
        #[target_feature(enable = "avx512f,avx2,fma")]
        unsafe fn high_half(x: __m512) -> __m256 {
            _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)))
        }

        /// The AVX2 polynomial `exp` on 16 lanes: the same operations in the
        /// same order, so every lane rounds as the 8-lane version does.
        // SAFETY: requires AVX-512F per the target_feature attribute; callers
        // are themselves `target_feature(avx512f)` fns behind the runtime
        // feature check. Register-only math, no memory access.
        #[inline]
        #[target_feature(enable = "avx512f,avx2,fma")]
        unsafe fn exp_ps(x: __m512) -> __m512 {
            let hi_mask = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_set1_ps(EXP_HI));
            let lo_mask = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(EXP_LO));
            let nan_mask = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
            let xc = _mm512_max_ps(
                _mm512_min_ps(x, _mm512_set1_ps(EXP_HI)),
                _mm512_set1_ps(EXP_LO),
            );

            let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(
                _mm512_fmadd_ps(xc, _mm512_set1_ps(LOG2EF), _mm512_set1_ps(0.5)),
            );
            let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_HI), xc);
            let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_LO), r);

            let mut p = _mm512_set1_ps(P0);
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(P1));
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(P2));
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(P3));
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(P4));
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(P5));
            let r2 = _mm512_mul_ps(r, r);
            let y = _mm512_add_ps(_mm512_fmadd_ps(p, r2, r), _mm512_set1_ps(1.0));

            let n_int = _mm512_cvtps_epi32(n);
            let e1 = _mm512_srai_epi32::<1>(n_int);
            let e2 = _mm512_sub_epi32(n_int, e1);
            let bias = _mm512_set1_epi32(127);
            let f1 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(e1, bias)));
            let f2 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(e2, bias)));
            let y = _mm512_mul_ps(_mm512_mul_ps(y, f1), f2);

            let y = _mm512_mask_blend_ps(hi_mask, y, _mm512_set1_ps(f32::INFINITY));
            let y = _mm512_mask_blend_ps(lo_mask, y, _mm512_setzero_ps());
            _mm512_mask_blend_ps(nan_mask, y, x)
        }
    }
}

/// Stub so `simd::avx2` paths compile out cleanly on non-x86 targets (the
/// dispatcher never selects them there).
#[cfg(not(target_arch = "x86_64"))]
pub mod avx2 {}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.7 + seed).sin() * 2.0) - 0.3)
            .collect()
    }

    fn rel_err(a: f32, b: f32) -> f32 {
        if a == b {
            return 0.0;
        }
        (a - b).abs() / b.abs().max(f32::MIN_POSITIVE)
    }

    #[test]
    fn level_is_cached_and_named() {
        let l1 = active_level();
        let l2 = active_level();
        assert_eq!(l1, l2);
        assert!(matches!(l1.name(), "scalar" | "avx2+fma" | "avx512"));
    }

    #[test]
    fn dispatched_dot_close_to_scalar() {
        for n in [0, 1, 7, 8, 9, 16, 33, 161] {
            let a = seq(n, 0.1);
            let b = seq(n, 0.9);
            let d = dot(&a, &b);
            let s = scalar::dot(&a, &b);
            assert!(
                (d - s).abs() <= 1e-5 * s.abs().max(1.0),
                "n={n}: {d} vs {s}"
            );
        }
    }

    #[test]
    fn dispatched_axpy_close_to_scalar() {
        for n in [1, 5, 8, 24, 31] {
            let x = seq(n, 0.2);
            let mut y1 = seq(n, 0.4);
            let mut y2 = y1.clone();
            axpy(0.37, &x, &mut y1);
            scalar::axpy(0.37, &x, &mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert!(rel_err(*a, *b) < 1e-5, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scale_add_beta_zero_ignores_stale_values() {
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut y = [f32::NAN; 9];
        scale_add(2.0, &x, 0.0, &mut y);
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, 2.0 * x[i], "stale NaN must not leak");
        }
        let mut y2 = [1.0f32; 9];
        scale_add(2.0, &x, 0.5, &mut y2);
        for (i, &v) in y2.iter().enumerate() {
            assert!((v - (2.0 * x[i] + 0.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn exp_slice_matches_libm_within_tolerance() {
        let mut xs: Vec<f32> = vec![
            0.0, 1.0, -1.0, 0.5, -0.5, 10.0, -10.0, 44.3, -44.3, 0.1, -0.1, 2.3, 80.0, -80.0,
            1e-20, -1e-20,
        ];
        let expect: Vec<f32> = xs.iter().map(|x| x.exp()).collect();
        exp_slice(&mut xs);
        for (got, want) in xs.iter().zip(&expect) {
            assert!(rel_err(*got, *want) < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn exp_slice_edge_cases() {
        let mut xs = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            200.0,
            -200.0,
            f32::MIN_POSITIVE / 2.0, // subnormal input
            88.9,                    // just above overflow threshold
        ];
        exp_slice(&mut xs);
        assert!(xs[0].is_nan());
        assert_eq!(xs[1], f32::INFINITY);
        assert_eq!(xs[2], 0.0);
        assert_eq!(xs[3], f32::INFINITY);
        assert_eq!(xs[4], 0.0);
        assert!((xs[5] - 1.0).abs() < 1e-6);
        assert_eq!(xs[6], f32::INFINITY);
    }

    #[test]
    fn div_slice_bitwise_matches_scalar() {
        let mut a = seq(19, 0.3);
        let mut b = a.clone();
        div_slice(&mut a, 3.7);
        scalar::div_slice(&mut b, 3.7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn softmax_row_is_a_distribution() {
        for n in [1, 2, 7, 8, 10, 17, 64] {
            let logits = seq(n, 1.3);
            let mut out = vec![0.0f32; n];
            softmax_row(&logits, &mut out);
            let sum: f32 = out.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "n={n}: sum {sum}");
            assert!(out.iter().all(|&x| x >= 0.0));
            let mut reference = vec![0.0f32; n];
            scalar::softmax_row(&logits, &mut reference);
            for (a, b) in out.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-5, "n={n}: {a} vs {b}");
            }
        }
    }

    /// The per-row composition [`route_rows`] replaces, at `level`: the
    /// scalar kernels, or the AVX2 kernels every vector level runs.
    fn per_row_at(
        level: SimdLevel,
        u: &[f32],
        agree: Option<(&[f32], &mut [f32])>,
        c: &mut [f32],
        s: &mut [f32],
        ch: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if level != SimdLevel::Scalar {
            let kernels = (
                // SAFETY: a vector level is in `host_levels`, so the host
                // has AVX2 and FMA.
                |u: &[f32], v: &[f32], b: &mut [f32], ch| unsafe {
                    avx2::agreement_block(u, v, b, ch)
                },
                // SAFETY: as above.
                |l: &[f32], o: &mut [f32]| unsafe { avx2::softmax_row(l, o) },
                // SAFETY: as above.
                |c: &[f32], u: &[f32], s: &mut [f32], ch| unsafe {
                    avx2::weighted_sum_block(c, u, s, ch)
                },
            );
            return route_rows_with(u, agree, c, s, ch, kernels);
        }
        let kernels = (
            scalar::agreement_block,
            scalar::softmax_row,
            scalar::weighted_sum_block,
        );
        route_rows_with(u, agree, c, s, ch, kernels);
    }

    /// Row `i` of `[rows, nh]` logits: ordinary values for most rows, and
    /// rows holding NaN, ±∞, signed zeros, or spreads past `exp`'s
    /// overflow and underflow cut-offs.
    fn logit_row(i: usize, nh: usize) -> Vec<f32> {
        let mut row = seq(nh, i as f32 * 0.37);
        match i % 6 {
            1 => row[i % nh] = f32::NAN,
            2 => row[(i * 3) % nh] = f32::INFINITY,
            3 => row.fill(f32::NEG_INFINITY),
            4 => {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = [1e30, -1e30, 120.0, -120.0, 89.0, -88.0, 0.0][j % 7];
                }
            }
            5 => {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = if j % 2 == 0 { -0.0 } else { 0.0 };
                }
            }
            _ => {}
        }
        row
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn route_rows_matches_the_per_row_composition_bitwise() {
        for level in host_levels() {
            for nh in [1, 2, 3, 4, 5, 7, 8, 10, 62, 64] {
                for ch in [4, 8, 16, 24, 32] {
                    let v = seq(nh * ch, 0.4);
                    for rows in 1..=9 {
                        let u = seq(rows * nh * ch, rows as f32);
                        let b0: Vec<f32> = (0..rows).flat_map(|i| logit_row(i, nh)).collect();
                        let s0 = seq(nh * ch, 0.8);
                        for agree in [true, false] {
                            let (mut b, mut c, mut s) = (b0.clone(), b0.clone(), s0.clone());
                            let (mut rb, mut rc, mut rs) = (b0.clone(), b0.clone(), s0.clone());
                            let on = agree.then_some((&v[..], &mut b[..]));
                            route_rows_at(level, &u, on, &mut c, &mut s, ch);
                            let on = agree.then_some((&v[..], &mut rb[..]));
                            per_row_at(level, &u, on, &mut rc, &mut rs, ch);
                            let case = format!("{level:?} H={nh} C_H={ch} rows={rows} eq4={agree}");
                            assert_eq!(bits(&b), bits(&rb), "b, {case}");
                            assert_eq!(bits(&c), bits(&rc), "c, {case}");
                            assert_eq!(bits(&s), bits(&rs), "s, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "u is [rows, H, C_H]")]
    fn route_rows_rejects_a_short_u_block() {
        let (nh, ch) = (4, 8);
        let (mut c, mut s) = (vec![0.0; 2 * nh], vec![0.0; nh * ch]);
        route_rows(&vec![0.0; nh * ch], None, &mut c, &mut s, ch);
    }

    #[test]
    #[should_panic(expected = "u is [rows, ch]")]
    fn weighted_sum_block_rejects_a_short_u() {
        let (c, mut s) = ([1.0; 4], [0.0; 4 * 8]);
        weighted_sum_block(&c, &[0.0; 8], &mut s, 8);
    }

    #[test]
    #[should_panic(expected = "u is [rows, ch]")]
    fn agreement_block_rejects_a_short_u() {
        let (v, mut b) = ([0.0; 4 * 8], [0.0; 4]);
        agreement_block(&[0.0; 8], &v, &mut b, 8);
    }

    #[test]
    #[should_panic(expected = "u holds nb blocks u_stride apart")]
    fn agreement_blocks_strided_rejects_a_short_u() {
        let (v, mut b) = ([0.0; 2 * 4 * 8], [0.0; 4]);
        agreement_blocks_strided(&[0.0; 4 * 8], 4 * 8, &v, 2, &mut b, 8);
    }

    #[test]
    #[should_panic(expected = "u holds nb blocks u_stride apart")]
    fn weighted_sum_blocks_strided_rejects_a_short_u() {
        let (c, mut s) = ([1.0; 4], [0.0; 2 * 4 * 8]);
        weighted_sum_blocks_strided(&c, &[0.0; 4 * 8], 4 * 8, &mut s, 2, 8);
    }

    #[test]
    fn block_kernels_match_scalar_reference() {
        let rows = 10;
        for ch in [1, 3, 8, 16, 19] {
            let c = seq(rows, 0.5);
            let u = seq(rows * ch, 0.7);
            let m = seq(rows * ch, 0.2);
            let sig: Vec<f32> = seq(rows * ch, 0.9).iter().map(|x| x.abs() + 0.1).collect();

            let mut s1 = seq(rows * ch, 0.1);
            let mut s2 = s1.clone();
            weighted_sum_block(&c, &u, &mut s1, ch);
            scalar::weighted_sum_block(&c, &u, &mut s2, ch);
            for (a, b) in s1.iter().zip(&s2) {
                assert!(rel_err(*a, *b) < 1e-5, "weighted_sum ch={ch}");
            }

            let mut b1 = seq(rows, 0.3);
            let mut b2 = b1.clone();
            agreement_block(&u, &m, &mut b1, ch);
            scalar::agreement_block(&u, &m, &mut b2, ch);
            for (a, b) in b1.iter().zip(&b2) {
                assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "agreement ch={ch}");
            }

            let mut a1 = vec![0.0f32; rows * ch];
            let mut a2 = vec![0.0f32; rows * ch];
            sq_diff_axpy_block(&c, &u, &m, &mut a1, ch);
            scalar::sq_diff_axpy_block(&c, &u, &m, &mut a2, ch);
            for (a, b) in a1.iter().zip(&a2) {
                assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()), "sq_diff ch={ch}");
            }

            let mut q1 = vec![0.0f32; rows];
            let mut q2 = vec![0.0f32; rows];
            mahalanobis_block(&u, &m, &sig, &mut q1, ch);
            scalar::mahalanobis_block(&u, &m, &sig, &mut q2, ch);
            for (a, b) in q1.iter().zip(&q2) {
                assert!(
                    (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                    "mahalanobis ch={ch}"
                );
            }
        }
    }
}
