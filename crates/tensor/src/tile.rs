//! The `R × 16` register tile under both dense kernels of this crate: the
//! û projection ([`crate::uhat`]) and the GEMM ([`crate::matmul`]).
//!
//! A tile is `R ≤ 4` rows of a broadcast operand ([`Lhs`]) against one
//! 16-column strip of a streamed operand ([`Strip`]): two 8-lane
//! accumulators per row, advanced over a range of reduction steps. The
//! caller supplies the accumulators' initial value and stores the result,
//! so the same tile serves û (from zero, whole reduction, one store) and
//! the GEMM (one `k` panel at a time, accumulators round-tripping through
//! the output between panels).
//!
//! [`tile_scalar`] is the same walk in scalar code — the whole kernel at
//! [`crate::SimdLevel::Scalar`] and the column tail of the vector walk — with
//! the bit-identical per-element [`step`].

use std::ops::Range;

/// Columns per strip: two 8-lane vectors.
pub(crate) const STRIP: usize = 16;
/// Rows per register block.
pub(crate) const ROWS: usize = 4;

/// A row-major `[steps, n]` streamed operand, read as `f32`.
pub(crate) trait Strip {
    /// `true`: accumulate with one fused multiply-add; `false`: multiply,
    /// round, then add.
    const FUSED: bool;
    /// `true` when [`Self::load8`] needs F16C on top of AVX2.
    const F16C: bool = false;

    /// Element `idx`.
    fn at(&self, idx: usize) -> f32;

    /// Elements `idx..idx + 8`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (and F16C for the fp16 strip) and `idx + 8` within
    /// the operand.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load8(&self, idx: usize) -> std::arch::x86_64::__m256;

    /// Address of element `idx` for a prefetch hint. `idx` may lie past the
    /// operand, so the pointer is formed with wrapping arithmetic and must
    /// never be dereferenced.
    fn hint(&self, idx: usize) -> *const i8;
}

/// Dense `f32` weights; `FUSED` picks the accumulation step.
pub(crate) struct F32Strip<'a, const FUSED: bool>(pub(crate) &'a [f32]);

impl<const FUSED: bool> Strip for F32Strip<'_, FUSED> {
    const FUSED: bool = FUSED;

    #[inline(always)]
    fn at(&self, idx: usize) -> f32 {
        self.0[idx]
    }

    // SAFETY: the trait contract — AVX2, `idx + 8` within the operand.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(&self, idx: usize) -> std::arch::x86_64::__m256 {
        debug_assert!(idx + 8 <= self.0.len());
        // SAFETY: the caller keeps `idx + 8` inside the operand.
        unsafe { std::arch::x86_64::_mm256_loadu_ps(self.0.as_ptr().add(idx)) }
    }

    #[inline(always)]
    fn hint(&self, idx: usize) -> *const i8 {
        self.0.as_ptr().wrapping_add(idx).cast()
    }
}

/// The broadcast operand of one row block: row `r`, step `p` is
/// `data[off + r·stride + p]`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) off: usize,
    pub(crate) stride: usize,
}

/// One accumulation step of a kernel's arithmetic contract.
#[inline(always)]
pub(crate) fn step<S: Strip>(acc: f32, u: f32, w: f32) -> f32 {
    if S::FUSED {
        u.mul_add(w, acc)
    } else {
        acc + u * w
    }
}

/// The vector accumulators of an `R`-row tile.
#[cfg(target_arch = "x86_64")]
pub(crate) type Acc<const R: usize> = [[std::arch::x86_64::__m256; 2]; R];

/// Advances `acc` (`R` rows × columns `j..j + 16` of an `n`-wide strip) over
/// `steps` in ascending order. With `hint = Some(idx)` each step also
/// prefetches the strip line `idx` elements on from its own row.
///
/// # Safety
///
/// Requires the CPU features of [`Strip::load8`], `j + 16 ≤ n`,
/// `steps.end · n` within the strip and `off + (R − 1)·stride + steps.end`
/// within `lhs.data`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_vector<S: Strip, const R: usize>(
    strip: &S,
    (n, j): (usize, usize),
    lhs: Lhs<'_>,
    steps: Range<usize>,
    hint: Option<usize>,
    mut acc: Acc<R>,
) -> Acc<R> {
    use std::arch::x86_64::*;
    debug_assert!(j + STRIP <= n);
    debug_assert!(lhs.off + (R - 1) * lhs.stride + steps.end <= lhs.data.len());
    // SAFETY: per the contract, the broadcast reads `off + r·stride + d`
    // (r < R, d < steps.end) are inside `lhs.data` and `load8` reads
    // `d·n + j + 16 ≤ steps.end·n` elements of the strip; the prefetch
    // address is never dereferenced.
    unsafe {
        let base = lhs.data.as_ptr().add(lhs.off);
        for d in steps {
            let w0 = strip.load8(d * n + j);
            let w1 = strip.load8(d * n + j + 8);
            if let Some(ahead) = hint {
                _mm_prefetch::<_MM_HINT_T0>(strip.hint(d * n + ahead));
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let uv = _mm256_set1_ps(*base.add(r * lhs.stride + d));
                if S::FUSED {
                    a[0] = _mm256_fmadd_ps(uv, w0, a[0]);
                    a[1] = _mm256_fmadd_ps(uv, w1, a[1]);
                } else {
                    a[0] = _mm256_add_ps(a[0], _mm256_mul_ps(uv, w0));
                    a[1] = _mm256_add_ps(a[1], _mm256_mul_ps(uv, w1));
                }
            }
        }
    }
    acc
}

/// [`tile_vector`] on accumulators in memory, as [`tile_scalar`] takes
/// them: the `1 ≤ acc.len() ≤ 4` rows are loaded into registers, advanced
/// over `steps` and stored back.
///
/// # Safety
///
/// As [`tile_vector`] with `R = acc.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_vector_rows<S: Strip>(
    strip: &S,
    at: (usize, usize),
    lhs: Lhs<'_>,
    steps: Range<usize>,
    hint: Option<usize>,
    acc: &mut [[f32; STRIP]],
) {
    /// The first `R` rows of `acc`.
    ///
    /// # Safety
    ///
    /// As [`tile_vector`].
    #[inline(always)]
    unsafe fn rows<S: Strip, const R: usize>(
        strip: &S,
        at: (usize, usize),
        lhs: Lhs<'_>,
        steps: Range<usize>,
        hint: Option<usize>,
        acc: &mut [[f32; STRIP]],
    ) {
        use std::arch::x86_64::*;
        let acc = &mut acc[..R];
        // SAFETY: the caller's contract is `tile_vector`'s; every load and
        // store is one of the two 8-float halves of a 16-float row.
        unsafe {
            let regs: Acc<R> = std::array::from_fn(|r| {
                let row = acc[r].as_ptr();
                [_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8))]
            });
            let regs = tile_vector::<S, R>(strip, at, lhs, steps, hint, regs);
            for (row, v) in acc.iter_mut().zip(&regs) {
                _mm256_storeu_ps(row.as_mut_ptr(), v[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), v[1]);
            }
        }
    }
    // SAFETY: forwarded contract, `R = acc.len()`.
    unsafe {
        match acc.len() {
            1 => rows::<S, 1>(strip, at, lhs, steps, hint, acc),
            2 => rows::<S, 2>(strip, at, lhs, steps, hint, acc),
            3 => rows::<S, 3>(strip, at, lhs, steps, hint, acc),
            _ => rows::<S, ROWS>(strip, at, lhs, steps, hint, acc),
        }
    }
}

/// The scalar twin of [`tile_vector`]: advances `acc` (one entry per row of
/// the block, columns `j..j + width`) over `steps` in ascending order.
///
/// Every row steps a fixed 4, 8 or 16 lanes, the ones past `width` against
/// a zero weight: fixed-length loops the compiler vectorizes, lanes nobody
/// stores, and no more of them than a narrow strip needs.
#[inline(always)]
pub(crate) fn tile_scalar<S: Strip>(
    strip: &S,
    at: (usize, usize, usize),
    lhs: Lhs<'_>,
    steps: Range<usize>,
    acc: &mut [[f32; STRIP]],
) {
    #[inline(always)]
    fn lanes<S: Strip, const W: usize>(
        strip: &S,
        (n, j, width): (usize, usize, usize),
        lhs: Lhs<'_>,
        steps: Range<usize>,
        acc: &mut [[f32; STRIP]],
    ) {
        for d in steps {
            let mut w = [0.0f32; W];
            for (c, wv) in w[..width].iter_mut().enumerate() {
                *wv = strip.at(d * n + j + c);
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let uv = lhs.data[lhs.off + r * lhs.stride + d];
                for (av, &wv) in a[..W].iter_mut().zip(&w) {
                    *av = step::<S>(*av, uv, wv);
                }
            }
        }
    }
    match at.2 {
        0..=4 => lanes::<S, 4>(strip, at, lhs, steps, acc),
        5..=8 => lanes::<S, 8>(strip, at, lhs, steps, acc),
        _ => lanes::<S, STRIP>(strip, at, lhs, steps, acc),
    }
}
