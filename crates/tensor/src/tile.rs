//! The `R × 16` register tile under both dense kernels of this crate: the
//! û projection ([`crate::uhat`]) and the GEMM ([`crate::matmul`]).
//!
//! A tile is `R ≤ 6` rows of a broadcast operand ([`Rows`]: a matrix's
//! rows, [`Lhs`], or a convolution's receptive fields read from the image,
//! [`ImageRows`]) against one 16-column strip of a streamed operand
//! ([`Strip`]): two 8-lane
//! accumulators per row, advanced over a range of reduction steps. Six rows
//! hold twelve accumulators, two weight loads and one broadcast: 15 of
//! AVX2's 16 vector registers. The caller supplies the accumulators'
//! initial value and stores the result, so the same tile serves û (from
//! zero, whole reduction, one store) and the GEMM (one `k` panel at a
//! time, accumulators round-tripping through the output between panels).
//!
//! [`tile_scalar`] is the same walk in scalar code — the whole kernel at
//! [`crate::SimdLevel::Scalar`] and the column tail of the vector walk — with
//! the bit-identical per-element [`step`].

use std::ops::Range;

/// Columns per strip: two 8-lane vectors.
pub(crate) const STRIP: usize = 16;
/// Rows per register block.
pub(crate) const ROWS: usize = 6;

/// `0..m` cut into `⌈m / ROWS⌉` blocks whose heights differ by at most one:
/// a short remainder block holds too few accumulators to cover the FMA
/// latency, so 9 rows run as 4 + 5 rather than 6 + 3.
pub(crate) fn row_blocks(m: usize) -> impl Iterator<Item = Range<usize>> {
    let blocks = m.div_ceil(ROWS);
    (0..blocks).map(move |b| b * m / blocks..(b + 1) * m / blocks)
}

/// Evaluates `$body` with `$rows` a `const usize` equal to `$count`, which
/// must lie in `1..=ROWS`: one arm per height, so a short row block never
/// runs a taller tile. Both kernels dispatch through it.
macro_rules! with_rows {
    ($count:expr, $rows:ident => $body:expr) => {
        $crate::tile::with_rows!(@arms $count, $rows, $body, 1 2 3 4 5 6)
    };
    (@arms $count:expr, $rows:ident, $body:expr, $($arm:literal)*) => {{
        const _: () = assert!(
            [$($arm),*].len() == $crate::tile::ROWS,
            "`with_rows!` needs one arm per count in 1..=ROWS"
        );
        match $count {
            $($arm => {
                const $rows: usize = $arm;
                $body
            })*
            count => unreachable!("a row block has 1..=ROWS rows, not {count}"),
        }
    }};
}
pub(crate) use with_rows;

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

/// The broadcast operand of one row block, read as `f32`: the tile walks
/// it by (row, step). Each impl is monomorphized into the tile's loop.
pub(crate) trait Rows: Copy {
    /// Row `r`, step `d`.
    fn at(&self, r: usize, d: usize) -> f32;

    /// [`Self::at`] without a bounds check.
    ///
    /// # Safety
    ///
    /// `(r, d)` must be an index [`Self::at`] would accept.
    unsafe fn at_unchecked(&self, r: usize, d: usize) -> f32;
}

/// Rows of a row-major matrix: row `r`, step `d` is
/// `data[off + r·stride + d]`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) off: usize,
    pub(crate) stride: usize,
}

impl Rows for Lhs<'_> {
    #[inline(always)]
    fn at(&self, r: usize, d: usize) -> f32 {
        self.data[self.off + r * self.stride + d]
    }

    // SAFETY: the trait contract — `(r, d)` is an index `at` accepts.
    #[inline(always)]
    unsafe fn at_unchecked(&self, r: usize, d: usize) -> f32 {
        debug_assert!(self.off + r * self.stride + d < self.data.len());
        // SAFETY: the caller keeps `(r, d)` inside the operand. The block's
        // start is its own pointer: indexed by the one sum
        // `off + r·stride + d`, the û tile measured up to 6% slower.
        unsafe { *self.data.as_ptr().add(self.off).add(r * self.stride + d) }
    }
}

/// Receptive fields read from the image itself, the implicit form of a
/// convolution's unfolded rows: row `r`, step `d` is
/// `data[base[r] + tap[d]]`, where `base[r]` is where row `r`'s window
/// starts and `tap[d]` is step `d`'s offset inside any window.
#[derive(Clone, Copy)]
pub(crate) struct ImageRows<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) base: [usize; ROWS],
    pub(crate) tap: &'a [usize],
}

impl Rows for ImageRows<'_> {
    #[inline(always)]
    fn at(&self, r: usize, d: usize) -> f32 {
        self.data[self.base[r] + self.tap[d]]
    }

    // SAFETY: the trait contract — `(r, d)` is an index `at` accepts.
    #[inline(always)]
    unsafe fn at_unchecked(&self, r: usize, d: usize) -> f32 {
        debug_assert!(r < ROWS && d < self.tap.len());
        debug_assert!(self.base[r] + self.tap[d] < self.data.len());
        // SAFETY: the caller keeps `(r, d)` inside the operand: `r < ROWS`,
        // `d < tap.len()` and the sum inside `data`, so both offsets are.
        unsafe {
            let row = self.data.as_ptr().add(*self.base.get_unchecked(r));
            *row.add(*self.tap.get_unchecked(d))
        }
    }
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
/// `steps.end · n` within the strip and every `(r, d)` with `r < R`,
/// `d < steps.end` a valid [`Rows::at`] index of `lhs`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_vector<S: Strip, L: Rows, const R: usize>(
    strip: &S,
    at: (usize, usize),
    lhs: L,
    steps: Range<usize>,
    hint: Option<usize>,
    acc: Acc<R>,
) -> Acc<R> {
    // Two loops, not a test per step: with the test inside, the one-row û
    // loop rotated a dozen registers around every prefetch (0.86–0.93x).
    // SAFETY: forwarded contract.
    unsafe {
        match hint {
            Some(ahead) => advance::<S, L, R, true>(strip, at, lhs, steps, ahead, acc),
            None => advance::<S, L, R, false>(strip, at, lhs, steps, 0, acc),
        }
    }
}

/// [`tile_vector`] with the hint fixed at compile time.
///
/// # Safety
///
/// As [`tile_vector`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn advance<S: Strip, L: Rows, const R: usize, const HINT: bool>(
    strip: &S,
    (n, j): (usize, usize),
    lhs: L,
    steps: Range<usize>,
    ahead: usize,
    mut acc: Acc<R>,
) -> Acc<R> {
    use std::arch::x86_64::*;
    debug_assert!(j + STRIP <= n);
    // SAFETY: per the contract, the broadcast reads `(r, d)` (r < R,
    // d < steps.end) are inside `lhs` and `load8` reads `d·n + j + 16 ≤
    // steps.end·n` elements of the strip; the prefetch address is never
    // dereferenced.
    unsafe {
        for d in steps {
            let w0 = strip.load8(d * n + j);
            let w1 = strip.load8(d * n + j + 8);
            if HINT {
                _mm_prefetch::<_MM_HINT_T0>(strip.hint(d * n + ahead));
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let uv = _mm256_set1_ps(lhs.at_unchecked(r, d));
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
/// them: the `1 ≤ acc.len() ≤ ROWS` rows are loaded into registers,
/// advanced over `steps` and stored back.
///
/// # Safety
///
/// As [`tile_vector`] with `R = acc.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_vector_rows<S: Strip, L: Rows>(
    strip: &S,
    at: (usize, usize),
    lhs: L,
    steps: Range<usize>,
    acc: &mut [[f32; STRIP]],
) {
    /// The first `R` rows of `acc`.
    ///
    /// # Safety
    ///
    /// As [`tile_vector`].
    #[inline(always)]
    unsafe fn rows<S: Strip, L: Rows, const R: usize>(
        strip: &S,
        at: (usize, usize),
        lhs: L,
        steps: Range<usize>,
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
            let regs = tile_vector::<S, L, R>(strip, at, lhs, steps, None, regs);
            for (row, v) in acc.iter_mut().zip(&regs) {
                _mm256_storeu_ps(row.as_mut_ptr(), v[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), v[1]);
            }
        }
    }
    // SAFETY: forwarded contract, `R = acc.len()`.
    unsafe { with_rows!(acc.len(), R => rows::<S, L, R>(strip, at, lhs, steps, acc)) }
}

/// The scalar twin of [`tile_vector`]: advances `acc` (one entry per row of
/// the block, columns `j..j + width`) over `steps` in ascending order.
///
/// Every row steps a fixed 4, 8 or 16 lanes, the ones past `width` against
/// a zero weight: fixed-length loops the compiler vectorizes, lanes nobody
/// stores, and no more of them than a narrow strip needs.
#[inline(always)]
pub(crate) fn tile_scalar<S: Strip, L: Rows>(
    strip: &S,
    at: (usize, usize, usize),
    lhs: L,
    steps: Range<usize>,
    acc: &mut [[f32; STRIP]],
) {
    #[inline(always)]
    fn lanes<S: Strip, L: Rows, const W: usize>(
        strip: &S,
        (n, j, width): (usize, usize, usize),
        lhs: L,
        steps: Range<usize>,
        acc: &mut [[f32; STRIP]],
    ) {
        for d in steps {
            let mut w = [0.0f32; W];
            for (c, wv) in w[..width].iter_mut().enumerate() {
                *wv = strip.at(d * n + j + c);
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let uv = lhs.at(r, d);
                for (av, &wv) in a[..W].iter_mut().zip(&w) {
                    *av = step::<S>(*av, uv, wv);
                }
            }
        }
    }
    match at.2 {
        0..=4 => lanes::<S, L, 4>(strip, at, lhs, steps, acc),
        5..=8 => lanes::<S, L, 8>(strip, at, lhs, steps, acc),
        _ => lanes::<S, L, STRIP>(strip, at, lhs, steps, acc),
    }
}
