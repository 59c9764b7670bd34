//! The register tile under both dense kernels of this crate: the û
//! projection ([`crate::uhat`]) and the GEMM ([`crate::matmul`]).
//!
//! A tile is `R ≤ 6` rows of a broadcast operand ([`Rows`]: a matrix's
//! rows, [`Lhs`], or a convolution's receptive fields read from the image,
//! [`ImageRows`]) against one strip of a streamed operand ([`Strip`]) two
//! vectors wide: two accumulators per row, advanced over a range of
//! reduction steps. One body, generic over the register type ([`Vector`]),
//! runs both widths. On AVX2 a strip is 16 columns of two 8-lane `__m256`;
//! at [`crate::SimdLevel::Avx512`] the dense `f32` operands also run
//! 32-column strips of two 16-lane `__m512`. Six rows hold twelve
//! accumulators, two weight loads and one broadcast: 15 of AVX2's 16
//! vector registers, or 15 of AVX-512's 32. Every output element takes the
//! same steps in the same order at either width, so the two are bitwise
//! equal. The caller supplies the accumulators' initial value and stores
//! the result, so the same tile serves û (from zero, whole reduction, one
//! store) and the GEMM (one `k` panel at a time, accumulators
//! round-tripping through the output between panels).
//!
//! [`tile_scalar`] is the same walk in scalar code — the whole kernel at
//! [`crate::SimdLevel::Scalar`] and the column tail of the vector walk — with
//! the bit-identical per-element [`step`].

use std::ops::Range;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m512};

/// Columns per AVX2 strip: two 8-lane vectors.
pub(crate) const STRIP: usize = 16;
/// Columns per AVX-512 strip: two 16-lane vectors.
pub(crate) const WIDE_STRIP: usize = 32;
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
pub(crate) trait Strip: Loads {
    /// `true`: accumulate with one fused multiply-add; `false`: multiply,
    /// round, then add.
    const FUSED: bool;
    /// `true` when its 8-lane [`Load`] needs F16C on top of AVX2.
    const F16C: bool = false;

    /// Element `idx`.
    fn at(&self, idx: usize) -> f32;

    /// Address of element `idx` for a prefetch hint. `idx` may lie past the
    /// operand, so the pointer is formed with wrapping arithmetic and must
    /// never be dereferenced.
    fn hint(&self, idx: usize) -> *const i8;
}

/// The vector loads every [`Strip`] offers: 8 lanes, and its widest.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Loads: Load<__m256> + Load<Self::Wide> {
    /// The widest register its loader fills: `__m512` for dense `f32`,
    /// `__m256` for the quantized decoders, which run the AVX2 tile at
    /// every vector level.
    type Wide: Vector;
}

/// Off x86-64 a strip has no vector loads.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) trait Loads {}

#[cfg(not(target_arch = "x86_64"))]
impl<T> Loads for T {}

/// One register of a strip's elements.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Load<V: Vector> {
    /// Elements `idx..idx + V::LANES`.
    ///
    /// # Safety
    ///
    /// Requires the CPU features of `V` (and F16C for the fp16 strip) and
    /// `idx + V::LANES` within the operand.
    unsafe fn load(&self, idx: usize) -> V;
}

/// A register the tile accumulates in; a strip is two of them.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Vector: Copy {
    /// `f32` lanes.
    const LANES: usize;

    /// Every lane `x`.
    ///
    /// # Safety
    ///
    /// Requires the register's CPU features (AVX2, or AVX-512F).
    unsafe fn splat(x: f32) -> Self;

    /// `LANES` floats from `p`, unaligned.
    ///
    /// # Safety
    ///
    /// As [`Self::splat`], and `p` readable for `LANES` floats.
    unsafe fn load(p: *const f32) -> Self;

    /// Writes the lanes to `p`, unaligned.
    ///
    /// # Safety
    ///
    /// As [`Self::splat`], and `p` writable for `LANES` floats.
    unsafe fn store(self, p: *mut f32);

    /// One lane-wise [`step`]: `acc + u·w`, rounded once when `fused`, else
    /// after the multiply and again after the add.
    ///
    /// # Safety
    ///
    /// As [`Self::splat`] (plus FMA for the AVX2 register).
    unsafe fn step(fused: bool, acc: Self, u: Self, w: Self) -> Self;
}

/// AVX2 / FMA intrinsics on 8 lanes.
#[cfg(target_arch = "x86_64")]
impl Vector for __m256 {
    const LANES: usize = 8;

    // SAFETY: the trait contract — the register's features.
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        // SAFETY: the trait contract.
        unsafe { std::arch::x86_64::_mm256_set1_ps(x) }
    }

    // SAFETY: the trait contract — the features, `LANES` floats at `p`.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the trait contract.
        unsafe { std::arch::x86_64::_mm256_loadu_ps(p) }
    }

    // SAFETY: the trait contract — the features, `LANES` floats at `p`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the trait contract.
        unsafe { std::arch::x86_64::_mm256_storeu_ps(p, self) }
    }

    // SAFETY: the trait contract — the register's features.
    #[inline(always)]
    unsafe fn step(fused: bool, acc: Self, u: Self, w: Self) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: the trait contract.
        unsafe {
            if fused {
                _mm256_fmadd_ps(u, w, acc)
            } else {
                _mm256_add_ps(acc, _mm256_mul_ps(u, w))
            }
        }
    }
}

/// AVX-512F intrinsics on 16 lanes.
#[cfg(target_arch = "x86_64")]
impl Vector for __m512 {
    const LANES: usize = 16;

    // SAFETY: the trait contract — the register's features.
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        // SAFETY: the trait contract.
        unsafe { std::arch::x86_64::_mm512_set1_ps(x) }
    }

    // SAFETY: the trait contract — the features, `LANES` floats at `p`.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the trait contract.
        unsafe { std::arch::x86_64::_mm512_loadu_ps(p) }
    }

    // SAFETY: the trait contract — the features, `LANES` floats at `p`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the trait contract.
        unsafe { std::arch::x86_64::_mm512_storeu_ps(p, self) }
    }

    // SAFETY: the trait contract — the register's features.
    #[inline(always)]
    unsafe fn step(fused: bool, acc: Self, u: Self, w: Self) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: the trait contract.
        unsafe {
            if fused {
                _mm512_fmadd_ps(u, w, acc)
            } else {
                _mm512_add_ps(acc, _mm512_mul_ps(u, w))
            }
        }
    }
}

/// Dense `f32` weights; `FUSED` picks the accumulation step.
pub(crate) struct F32Strip<'a, const FUSED: bool>(pub(crate) &'a [f32]);

impl<const FUSED: bool> Strip for F32Strip<'_, FUSED> {
    const FUSED: bool = FUSED;

    #[inline(always)]
    fn at(&self, idx: usize) -> f32 {
        self.0[idx]
    }

    #[inline(always)]
    fn hint(&self, idx: usize) -> *const i8 {
        self.0.as_ptr().wrapping_add(idx).cast()
    }
}

#[cfg(target_arch = "x86_64")]
impl<const FUSED: bool> Loads for F32Strip<'_, FUSED> {
    type Wide = __m512;
}

#[cfg(target_arch = "x86_64")]
impl<V: Vector, const FUSED: bool> Load<V> for F32Strip<'_, FUSED> {
    // SAFETY: the trait contract — `V`'s features, `idx + V::LANES` within
    // the operand.
    #[inline(always)]
    unsafe fn load(&self, idx: usize) -> V {
        debug_assert!(idx + V::LANES <= self.0.len());
        // SAFETY: the caller keeps `idx + V::LANES` inside the operand.
        unsafe { V::load(self.0.as_ptr().add(idx)) }
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

/// The accumulators of an `R`-row tile on register `V`.
#[cfg(target_arch = "x86_64")]
pub(crate) type Acc<V, const R: usize> = [[V; 2]; R];

/// Advances `acc` (`R` rows × columns `j..j + 2·V::LANES` of an `n`-wide
/// strip) over `steps` in ascending order. With `hint = Some(idx)` each
/// step also prefetches the strip lines `idx` elements on from its own row.
///
/// # Safety
///
/// Requires the CPU features of `V` and of the strip's [`Load`],
/// `j + 2·V::LANES ≤ n`, `steps.end · n` within the strip and every
/// `(r, d)` with `r < R`, `d < steps.end` a valid [`Rows::at`] index of
/// `lhs`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_vector<V: Vector, S: Strip + Load<V>, L: Rows, const R: usize>(
    strip: &S,
    at: (usize, usize),
    lhs: L,
    steps: Range<usize>,
    hint: Option<usize>,
    acc: Acc<V, R>,
) -> Acc<V, R> {
    // Two loops, not a test per step: with the test inside, the one-row û
    // loop rotated a dozen registers around every prefetch (0.86–0.93x).
    // SAFETY: forwarded contract.
    unsafe {
        match hint {
            Some(ahead) => advance::<V, S, L, R, true>(strip, at, lhs, steps, ahead, acc),
            None => advance::<V, S, L, R, false>(strip, at, lhs, steps, 0, acc),
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
unsafe fn advance<V: Vector, S: Strip + Load<V>, L: Rows, const R: usize, const HINT: bool>(
    strip: &S,
    (n, j): (usize, usize),
    lhs: L,
    steps: Range<usize>,
    ahead: usize,
    mut acc: Acc<V, R>,
) -> Acc<V, R> {
    use std::arch::x86_64::*;
    let lanes = V::LANES;
    debug_assert!(j + 2 * lanes <= n);
    // SAFETY: per the contract, the broadcast reads `(r, d)` (r < R,
    // d < steps.end) are inside `lhs` and the loads read `d·n + j +
    // 2·lanes ≤ steps.end·n` elements of the strip; the prefetch
    // addresses are never dereferenced.
    unsafe {
        for d in steps {
            let w0: V = strip.load(d * n + j);
            let w1: V = strip.load(d * n + j + lanes);
            if HINT {
                // One prefetch per 16 columns: a cache line of `f32`.
                for line in (0..2 * lanes).step_by(STRIP) {
                    _mm_prefetch::<_MM_HINT_T0>(strip.hint(d * n + ahead + line));
                }
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let uv = V::splat(lhs.at_unchecked(r, d));
                a[0] = V::step(S::FUSED, a[0], uv, w0);
                a[1] = V::step(S::FUSED, a[1], uv, w1);
            }
        }
    }
    acc
}

/// [`tile_vector`] on accumulators in memory, as [`tile_scalar`] takes
/// them: the `1 ≤ acc.len() ≤ ROWS` rows of `W = 2·V::LANES` columns are
/// loaded into registers, advanced over `steps` and stored back.
///
/// # Safety
///
/// As [`tile_vector`] with `R = acc.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn tile_vector_rows<V: Vector, S: Strip + Load<V>, L: Rows, const W: usize>(
    strip: &S,
    at: (usize, usize),
    lhs: L,
    steps: Range<usize>,
    acc: &mut [[f32; W]],
) {
    /// The first `R` rows of `acc`.
    ///
    /// # Safety
    ///
    /// As [`tile_vector`].
    #[inline(always)]
    unsafe fn rows<V: Vector, S: Strip + Load<V>, L: Rows, const W: usize, const R: usize>(
        strip: &S,
        at: (usize, usize),
        lhs: L,
        steps: Range<usize>,
        acc: &mut [[f32; W]],
    ) {
        const { assert!(W == 2 * V::LANES, "a row is two registers") };
        let acc = &mut acc[..R];
        // SAFETY: the caller's contract is `tile_vector`'s; every load and
        // store is one of the two `V::LANES`-float halves of a `W`-float
        // row.
        unsafe {
            let regs: Acc<V, R> = std::array::from_fn(|r| {
                let row = acc[r].as_ptr();
                [V::load(row), V::load(row.add(V::LANES))]
            });
            let regs = tile_vector::<V, S, L, R>(strip, at, lhs, steps, None, regs);
            for (row, v) in acc.iter_mut().zip(&regs) {
                v[0].store(row.as_mut_ptr());
                v[1].store(row.as_mut_ptr().add(V::LANES));
            }
        }
    }
    // SAFETY: forwarded contract, `R = acc.len()`.
    unsafe { with_rows!(acc.len(), R => rows::<V, S, L, W, R>(strip, at, lhs, steps, acc)) }
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
