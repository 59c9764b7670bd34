//! Matrix products on the crate's one GEMM kernel: the register tile of
//! [`crate::tile`], walked in `k` panels over packed strips.
//!
//! **Walk.** For each panel of reduction steps and each strip of `b`, the
//! vector walks first copy the strip's panel into a contiguous `[steps,
//! width]` stack buffer (the scalar walk and the column tail read `b` in
//! place). At [`SimdLevel::Avx512`] the strips are 32 columns wide while
//! they fit, through the `__m512` tile; the rest, and every strip at
//! [`SimdLevel::Avx2Fma`], are 16 wide, through the `__m256` tile; a tail
//! narrower than 16 runs the scalar tile. Then, for each block of at most
//! six rows of `a` ([`tile::row_blocks`]), the tile's accumulators are read
//! back from the output (zero on the first panel), advanced over the panel
//! and stored (plus the bias on the last). In `b` a strip's rows sit `n`
//! floats apart: on the reference host's 64-set, 12-way L1 a 1 KB stride
//! (`n` = 256, the CapsNet-MNIST primary convolution) maps a panel onto 4
//! sets and a stride of 4 KB or more onto one, so unpacked every row block
//! re-read the panel from L2. On one thread its batch-8 product measures
//! 48–62 GFLOP/s packed with six-row blocks on the AVX2 tile, against 44–49
//! unpacked with four; the AVX-512 tile takes the same convolution from
//! 64–70 to 103–115 GFLOP/s on one pinned core.
//!
//! **Operand `a`.** Either an `[m, k]` matrix ([`Operand::Matrix`]) or a
//! convolution's `[B, C, H, W]` input ([`Operand::Image`]), read in place
//! as the rows im2col would unfold from it: per panel the walk fills a
//! stack table of the steps' tap offsets, per row block it computes the
//! rows' window starts, and the tile reads `image[start + tap]`. Either
//! way the tile sees the same values in the same order, so a convolution
//! is bitwise the product over its unfolded matrix. Row shards pass their
//! first row rather than a slice of `a`.
//!
//! **Arithmetic contract.** Every output element accumulates its `k`
//! products in ascending `p` from `+0.0`: one fused multiply-add per step
//! at both vector levels, whatever the strip's width (column tails use
//! scalar `mul_add`, the same rounding), an unfused multiply then add at
//! [`SimdLevel::Scalar`]; the bias is added after the reduction. The round
//! trip through the output is exact, so results are bitwise independent of
//! panel length, strip width, row position, batch size and shard count at
//! a given level, and the two vector levels are bitwise one. Terms with
//! `a == 0.0` are not skipped, which is bit-safe for finite `b`: an
//! accumulator that starts at `+0.0` and adds `±0` stays `+0.0`.
//!
//! **Output and shards.** [`Gemm::pixels`] consecutive rows are a sample and
//! the output is `[m / pixels, n, pixels]`: `1` is the row-major product,
//! `out_h·out_w` the convolution's `[batch, out_c, out_h, out_w]`, stored
//! from the tile with no staging buffer or transpose pass. Several samples
//! shard between samples, one sample between column strips — a contiguous
//! output window either way — as [`plan_threads`] grants.

use std::mem::MaybeUninit;
use std::ops::Range;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m512};
#[cfg(target_arch = "x86_64")]
use std::marker::PhantomData;

use crate::par::{for_each_shard, plan_threads};
use crate::simd::{self, SimdLevel};
#[cfg(target_arch = "x86_64")]
use crate::tile::Vector;
use crate::tile::{self, F32Strip, ImageRows, Lhs, Rows, ROWS, STRIP, WIDE_STRIP};

/// Floats in one packed panel (the stack buffer), whatever its strip's
/// width: 64 KB, so a panel is sized in bytes, not steps. For a 16-column
/// strip that is [`PANEL`] steps, and the accumulators' round trip is 192
/// loads and stores against the tile's 12 288 FMAs. Against the unpacked
/// walk at `k` = 20 736, `n` = 256, batch 8 / batch 1, 16-column panels of
/// 512 steps measured 1.19x / 1.08x, 1 024 1.18–1.28x / 1.05–1.11x and
/// 2 048 1.26x / 0.92x. The AVX-512 walk's 32-column panels of 512 steps
/// (64 KB) ran its batch-8 convolution in 25.6–26.1 ms at best on one
/// pinned core, 256 steps (32 KB) in 27.7–28.2 and 1 024 (128 KB) in
/// 23.7, equal at batch 1 and twice the stack.
const PACK: usize = 16 * 1024;

/// Reduction steps per panel of the scalar and AVX2 walks; the AVX-512
/// walk's panels fill the pack at its 32-column strips, in half as many.
const PANEL: usize = PACK / STRIP;

/// Matrix product `out[m,n] = a[m,k] * b[k,n]`, one call of the crate's
/// GEMM kernel (see the module docs), written into the provided slice
/// (every element is overwritten, none is read) so allocation-free callers
/// (the capsnet forward arena) reuse their own output buffers.
///
/// # Panics
///
/// Panics when a slice length does not match `m`/`k`/`n`.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let product = Gemm {
        a: Operand::Matrix(a),
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
    pub(crate) a: Operand<'a>,
    pub(crate) b: &'a [f32],
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) dims: (usize, usize, usize),
    pub(crate) pixels: usize,
}

/// Where a [`Gemm`] reads its broadcast operand `a`.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// A row-major `[m, k]` matrix.
    Matrix(&'a [f32]),
    /// A convolution's input, read in place as its unfolded rows.
    Image(Image<'a>),
}

/// A `[B, C, H, W]` image read as the `[B·oh·ow, C·kernel²]` matrix that
/// im2col would unfold from it (no padding): row `(b, oy, ox)`, step
/// `(ci, ky, kx)` is `data[base + tap]` with `base = b·CHW + oy·s·W + ox·s`
/// and `tap = (ci·H + ky)·W + kx`, both ascending in their index.
#[derive(Clone, Copy)]
pub(crate) struct Image<'a> {
    data: &'a [f32],
    /// `[B, C, H, W]`.
    dims: [usize; 4],
    kernel: usize,
    stride: usize,
    /// Output extents `(oh, ow)`.
    grid: (usize, usize),
}

impl<'a> Image<'a> {
    /// `data` as a `[B, C, H, W]` image under a `kernel`-wide, `stride`-step
    /// convolution without padding.
    ///
    /// # Panics
    ///
    /// Panics when `data` is not `dims`, `kernel` or `stride` is zero or
    /// the kernel does not fit.
    pub(crate) fn new(data: &'a [f32], dims: [usize; 4], kernel: usize, stride: usize) -> Self {
        let [b, c, h, w] = dims;
        let len = b.checked_mul(c).and_then(|v| v.checked_mul(h * w));
        assert_eq!(Some(data.len()), len, "the image must be [B, C, H, W]");
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(kernel <= h && kernel <= w, "the kernel must fit the image");
        let out = |d: usize| (d - kernel) / stride + 1;
        Image {
            data,
            dims,
            kernel,
            stride,
            grid: (out(h), out(w)),
        }
    }

    /// Asserts that this image is an `[m, k]` operand and that every read
    /// of the walk lies inside `data`. The tile reads unchecked; this is
    /// the check its SAFETY comments cite. `base` and `tap` each peak at
    /// their last index, so the largest read is the sum of the two.
    fn check(&self, m: usize, k: usize) {
        let ([b, c, h, w], (oh, ow), (kk, s)) = (self.dims, self.grid, (self.kernel, self.stride));
        assert_eq!(m, b * oh * ow, "a must be the image's [B·oh·ow] rows");
        assert_eq!(k, c * kk * kk, "a must be the image's [C·kernel²] steps");
        if m > 0 && k > 0 {
            let max_base = (b - 1) * c * h * w + (oh - 1) * s * w + (ow - 1) * s;
            let max_tap = ((c - 1) * h + kk - 1) * w + kk - 1;
            assert!(
                max_base
                    .checked_add(max_tap)
                    .is_some_and(|end| end < self.data.len()),
                "the image's windows must lie inside it"
            );
        }
    }

    /// Unfolded row `row` as its output position `(b, oy, ox)`.
    fn position(&self, row: usize) -> (usize, usize, usize) {
        let (oh, ow) = self.grid;
        (row / (oh * ow), row / ow % oh, row % ow)
    }

    /// The window starts of the `count ≤ ROWS` unfolded rows from position
    /// `next` on, which is left at the row after them: the blocks of a
    /// strip walk the rows in order, so no block divides.
    #[inline(always)]
    fn bases(&self, next: &mut (usize, usize, usize), count: usize) -> [usize; ROWS] {
        let ([_, c, h, w], (oh, ow), s) = (self.dims, self.grid, self.stride);
        let mut base = [0; ROWS];
        for slot in &mut base[..count] {
            let (b, oy, ox) = *next;
            *slot = b * c * h * w + oy * s * w + ox * s;
            *next = if ox + 1 < ow {
                (b, oy, ox + 1)
            } else if oy + 1 < oh {
                (b, oy + 1, 0)
            } else {
                (b + 1, 0, 0)
            };
        }
        base
    }

    /// The tap offsets of reduction steps `steps` (at most [`PANEL`]),
    /// written into `table` and returned from its front.
    #[inline(always)]
    fn taps<'t>(
        &self,
        steps: &Range<usize>,
        table: &'t mut [MaybeUninit<usize>; PANEL],
    ) -> &'t [usize] {
        let ([_, _, h, w], kk) = (self.dims, self.kernel);
        let mut at = (
            steps.start / (kk * kk),
            steps.start / kk % kk,
            steps.start % kk,
        );
        for slot in &mut table[..steps.len()] {
            let (ci, ky, kx) = at;
            slot.write((ci * h + ky) * w + kx);
            at = if kx + 1 < kk {
                (ci, ky, kx + 1)
            } else if ky + 1 < kk {
                (ci, ky + 1, 0)
            } else {
                (ci + 1, 0, 0)
            };
        }
        // SAFETY: the loop initialized the first `steps.len()` entries.
        unsafe { std::slice::from_raw_parts(table.as_ptr().cast(), steps.len()) }
    }
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
    pub(crate) fn run_on(self, out: &mut [f32], shards: Option<usize>, level: SimdLevel) {
        let ((m, k, n), pixels) = (self.dims, self.pixels);
        // The vector tiles index with unchecked pointers; these are the
        // checks their SAFETY comments cite.
        match self.a {
            Operand::Matrix(a) => assert_eq!(Some(a.len()), m.checked_mul(k), "a must be [m, k]"),
            Operand::Image(image) => image.check(m, k),
        }
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
                // SAFETY: the vector levels are only selected after runtime
                // feature detection (tests guard with `simd::host_levels`);
                // the scalar walk has no CPU requirement.
                unsafe {
                    match level {
                        #[cfg(target_arch = "x86_64")]
                        SimdLevel::Avx512 => self.walk_avx512(window, rows, cols),
                        #[cfg(target_arch = "x86_64")]
                        SimdLevel::Avx2Fma => self.walk_avx2(window, rows, cols),
                        #[cfg(not(target_arch = "x86_64"))]
                        SimdLevel::Avx512 | SimdLevel::Avx2Fma => {
                            self.walk::<false, false>(window, rows, cols)
                        }
                        SimdLevel::Scalar => self.walk::<false, false>(window, rows, cols),
                    }
                }
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
    unsafe fn walk_avx2(&self, window: &mut [f32], rows: Range<usize>, cols: Range<usize>) {
        // SAFETY: the caller's contract is `walk::<true, false>`'s.
        unsafe { self.walk::<true, false>(window, rows, cols) };
    }

    /// [`Self::walk`] compiled for AVX-512F on top of AVX2+FMA, for the
    /// 32-column tile.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX2+FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn walk_avx512(&self, window: &mut [f32], rows: Range<usize>, cols: Range<usize>) {
        // SAFETY: the caller's contract is `walk::<true, true>`'s.
        unsafe { self.walk::<true, true>(window, rows, cols) };
    }

    /// Columns `cols` of rows `rows` into `window`, the `[rows.len() /
    /// pixels, cols.len(), pixels]` part of the output they own: panels,
    /// then strips, then row blocks. `rows` starts at a sample boundary.
    /// `WIDE` packs each 32-column strip that fits and runs it through the
    /// AVX-512 tile; `VECTOR` does the same with the 16-column strips of
    /// the rest and the AVX2 tile, fusing every step; the scalar tile reads
    /// `b` in place, as the column tail and as the whole kernel at
    /// [`SimdLevel::Scalar`].
    ///
    /// # Safety
    ///
    /// `VECTOR` requires AVX2+FMA and `WIDE` AVX-512F too, and inlining
    /// into a `#[target_feature]` caller; `a` reads as `[m, k]` (a matrix
    /// of that shape, or an image whose windows lie inside it) and `b` is
    /// `[k, n]`, as [`Self::run_on`] asserts.
    #[inline(always)]
    unsafe fn walk<const VECTOR: bool, const WIDE: bool>(
        &self,
        window: &mut [f32],
        rows: Range<usize>,
        cols: Range<usize>,
    ) {
        let (_, k, n) = self.dims;
        debug_assert_eq!(window.len(), rows.len() * cols.len());
        // One strip's packed panel and an image's taps for one panel:
        // written before they are read, so never zeroed.
        #[cfg(target_arch = "x86_64")]
        let mut pack = Pack([MaybeUninit::uninit(); PACK]);
        let mut taps = [MaybeUninit::<usize>::uninit(); PANEL];
        // An image's first row as `(b, oy, ox)`: every strip's blocks walk
        // the rows from there.
        let first = match self.a {
            Operand::Matrix(_) => (0, 0, 0),
            Operand::Image(image) => image.position(rows.start),
        };
        // A panel fills the pack at the walk's widest strip.
        let panel = if WIDE { PACK / WIDE_STRIP } else { PANEL };
        for p0 in (0..k.max(1)).step_by(panel) {
            let steps = p0..(p0 + panel).min(k);
            let taps: &[usize] = match self.a {
                Operand::Matrix(_) => &[],
                Operand::Image(image) => image.taps(&steps, &mut taps),
            };
            let mut j = cols.start;
            while j < cols.end {
                let left = cols.end - j;
                let width = if WIDE && left >= WIDE_STRIP {
                    WIDE_STRIP
                } else {
                    STRIP.min(left)
                };
                let tile = Tile {
                    steps: steps.clone(),
                    taps,
                    bias: self.bias.filter(|_| steps.end == k),
                    cols: (j, width),
                    pixels: self.pixels,
                };
                let walk = (&rows, &cols, first);
                // SAFETY: the features per this function's contract; each
                // packed strip is `j + width ≤ n`, `steps.end ≤ k` and
                // `width·steps.len() ≤ PACK`.
                unsafe {
                    match width {
                        #[cfg(target_arch = "x86_64")]
                        WIDE_STRIP if WIDE => {
                            let panel = pack_panel::<__m512>(self.b, (n, j), &steps, &mut pack);
                            let packed = Packed::<__m512>(panel, PhantomData);
                            self.blocks::<_, WIDE_STRIP>(&tile, &packed, walk, window);
                        }
                        #[cfg(target_arch = "x86_64")]
                        STRIP if VECTOR => {
                            let panel = pack_panel::<__m256>(self.b, (n, j), &steps, &mut pack);
                            let packed = Packed::<__m256>(panel, PhantomData);
                            self.blocks::<_, STRIP>(&tile, &packed, walk, window);
                        }
                        _ => {
                            let in_place = InPlace {
                                strip: F32Strip::<VECTOR>(&self.b[p0 * n..]),
                                cols: (n, j, width),
                            };
                            self.blocks(&tile, &in_place, walk, window);
                        }
                    }
                }
                j += width;
            }
        }
    }

    /// Every row block of the walk's `rows` through one strip's `tile`,
    /// advanced by `kernel`; the walk owns columns `cols` of the output and
    /// `first` is an image's first row as `(b, oy, ox)`.
    ///
    /// # Safety
    ///
    /// As [`Self::walk`], with the CPU features of `kernel`.
    #[inline(always)]
    unsafe fn blocks<K: Advance<W>, const W: usize>(
        &self,
        tile: &Tile<'_>,
        kernel: &K,
        (rows, cols, first): (&Range<usize>, &Range<usize>, (usize, usize, usize)),
        window: &mut [f32],
    ) {
        let (k, j) = (self.dims.1, tile.cols.0);
        let mut next = first;
        for block in tile::row_blocks(rows.len()) {
            let block = rows.start + block.start..rows.start + block.end;
            // Column `j` of row `block.start + r`; columns are `pixels`
            // apart.
            let at = |r: usize| {
                let (row, pixels) = (block.start + r - rows.start, self.pixels);
                (row / pixels * cols.len() + j - cols.start) * pixels + row % pixels
            };
            // SAFETY: forwarded contract; each operand below is `a`'s rows
            // `block`, steps `tile.steps`, which `run_on` asserted lie
            // inside it.
            unsafe {
                match self.a {
                    Operand::Matrix(a) => {
                        let lhs = Lhs {
                            data: a,
                            off: block.start * k + tile.steps.start,
                            stride: k,
                        };
                        tile.run(kernel, lhs, block.len(), window, at);
                    }
                    Operand::Image(image) => {
                        let lhs = ImageRows {
                            data: image.data,
                            base: image.bases(&mut next, block.len()),
                            tap: tile.taps,
                        };
                        tile.run(kernel, lhs, block.len(), window, at);
                    }
                }
            }
        }
    }
}

/// One strip over one panel, for every row block of a walk.
struct Tile<'p> {
    /// The panel's reduction steps; past the first panel the accumulators
    /// resume from the output.
    steps: Range<usize>,
    /// An image's tap offsets for those steps (empty for a matrix).
    taps: &'p [usize],
    /// Added at the store, on the last panel only.
    bias: Option<&'p [f32]>,
    /// `(j, width)`: the strip is columns `j..j + width` of `b`.
    cols: (usize, usize),
    /// Output columns are this many floats apart.
    pixels: usize,
}

impl Tile<'_> {
    /// One row block: its `rows` accumulators are read back from `window`
    /// (zero on the first panel), advanced by `kernel` over the panel's
    /// steps of `lhs` and stored (plus the bias on the last). Row `r`'s
    /// column `c` lives at `window[at(r) + c·pixels]`.
    ///
    /// # Safety
    ///
    /// As [`Gemm::blocks`], with `rows ≤ ROWS` and `lhs` covering rows
    /// `..rows` and the panel's steps.
    #[inline(always)]
    unsafe fn run<K: Advance<W>, L: Rows, const W: usize>(
        &self,
        kernel: &K,
        lhs: L,
        rows: usize,
        window: &mut [f32],
        at: impl Fn(usize) -> usize,
    ) {
        let ((j, width), pixels) = (self.cols, self.pixels);
        let mut acc = [[0.0f32; W]; ROWS];
        let live = &mut acc[..rows];
        if self.steps.start > 0 {
            for (r, a) in live.iter_mut().enumerate() {
                let base = at(r);
                for (c, av) in a[..width].iter_mut().enumerate() {
                    *av = window[base + c * pixels];
                }
            }
        }
        // SAFETY: forwarded contract.
        unsafe { kernel.advance(lhs, self.steps.len(), live) };
        for (r, a) in live.iter().enumerate() {
            let base = at(r);
            for (c, &av) in a[..width].iter().enumerate() {
                window[base + c * pixels] = self.bias.map_or(av, |bias| av + bias[j + c]);
            }
        }
    }
}

/// How a [`Tile`] advances one row block's `W`-column accumulators over
/// its panel.
trait Advance<const W: usize> {
    /// Advances `acc` over the first `steps` steps of `lhs`.
    ///
    /// # Safety
    ///
    /// The CPU features of the implementation; `lhs` covers `acc.len()`
    /// rows and `steps` steps, and the strip `steps` steps.
    unsafe fn advance<L: Rows>(&self, lhs: L, steps: usize, acc: &mut [[f32; W]]);
}

/// The scalar tile on `b` in place from the panel's first step: the whole
/// kernel at [`SimdLevel::Scalar`] and the column tail of the vector walks.
struct InPlace<'p, const FUSED: bool> {
    strip: F32Strip<'p, FUSED>,
    /// `(n, j, width)`: columns `j..j + width` of `b`'s `n`.
    cols: (usize, usize, usize),
}

impl<const FUSED: bool> Advance<STRIP> for InPlace<'_, FUSED> {
    // SAFETY: no CPU requirement; the trait's extents.
    #[inline(always)]
    unsafe fn advance<L: Rows>(&self, lhs: L, steps: usize, acc: &mut [[f32; STRIP]]) {
        tile::tile_scalar(&self.strip, self.cols, lhs, 0..steps, acc);
    }
}

/// A strip's panel packed `[steps, W]`, through the vector tile on `V`
/// (`W = 2·V::LANES`).
#[cfg(target_arch = "x86_64")]
struct Packed<'p, V>(&'p [f32], PhantomData<V>);

#[cfg(target_arch = "x86_64")]
impl<V: Vector, const W: usize> Advance<W> for Packed<'_, V> {
    // SAFETY: the trait contract — `V`'s features (and FMA); the packed
    // panel is `[steps, W]`.
    #[inline(always)]
    unsafe fn advance<L: Rows>(&self, lhs: L, steps: usize, acc: &mut [[f32; W]]) {
        let packed = F32Strip::<true>(self.0);
        // SAFETY: forwarded contract.
        unsafe { tile::tile_vector_rows::<V, _, _, W>(&packed, (W, 0), lhs, 0..steps, acc) }
    }
}

/// One strip's packed panel, [`PACK`] floats. Cache-line aligned: a step
/// of a 16-column strip is one line and of a 32-column strip two, so no
/// vector load splits a line, wherever the walk's stack frame happens to
/// sit.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct Pack([MaybeUninit<f32>; PACK]);

/// Copies rows `steps` of `b`'s `W = 2·V::LANES`-column strip at column
/// `j` into `pack` and returns them as a `[steps.len(), W]` matrix. In the
/// vector walks this loop is the only reader of `b` at its `n`-float
/// stride, which the hardware prefetcher does not follow, so each row also
/// hints the same row of the next strip.
///
/// # Safety
///
/// Requires `V`'s CPU features, `j + W ≤ n`, `steps.end·n ≤ b.len()` and
/// `W·steps.len() ≤ PACK`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pack_panel<'p, V: Vector>(
    b: &[f32],
    (n, j): (usize, usize),
    steps: &Range<usize>,
    pack: &'p mut Pack,
) -> &'p [f32] {
    use std::arch::x86_64::*;
    let (lanes, w) = (V::LANES, 2 * V::LANES);
    debug_assert!(j + w <= n && steps.end * n <= b.len() && steps.len() * w <= PACK);
    let dst = pack.0.as_mut_ptr().cast::<f32>();
    // SAFETY: per the contract, strip row `p` (`b[p·n + j..][..w]`) and
    // copy row `d` (`w·(d + 1) ≤ PACK`) are in bounds, the hints are never
    // dereferenced, and the slice covers only the `steps.len()·w` floats
    // written.
    unsafe {
        for (d, p) in steps.clone().enumerate() {
            let src = b.as_ptr().add(p * n + j);
            for line in (0..w).step_by(STRIP) {
                _mm_prefetch::<_MM_HINT_T0>(src.wrapping_add(w + line).cast());
            }
            V::load(src).store(dst.add(d * w));
            V::load(src.add(lanes)).store(dst.add(d * w + lanes));
        }
        std::slice::from_raw_parts(dst, steps.len() * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// `a` `[m, k]` × `b` `[k, n]` through the public entry point.
    fn product(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * n];
        matmul_into(a, b, &mut out, m, k, n);
        out
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

    use crate::simd::host_levels as levels;

    /// The reference product at `level` (one of [`levels`]): the AVX2
    /// kernel for both vector levels, which are bitwise one walk.
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
            // SAFETY: `levels` offers a vector level only when the hardware
            // has AVX2+FMA.
            SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
                matmul_serial_ikj_avx2(a, b, &mut out, k, n)
            },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2Fma | SimdLevel::Avx512 => unreachable!("not offered by `levels`"),
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
        // Every block height, alone and in balanced splits.
        let ms = [1usize, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 36, 288];
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
        if !simd::host_levels().contains(&SimdLevel::Avx2Fma) {
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
            a: Operand::Matrix(a),
            b,
            bias: None,
            dims,
            pixels: 1,
        };
        g.run_on(out, Some(shards), level);
    }

    /// The column counts that run every strip of the AVX-512 walk: 32-wide
    /// strips alone, a 16-wide remainder, a scalar tail, and all three.
    const WIDE_NS: [usize; 8] = [16, 31, 32, 48, 160, 256, 992, 8192];

    #[test]
    fn the_avx512_walk_matches_the_avx2_walk_bitwise() {
        if !simd::avx512_or_skip("the_avx512_walk_matches_the_avx2_walk_bitwise") {
            return;
        }
        // Reductions around both walks' panels (the AVX-512 walk's are
        // half as long), row counts of every block height and samples of
        // 1 and 9 rows, with a bias: one sample splits its columns, several
        // split between samples.
        let wide_panel = PACK / WIDE_STRIP;
        let ks = [1usize, 25, wide_panel - 1, wide_panel + 1, PANEL + 3];
        let shapes = [(1usize, 1usize), (7, 1), (13, 1), (1, 9), (3, 9)];
        for (ni, &n) in WIDE_NS.iter().enumerate() {
            for (si, &(samples, pixels)) in shapes.iter().enumerate() {
                let m = samples * pixels;
                // Every k meets every n; the widest n only the short k.
                let k = if n > 1024 {
                    25
                } else {
                    ks[(ni + si) % ks.len()]
                };
                let a = lhs(m, k, si % 2 == 1);
                let b = Tensor::uniform(&[k, n], -1.0, 1.0, (k + n) as u64).into_vec();
                let bias = Tensor::uniform(&[n], -1.0, 1.0, n as u64).into_vec();
                let g = Gemm {
                    a: Operand::Matrix(&a),
                    b: &b,
                    bias: Some(&bias),
                    dims: (m, k, n),
                    pixels,
                };
                let mut want = vec![f32::NAN; m * n];
                g.run_on(&mut want, Some(1), SimdLevel::Avx2Fma);
                for shards in 1..=3 {
                    let mut got = vec![f32::NAN; m * n];
                    g.run_on(&mut got, Some(shards), SimdLevel::Avx512);
                    let what = format!("{samples}x{pixels} k={k} n={n} shards={shards}");
                    assert_bits(&got, &want, &what);
                }
            }
        }
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
                        a: Operand::Matrix(&a),
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

    /// Counts the bytes this thread allocates, so a test can see that a
    /// walk allocates nothing.
    mod heap {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCATED: Cell<usize> = const { Cell::new(0) };
        }

        fn note(grown: usize) {
            // `try_with`: the counter may be gone while a thread exits.
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + grown));
        }

        /// Bytes this thread has allocated, every allocation and growth.
        pub(super) fn allocated() -> usize {
            ALLOCATED.with(Cell::get)
        }

        struct Counting;

        // SAFETY: every method forwards to `System` with the caller's own
        // arguments, so `System`'s guarantees are the caller's; the
        // counter is a thread-local `Cell` that never allocates.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;
    }

    #[test]
    fn a_warm_walk_allocates_nothing() {
        // Four panels, two packed strips and a column tail, three row
        // blocks and the bias store; then the same walk over an image,
        // whose per-panel tap table lives on the stack.
        let (m, k, n) = (13usize, 3 * PANEL + 7, 40usize);
        let a = lhs(m, k, true);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 9).into_vec();
        let bias = Tensor::uniform(&[n], -1.0, 1.0, 10).into_vec();
        // 343 channels of 5 × 5 under a 3 × 3 kernel, stride 2: 4 pixels a
        // sample, 3 087 steps.
        let image_dims = [3usize, 343, 5, 5];
        let image: Vec<f32> = Tensor::uniform(&image_dims, -1.0, 1.0, 11).into_vec();
        let image_b = Tensor::uniform(&[343 * 9, n], -1.0, 1.0, 12).into_vec();
        let mut out = vec![0.0f32; m * n];
        let mut image_out = vec![0.0f32; 12 * n];
        for level in levels() {
            let g = Gemm {
                a: Operand::Matrix(&a),
                b: &b,
                bias: Some(&bias),
                dims: (m, k, n),
                pixels: 1,
            };
            let implicit = Gemm {
                a: Operand::Image(Image::new(&image, image_dims, 3, 2)),
                b: &image_b,
                bias: Some(&bias),
                dims: (12, 343 * 9, n),
                pixels: 4,
            };
            for (g, out) in [(g, &mut out), (implicit, &mut image_out)] {
                g.run_on(out, Some(1), level);
                let before = heap::allocated();
                g.run_on(out, Some(1), level);
                assert_eq!(heap::allocated() - before, 0, "{level:?}");
            }
        }
    }

    #[test]
    fn zero_columns_is_an_empty_product() {
        assert!(product(&[0.0; 6], &[], (3, 2, 0)).is_empty());
    }

    #[test]
    fn zero_rows_is_an_empty_product() {
        assert!(product(&[], &[0.0; 10], (0, 2, 5)).is_empty());
    }

    #[test]
    fn an_empty_reduction_stores_zeros() {
        for level in levels() {
            let mut out = vec![f32::NAN; 5 * 20];
            matmul_with(level, 2, &[], &[], &mut out, (5, 0, 20));
            assert!(out.iter().all(|v| v.to_bits() == 0), "{level:?}");
        }
        assert_eq!(product(&[], &[], (3, 0, 2)), [0.0; 6]);
        // With a bias the store is the bias, in the sample-major layout.
        let bias: Vec<f32> = (0..20).map(|c| c as f32).collect();
        for level in levels() {
            let mut out = vec![f32::NAN; 6 * 20];
            let g = Gemm {
                a: Operand::Matrix(&[]),
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
        let c = product(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], (2, 2, 2));
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::uniform(&[7, 7], -1.0, 1.0, 3).into_vec();
        let mut eye = vec![0.0f32; 7 * 7];
        eye.iter_mut().step_by(8).for_each(|d| *d = 1.0);
        let c = product(&a, &eye, (7, 7, 7));
        for (x, y) in a.iter().zip(&c) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        assert_eq!(product(&a, &b, (2, 3, 2)), [4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn dimension_errors() {
        // An operand whose length disagrees with the dims panics, named.
        let message = |a: &[f32], b: &[f32]| {
            let (a, b) = (a.to_vec(), b.to_vec());
            let payload = std::panic::catch_unwind(move || product(&a, &b, (2, 3, 2)))
                .expect_err("mismatched operands must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        assert!(message(&[0.0; 4], &[0.0; 6]).contains("a must be [m, k]"));
        assert!(message(&[0.0; 6], &[0.0; 4]).contains("b must be [k, n]"));
    }
}
