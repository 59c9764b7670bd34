//! Math backends: exact FP32 (the GPU baseline) vs the PE bit-level
//! approximations of §5.2.2.
//!
//! The routing procedure is written once against [`MathBackend`]; swapping
//! the backend is exactly what the paper's hardware does when it moves RP
//! from CUDA cores to the in-vault PEs, so Table 5's accuracy comparison
//! falls out of running the same code with two backends.

use pim_approx::ApproxProfile;
use pim_tensor::simd;

/// The special functions the routing procedure needs beyond multiply-add.
///
/// Implementations must be pure (no interior mutability observable through
/// the trait) so that inference is deterministic and thread-safe.
///
/// # Slice-level kernels
///
/// Beyond the scalar special functions, the trait carries the slice/block
/// kernels the routing inner loops are written against (`exp_slice`,
/// `softmax_row`, `dot`, `axpy`, the fused Eq 2/Eq 4 and EM blocks). Every
/// one has a default implementation that loops the scalar methods in the
/// exact order the pre-vectorized engine used, so a backend that only
/// provides `exp`/`inv_sqrt`/`div` (e.g. [`ApproxMath`], modelling the
/// paper's PE) routes **bit-identically** to before. [`ExactMath`]
/// overrides them with the runtime-dispatched SIMD kernels of
/// [`pim_tensor::simd`] — that widening is exactly the paper's move of the
/// RP onto wide in-vault arithmetic, replayed on the CPU host.
pub trait MathBackend: Send + Sync {
    /// `e^x`.
    fn exp(&self, x: f32) -> f32;
    /// `1/sqrt(x)` for `x > 0`.
    fn inv_sqrt(&self, x: f32) -> f32;
    /// `a / b`.
    fn div(&self, a: f32, b: f32) -> f32;
    /// `xs[i] = e^xs[i]` for every element.
    fn exp_slice(&self, xs: &mut [f32]) {
        for x in xs {
            *x = self.exp(*x);
        }
    }
    /// `xs[i] = xs[i] / denom` for every element.
    fn div_slice(&self, xs: &mut [f32], denom: f32) {
        for x in xs {
            *x = self.div(*x, denom);
        }
    }
    /// Numerically-stable softmax of one row (Eq 5):
    /// `out[i] = exp(logits[i] − max) / Σ_j exp(logits[j] − max)`.
    fn softmax_row(&self, logits: &[f32], out: &mut [f32]) {
        let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (&l, o) in logits.iter().zip(out.iter_mut()) {
            let e = self.exp(l - mx);
            *o = e;
            denom += e;
        }
        for o in out.iter_mut() {
            *o = self.div(*o, denom);
        }
    }
    /// Dot product `Σ a[i]·b[i]`.
    ///
    /// Backend-independent pure arithmetic, so the default IS the scalar
    /// reference kernel (one definition, no copy to keep in lockstep).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        simd::scalar::dot(a, b)
    }
    /// `y[i] += alpha · x[i]` (BLAS `saxpy`).
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        simd::scalar::axpy(alpha, x, y);
    }
    /// `y[i] = alpha·x[i] + beta·y[i]` (BLAS `saxpby`); with `beta == 0.0`
    /// the previous contents of `y` are overwritten, never read, so stale
    /// NaN/∞ in a reused buffer cannot leak through.
    fn scale_add(&self, alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        simd::scalar::scale_add(alpha, x, beta, y);
    }
    /// Eq 2 weighted-sum block: for each row `j` of the `[rows, ch]`
    /// blocks, `s[j·ch..] += c[j] · u[j·ch..]`.
    fn weighted_sum_block(&self, c: &[f32], u: &[f32], s: &mut [f32], ch: usize) {
        for (j, &cj) in c.iter().enumerate() {
            self.axpy(cj, &u[j * ch..(j + 1) * ch], &mut s[j * ch..(j + 1) * ch]);
        }
    }
    /// Eq 4 agreement block: for each row `j`,
    /// `b[j] += ⟨u[j·ch..], v[j·ch..]⟩`.
    fn agreement_block(&self, u: &[f32], v: &[f32], b: &mut [f32], ch: usize) {
        for (j, bj) in b.iter_mut().enumerate() {
            *bj += self.dot(&u[j * ch..(j + 1) * ch], &v[j * ch..(j + 1) * ch]);
        }
    }
    /// [`Self::agreement_block`] swept over `nb` u-blocks spaced `u_stride`
    /// floats apart (Eq 4 for one L capsule across the whole batch); `v`
    /// holds the `nb` contiguous `[rows, ch]` v-blocks.
    #[allow(clippy::too_many_arguments)]
    fn agreement_blocks_strided(
        &self,
        u: &[f32],
        u_stride: usize,
        v: &[f32],
        nb: usize,
        b: &mut [f32],
        ch: usize,
    ) {
        let block = b.len() * ch;
        for k in 0..nb {
            self.agreement_block(
                &u[k * u_stride..k * u_stride + block],
                &v[k * block..(k + 1) * block],
                b,
                ch,
            );
        }
    }
    /// [`Self::weighted_sum_block`] swept over `nb` u/s block pairs with
    /// u-blocks `u_stride` floats apart (Eq 2 for one L capsule across the
    /// whole batch).
    #[allow(clippy::too_many_arguments)]
    fn weighted_sum_blocks_strided(
        &self,
        c: &[f32],
        u: &[f32],
        u_stride: usize,
        s: &mut [f32],
        nb: usize,
        ch: usize,
    ) {
        let block = c.len() * ch;
        for k in 0..nb {
            self.weighted_sum_block(
                c,
                &u[k * u_stride..k * u_stride + block],
                &mut s[k * block..(k + 1) * block],
                ch,
            );
        }
    }
    /// EM M-step variance block: for each row `j` and dim `d`,
    /// `acc[j·ch+d] += r[j] · (u[j·ch+d] − m[j·ch+d])²` (pure arithmetic —
    /// the default delegates to the scalar reference kernel).
    fn sq_diff_axpy_block(&self, r: &[f32], u: &[f32], m: &[f32], acc: &mut [f32], ch: usize) {
        simd::scalar::sq_diff_axpy_block(r, u, m, acc, ch);
    }
    /// EM E-step quadratic-form block:
    /// `out[j] = Σ_d (u[j·ch+d] − m[j·ch+d])² / s[j·ch+d]`, where the
    /// divide goes through this backend's `div`.
    fn mahalanobis_block(&self, u: &[f32], m: &[f32], s: &[f32], out: &mut [f32], ch: usize) {
        for (j, o) in out.iter_mut().enumerate() {
            let base = j * ch;
            let mut quad = 0.0f32;
            for d in 0..ch {
                let diff = u[base + d] - m[base + d];
                quad += self.div(diff * diff, s[base + d]);
            }
            *o = quad;
        }
    }
    /// `sqrt(x)`; default composes `x * inv_sqrt(x)`, which is how the PE
    /// evaluates it (no dedicated sqrt unit).
    ///
    /// The composition is only meaningful for positive finite inputs, so the
    /// default guards the rest: zero, negatives and NaN return `0.0`
    /// (capsule norm-squares are non-negative by construction, so a negative
    /// here is always numerical noise worth clamping rather than turning
    /// into NaN via `x * inv_sqrt(x)`), and `+∞` returns `+∞` instead of
    /// the `∞ · 0` NaN the raw composition would produce.
    fn sqrt(&self, x: f32) -> f32 {
        if x == f32::INFINITY {
            f32::INFINITY
        } else if x > 0.0 {
            x * self.inv_sqrt(x)
        } else {
            0.0
        }
    }
    /// Short human-readable backend name (used in reports).
    fn name(&self) -> &'static str;
}

/// Exact IEEE-754 single-precision math — the CUDA-core reference.
///
/// The slice/block kernels are overridden with the runtime-dispatched SIMD
/// implementations from [`pim_tensor::simd`]: on AVX2+FMA hosts the routing
/// hot loops run 8 lanes wide with a polynomial `exp` (≤1e-5 relative
/// drift, validated by the equivalence suite); with `PIM_SIMD=scalar` in
/// the environment every kernel falls back to the scalar reference and
/// results are bit-identical to the per-element trait defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMath;

impl MathBackend for ExactMath {
    #[inline]
    fn exp(&self, x: f32) -> f32 {
        x.exp()
    }
    #[inline]
    fn inv_sqrt(&self, x: f32) -> f32 {
        1.0 / x.sqrt()
    }
    #[inline]
    fn div(&self, a: f32, b: f32) -> f32 {
        a / b
    }
    #[inline]
    fn sqrt(&self, x: f32) -> f32 {
        x.sqrt()
    }
    #[inline]
    fn exp_slice(&self, xs: &mut [f32]) {
        simd::exp_slice(xs);
    }
    #[inline]
    fn div_slice(&self, xs: &mut [f32], denom: f32) {
        simd::div_slice(xs, denom);
    }
    #[inline]
    fn softmax_row(&self, logits: &[f32], out: &mut [f32]) {
        simd::softmax_row(logits, out);
    }
    #[inline]
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        simd::dot(a, b)
    }
    #[inline]
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        simd::axpy(alpha, x, y);
    }
    #[inline]
    fn scale_add(&self, alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
        simd::scale_add(alpha, x, beta, y);
    }
    #[inline]
    fn weighted_sum_block(&self, c: &[f32], u: &[f32], s: &mut [f32], ch: usize) {
        simd::weighted_sum_block(c, u, s, ch);
    }
    #[inline]
    fn agreement_block(&self, u: &[f32], v: &[f32], b: &mut [f32], ch: usize) {
        simd::agreement_block(u, v, b, ch);
    }
    #[inline]
    fn agreement_blocks_strided(
        &self,
        u: &[f32],
        u_stride: usize,
        v: &[f32],
        nb: usize,
        b: &mut [f32],
        ch: usize,
    ) {
        simd::agreement_blocks_strided(u, u_stride, v, nb, b, ch);
    }
    #[inline]
    fn weighted_sum_blocks_strided(
        &self,
        c: &[f32],
        u: &[f32],
        u_stride: usize,
        s: &mut [f32],
        nb: usize,
        ch: usize,
    ) {
        simd::weighted_sum_blocks_strided(c, u, u_stride, s, nb, ch);
    }
    #[inline]
    fn sq_diff_axpy_block(&self, r: &[f32], u: &[f32], m: &[f32], acc: &mut [f32], ch: usize) {
        simd::sq_diff_axpy_block(r, u, m, acc, ch);
    }
    #[inline]
    fn mahalanobis_block(&self, u: &[f32], m: &[f32], s: &[f32], out: &mut [f32], ch: usize) {
        simd::mahalanobis_block(u, m, s, out, ch);
    }
    fn name(&self) -> &'static str {
        "exact"
    }
}

/// The PE approximation backend: bit-level `exp` / `1/sqrt` / division with
/// optional accuracy recovery (§5.2.2).
///
/// # Examples
///
/// ```
/// use capsnet::{ApproxMath, MathBackend};
///
/// let with_recovery = ApproxMath::with_recovery();
/// let without = ApproxMath::without_recovery();
/// let x = 0.3f32;
/// assert!((with_recovery.exp(x) - x.exp()).abs() / x.exp() < 0.05);
/// assert!((without.exp(x) - x.exp()).abs() / x.exp() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxMath {
    profile: ApproxProfile,
    recovery: bool,
}

impl ApproxMath {
    /// Approximate math with the paper's 10,000-sample accuracy recovery.
    pub fn with_recovery() -> Self {
        ApproxMath {
            profile: ApproxProfile::calibrated(),
            recovery: true,
        }
    }

    /// Approximate math with recovery disabled (Table 5's "w/o Accuracy
    /// Recovery" rows).
    pub fn without_recovery() -> Self {
        ApproxMath {
            profile: ApproxProfile::uncalibrated(),
            recovery: false,
        }
    }
}

impl MathBackend for ApproxMath {
    #[inline]
    fn exp(&self, x: f32) -> f32 {
        self.profile.exp(x)
    }
    #[inline]
    fn inv_sqrt(&self, x: f32) -> f32 {
        self.profile.inv_sqrt(x)
    }
    #[inline]
    fn div(&self, a: f32, b: f32) -> f32 {
        self.profile.div(a, b)
    }
    // The slice forms delegate to `ApproxProfile`'s loops — bit-identical
    // to the trait defaults (the PE model stays scalar by design), but a
    // boxed `dyn MathBackend` then pays one virtual call per row instead
    // of one per element.
    #[inline]
    fn exp_slice(&self, xs: &mut [f32]) {
        self.profile.exp_slice(xs);
    }
    #[inline]
    fn div_slice(&self, xs: &mut [f32], denom: f32) {
        self.profile.div_slice(xs, denom);
    }
    fn name(&self) -> &'static str {
        if self.recovery {
            "approx+recovery"
        } else {
            "approx"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_backend_is_exact() {
        let b = ExactMath;
        assert_eq!(b.exp(0.0), 1.0);
        assert_eq!(b.div(7.0, 2.0), 3.5);
        assert_eq!(b.sqrt(9.0), 3.0);
        assert_eq!(b.inv_sqrt(4.0), 0.5);
        assert_eq!(b.name(), "exact");
    }

    #[test]
    fn approx_backend_close_to_exact() {
        let b = ApproxMath::with_recovery();
        for x in [0.1f32, 0.9, 2.3, 7.7] {
            assert!(((b.exp(x) - x.exp()) / x.exp()).abs() < 0.05);
            assert!(((b.inv_sqrt(x) - 1.0 / x.sqrt()) * x.sqrt()).abs() < 0.01);
            assert!(((b.div(1.0, x) - 1.0 / x) * x).abs() < 0.01);
        }
    }

    #[test]
    fn names_distinguish_recovery() {
        assert_eq!(ApproxMath::with_recovery().name(), "approx+recovery");
        assert_eq!(ApproxMath::without_recovery().name(), "approx");
    }

    #[test]
    fn default_sqrt_composes_inv_sqrt() {
        let b = ApproxMath::with_recovery();
        assert_eq!(b.sqrt(0.0), 0.0);
        assert!((b.sqrt(16.0) - 4.0).abs() < 0.05);
    }

    /// Backend that only provides the required methods, so `sqrt` exercises
    /// the trait's default implementation.
    struct DefaultSqrt;

    impl MathBackend for DefaultSqrt {
        fn exp(&self, x: f32) -> f32 {
            x.exp()
        }
        fn inv_sqrt(&self, x: f32) -> f32 {
            1.0 / x.sqrt()
        }
        fn div(&self, a: f32, b: f32) -> f32 {
            a / b
        }
        fn name(&self) -> &'static str {
            "default-sqrt"
        }
    }

    #[test]
    fn default_sqrt_guards_nonpositive_and_nonfinite() {
        let b = DefaultSqrt;
        assert_eq!(b.sqrt(0.0), 0.0);
        assert_eq!(b.sqrt(-0.0), 0.0);
        assert_eq!(b.sqrt(-1.0), 0.0, "negative inputs clamp to 0, not NaN");
        assert_eq!(b.sqrt(f32::NEG_INFINITY), 0.0);
        assert_eq!(b.sqrt(f32::NAN), 0.0);
        assert_eq!(b.sqrt(f32::INFINITY), f32::INFINITY);
        assert!((b.sqrt(9.0) - 3.0).abs() < 1e-6);
        // Subnormals and tiny values stay finite and non-negative.
        let tiny = b.sqrt(f32::MIN_POSITIVE);
        assert!(tiny.is_finite() && tiny >= 0.0);
    }

    #[test]
    fn approx_sqrt_is_nan_free_on_garbage() {
        let b = ApproxMath::without_recovery();
        for x in [-5.0f32, -0.0, f32::NAN, f32::NEG_INFINITY] {
            assert_eq!(b.sqrt(x), 0.0, "sqrt({x}) must clamp");
        }
    }

    #[test]
    fn approx_slice_defaults_match_scalar_calls_bitwise() {
        // The defaults must replay the per-element methods in the exact
        // order the pre-vectorized engine used — ApproxMath routing is
        // bit-identical before/after the kernel refactor because of this.
        let b = ApproxMath::with_recovery();
        let xs: Vec<f32> = (0..13).map(|i| 0.1 + i as f32 * 0.37).collect();

        let mut got = xs.clone();
        b.exp_slice(&mut got);
        for (g, &x) in got.iter().zip(&xs) {
            assert_eq!(g.to_bits(), b.exp(x).to_bits());
        }

        let mut got = xs.clone();
        b.div_slice(&mut got, 2.7);
        for (g, &x) in got.iter().zip(&xs) {
            assert_eq!(g.to_bits(), b.div(x, 2.7).to_bits());
        }
    }

    #[test]
    fn default_block_kernels_compose_scalar_ops() {
        let b = ApproxMath::without_recovery();
        let ch = 4;
        let c = [0.25f32, 0.5, 0.25];
        let u: Vec<f32> = (0..12).map(|i| i as f32 * 0.1 - 0.5).collect();
        let mut s = vec![0.0f32; 12];
        b.weighted_sum_block(&c, &u, &mut s, ch);
        for j in 0..3 {
            for d in 0..ch {
                assert_eq!(s[j * ch + d], c[j] * u[j * ch + d]);
            }
        }
        let mut logits = vec![0.0f32; 3];
        b.agreement_block(&u, &s, &mut logits, ch);
        for (j, &l) in logits.iter().enumerate() {
            let expect = b.dot(&u[j * ch..(j + 1) * ch], &s[j * ch..(j + 1) * ch]);
            assert_eq!(l, expect);
        }
    }

    #[test]
    fn exact_softmax_row_is_a_distribution() {
        let b = ExactMath;
        let logits = [0.3f32, -1.2, 2.0, 0.0, 0.7, -0.4, 1.1, 0.2, -2.0, 0.9];
        let mut out = [0.0f32; 10];
        b.softmax_row(&logits, &mut out);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exact_scale_add_ignores_stale_nan_when_beta_zero() {
        let b = ExactMath;
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [f32::NAN; 3];
        b.scale_add(0.5, &x, 0.0, &mut y);
        assert_eq!(y, [0.5, 1.0, 1.5]);
    }

    #[test]
    fn backends_are_object_safe() {
        let backends: Vec<Box<dyn MathBackend>> =
            vec![Box::new(ExactMath), Box::new(ApproxMath::with_recovery())];
        for b in &backends {
            assert!(b.exp(0.0) > 0.9);
        }
    }
}
