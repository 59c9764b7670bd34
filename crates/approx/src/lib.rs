//! Bit-level FP32 approximations of the special functions used by the
//! PIM-CapsNet routing procedure (§5.2.2 of the paper), plus the paper's
//! accuracy-recovery calibration.
//!
//! The paper's intra-vault processing elements avoid complex special-function
//! units by composing everything from adders, multipliers and bit shifters:
//!
//! * **Exponential** — `e^x = 2^(log2(e)·x)` is evaluated by *representation
//!   transfer* (paper Eqs 13–14): the integer part of `y = log2(e)·x` becomes
//!   the IEEE-754 exponent field and the fractional part approximates the
//!   mantissa as `2^f − 1 ≈ f + Avg`, with `Avg` obtained offline by
//!   integrating `2^f − f` over `[0, 1)`. The whole computation collapses to
//!   one FP32 multiply-add followed by a bit shift — see [`fast_exp`].
//! * **Inverse square root** — the classic bit-shift / magic-constant method
//!   the paper cites (Lomont, "Fast inverse square root"), see
//!   [`fast_inv_sqrt`].
//! * **Division** — a reciprocal obtained by integer subtraction from a
//!   magic constant, refined by Newton steps that use only multiplies and
//!   adds, see [`fast_div`].
//! * **Accuracy recovery** — the paper samples 10,000 executions offline,
//!   records the mean relative difference between approximate and exact
//!   results, and recovers accuracy at inference time by scaling the
//!   approximate output with one extra multiply, see [`Recovery`].
//!
//! # Examples
//!
//! ```
//! use pim_approx::{fast_exp, Recovery};
//!
//! let x = 1.5f32;
//! let approx = fast_exp(x);
//! assert!((approx - x.exp()).abs() / x.exp() < 0.04);
//!
//! // Paper-style recovery: calibrate once, apply one multiply at inference.
//! let rec = Recovery::calibrate_exp(10_000);
//! let recovered = rec.apply(fast_exp(x));
//! assert!((recovered - x.exp()).abs() / x.exp() < 0.04);
//! ```

mod div;
mod exp;
mod inv_sqrt;
mod recovery;
mod stats;

pub use div::{fast_div, fast_recip};
pub use exp::fast_exp;
pub use inv_sqrt::fast_inv_sqrt;
pub use recovery::Recovery;
pub use stats::ErrorStats;

/// A bundle of calibrated approximation parameters, ready to be handed to a
/// math backend (one [`Recovery`] per special function plus Newton-refinement
/// depths).
///
/// This mirrors what the paper's PE configuration would store in vault
/// registers: a handful of constants computed offline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxProfile {
    /// Recovery multiplier for the exponential function.
    pub exp_recovery: Recovery,
    /// Recovery multiplier for the inverse square root.
    pub isqrt_recovery: Recovery,
    /// Recovery multiplier for division.
    pub div_recovery: Recovery,
    /// Newton refinement steps applied to `fast_inv_sqrt` (0 = raw bit hack).
    pub isqrt_refinements: u32,
    /// Newton refinement steps applied to `fast_recip` (0 = raw bit hack).
    pub recip_refinements: u32,
}

impl ApproxProfile {
    /// The configuration used throughout the reproduction: one Newton step
    /// per bit-hacked function (cheap on the PE: one extra multiply-add
    /// round) and paper-style 10,000-sample recovery calibration.
    pub fn calibrated() -> Self {
        ApproxProfile {
            exp_recovery: Recovery::calibrate_exp(10_000),
            isqrt_recovery: Recovery::calibrate_isqrt(10_000, 1),
            div_recovery: Recovery::calibrate_recip(10_000, 1),
            isqrt_refinements: 1,
            recip_refinements: 1,
        }
    }

    /// A profile with no recovery scaling (the paper's "w/o Accuracy
    /// Recovery" rows in Table 5).
    pub fn uncalibrated() -> Self {
        ApproxProfile {
            exp_recovery: Recovery::identity(),
            isqrt_recovery: Recovery::identity(),
            div_recovery: Recovery::identity(),
            isqrt_refinements: 1,
            recip_refinements: 1,
        }
    }

    /// Approximate `e^x` with this profile's recovery applied.
    pub fn exp(&self, x: f32) -> f32 {
        self.exp_recovery.apply(fast_exp(x))
    }

    /// Approximate `1/sqrt(x)` with this profile's recovery applied.
    pub fn inv_sqrt(&self, x: f32) -> f32 {
        self.isqrt_recovery
            .apply(fast_inv_sqrt(x, self.isqrt_refinements))
    }

    /// Approximate `a / b` with this profile's recovery applied.
    pub fn div(&self, a: f32, b: f32) -> f32 {
        self.div_recovery
            .apply(a * fast_recip(b, self.recip_refinements))
    }

    /// Approximate `sqrt(x)` (`x * inv_sqrt(x)`), recovery applied.
    pub fn sqrt(&self, x: f32) -> f32 {
        if x == 0.0 {
            0.0
        } else {
            x * self.inv_sqrt(x)
        }
    }

    /// [`Self::exp`] applied to every element of `xs` in place.
    ///
    /// The slice form mirrors the routing engine's slice-level
    /// `MathBackend` kernels: per element it is bit-identical to calling
    /// [`Self::exp`] in a loop (the PE has no wide datapath to model), but
    /// it costs one call per row instead of one per element — which is
    /// what keeps the *boxed* (`dyn`) approx backend off the vtable inside
    /// the hot loop.
    pub fn exp_slice(&self, xs: &mut [f32]) {
        for x in xs {
            *x = self.exp(*x);
        }
    }

    /// [`Self::div`] of every element of `xs` by `denom`, in place.
    pub fn div_slice(&self, xs: &mut [f32], denom: f32) {
        for x in xs {
            *x = self.div(*x, denom);
        }
    }
}

impl Default for ApproxProfile {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_profile_beats_uncalibrated_on_isqrt() {
        let cal = ApproxProfile::calibrated();
        let raw = ApproxProfile::uncalibrated();
        let xs: Vec<f32> = (1..=400).map(|i| i as f32 * 0.25).collect();
        let err = |p: &ApproxProfile| -> f64 {
            xs.iter()
                .map(|&x| {
                    let e = 1.0 / x.sqrt();
                    ((p.inv_sqrt(x) - e) / e).abs() as f64
                })
                .sum::<f64>()
                / xs.len() as f64
        };
        assert!(
            err(&cal) < err(&raw),
            "recovery should reduce mean relative isqrt error"
        );
    }

    #[test]
    fn calibrated_exp_does_not_regress_l2() {
        let cal = ApproxProfile::calibrated();
        let xs: Vec<f32> = (-120..0).map(|i| i as f32 * 0.1).collect();
        let raw = ErrorStats::measure(&xs, |x| x.exp(), fast_exp);
        let rec = ErrorStats::measure(&xs, |x| x.exp(), |x| cal.exp(x));
        assert!(rec.l2_rel <= raw.l2_rel * 1.001);
    }

    #[test]
    fn profile_div_is_close() {
        let p = ApproxProfile::calibrated();
        for (a, b) in [(1.0f32, 3.0f32), (10.0, 7.0), (0.5, 0.25), (100.0, 9.0)] {
            let exact = a / b;
            let approx = p.div(a, b);
            assert!(
                ((approx - exact) / exact).abs() < 1e-2,
                "{a}/{b}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn profile_sqrt_handles_zero() {
        let p = ApproxProfile::calibrated();
        assert_eq!(p.sqrt(0.0), 0.0);
        assert!((p.sqrt(4.0) - 2.0).abs() < 0.02);
    }

    #[test]
    fn default_is_calibrated() {
        assert_eq!(ApproxProfile::default(), ApproxProfile::calibrated());
    }

    #[test]
    fn slice_forms_match_scalar_calls_bitwise() {
        let p = ApproxProfile::calibrated();
        let xs: Vec<f32> = (1..40).map(|i| i as f32 * 0.21).collect();

        let mut got = xs.clone();
        p.exp_slice(&mut got);
        for (g, &x) in got.iter().zip(&xs) {
            assert_eq!(g.to_bits(), p.exp(x).to_bits());
        }

        let mut got = xs.clone();
        p.div_slice(&mut got, 3.1);
        for (g, &x) in got.iter().zip(&xs) {
            assert_eq!(g.to_bits(), p.div(x, 3.1).to_bits());
        }
    }
}
