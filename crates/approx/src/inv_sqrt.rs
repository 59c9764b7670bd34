//! Fast inverse square root via the bit-shift / magic-constant method the
//! paper adopts for the squash function's `1/||s||` (§5.2.2, citing Lomont's
//! "Fast inverse square root" technical report).

/// Lomont's optimized magic constant for the initial bit-level guess.
const INV_SQRT_MAGIC: u32 = 0x5f37_59df;

/// Approximate `1/sqrt(x)` with the bit hack plus `refinements` Newton
/// steps (`y ← y·(1.5 − 0.5·x·y²)`), each costing three multiplies and one
/// subtract on the PE.
///
/// Relative error: ~3.4% raw, ~0.2% after one refinement, ~2e-5 after two.
///
/// Non-positive or non-finite input returns `f32::NAN`, matching the
/// domain of the exact function.
///
/// # Examples
///
/// ```
/// use pim_approx::fast_inv_sqrt;
///
/// let y = fast_inv_sqrt(4.0, 1);
/// assert!((y - 0.5).abs() < 0.01);
/// ```
#[inline]
pub fn fast_inv_sqrt(x: f32, refinements: u32) -> f32 {
    if x <= 0.0 || x.is_nan() || !x.is_finite() {
        return f32::NAN;
    }
    let half = 0.5 * x;
    let mut bits = x.to_bits();
    bits = INV_SQRT_MAGIC - (bits >> 1);
    let mut y = f32::from_bits(bits);
    for _ in 0..refinements {
        y *= 1.5 - half * y * y;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(x: f32, refinements: u32) -> f32 {
        let exact = 1.0 / x.sqrt();
        ((fast_inv_sqrt(x, refinements) - exact) / exact).abs()
    }

    #[test]
    fn raw_error_within_lomont_bound() {
        // Lomont proves < 3.44% for the raw magic-constant guess.
        let mut x = 1e-3f32;
        while x < 1e6 {
            assert!(rel_err(x, 0) < 0.035, "raw error too high at {x}");
            x *= 1.7;
        }
    }

    #[test]
    fn newton_steps_contract_error() {
        for x in [0.017f32, 0.5, 1.0, 3.0, 42.0, 1e4] {
            let e0 = rel_err(x, 0);
            let e1 = rel_err(x, 1);
            let e2 = rel_err(x, 2);
            assert!(e1 < e0, "one step should improve at {x}");
            assert!(e2 <= e1 + 1e-7, "two steps should not regress at {x}");
            assert!(e1 < 2e-3, "one-step error {e1} at {x}");
            assert!(e2 < 1e-4, "two-step error {e2} at {x}");
        }
    }

    #[test]
    fn invalid_domain_is_nan() {
        assert!(fast_inv_sqrt(0.0, 1).is_nan());
        assert!(fast_inv_sqrt(-1.0, 1).is_nan());
        assert!(fast_inv_sqrt(f32::NAN, 1).is_nan());
        assert!(fast_inv_sqrt(f32::INFINITY, 1).is_nan());
    }

    #[test]
    fn squash_norm_use_case() {
        // The squash function computes ||s||²/(1+||s||²) · s/||s||; verify
        // the norm reciprocal is accurate for typical capsule magnitudes.
        for norm_sq in [1e-4f32, 0.01, 0.3, 1.0, 7.0, 250.0] {
            let inv_norm = fast_inv_sqrt(norm_sq, 1);
            let exact = 1.0 / norm_sq.sqrt();
            assert!(((inv_norm - exact) / exact).abs() < 2e-3);
        }
    }
}
