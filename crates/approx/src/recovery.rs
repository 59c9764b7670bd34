//! The paper's accuracy-recovery scheme (§5.2.2, "Accuracy Recovery").
//!
//! > "we analyze 10,000 exponential executions to collect the value
//! > differences between the approximated and original results. During the
//! > approximation execution, the accuracy loss will be recovered via
//! > enlarging the results by the mean percentage of the value difference."
//!
//! The recovery is a single multiplicative constant computed offline, so at
//! inference it costs exactly one multiplication per special-function call —
//! the property the paper leans on to claim low design complexity compared
//! to lookup tables.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::div::fast_recip;
use crate::exp::fast_exp;
use crate::inv_sqrt::fast_inv_sqrt;

/// Deterministic seed for calibration sampling, fixed so that calibrated
/// constants are reproducible across runs (they are "computed offline" in
/// the paper's flow).
const CALIBRATION_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiplicative accuracy-recovery constant for one approximate function.
///
/// # Examples
///
/// ```
/// use pim_approx::{fast_exp, Recovery};
///
/// let rec = Recovery::calibrate_exp(10_000);
/// // The recovery is a small multiplicative correction near 1, applied
/// // with a single multiply at inference time.
/// assert!((rec.scale() - 1.0).abs() < 0.05);
/// let y = rec.apply(fast_exp(0.7));
/// assert!((y - 0.7f32.exp()).abs() / 0.7f32.exp() < 0.04);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    scale: f32,
}

impl Recovery {
    /// A recovery that changes nothing (the "w/o Accuracy Recovery"
    /// configuration).
    pub fn identity() -> Self {
        Recovery { scale: 1.0 }
    }

    /// The recovery multiplier.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Applies the recovery: one multiply.
    #[inline]
    pub fn apply(&self, approx_value: f32) -> f32 {
        approx_value * self.scale
    }

    /// Calibrates a recovery constant from parallel slices of exact and
    /// approximate outputs.
    ///
    /// The scale is the least-squares minimizer of the relative error
    /// `E[((s·a − e)/e)²]`, i.e. `s = E[r] / E[r²]` with `r = a/e`. This is
    /// the "mean percentage of the value difference" of §5.2.2 made precise:
    /// it provably never increases the relative L2 error on the calibration
    /// distribution, and it removes the systematic bias of the bit-level
    /// approximations (Newton-refined seeds always undershoot).
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or of different lengths.
    fn from_samples(exact: &[f32], approx: &[f32]) -> Self {
        assert_eq!(exact.len(), approx.len(), "sample slices must align");
        assert!(!exact.is_empty(), "need at least one calibration sample");
        let mut sum_r = 0.0f64;
        let mut sum_r2 = 0.0f64;
        let mut n = 0usize;
        for (&e, &a) in exact.iter().zip(approx) {
            if a.is_finite() && a != 0.0 && e.is_finite() && e != 0.0 {
                let r = (a / e) as f64;
                sum_r += r;
                sum_r2 += r * r;
                n += 1;
            }
        }
        let scale = if n == 0 || sum_r2 == 0.0 {
            1.0
        } else {
            (sum_r / sum_r2) as f32
        };
        Recovery { scale }
    }

    /// Paper-style calibration for the exponential: `samples` inputs drawn
    /// from the softmax operand range `[-16, 0]` (routing always calls
    /// `exp` on max-subtracted logits).
    pub fn calibrate_exp(samples: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(CALIBRATION_SEED);
        let dist = Uniform::new(-16.0f32, 0.0f32);
        let xs: Vec<f32> = (0..samples).map(|_| dist.sample(&mut rng)).collect();
        let exact: Vec<f32> = xs.iter().map(|&x| x.exp()).collect();
        let approx: Vec<f32> = xs.iter().map(|&x| fast_exp(x)).collect();
        Self::from_samples(&exact, &approx)
    }

    /// Calibration for the inverse square root over the squash-function
    /// operand range (capsule norm-squares spanning several decades).
    pub fn calibrate_isqrt(samples: usize, refinements: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(CALIBRATION_SEED ^ 1);
        let dist = Uniform::new(-4.0f32, 3.0f32); // log10 range 1e-4 .. 1e3
        let xs: Vec<f32> = (0..samples)
            .map(|_| 10f32.powf(dist.sample(&mut rng)))
            .collect();
        let exact: Vec<f32> = xs.iter().map(|&x| 1.0 / x.sqrt()).collect();
        let approx: Vec<f32> = xs.iter().map(|&x| fast_inv_sqrt(x, refinements)).collect();
        Self::from_samples(&exact, &approx)
    }

    /// Calibration for the reciprocal over the softmax/squash denominator
    /// range.
    pub fn calibrate_recip(samples: usize, refinements: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(CALIBRATION_SEED ^ 2);
        let dist = Uniform::new(-3.0f32, 3.0f32);
        let xs: Vec<f32> = (0..samples)
            .map(|_| 10f32.powf(dist.sample(&mut rng)))
            .collect();
        let exact: Vec<f32> = xs.iter().map(|&x| 1.0 / x).collect();
        let approx: Vec<f32> = xs.iter().map(|&x| fast_recip(x, refinements)).collect();
        Self::from_samples(&exact, &approx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ErrorStats;

    #[test]
    fn identity_changes_nothing() {
        let r = Recovery::identity();
        assert_eq!(r.apply(3.5), 3.5);
        assert_eq!(r.scale(), 1.0);
    }

    #[test]
    fn calibration_is_deterministic() {
        assert_eq!(Recovery::calibrate_exp(1000), Recovery::calibrate_exp(1000));
    }

    #[test]
    fn exp_recovery_reduces_l2_error_and_bias() {
        let rec = Recovery::calibrate_exp(10_000);
        // Evaluate on a dense grid over the softmax operand range.
        let xs: Vec<f32> = (-160..0).map(|i| i as f32 * 0.1).collect();
        let raw = ErrorStats::measure(&xs, |x| x.exp(), fast_exp);
        let rec_stats = ErrorStats::measure(&xs, |x| x.exp(), |x| rec.apply(fast_exp(x)));
        assert!(
            rec_stats.l2_rel <= raw.l2_rel * 1.001,
            "recovered L2 {} vs raw {}",
            rec_stats.l2_rel,
            raw.l2_rel
        );
        // Both biases are already tiny (the Avg constant centers the error);
        // just require the recovered bias to stay in the same noise band.
        assert!(
            rec_stats.mean_signed_rel.abs() <= raw.mean_signed_rel.abs() + 5e-4,
            "recovered bias {} vs raw {}",
            rec_stats.mean_signed_rel,
            raw.mean_signed_rel
        );
    }

    #[test]
    fn isqrt_recovery_removes_newton_undershoot() {
        // One Newton step always converges from below, leaving a systematic
        // negative bias the recovery constant cancels.
        let rec = Recovery::calibrate_isqrt(10_000, 1);
        let xs: Vec<f32> = (1..2000).map(|i| i as f32 * 0.37).collect();
        let raw = ErrorStats::measure(&xs, |x| 1.0 / x.sqrt(), |x| fast_inv_sqrt(x, 1));
        let fixed =
            ErrorStats::measure(&xs, |x| 1.0 / x.sqrt(), |x| rec.apply(fast_inv_sqrt(x, 1)));
        assert!(raw.mean_signed_rel < 0.0, "Newton should undershoot");
        assert!(
            fixed.mean_signed_rel.abs() < raw.mean_signed_rel.abs(),
            "bias {} vs {}",
            fixed.mean_signed_rel,
            raw.mean_signed_rel
        );
        assert!(fixed.mean_rel < raw.mean_rel);
    }

    #[test]
    fn recovery_scale_is_near_one() {
        // The approximations are already decent; the recovery is a small
        // correction, not a fudge factor.
        for rec in [
            Recovery::calibrate_exp(10_000),
            Recovery::calibrate_isqrt(10_000, 1),
            Recovery::calibrate_recip(10_000, 1),
        ] {
            assert!(
                (rec.scale() - 1.0).abs() < 0.05,
                "scale {} too far from 1",
                rec.scale()
            );
        }
    }

    #[test]
    fn from_samples_ignores_degenerate_pairs() {
        let exact = [1.0f32, 2.0, f32::INFINITY];
        let approx = [0.5f32, 0.0, 1.0];
        // Only the first pair is usable: r = 0.5, so s = r/r² = 2.0.
        let rec = Recovery::from_samples(&exact, &approx);
        assert_eq!(rec.scale(), 2.0);
    }

    #[test]
    #[should_panic(expected = "sample slices must align")]
    fn from_samples_validates_lengths() {
        let _ = Recovery::from_samples(&[1.0], &[1.0, 2.0]);
    }
}
