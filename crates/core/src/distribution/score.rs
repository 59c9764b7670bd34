//! The execution score `S = 1/(αE + βM)` (§5.1.2) and offline dimension
//! selection.

use hmc_sim::HmcConfig;
use serde::{Deserialize, Serialize};

use super::{Dimension, DistributionModel};

/// Device-dependent coefficients: `α` converts per-vault operations to
/// seconds (set by HMC PE frequency), `β` converts inter-vault bytes to
/// seconds (set by crossbar bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceCoeffs {
    /// Seconds per operation in one vault.
    pub alpha: f64,
    /// Seconds per inter-vault byte.
    pub beta: f64,
}

impl DeviceCoeffs {
    /// Derives the coefficients from an HMC configuration, per the paper:
    /// "α and β … determined by HMC frequency and inter-vault memory
    /// bandwidth, respectively."
    pub fn from_hmc(cfg: &HmcConfig) -> Self {
        let vault_lane_ops_per_s =
            (cfg.pes_per_vault * cfg.pe_lanes) as f64 * cfg.pe_clock_ghz * 1e9;
        DeviceCoeffs {
            alpha: 1.0 / vault_lane_ops_per_s,
            beta: 1.0 / (cfg.xbar_gbps * 1e9),
        }
    }
}

/// The execution score for one dimension: `S = 1/(αE + βM)`.
pub fn execution_score(model: &DistributionModel, dim: Dimension, coeffs: &DeviceCoeffs) -> f64 {
    1.0 / (coeffs.alpha * model.e(dim) + coeffs.beta * model.m(dim))
}

/// Scores for all three dimensions, in [B, L, H] order.
fn score_all(model: &DistributionModel, coeffs: &DeviceCoeffs) -> [f64; 3] {
    [
        execution_score(model, Dimension::B, coeffs),
        execution_score(model, Dimension::L, coeffs),
        execution_score(model, Dimension::H, coeffs),
    ]
}

/// Picks the dimension with the highest execution score (computed offline,
/// before inference).
pub fn choose_dimension(model: &DistributionModel, coeffs: &DeviceCoeffs) -> Dimension {
    let scores = score_all(model, coeffs);
    let mut best = Dimension::B;
    let mut best_score = scores[0];
    for (dim, &s) in Dimension::ALL.into_iter().zip(&scores) {
        if s > best_score {
            best = dim;
            best_score = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::census::RpCensus;

    fn coeffs() -> DeviceCoeffs {
        DeviceCoeffs::from_hmc(&HmcConfig::gen3())
    }

    fn model(nb: usize, nl: usize, nh: usize, iters: usize) -> DistributionModel {
        DistributionModel::from_census(&RpCensus::new(nb, nl, nh, 8, 16, iters), 32)
    }

    #[test]
    fn coeffs_from_gen3() {
        let c = coeffs();
        // 16 lane-ops per cycle per vault at 312.5 MHz = 5 G ops/s.
        assert!((c.alpha - 1.0 / 5e9).abs() / c.alpha < 1e-9);
        assert!((c.beta - 1.0 / 512e9).abs() / c.beta < 1e-9);
    }

    #[test]
    fn score_is_reciprocal_cost() {
        let m = model(100, 1152, 10, 3);
        let c = coeffs();
        for dim in Dimension::ALL {
            let s = execution_score(&m, dim, &c);
            let cost = c.alpha * m.e(dim) + c.beta * m.m(dim);
            assert!((s * cost - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn chosen_dimension_has_max_score() {
        let m = model(100, 1152, 10, 3);
        let c = coeffs();
        let chosen = choose_dimension(&m, &c);
        let scores = score_all(&m, &c);
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        let idx = Dimension::ALL.iter().position(|&d| d == chosen).unwrap();
        assert_eq!(scores[idx], max);
    }

    #[test]
    fn frequency_shifts_the_tradeoff() {
        // Raising PE frequency shrinks α relative to β, favouring
        // communication-light dimensions — the Fig 18 effect.
        let m = model(100, 576, 10, 9); // Caps-SV3-like
        let slow = DeviceCoeffs::from_hmc(&HmcConfig::gen3());
        let fast = DeviceCoeffs::from_hmc(&HmcConfig::gen3().with_pe_clock_ghz(0.9375));
        let s_slow = score_all(&m, &slow);
        let s_fast = score_all(&m, &fast);
        // Relative ranking of communication-heavy vs light dims can change;
        // at minimum every score improves with frequency.
        for (a, b) in s_slow.iter().zip(&s_fast) {
            assert!(b >= a, "score should not degrade with frequency");
        }
    }

    #[test]
    fn b_dimension_wins_for_large_batch_small_net() {
        // Large batch, small L/H: splitting the batch balances best.
        let m = model(320, 64, 10, 3);
        assert_eq!(choose_dimension(&m, &coeffs()), Dimension::B);
    }

    #[test]
    fn l_dimension_wins_for_huge_l_small_batch() {
        // L ≫ vaults with a tiny batch: L-split is the only way to spread
        // the Eq-1/Eq-4 work, and its communication is modest relative.
        let m = model(4, 8192, 10, 3);
        let c = coeffs();
        let chosen = choose_dimension(&m, &c);
        assert!(
            chosen == Dimension::L || chosen == Dimension::H,
            "tiny batch should avoid B-split, got {chosen}"
        );
    }
}
