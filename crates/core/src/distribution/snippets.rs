//! Workload snippet planning: how many units of the chosen dimension each
//! vault receives, and the pre-aggregation structure (§5.1.2, Fig 10).

use serde::{Deserialize, Serialize};

use super::Dimension;

/// Splits `n` units over `vaults` as evenly as possible (the first
/// `n % vaults` vaults get one extra unit).
pub fn vault_shares(n: usize, vaults: usize) -> Vec<usize> {
    assert!(vaults > 0, "need at least one vault");
    let base = n / vaults;
    let extra = n % vaults;
    (0..vaults).map(|v| base + usize::from(v < extra)).collect()
}

/// The offline snippet plan for one distribution choice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnippetPlan {
    /// Chosen dimension.
    pub dimension: Dimension,
    /// Units of the dimension per vault.
    pub shares: Vec<usize>,
    /// Depth of the inter-vault aggregation tree for the non-parallelizable
    /// residue (`⌈log₂ N_vault⌉`).
    pub aggregation_depth: u32,
    /// Whether per-vault pre-aggregation applies (it always does for the
    /// residue equations; turning it off is the ablation of
    /// `ablation_preaggregation`).
    pub pre_aggregate: bool,
}

impl SnippetPlan {
    /// Plans snippets for `n` units of `dimension` over `vaults`.
    pub fn new(dimension: Dimension, n: usize, vaults: usize) -> Self {
        SnippetPlan {
            dimension,
            shares: vault_shares(n, vaults),
            aggregation_depth: (vaults as f64).log2().ceil() as u32,
            pre_aggregate: true,
        }
    }

    /// Largest share (the `⌈N/N_vault⌉` of the paper's E formulas).
    pub fn max_share(&self) -> usize {
        self.shares.iter().copied().max().unwrap_or(0)
    }

    /// Disables pre-aggregation (ablation).
    pub fn without_preaggregation(mut self) -> Self {
        self.pre_aggregate = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_and_balance() {
        let shares = vault_shares(100, 32);
        assert_eq!(shares.iter().sum::<usize>(), 100);
        assert_eq!(shares.iter().max(), Some(&4));
        assert_eq!(shares.iter().min(), Some(&3));
        // ceil(100/32) = 4 — matches the paper's ⌈N_B/N_vault⌉.
        assert_eq!(shares[0], 4);
    }

    #[test]
    fn exact_division() {
        let shares = vault_shares(64, 32);
        assert!(shares.iter().all(|&s| s == 2));
    }

    #[test]
    fn fewer_units_than_vaults() {
        let shares = vault_shares(10, 32);
        assert_eq!(shares.iter().filter(|&&s| s == 1).count(), 10);
        assert_eq!(shares.iter().filter(|&&s| s == 0).count(), 22);
    }

    #[test]
    #[should_panic(expected = "at least one vault")]
    fn zero_vaults_panics() {
        let _ = vault_shares(10, 0);
    }

    #[test]
    fn plan_properties() {
        let plan = SnippetPlan::new(Dimension::B, 100, 32);
        assert_eq!(plan.max_share(), 4);
        assert_eq!(plan.aggregation_depth, 5);
        assert!(plan.pre_aggregate);
        let ablated = plan.without_preaggregation();
        assert!(!ablated.pre_aggregate);
    }

    #[test]
    fn h_dimension_often_underfills_vaults() {
        // H = 10 < 32 vaults: only 10 active vaults — the scenario where
        // intra-vault fallback to another dimension matters (§5.2.1).
        let plan = SnippetPlan::new(Dimension::H, 10, 32);
        assert_eq!(plan.shares.iter().filter(|&&s| s > 0).count(), 10);
    }
}
