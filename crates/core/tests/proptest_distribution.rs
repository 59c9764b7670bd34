//! Property-based tests for the E/M distribution models and the execution
//! score (paper Eqs 6–12 and §5.1.2).

use capsnet::RpCensus;
use hmc_sim::HmcConfig;
use pim_capsnet::distribution::{
    choose_dimension, execution_score, vault_shares, DeviceCoeffs, Dimension, DistributionModel,
    SnippetPlan,
};
use proptest::prelude::*;

fn model_strategy() -> impl Strategy<Value = DistributionModel> {
    (
        1usize..=12,    // iterations
        1usize..=512,   // batch
        32usize..=8192, // L
        2usize..=128,   // H
        2usize..=32,    // CL
        2usize..=64,    // CH
    )
        .prop_map(|(i, nb, nl, nh, cl, ch)| {
            DistributionModel::from_census(&RpCensus::new(nb, nl, nh, cl, ch, i), 32)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn e_and_m_are_positive(m in model_strategy()) {
        for dim in Dimension::ALL {
            prop_assert!(m.e(dim) > 0.0, "E({dim}) must be positive");
            prop_assert!(m.m(dim) > 0.0, "M({dim}) must be positive");
        }
    }

    #[test]
    fn simplified_e_b_tracks_full_form(m in model_strategy()) {
        // Eq 7 is Eq 6 under N_L >> 1; with N_L >= 32 they stay within 15%.
        let e_b = m.e(Dimension::B);
        let rel = (e_b - m.e_b_simplified()).abs() / e_b;
        prop_assert!(rel < 0.15, "relative gap {rel}");
    }

    #[test]
    fn more_vaults_reduce_per_vault_work(
        (i, nb, nl, nh) in (1usize..=9, 32usize..=512, 64usize..=4096, 2usize..=64),
    ) {
        let small = DistributionModel::from_census(&RpCensus::new(nb, nl, nh, 8, 16, i), 8);
        let large = DistributionModel::from_census(&RpCensus::new(nb, nl, nh, 8, 16, i), 32);
        for dim in Dimension::ALL {
            prop_assert!(
                large.e(dim) <= small.e(dim),
                "E({dim}) should not grow with vaults: {} vs {}",
                large.e(dim),
                small.e(dim)
            );
        }
        // …but communication grows with vault count.
        prop_assert!(large.m(Dimension::B) >= small.m(Dimension::B));
    }

    #[test]
    fn score_is_positive_and_chosen_is_argmax(m in model_strategy()) {
        let coeffs = DeviceCoeffs::from_hmc(&HmcConfig::gen3());
        let scores = Dimension::ALL.map(|dim| execution_score(&m, dim, &coeffs));
        for s in scores {
            prop_assert!(s > 0.0 && s.is_finite());
        }
        let chosen = choose_dimension(&m, &coeffs);
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(execution_score(&m, chosen, &coeffs), max);
    }

    #[test]
    fn score_improves_with_frequency(m in model_strategy()) {
        let slow = DeviceCoeffs::from_hmc(&HmcConfig::gen3());
        let fast = DeviceCoeffs::from_hmc(&HmcConfig::gen3().with_pe_clock_ghz(0.9375));
        for dim in Dimension::ALL {
            prop_assert!(execution_score(&m, dim, &fast) >= execution_score(&m, dim, &slow));
        }
    }

    #[test]
    fn vault_shares_partition_exactly(n in 0usize..10_000, vaults in 1usize..128) {
        let shares = vault_shares(n, vaults);
        prop_assert_eq!(shares.len(), vaults);
        prop_assert_eq!(shares.iter().sum::<usize>(), n);
        let max = shares.iter().max().copied().unwrap_or(0);
        let min = shares.iter().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "shares must be balanced");
        prop_assert_eq!(max, n.div_ceil(vaults).max(if n == 0 { 0 } else { 1 }).min(n));
    }

    #[test]
    fn snippet_plan_max_share_matches_paper_ceil(n in 1usize..5_000, vaults in 1usize..64) {
        let plan = SnippetPlan::new(Dimension::B, n, vaults);
        prop_assert_eq!(plan.max_share(), n.div_ceil(vaults));
        prop_assert_eq!(
            plan.aggregation_depth,
            (vaults as f64).log2().ceil() as u32
        );
    }
}
