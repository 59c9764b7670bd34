//! Cross-crate integration: the design-variant engine over the whole
//! Table 1 suite — the invariants behind Figs 15–18.

use pim_capsnet_suite::prelude::*;

fn suite_results(variant: DesignVariant) -> Vec<(String, EvalResult)> {
    let platform = Platform::paper_default();
    workload_benchmarks()
        .iter()
        .map(|b| {
            let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
            (b.name.to_string(), evaluate(&census, &platform, variant))
        })
        .collect()
}

#[test]
fn every_variant_evaluates_every_table1_census_without_panic() {
    // The full design-space sweep: all 8 variants × all 12 censuses must
    // produce finite, positive timing/energy results with a coherent
    // total ≥ RP ordering. (PIM-beats-Baseline per benchmark is pinned by
    // `pim_wins_rp_on_every_benchmark` below.)
    let platform = Platform::paper_default();
    for b in workload_benchmarks() {
        let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
        for variant in DesignVariant::ALL {
            let r = evaluate(&census, &platform, variant);
            assert!(
                r.rp_time_s.is_finite() && r.rp_time_s > 0.0,
                "{}/{variant:?}: rp_time {}",
                b.name,
                r.rp_time_s
            );
            assert!(
                r.total_time_s.is_finite() && r.total_time_s >= r.rp_time_s,
                "{}/{variant:?}: total {} < rp {}",
                b.name,
                r.total_time_s,
                r.rp_time_s
            );
            assert!(
                r.rp_energy_j.is_finite() && r.rp_energy_j > 0.0,
                "{}/{variant:?}: rp_energy {}",
                b.name,
                r.rp_energy_j
            );
            assert!(
                r.total_energy_j.is_finite() && r.total_energy_j >= r.rp_energy_j,
                "{}/{variant:?}: total energy {} < rp energy {}",
                b.name,
                r.total_energy_j,
                r.rp_energy_j
            );
        }
    }
}

#[test]
fn pim_wins_rp_on_every_benchmark() {
    let base = suite_results(DesignVariant::Baseline);
    let pim = suite_results(DesignVariant::PimCapsNet);
    for ((name, b), (_, p)) in base.iter().zip(&pim) {
        let speedup = b.rp_time_s / p.rp_time_s;
        assert!(
            speedup > 1.5,
            "{name}: RP speedup {speedup} below the paper's floor"
        );
        assert!(
            p.rp_energy_j < 0.2 * b.rp_energy_j,
            "{name}: PIM RP energy not dramatically lower"
        );
    }
}

#[test]
fn scalability_with_network_size() {
    // Paper: "good performance scalability in optimizing the routing
    // procedure with increasing network size" — CF3 (L=4608) beats CF1
    // (L=2304); SV3 (9 iters) beats SV1 (3 iters).
    let base = suite_results(DesignVariant::Baseline);
    let pim = suite_results(DesignVariant::PimCapsNet);
    let speedup = |name: &str| -> f64 {
        let i = base.iter().position(|(n, _)| n == name).unwrap();
        base[i].1.rp_time_s / pim[i].1.rp_time_s
    };
    assert!(speedup("Caps-CF3") > speedup("Caps-CF1"));
    assert!(speedup("Caps-SV3") > speedup("Caps-SV1"));
}

#[test]
fn variant_ordering_matches_fig16_and_17() {
    let platform = Platform::paper_default();
    let b = &workload_benchmarks()[0];
    let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
    let t = |v: DesignVariant| evaluate(&census, &platform, v);
    let base = t(DesignVariant::Baseline);
    let pim = t(DesignVariant::PimCapsNet);
    let intra = t(DesignVariant::PimIntra);
    let inter = t(DesignVariant::PimInter);
    let all_in = t(DesignVariant::AllInPim);
    // Fig 16 ordering on RP time: full design < intra-only < inter-only.
    assert!(pim.rp_time_s < intra.rp_time_s);
    assert!(intra.rp_time_s < inter.rp_time_s);
    // Fig 17: All-in-PIM loses on time, wins on energy.
    assert!(all_in.total_time_s > base.total_time_s);
    assert!(all_in.total_energy_j < base.total_energy_j);
}

#[test]
fn dimension_choice_is_score_optimal_everywhere() {
    use pim_capsnet_suite::pim::distribution::{choose_dimension, DeviceCoeffs, DistributionModel};
    let platform = Platform::paper_default();
    let coeffs = DeviceCoeffs::from_hmc(&platform.hmc);
    for b in workload_benchmarks() {
        let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
        let model = DistributionModel::from_census(&census.rp, platform.hmc.vaults);
        let expected = choose_dimension(&model, &coeffs);
        let r = evaluate(&census, &platform, DesignVariant::PimCapsNet);
        assert_eq!(r.chosen_dimension, Some(expected), "{}", b.name);
    }
}

#[test]
fn forced_dimension_never_beats_the_chosen_one_badly() {
    // The execution score is a model, not an oracle; but the chosen
    // dimension should never be >25% slower than the best forced one.
    let platform = Platform::paper_default();
    for b in workload_benchmarks().iter().take(4) {
        let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
        let chosen = evaluate(&census, &platform, DesignVariant::PimCapsNet).rp_time_s;
        let best = Dimension::ALL
            .into_iter()
            .map(|d| {
                evaluate_with_dimension(&census, &platform, DesignVariant::PimCapsNet, Some(d))
                    .rp_time_s
            })
            .fold(f64::MAX, f64::min);
        assert!(
            chosen <= best * 1.25,
            "{}: chosen {chosen} vs best {best}",
            b.name
        );
    }
}

#[test]
fn deterministic_evaluation() {
    let platform = Platform::paper_default();
    let b = &workload_benchmarks()[3];
    let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
    let a = evaluate(&census, &platform, DesignVariant::PimCapsNet);
    let c = evaluate(&census, &platform, DesignVariant::PimCapsNet);
    assert_eq!(a.rp_time_s, c.rp_time_s);
    assert_eq!(a.total_energy_j, c.total_energy_j);
}

#[test]
fn em_routing_also_accelerates_on_pim() {
    // The paper's generality claim (§5.1): the in-memory design applies to
    // other routing algorithms. Price Caps-MN1 with EM routing end to end.
    let platform = Platform::paper_default();
    let b = &workload_benchmarks()[0];
    let spec = CapsNetSpec {
        routing: RoutingAlgorithm::Em,
        ..b.spec()
    };
    let census = NetworkCensus::from_spec(&spec, b.batch_size).unwrap();
    assert_eq!(census.rp.routing, RoutingAlgorithm::Em);
    let base = evaluate(&census, &platform, DesignVariant::Baseline);
    let pim = evaluate(&census, &platform, DesignVariant::PimCapsNet);
    let speedup = pim.rp_speedup_vs(&base);
    assert!(
        speedup > 1.3,
        "EM routing should still accelerate on PIM: {speedup}"
    );
    // EM's per-sample responsibilities make the batch dimension residue-free.
    assert_eq!(pim.chosen_dimension, Some(Dimension::B));
}

#[test]
fn em_census_is_heavier_than_dynamic() {
    // The E/M steps do strictly more arithmetic per iteration than dynamic
    // routing's weighted sums (variances + likelihood quadratics).
    let dynamic = RpCensus::new(100, 1152, 10, 8, 16, 3);
    let spec = CapsNetSpec {
        routing: RoutingAlgorithm::Em,
        ..CapsNetSpec::mnist()
    };
    let em = RpCensus::from_spec(&spec, 100).unwrap();
    assert!(em.total_flops() > dynamic.total_flops());
    assert_eq!(em.sizes.u_hat, dynamic.sizes.u_hat);
}
