//! Intra-vault design (§5.2) and addressing modes (§5.3.1): lowers the op
//! census to per-vault PE programs and per-bank traffic, producing the
//! [`Phase`] sequences the HMC engine prices.
//!
//! One phase is built per RP equation per iteration (plus Eq 1 once),
//! following the execution flow of Fig 10. Workload shares per vault come
//! from the [`SnippetPlan`]; the residue equations that cannot be split
//! along the chosen dimension run on a designated vault with tree-structured
//! pre-aggregation (§5.1.2).

use capsnet::census::{NetworkCensus, RpCensus};
use hmc_sim::{HmcConfig, PeOp, PeProgram, Phase, VaultWork};
use serde::{Deserialize, Serialize};

use crate::distribution::{parallelizable, parallelizable_em, Dimension, SnippetPlan};

/// How intra-vault data is laid out across banks (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddressingMode {
    /// The paper's mapping (Fig 13b): dynamic sub-pages spread concurrent
    /// PE requests across all banks; sequential runs stay bank-local →
    /// high row locality.
    Pim,
    /// Vault-local but bank-naive layout: PE request strides alias onto few
    /// banks and interleaved PEs disturb each other's rows (the PIM-Inter
    /// comparison point). The effective-bank and row-hit constants are
    /// calibrated against the event-level simulator (see
    /// `tests/integration_hmc.rs`).
    NaiveBank,
    /// Default HMC interleave (Fig 13a): data spreads over *vaults*, so
    /// every PE access is remote (the PIM-Intra comparison point).
    DefaultInterleave,
}

impl AddressingMode {
    /// Banks effectively absorbing a vault's concurrent traffic.
    fn effective_banks(&self, cfg: &HmcConfig) -> usize {
        match self {
            AddressingMode::Pim => cfg.banks_per_vault,
            AddressingMode::NaiveBank => 2,
            AddressingMode::DefaultInterleave => cfg.banks_per_vault,
        }
    }

    /// Row-buffer hit rate of the resulting access pattern.
    fn row_hit(&self) -> f64 {
        match self {
            AddressingMode::Pim => 0.95,
            AddressingMode::NaiveBank => 0.65,
            AddressingMode::DefaultInterleave => 0.90,
        }
    }

    /// Spreads `bytes` of vault traffic over banks per this mode.
    // LINT-ALLOW(R6): model-checking helper: `tests/integration_hmc.rs` holds the phase model's bank-spread assumption against the bit-level mappings.
    pub fn bank_spread(&self, bytes: u64, cfg: &HmcConfig) -> (Vec<u64>, f64) {
        let banks = cfg.banks_per_vault;
        let used = self.effective_banks(cfg).min(banks).max(1);
        let mut spread = vec![0u64; banks];
        let per = bytes / used as u64;
        let rem = bytes % used as u64;
        for (i, b) in spread.iter_mut().take(used).enumerate() {
            *b = per + if (i as u64) < rem { 1 } else { 0 };
        }
        (spread, self.row_hit())
    }
}

/// Builder for the RP phase sequence.
#[derive(Debug, Clone)]
pub struct RpPhasePlan {
    /// The constructed phases, in execution order.
    pub phases: Vec<Phase>,
    /// The snippet plan used.
    pub plan: SnippetPlan,
}

/// Scalar bytes.
const F32: u64 = 4;

/// Builds the in-memory RP execution (Eq 1 + per-iteration Eq 5→2→3→4 with
/// aggregation phases) for a chosen dimension and addressing mode.
///
/// `pre_aggregate = false` is the ablation that ships per-batch partials
/// instead of per-vault pre-aggregated values (§5.1.2 argues this floods
/// the crossbar).
pub fn build_rp_phases(
    rp: &RpCensus,
    cfg: &HmcConfig,
    dim: Dimension,
    mode: AddressingMode,
    pre_aggregate: bool,
) -> RpPhasePlan {
    let nv = cfg.vaults;
    let (nb, nl, nh, cl, ch) = (
        rp.nb as u64,
        rp.nl as u64,
        rp.nh as u64,
        rp.cl as u64,
        rp.ch as u64,
    );
    let n_units = match dim {
        Dimension::B => rp.nb,
        Dimension::L => rp.nl,
        Dimension::H => rp.nh,
    };
    let plan = if pre_aggregate {
        SnippetPlan::new(dim, n_units, nv)
    } else {
        SnippetPlan::new(dim, n_units, nv).without_preaggregation()
    };
    let remote = matches!(mode, AddressingMode::DefaultInterleave);
    let w_bytes = nl * nh * cl * ch * F32;

    let mut phases = Vec::new();

    // Helper building one local phase from per-vault (ops, read, write).
    let make_phase = |name: String, works: Vec<(PeProgram, u64)>| -> Phase {
        let vaults = works
            .into_iter()
            .map(|(program, bytes)| {
                let (bank_bytes, row_hit_rate) = mode.bank_spread(bytes, cfg);
                VaultWork {
                    program,
                    bank_bytes,
                    row_hit_rate,
                }
            })
            .collect();
        Phase {
            name,
            vaults,
            xbar_payload_bytes: 0,
            xbar_messages: 0,
            memory_via_xbar: remote,
        }
    };

    // ---- Eq 1 (once): û = u · W ---------------------------------------
    {
        let works: Vec<(PeProgram, u64)> = plan
            .shares
            .iter()
            .map(|&share| {
                let s = share as u64;
                let (macs, read, write) = match dim {
                    Dimension::B => (
                        s * nl * nh * ch * cl,
                        s * nl * cl * F32 + if s > 0 { w_bytes } else { 0 },
                        s * nl * nh * ch * F32,
                    ),
                    Dimension::L => (
                        nb * s * nh * ch * cl,
                        nb * s * cl * F32 + s * nh * cl * ch * F32,
                        nb * s * nh * ch * F32,
                    ),
                    Dimension::H => (
                        nb * nl * s * ch * cl,
                        if s > 0 { nb * nl * cl * F32 } else { 0 } + nl * s * cl * ch * F32,
                        nb * nl * s * ch * F32,
                    ),
                };
                let mut p = PeProgram::new();
                p.push(PeOp::Mac(macs));
                p.read_bytes = read;
                p.write_bytes = write;
                let bytes = p.traffic_bytes();
                (p, bytes)
            })
            .collect();
        phases.push(make_phase("eq1".into(), works));
    }

    for it in 0..rp.iterations {
        // ---- Eq 5: c = softmax(b) --------------------------------------
        match dim {
            Dimension::L => {
                // Fully local: each vault softmaxes its own L rows.
                let works: Vec<(PeProgram, u64)> = plan
                    .shares
                    .iter()
                    .map(|&share| {
                        let s = share as u64;
                        let mut p = PeProgram::new();
                        p.push(PeOp::Exp(s * nh));
                        p.push(PeOp::Div(s * nh));
                        p.push(PeOp::Add(s * nh.saturating_sub(1)));
                        p.read_bytes = s * nh * F32;
                        p.write_bytes = s * nh * F32;
                        let b = p.traffic_bytes();
                        (p, b)
                    })
                    .collect();
                phases.push(make_phase(format!("it{it}.eq5"), works));
            }
            Dimension::B | Dimension::H => {
                // Residue: softmax on vault 0, then scatter c (Fig 10's
                // purple blocks / paper Eqs 8 & 12).
                let mut works: Vec<(PeProgram, u64)> =
                    (0..nv).map(|_| (PeProgram::new(), 0u64)).collect();
                let p = &mut works[0].0;
                p.push(PeOp::Exp(nl * nh));
                p.push(PeOp::Div(nl * nh));
                p.push(PeOp::Add(nl * (nh - 1)));
                p.read_bytes = nl * nh * F32;
                p.write_bytes = nl * nh * F32;
                works[0].1 = p.traffic_bytes();
                // For H-dim, Eq 5 first needs b gathered (M_H's first term).
                let (payload, messages) = match dim {
                    Dimension::B => ((nv as u64 - 1) * nl * nh * F32, (nv as u64 - 1) * nl * nh),
                    Dimension::H => (
                        (nv as u64 - 1) * nl * F32 + nl * F32,
                        (nv as u64 - 1) * nl + nl,
                    ),
                    Dimension::L => unreachable!(),
                };
                let mut phase = make_phase(format!("it{it}.eq5"), works);
                phase.xbar_payload_bytes = payload;
                phase.xbar_messages = messages;
                phases.push(phase);
            }
        }

        // ---- Eq 2: s = Σ_i û·c (+ Eq 3 squash) -------------------------
        {
            let works: Vec<(PeProgram, u64)> = plan
                .shares
                .iter()
                .map(|&share| {
                    let s = share as u64;
                    let mut p = PeProgram::new();
                    let (macs, read, write, squash_caps) = match dim {
                        Dimension::B => (
                            s * nh * ch * nl,
                            s * nl * nh * ch * F32 + nl * nh * F32,
                            s * nh * ch * F32,
                            s * nh,
                        ),
                        Dimension::L => (
                            nb * nh * ch * s,
                            nb * s * nh * ch * F32 + s * nh * F32,
                            nb * nh * ch * F32,
                            0, // squash happens after the s all-reduce
                        ),
                        Dimension::H => (
                            nb * s * ch * nl,
                            nb * nl * s * ch * F32 + nl * s * F32,
                            nb * s * ch * F32,
                            nb * s,
                        ),
                    };
                    p.push(PeOp::Mac(macs));
                    if squash_caps > 0 {
                        p.push(PeOp::Mac(squash_caps * ch)); // ‖s‖²
                        p.push(PeOp::InvSqrt(squash_caps));
                        p.push(PeOp::Div(squash_caps));
                        p.push(PeOp::Mul(squash_caps * (ch + 1)));
                        p.push(PeOp::Add(squash_caps));
                    }
                    p.read_bytes = read;
                    p.write_bytes = write;
                    let b = p.traffic_bytes();
                    (p, b)
                })
                .collect();
            let mut phase = make_phase(format!("it{it}.eq2_3"), works);
            if dim == Dimension::L {
                // All-reduce partial s then broadcast v (M_L, Eq 10); the
                // squash runs on the reducer vault.
                let agg_factor = if pre_aggregate {
                    1
                } else {
                    plan.max_share() as u64
                };
                phase.xbar_payload_bytes = 2 * nb * (nv as u64 - 1) * nh * ch * F32 * agg_factor;
                phase.xbar_messages = 2 * nb * (nv as u64 - 1) * nh * agg_factor;
                let reducer = &mut phase.vaults[0].program;
                let caps = nb * nh;
                reducer.push(PeOp::Add(caps * ch * (nv as u64 - 1)));
                reducer.push(PeOp::Mac(caps * ch));
                reducer.push(PeOp::InvSqrt(caps));
                reducer.push(PeOp::Div(caps));
                reducer.push(PeOp::Mul(caps * (ch + 1)));
                reducer.push(PeOp::Add(caps));
            }
            phases.push(phase);
        }

        // ---- Eq 4: b += Σ_k v·û ----------------------------------------
        {
            let works: Vec<(PeProgram, u64)> = plan
                .shares
                .iter()
                .map(|&share| {
                    let s = share as u64;
                    let mut p = PeProgram::new();
                    let (macs, adds, read, write) = match dim {
                        Dimension::B => (
                            s * nl * nh * ch,
                            s * nl * nh,
                            s * nl * nh * ch * F32 + s * nh * ch * F32,
                            nl * nh * F32,
                        ),
                        Dimension::L => (
                            nb * s * nh * ch,
                            nb * s * nh,
                            nb * s * nh * ch * F32 + nb * nh * ch * F32,
                            s * nh * F32,
                        ),
                        Dimension::H => (
                            nb * nl * s * ch,
                            nb * nl * s,
                            nb * nl * s * ch * F32 + nb * s * ch * F32,
                            nl * s * F32,
                        ),
                    };
                    p.push(PeOp::Mac(macs));
                    p.push(PeOp::Add(adds));
                    p.read_bytes = read;
                    p.write_bytes = write;
                    let b = p.traffic_bytes();
                    (p, b)
                })
                .collect();
            let mut phase = make_phase(format!("it{it}.eq4"), works);
            if dim == Dimension::B {
                // Gather pre-aggregated b to the softmax vault (M_B's first
                // half); a log₂-tree spreads the reduction adds.
                let agg_factor = if pre_aggregate {
                    1
                } else {
                    plan.max_share() as u64
                };
                phase.xbar_payload_bytes = (nv as u64 - 1) * nl * nh * F32 * agg_factor;
                phase.xbar_messages = (nv as u64 - 1) * nl * nh * agg_factor;
                let depth = plan.aggregation_depth as u64;
                for work in phase.vaults.iter_mut() {
                    work.program.push(PeOp::Add(nl * nh * depth / nv as u64));
                }
            }
            phases.push(phase);
        }
    }

    RpPhasePlan { phases, plan }
}

/// Builds the RP phases generically from the census's equation profiles —
/// the "simple adjustment" path for routing algorithms other than dynamic
/// routing (§5.1's generality claim). Each equation slot splits along the
/// chosen dimension when Table 2 marks it parallelizable; residue slots run
/// on vault 0 with their outputs scattered.
pub fn build_rp_phases_generic(
    rp: &RpCensus,
    cfg: &HmcConfig,
    dim: Dimension,
    mode: AddressingMode,
) -> RpPhasePlan {
    let nv = cfg.vaults;
    let n_units = match dim {
        Dimension::B => rp.nb,
        Dimension::L => rp.nl,
        Dimension::H => rp.nh,
    };
    let plan = SnippetPlan::new(dim, n_units, nv);
    let remote = matches!(mode, AddressingMode::DefaultInterleave);
    let total_units = n_units as u64;
    let parallel_fn = match rp.routing {
        capsnet::RoutingAlgorithm::Dynamic => parallelizable,
        capsnet::RoutingAlgorithm::Em => parallelizable_em,
    };
    let mut phases = Vec::new();

    let mut emit = |name: String, prof: &capsnet::EquationProfile, split: bool| {
        let vaults: Vec<VaultWork> = if split {
            plan.shares
                .iter()
                .map(|&share| {
                    let f = share as u64;
                    let mut p = PeProgram::new();
                    p.push(PeOp::Mac(prof.macs * f / total_units));
                    p.push(PeOp::Add(prof.adds * f / total_units));
                    p.push(PeOp::Mul(prof.muls * f / total_units));
                    p.push(PeOp::Div(prof.divs * f / total_units));
                    p.push(PeOp::Exp(prof.exps * f / total_units));
                    p.push(PeOp::InvSqrt(prof.isqrts * f / total_units));
                    p.read_bytes = prof.read_bytes * f / total_units;
                    p.write_bytes = prof.write_bytes * f / total_units;
                    let bytes = p.traffic_bytes();
                    let (bank_bytes, row_hit_rate) = mode.bank_spread(bytes, cfg);
                    VaultWork {
                        program: p,
                        bank_bytes,
                        row_hit_rate,
                    }
                })
                .collect()
        } else {
            (0..nv)
                .map(|v| {
                    if v != 0 {
                        return VaultWork::default();
                    }
                    let mut p = PeProgram::new();
                    p.push(PeOp::Mac(prof.macs));
                    p.push(PeOp::Add(prof.adds));
                    p.push(PeOp::Mul(prof.muls));
                    p.push(PeOp::Div(prof.divs));
                    p.push(PeOp::Exp(prof.exps));
                    p.push(PeOp::InvSqrt(prof.isqrts));
                    p.read_bytes = prof.read_bytes;
                    p.write_bytes = prof.write_bytes;
                    let bytes = p.traffic_bytes();
                    let (bank_bytes, row_hit_rate) = mode.bank_spread(bytes, cfg);
                    VaultWork {
                        program: p,
                        bank_bytes,
                        row_hit_rate,
                    }
                })
                .collect()
        };
        let mut phase = Phase {
            name,
            vaults,
            xbar_payload_bytes: 0,
            xbar_messages: 0,
            memory_via_xbar: remote,
        };
        if !split {
            // Gather inputs to / scatter outputs from the residue vault.
            let payload = (nv as u64 - 1) * (prof.write_bytes + prof.read_bytes / 4);
            phase.xbar_payload_bytes = payload;
            phase.xbar_messages = payload.div_ceil(64);
        }
        phases.push(phase);
    };

    let eq1 = rp.equation(capsnet::RpEquation::Eq1);
    emit(
        "eq1".into(),
        eq1,
        parallel_fn(capsnet::RpEquation::Eq1, dim),
    );
    for it in 0..rp.iterations {
        for eq in [
            capsnet::RpEquation::Eq5,
            capsnet::RpEquation::Eq2,
            capsnet::RpEquation::Eq3,
            capsnet::RpEquation::Eq4,
        ] {
            emit(
                format!("it{it}.{eq}"),
                rp.equation(eq),
                parallel_fn(eq, dim),
            );
        }
    }
    RpPhasePlan { phases, plan }
}

/// Builds phases for running the **non-RP** layers on the PEs — the
/// All-in-PIM comparison point. Dense/conv work spreads evenly over vaults
/// with PIM addressing.
pub fn build_non_rp_phases(census: &NetworkCensus, cfg: &HmcConfig) -> Vec<Phase> {
    let nv = cfg.vaults as u64;
    census
        .non_rp_layers()
        .into_iter()
        .map(|layer| {
            let vaults = (0..nv)
                .map(|_| {
                    let mut p = PeProgram::new();
                    p.push(PeOp::DenseMac(layer.flops / 2 / nv));
                    p.read_bytes = layer.read_bytes / nv;
                    p.write_bytes = layer.write_bytes / nv;
                    let bytes = p.traffic_bytes();
                    let (bank_bytes, row_hit_rate) = AddressingMode::Pim.bank_spread(bytes, cfg);
                    VaultWork {
                        program: p,
                        bank_bytes,
                        row_hit_rate,
                    }
                })
                .collect();
            Phase::local(format!("pim.{}", layer.name), vaults)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::PhaseEngine;

    fn mn1() -> RpCensus {
        RpCensus::new(100, 1152, 10, 8, 16, 3)
    }

    #[test]
    fn phase_count_matches_structure() {
        let cfg = HmcConfig::gen3();
        let plan = build_rp_phases(&mn1(), &cfg, Dimension::B, AddressingMode::Pim, true);
        // 1 (eq1) + 3 iterations × 3 phases (eq5, eq2_3, eq4).
        assert_eq!(plan.phases.len(), 1 + 3 * 3);
    }

    #[test]
    fn total_macs_conserved_across_dimensions() {
        // However the work is distributed, the MAC total must equal the
        // census (work is moved, not created).
        let cfg = HmcConfig::gen3();
        let rp = mn1();
        let census_macs: u64 = rp
            .equations
            .iter()
            .map(|e| {
                e.macs
                    * if e.per_iteration {
                        rp.iterations as u64
                    } else {
                        1
                    }
            })
            .sum();
        for dim in [Dimension::B, Dimension::L, Dimension::H] {
            let plan = build_rp_phases(&rp, &cfg, dim, AddressingMode::Pim, true);
            let macs: u64 = plan
                .phases
                .iter()
                .flat_map(|p| &p.vaults)
                .flat_map(|v| &v.program.ops)
                .filter_map(|op| match op {
                    PeOp::Mac(n) => Some(*n),
                    _ => None,
                })
                .sum();
            // Within 5%: squash norm MACs and reducer adds shift a little
            // between dimensions.
            let rel = (macs as f64 - census_macs as f64).abs() / census_macs as f64;
            assert!(rel < 0.05, "{dim}: {macs} vs census {census_macs}");
        }
    }

    #[test]
    fn special_functions_present_in_eq5_and_squash() {
        let cfg = HmcConfig::gen3();
        let plan = build_rp_phases(&mn1(), &cfg, Dimension::B, AddressingMode::Pim, true);
        let exps: u64 = plan
            .phases
            .iter()
            .flat_map(|p| &p.vaults)
            .flat_map(|v| &v.program.ops)
            .filter_map(|op| match op {
                PeOp::Exp(n) => Some(*n),
                _ => None,
            })
            .sum();
        // 3 iterations × N_L × N_H exponentials.
        assert_eq!(exps, 3 * 1152 * 10);
    }

    #[test]
    fn naive_banking_is_slower_than_pim() {
        let cfg = HmcConfig::gen3();
        let engine = PhaseEngine::new(cfg.clone());
        let rp = mn1();
        let pim = build_rp_phases(&rp, &cfg, Dimension::B, AddressingMode::Pim, true);
        let naive = build_rp_phases(&rp, &cfg, Dimension::B, AddressingMode::NaiveBank, true);
        let t_pim = engine.run(&pim.phases);
        let t_naive = engine.run(&naive.phases);
        assert!(t_naive.time_s > t_pim.time_s);
        assert!(
            t_naive.vrs_s > 10.0 * t_pim.vrs_s.max(1e-12),
            "naive banking should stall: {} vs {}",
            t_naive.vrs_s,
            t_pim.vrs_s
        );
    }

    #[test]
    fn remote_interleave_pays_crossbar() {
        let cfg = HmcConfig::gen3();
        let engine = PhaseEngine::new(cfg.clone());
        let rp = mn1();
        let local = build_rp_phases(&rp, &cfg, Dimension::B, AddressingMode::Pim, true);
        let remote = build_rp_phases(
            &rp,
            &cfg,
            Dimension::B,
            AddressingMode::DefaultInterleave,
            true,
        );
        let t_local = engine.run(&local.phases);
        let t_remote = engine.run(&remote.phases);
        assert!(t_remote.xbar_s > 5.0 * t_local.xbar_s);
        assert!(t_remote.time_s > t_local.time_s);
    }

    #[test]
    fn preaggregation_reduces_crossbar_traffic() {
        let cfg = HmcConfig::gen3();
        let rp = mn1();
        let with = build_rp_phases(&rp, &cfg, Dimension::B, AddressingMode::Pim, true);
        let without = build_rp_phases(&rp, &cfg, Dimension::B, AddressingMode::Pim, false);
        let bytes =
            |p: &RpPhasePlan| -> u64 { p.phases.iter().map(|ph| ph.xbar_payload_bytes).sum() };
        assert!(
            bytes(&without) > 2 * bytes(&with),
            "pre-aggregation must cut inter-vault bytes"
        );
    }

    #[test]
    fn bank_spread_shapes() {
        let cfg = HmcConfig::gen3();
        let (pim, hit_pim) = AddressingMode::Pim.bank_spread(16_000, &cfg);
        assert_eq!(pim.iter().filter(|&&b| b > 0).count(), 16);
        assert!(hit_pim > 0.9);
        let (naive, hit_naive) = AddressingMode::NaiveBank.bank_spread(16_000, &cfg);
        assert_eq!(naive.iter().filter(|&&b| b > 0).count(), 2);
        assert!(hit_naive < 0.7);
    }

    #[test]
    fn non_rp_phases_cover_all_layers() {
        let census = NetworkCensus::from_spec(&capsnet::CapsNetSpec::mnist(), 100).unwrap();
        let cfg = HmcConfig::gen3();
        let phases = build_non_rp_phases(&census, &cfg);
        assert_eq!(phases.len(), 5); // conv, primary, 3 FC
        for p in &phases {
            assert_eq!(p.vaults.len(), 32);
        }
    }
}
