//! The **op census**: exact operation / byte / synchronization counts for
//! every routing-procedure equation and every network layer, derived purely
//! from a [`CapsNetSpec`] and a batch size.
//!
//! Both simulators consume these numbers:
//!
//! * `gpu-sim` lowers the layer profiles to GPU kernels and derives the
//!   Fig 4–7 characterization (traffic vs on-chip storage, stall classes);
//! * `hmc-sim` / `pim-capsnet` turn the per-equation profiles into PE
//!   micro-op streams and per-vault DRAM traffic.
//!
//! Counting conventions:
//!
//! * a `mac` is one multiply-accumulate pair (2 FLOPs);
//! * special functions (`exp`, `div`, `isqrt`) are counted as single
//!   operations here — each consumer expands them to its own cost (CUDA SFU
//!   vs PE approximation sequence);
//! * `reduction_groups`/`reduction_width` describe the aggregation shape of
//!   each equation (the source of the paper's synchronization overheads):
//!   e.g. Eq 2 reduces over `L` for every `(batch, H-capsule, component)`.

use serde::{Deserialize, Serialize};

use crate::config::{CapsNetSpec, RoutingAlgorithm};
use crate::error::CapsNetError;

/// Bytes per FP32 scalar.
pub const F32_BYTES: u64 = 4;

/// The five equations of the dynamic routing procedure (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RpEquation {
    /// `û_{j|i} = u_i · W_ij` — prediction vectors.
    Eq1,
    /// `s_j = Σ_i û_{j|i} · c_ij` — weighted aggregation over L.
    Eq2,
    /// `v_j = squash(s_j)`.
    Eq3,
    /// `b_ij += Σ_k v_j^k · û_{j|i}^k` — agreement update.
    Eq4,
    /// `c_ij = softmax_j(b_ij)`.
    Eq5,
}

impl RpEquation {
    /// All five equations in execution order.
    pub const ALL: [RpEquation; 5] = [
        RpEquation::Eq1,
        RpEquation::Eq2,
        RpEquation::Eq3,
        RpEquation::Eq4,
        RpEquation::Eq5,
    ];

    /// 0-based index.
    pub fn index(&self) -> usize {
        match self {
            RpEquation::Eq1 => 0,
            RpEquation::Eq2 => 1,
            RpEquation::Eq3 => 2,
            RpEquation::Eq4 => 3,
            RpEquation::Eq5 => 4,
        }
    }
}

impl std::fmt::Display for RpEquation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Eq{}", self.index() + 1)
    }
}

/// Operation and traffic counts for one RP equation (for one execution —
/// multiply by iterations where [`EquationProfile::per_iteration`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EquationProfile {
    /// Which equation this profiles.
    pub eq: RpEquation,
    /// Multiply-accumulate pairs.
    pub macs: u64,
    /// Standalone additions.
    pub adds: u64,
    /// Standalone multiplications.
    pub muls: u64,
    /// Divisions.
    pub divs: u64,
    /// Exponentials.
    pub exps: u64,
    /// Inverse square roots.
    pub isqrts: u64,
    /// Bytes read from memory (all operand tensors).
    pub read_bytes: u64,
    /// Bytes written to memory (result tensors).
    pub write_bytes: u64,
    /// Number of aggregation groups (each is a synchronization point on a
    /// shared-memory architecture).
    pub reduction_groups: u64,
    /// Elements reduced per group.
    pub reduction_width: u64,
    /// Whether the equation re-executes every routing iteration.
    pub per_iteration: bool,
}

impl EquationProfile {
    /// Total FLOPs, counting a MAC as two operations and special functions
    /// as one each.
    pub fn flops(&self) -> u64 {
        2 * self.macs + self.adds + self.muls + self.divs + self.exps + self.isqrts
    }

    /// Total memory traffic.
    pub fn traffic_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Sizes (in bytes) of the RP's tensors for one batch.
///
/// The paper's Fig 6(a) compares `total_unshareable` against GPU on-chip
/// storage; "unshareable" means not reusable across batches (û, s, v, b, c
/// are all batch- or iteration-private).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntermediateSizes {
    /// Input capsules `u`: `B·L·C_L` scalars.
    pub u: u64,
    /// Weights `W`: `L·H·C_L·C_H` scalars (shared across batches).
    pub w: u64,
    /// Prediction vectors `û`: `B·L·H·C_H` scalars — the giant one.
    pub u_hat: u64,
    /// Pre-squash accumulators `s`: `B·H·C_H`.
    pub s: u64,
    /// High-level capsules `v`: `B·H·C_H`.
    pub v: u64,
    /// Agreement logits `b`: `L·H`.
    pub b: u64,
    /// Routing coefficients `c`: `L·H`.
    pub c: u64,
}

impl IntermediateSizes {
    /// Total size of the unshareable intermediate variables
    /// (û, s, v, b, c — everything produced inside the RP).
    pub fn total_unshareable(&self) -> u64 {
        self.u_hat + self.s + self.v + self.b + self.c
    }

    /// Fig 6(a)'s ratio: intermediate size / on-chip storage.
    pub fn ratio_to_onchip(&self, onchip_bytes: u64) -> f64 {
        self.total_unshareable() as f64 / onchip_bytes as f64
    }
}

/// Complete census of the routing procedure for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpCensus {
    /// Batch size `N_B`.
    pub nb: usize,
    /// Low-level capsules `N_L`.
    pub nl: usize,
    /// High-level capsules `N_H`.
    pub nh: usize,
    /// Low-level capsule dimension `C_L`.
    pub cl: usize,
    /// High-level capsule dimension `C_H`.
    pub ch: usize,
    /// Routing iterations `I`.
    pub iterations: usize,
    /// Which routing algorithm the census describes. EM routing maps onto
    /// the same five slots because its aggregation structure matches
    /// (votes → per-H reduction over L → per-capsule nonlinearity →
    /// all-pairs agreement → per-L normalization over H) — the paper's
    /// §2.2 "similar execution pattern" observation, made literal.
    #[serde(default)]
    pub routing: RoutingAlgorithm,
    /// Per-equation profiles (`Eq1..Eq5`, in order).
    pub equations: Vec<EquationProfile>,
    /// Tensor sizes in bytes.
    pub sizes: IntermediateSizes,
}

impl RpCensus {
    /// Builds the census from raw dimensions.
    pub fn new(nb: usize, nl: usize, nh: usize, cl: usize, ch: usize, iterations: usize) -> Self {
        let (nb_, nl_, nh_, cl_, ch_) = (nb as u64, nl as u64, nh as u64, cl as u64, ch as u64);
        let sizes = IntermediateSizes {
            u: nb_ * nl_ * cl_ * F32_BYTES,
            w: nl_ * nh_ * cl_ * ch_ * F32_BYTES,
            u_hat: nb_ * nl_ * nh_ * ch_ * F32_BYTES,
            s: nb_ * nh_ * ch_ * F32_BYTES,
            v: nb_ * nh_ * ch_ * F32_BYTES,
            b: nl_ * nh_ * F32_BYTES,
            c: nl_ * nh_ * F32_BYTES,
        };
        let eq1 = EquationProfile {
            eq: RpEquation::Eq1,
            macs: nb_ * nl_ * nh_ * ch_ * cl_,
            adds: 0,
            muls: 0,
            divs: 0,
            exps: 0,
            isqrts: 0,
            read_bytes: sizes.u + sizes.w,
            write_bytes: sizes.u_hat,
            reduction_groups: 0, // C_L-wide dot products stay thread-local
            reduction_width: cl_,
            per_iteration: false,
        };
        let eq2 = EquationProfile {
            eq: RpEquation::Eq2,
            macs: nb_ * nh_ * ch_ * nl_,
            adds: 0,
            muls: 0,
            divs: 0,
            exps: 0,
            isqrts: 0,
            read_bytes: sizes.u_hat + sizes.c,
            write_bytes: sizes.s,
            reduction_groups: nb_ * nh_ * ch_,
            reduction_width: nl_,
            per_iteration: true,
        };
        let eq3 = EquationProfile {
            eq: RpEquation::Eq3,
            // norm square: CH macs; then scale: 1 isqrt, 1 div, 1 add,
            // (CH+1) muls per capsule.
            macs: nb_ * nh_ * ch_,
            adds: nb_ * nh_,
            muls: nb_ * nh_ * (ch_ + 1),
            divs: nb_ * nh_,
            exps: 0,
            isqrts: nb_ * nh_,
            read_bytes: sizes.s,
            write_bytes: sizes.v,
            reduction_groups: nb_ * nh_,
            reduction_width: ch_,
            per_iteration: true,
        };
        let eq4 = EquationProfile {
            eq: RpEquation::Eq4,
            macs: nb_ * nl_ * nh_ * ch_,
            adds: nb_ * nl_ * nh_, // accumulation of agreements into b
            muls: 0,
            divs: 0,
            exps: 0,
            isqrts: 0,
            read_bytes: sizes.u_hat + sizes.v + sizes.b,
            write_bytes: sizes.b,
            reduction_groups: nl_ * nh_,
            reduction_width: nb_,
            per_iteration: true,
        };
        let eq5 = EquationProfile {
            eq: RpEquation::Eq5,
            macs: 0,
            adds: nl_ * (nh_ - 1),
            muls: 0,
            divs: nl_ * nh_,
            exps: nl_ * nh_,
            isqrts: 0,
            read_bytes: sizes.b,
            write_bytes: sizes.c,
            reduction_groups: nl_,
            reduction_width: nh_,
            per_iteration: true,
        };
        RpCensus {
            nb,
            nl,
            nh,
            cl,
            ch,
            iterations,
            routing: RoutingAlgorithm::Dynamic,
            equations: vec![eq1, eq2, eq3, eq4, eq5],
            sizes,
        }
    }

    /// Builds the census for **EM routing** (Hinton et al. 2018) with the
    /// same five-slot structure:
    ///
    /// | slot | dynamic routing | EM routing |
    /// |---|---|---|
    /// | Eq1 | û = u·W | votes = u·W |
    /// | Eq2 | s = Σ_L û·c | M-step means μ = Σ_L R·û / ΣR |
    /// | Eq3 | squash | M-step variances + activations |
    /// | Eq4 | b += v·û | E-step vote likelihoods |
    /// | Eq5 | softmax over H | E-step responsibility normalization |
    ///
    /// The aggregation dimensions per slot are identical, which is why the
    /// inter-vault distribution (Table 2, Eqs 6–12) applies unchanged —
    /// the paper's generality claim.
    pub fn new_em(
        nb: usize,
        nl: usize,
        nh: usize,
        cl: usize,
        ch: usize,
        iterations: usize,
    ) -> Self {
        let (nb_, nl_, nh_, cl_, ch_) = (nb as u64, nl as u64, nh as u64, cl as u64, ch as u64);
        // Per-sample responsibilities R are [B, L, H]; μ/σ are [B, H, CH].
        let r_bytes = nb_ * nl_ * nh_ * F32_BYTES;
        let mu_bytes = nb_ * nh_ * ch_ * F32_BYTES;
        let sizes = IntermediateSizes {
            u: nb_ * nl_ * cl_ * F32_BYTES,
            w: nl_ * nh_ * cl_ * ch_ * F32_BYTES,
            u_hat: nb_ * nl_ * nh_ * ch_ * F32_BYTES,
            s: mu_bytes,
            v: mu_bytes,
            b: r_bytes,
            c: r_bytes,
        };
        let eq1 = EquationProfile {
            eq: RpEquation::Eq1,
            macs: nb_ * nl_ * nh_ * ch_ * cl_,
            adds: 0,
            muls: 0,
            divs: 0,
            exps: 0,
            isqrts: 0,
            read_bytes: sizes.u + sizes.w,
            write_bytes: sizes.u_hat,
            reduction_groups: 0,
            reduction_width: cl_,
            per_iteration: false,
        };
        // M-step means: Σ_L R·û per (B, H, component), then divide by ΣR.
        let eq2 = EquationProfile {
            eq: RpEquation::Eq2,
            macs: nb_ * nh_ * ch_ * nl_ + nb_ * nh_ * nl_, // weighted sum + ΣR
            adds: 0,
            muls: 0,
            divs: nb_ * nh_ * ch_,
            exps: 0,
            isqrts: 0,
            read_bytes: sizes.u_hat + r_bytes,
            write_bytes: mu_bytes,
            reduction_groups: nb_ * nh_ * ch_,
            reduction_width: nl_,
            per_iteration: true,
        };
        // M-step variances + activations: weighted squared deviations over
        // L, then a logistic per capsule.
        let eq3 = EquationProfile {
            eq: RpEquation::Eq3,
            macs: 2 * nb_ * nh_ * ch_ * nl_, // (û-μ)² accumulation
            adds: nb_ * nh_ * ch_,
            muls: nb_ * nh_ * ch_,
            divs: nb_ * nh_ * ch_ + nb_ * nh_,
            exps: nb_ * nh_, // logistic
            isqrts: 0,
            read_bytes: sizes.u_hat + mu_bytes + r_bytes,
            write_bytes: mu_bytes + nb_ * nh_ * F32_BYTES,
            reduction_groups: nb_ * nh_ * ch_,
            reduction_width: nl_,
            per_iteration: true,
        };
        // E-step likelihood quadratics per (B, L, H) pair over CH.
        let eq4 = EquationProfile {
            eq: RpEquation::Eq4,
            macs: nb_ * nl_ * nh_ * ch_,
            adds: 0,
            muls: 0,
            divs: nb_ * nl_ * nh_ * ch_, // per-component /σ²
            exps: 0,
            isqrts: 0,
            read_bytes: sizes.u_hat + 2 * mu_bytes,
            write_bytes: r_bytes,
            reduction_groups: nb_ * nl_ * nh_,
            reduction_width: ch_,
            per_iteration: true,
        };
        // E-step responsibility normalization over H per (B, L).
        let eq5 = EquationProfile {
            eq: RpEquation::Eq5,
            macs: 0,
            adds: nb_ * nl_ * (nh_ - 1),
            muls: nb_ * nl_ * nh_, // fold in activations
            divs: nb_ * nl_ * nh_,
            exps: nb_ * nl_ * nh_,
            isqrts: 0,
            read_bytes: r_bytes + nb_ * nh_ * F32_BYTES,
            write_bytes: r_bytes,
            reduction_groups: nb_ * nl_,
            reduction_width: nh_,
            per_iteration: true,
        };
        RpCensus {
            nb,
            nl,
            nh,
            cl,
            ch,
            iterations,
            routing: RoutingAlgorithm::Em,
            equations: vec![eq1, eq2, eq3, eq4, eq5],
            sizes,
        }
    }

    /// Builds the census from a network spec, honouring the spec's routing
    /// algorithm.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn from_spec(spec: &CapsNetSpec, batch: usize) -> Result<Self, CapsNetError> {
        let (nl, nh, cl, ch, it) = (
            spec.l_caps()?,
            spec.h_caps,
            spec.cl_dim,
            spec.ch_dim,
            spec.routing_iterations,
        );
        Ok(match spec.routing {
            RoutingAlgorithm::Dynamic => Self::new(batch, nl, nh, cl, ch, it),
            RoutingAlgorithm::Em => Self::new_em(batch, nl, nh, cl, ch, it),
        })
    }

    /// Iteration multiplier for a profile.
    fn multiplier(&self, p: &EquationProfile) -> u64 {
        if p.per_iteration {
            self.iterations as u64
        } else {
            1
        }
    }

    /// Total FLOPs across all equations and iterations.
    pub fn total_flops(&self) -> u64 {
        self.equations
            .iter()
            .map(|p| p.flops() * self.multiplier(p))
            .sum()
    }

    /// Total memory traffic across iterations (the quantity that swamps the
    /// GPU: û is re-read in Eq 2 *and* Eq 4 every iteration).
    pub fn total_traffic_bytes(&self) -> u64 {
        self.equations
            .iter()
            .map(|p| p.traffic_bytes() * self.multiplier(p))
            .sum()
    }

    /// Profile for one equation.
    pub fn equation(&self, eq: RpEquation) -> &EquationProfile {
        &self.equations[eq.index()]
    }
}

/// Kind of a non-RP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Plain convolution.
    Conv,
    /// PrimaryCaps convolution + squash.
    PrimaryCaps,
    /// Fully-connected decoder layer.
    Fc,
}

/// Operation/traffic profile of one non-RP layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Display name.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Total FLOPs (MACs counted as 2).
    pub flops: u64,
    /// Bytes read (inputs + weights).
    pub read_bytes: u64,
    /// Bytes written (outputs).
    pub write_bytes: u64,
    /// Weight bytes (reusable across batches).
    pub weight_bytes: u64,
}

/// Census of the whole network for one batch size: the Fig 4 layer split
/// (Conv / L Caps / H Caps(RP) / FC).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkCensus {
    /// Batch size.
    pub batch: usize,
    /// Conv1 profile.
    pub conv: LayerProfile,
    /// PrimaryCaps (the "L Caps layer").
    pub primary: LayerProfile,
    /// The routing procedure (the "H Caps layer"), including Eq 1.
    pub rp: RpCensus,
    /// Decoder FC layers.
    pub fc: Vec<LayerProfile>,
}

impl NetworkCensus {
    /// Builds the census for `spec` at `batch`.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn from_spec(spec: &CapsNetSpec, batch: usize) -> Result<Self, CapsNetError> {
        spec.validate()?;
        let b = batch as u64;
        let (c1h, c1w) = spec.conv1_out_hw()?;
        let in_c = spec.input_channels as u64;
        let c1c = spec.conv1_channels as u64;
        let k1 = spec.conv1_kernel as u64;
        let conv_out_elems = b * c1c * (c1h as u64) * (c1w as u64);
        let conv = LayerProfile {
            name: "Conv1".into(),
            kind: LayerKind::Conv,
            flops: 2 * conv_out_elems * in_c * k1 * k1,
            read_bytes: b * in_c * (spec.input_hw.0 as u64) * (spec.input_hw.1 as u64) * F32_BYTES
                + c1c * in_c * k1 * k1 * F32_BYTES,
            write_bytes: conv_out_elems * F32_BYTES,
            weight_bytes: c1c * in_c * k1 * k1 * F32_BYTES,
        };

        let (gh, gw) = spec.primary_grid()?;
        let nl = spec.l_caps()? as u64;
        let cl = spec.cl_dim as u64;
        let pk = spec.primary_kernel as u64;
        let p_out_c = (spec.primary_channels * spec.cl_dim) as u64;
        let p_out_elems = b * p_out_c * (gh as u64) * (gw as u64);
        let squash_flops = b * nl * (3 * cl + 19); // paper's per-capsule squash cost
        let primary = LayerProfile {
            name: "PrimaryCaps".into(),
            kind: LayerKind::PrimaryCaps,
            flops: 2 * p_out_elems * c1c * pk * pk + squash_flops,
            read_bytes: conv_out_elems * F32_BYTES + p_out_c * c1c * pk * pk * F32_BYTES,
            write_bytes: b * nl * cl * F32_BYTES,
            weight_bytes: p_out_c * c1c * pk * pk * F32_BYTES,
        };

        let rp = RpCensus::from_spec(spec, batch)?;

        let mut fc = Vec::new();
        let mut in_dim = (spec.h_caps * spec.ch_dim) as u64;
        for (i, &out) in spec.decoder_dims.iter().enumerate() {
            let out = out as u64;
            fc.push(LayerProfile {
                name: format!("FC{}", i + 1),
                kind: LayerKind::Fc,
                flops: 2 * b * in_dim * out,
                read_bytes: b * in_dim * F32_BYTES + in_dim * out * F32_BYTES,
                write_bytes: b * out * F32_BYTES,
                weight_bytes: in_dim * out * F32_BYTES,
            });
            in_dim = out;
        }

        Ok(NetworkCensus {
            batch,
            conv,
            primary,
            rp,
            fc,
        })
    }

    /// All non-RP layer profiles in execution order.
    pub fn non_rp_layers(&self) -> Vec<&LayerProfile> {
        let mut v = vec![&self.conv, &self.primary];
        v.extend(self.fc.iter());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CapsNet-MNIST at batch 100 = the paper's Caps-MN1.
    fn mn1() -> RpCensus {
        RpCensus::new(100, 1152, 10, 8, 16, 3)
    }

    #[test]
    fn u_hat_dominates_intermediates() {
        let c = mn1();
        // û = 100·1152·10·16·4 bytes ≈ 73.7 MB.
        assert_eq!(c.sizes.u_hat, 100 * 1152 * 10 * 16 * 4);
        assert!(c.sizes.u_hat > 70_000_000);
        assert!(c.sizes.u_hat as f64 / c.sizes.total_unshareable() as f64 > 0.99);
    }

    #[test]
    fn fig6a_ratio_matches_paper_magnitude() {
        // Paper Fig 6(a): Caps-MN1 on K40m (1.73 MB on-chip) lands in the
        // ~40-50x band.
        let c = mn1();
        let ratio = c.sizes.ratio_to_onchip(1_730_000);
        assert!(
            (35.0..60.0).contains(&ratio),
            "MN1/K40m ratio {ratio} outside the paper's band"
        );
    }

    #[test]
    fn eq1_runs_once_others_iterate() {
        let c = mn1();
        assert!(!c.equation(RpEquation::Eq1).per_iteration);
        for eq in [
            RpEquation::Eq2,
            RpEquation::Eq3,
            RpEquation::Eq4,
            RpEquation::Eq5,
        ] {
            assert!(c.equation(eq).per_iteration, "{eq} must iterate");
        }
    }

    #[test]
    fn eq1_mac_count_exact() {
        let c = mn1();
        assert_eq!(
            c.equation(RpEquation::Eq1).macs,
            100 * 1152 * 10 * 16 * 8u64
        );
    }

    #[test]
    fn traffic_rereads_u_hat_each_iteration() {
        let c = mn1();
        // û appears in reads of Eq2 and Eq4, each × iterations, plus one
        // write in Eq1: at least 7× û of traffic for 3 iterations.
        assert!(c.total_traffic_bytes() > 7 * c.sizes.u_hat);
    }

    #[test]
    fn special_ops_live_in_eq3_and_eq5() {
        let c = mn1();
        for eq in [RpEquation::Eq1, RpEquation::Eq2] {
            let p = c.equation(eq);
            assert_eq!(p.divs + p.exps + p.isqrts, 0, "{eq:?}");
        }
        assert!(c.equation(RpEquation::Eq3).isqrts > 0);
        assert!(c.equation(RpEquation::Eq5).exps > 0);
        assert_eq!(c.equation(RpEquation::Eq5).exps, 1152 * 10);
    }

    #[test]
    fn reduction_shapes_match_equations() {
        let c = mn1();
        let eq2 = c.equation(RpEquation::Eq2);
        assert_eq!(eq2.reduction_width, 1152); // aggregates over L
        let eq4 = c.equation(RpEquation::Eq4);
        assert_eq!(eq4.reduction_width, 100); // aggregates over batch
        let eq5 = c.equation(RpEquation::Eq5);
        assert_eq!(eq5.reduction_width, 10); // softmax over H
    }

    #[test]
    fn scaling_iterations_scales_per_iter_ops_only() {
        let c3 = RpCensus::new(100, 576, 10, 8, 16, 3);
        let c9 = RpCensus::new(100, 576, 10, 8, 16, 9);
        let eq1_3 = c3.equation(RpEquation::Eq1).flops();
        let eq1_9 = c9.equation(RpEquation::Eq1).flops();
        assert_eq!(eq1_3, eq1_9);
        let per_iter_3 = c3.total_flops() - eq1_3;
        let per_iter_9 = c9.total_flops() - eq1_9;
        assert_eq!(per_iter_3 * 3, per_iter_9);
    }

    #[test]
    fn network_census_builds_for_mnist() {
        let spec = CapsNetSpec::mnist();
        let nc = NetworkCensus::from_spec(&spec, 100).unwrap();
        assert_eq!(nc.rp.nl, 1152);
        assert_eq!(nc.fc.len(), 3);
        assert_eq!(nc.non_rp_layers().len(), 5);
        // Conv1 of CapsNet-MNIST: 2·B·256·20·20·1·81 flops.
        assert_eq!(nc.conv.flops, 2 * 100 * 256 * 400 * 81);
        // Decoder dims 512 -> 1024 -> 784.
        assert_eq!(nc.fc[0].flops, 2 * 100 * 160 * 512);
        assert_eq!(nc.fc[2].write_bytes, 100 * 784 * 4);
    }

    #[test]
    fn batch_scales_unshareable_but_not_weights() {
        let spec = CapsNetSpec::mnist();
        let a = NetworkCensus::from_spec(&spec, 100).unwrap();
        let b = NetworkCensus::from_spec(&spec, 300).unwrap();
        assert_eq!(b.rp.sizes.u_hat, 3 * a.rp.sizes.u_hat);
        assert_eq!(b.rp.sizes.w, a.rp.sizes.w);
        assert_eq!(b.rp.sizes.b, a.rp.sizes.b); // batch-shared coefficients
    }
}
