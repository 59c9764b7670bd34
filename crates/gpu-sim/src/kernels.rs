//! Lowering of op-census profiles to GPU kernel sequences.
//!
//! The routing procedure is lowered the way the PyTorch framework the paper
//! measured actually executes it: *unfused* broadcast-multiply and reduce
//! kernels that materialize full-size temporaries (this, not raw FLOPs, is
//! why the RP hammers off-chip memory — every iteration streams the û-sized
//! tensor several times). Convolutions lower to im2col + GEMM; dense layers
//! to a single GEMM.

use capsnet::census::{LayerKind, LayerProfile, RpCensus, F32_BYTES as F32};
use capsnet::RoutingAlgorithm;
use serde::{Deserialize, Serialize};

/// How a kernel uses its ALUs and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// Dense matrix multiply (cuBLAS/CuDNN class, tiled, compute-efficient).
    Gemm,
    /// Unfused pointwise/broadcast kernel.
    Elementwise,
    /// Reduction over `width` elements per output.
    Reduction {
        /// Elements reduced per output.
        width: u64,
    },
}

/// One memory operand of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Operand {
    /// Tensor size in bytes.
    pub bytes: u64,
    /// `true` if written (else read).
    pub is_write: bool,
    /// How many times the kernel streams the tensor (GEMM weight tiles > 1).
    pub passes: f64,
    /// `true` when the previous kernel just wrote this tensor, making it a
    /// candidate for L2 write-back reuse.
    pub fresh: bool,
}

impl Operand {
    /// A plain single-pass read.
    pub fn read(bytes: u64) -> Self {
        Operand {
            bytes,
            is_write: false,
            passes: 1.0,
            fresh: false,
        }
    }
    /// A read of a tensor the previous kernel just produced.
    fn read_fresh(bytes: u64) -> Self {
        Operand {
            bytes,
            is_write: false,
            passes: 1.0,
            fresh: true,
        }
    }
    /// A plain write.
    pub fn write(bytes: u64) -> Self {
        Operand {
            bytes,
            is_write: true,
            passes: 1.0,
            fresh: false,
        }
    }
    /// A multi-pass read (e.g. GEMM weight re-streaming).
    fn read_passes(bytes: u64, passes: f64) -> Self {
        Operand {
            bytes,
            is_write: false,
            passes,
            fresh: false,
        }
    }
}

/// A lowered kernel: the unit the timing model prices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Display name (`eq2.mul`, `conv.gemm`, …).
    pub name: String,
    /// Arithmetic class.
    pub class: KernelClass,
    /// Total FLOPs (MACs counted as 2).
    pub flops: u64,
    /// Memory operands.
    pub operands: Vec<Operand>,
    /// Number of kernel launches this entry represents.
    pub launches: u32,
}

impl KernelProfile {
    /// Raw (cache-less) traffic in bytes.
    pub fn raw_traffic(&self) -> u64 {
        self.operands
            .iter()
            .map(|o| (o.bytes as f64 * o.passes) as u64)
            .sum()
    }

    /// `true` for reduction kernels (the synchronization-heavy class).
    pub fn is_reduction(&self) -> bool {
        matches!(self.class, KernelClass::Reduction { .. })
    }
}

/// Lowers a non-RP layer (conv / primary-caps / FC) to kernels.
pub fn lower_layer(layer: &LayerProfile) -> Vec<KernelProfile> {
    match layer.kind {
        LayerKind::Conv | LayerKind::PrimaryCaps => {
            let input_bytes = layer.read_bytes - layer.weight_bytes;
            vec![
                KernelProfile {
                    name: format!("{}.im2col", layer.name),
                    class: KernelClass::Elementwise,
                    flops: 0,
                    // im2col inflates the input by ~k²/stride² but we charge
                    // a single extra read+write of the input as modern fused
                    // implementations do.
                    operands: vec![Operand::read(input_bytes), Operand::write(input_bytes)],
                    launches: 1,
                },
                KernelProfile {
                    name: format!("{}.gemm", layer.name),
                    class: KernelClass::Gemm,
                    flops: layer.flops,
                    operands: vec![
                        Operand::read_fresh(input_bytes),
                        Operand::read_passes(layer.weight_bytes, 4.0),
                        Operand::write(layer.write_bytes),
                    ],
                    launches: 1,
                },
            ]
        }
        LayerKind::Fc => vec![KernelProfile {
            name: format!("{}.gemm", layer.name),
            class: KernelClass::Gemm,
            flops: layer.flops,
            operands: vec![
                Operand::read(layer.read_bytes - layer.weight_bytes),
                Operand::read_passes(layer.weight_bytes, 2.0),
                Operand::write(layer.write_bytes),
            ],
            launches: 1,
        }],
    }
}

/// Lowers the routing procedure to a kernel stream, dispatching on the
/// census's routing algorithm: the dynamic-routing path uses the exact
/// PyTorch unfused chain; other algorithms use the structural generic
/// lowering.
pub fn lower_rp(rp: &RpCensus) -> Vec<KernelProfile> {
    match rp.routing {
        RoutingAlgorithm::Dynamic => lower_rp_dynamic(rp),
        RoutingAlgorithm::Em => lower_rp_generic(rp),
    }
}

/// Structural lowering for non-dynamic routing algorithms: per equation
/// slot, one broadcast/elementwise kernel producing the slot's outputs and
/// (when the slot aggregates) one reduction kernel, both sized from the
/// census profile. Temporaries materialize at the size of the dominant
/// operand, matching eager-framework behaviour.
fn lower_rp_generic(rp: &RpCensus) -> Vec<KernelProfile> {
    let mut kernels = Vec::new();
    let eq1 = rp.equation(capsnet::RpEquation::Eq1);
    kernels.push(KernelProfile {
        name: "eq1.bmm".into(),
        class: KernelClass::Gemm,
        flops: eq1.flops(),
        operands: vec![
            Operand::read(rp.sizes.u),
            Operand::read_passes(rp.sizes.w, 4.0),
            Operand::write(eq1.write_bytes),
        ],
        launches: 1,
    });
    for iter in 0..rp.iterations {
        for eq in [
            capsnet::RpEquation::Eq5,
            capsnet::RpEquation::Eq2,
            capsnet::RpEquation::Eq3,
            capsnet::RpEquation::Eq4,
        ] {
            let prof = rp.equation(eq);
            let name = |stage: &str| format!("it{iter}.{eq}.{stage}");
            if prof.reduction_groups > 0 {
                // Broadcast stage materializes a full-size temporary…
                let tmp = prof.reduction_groups * prof.reduction_width * F32;
                kernels.push(KernelProfile {
                    name: name("map"),
                    class: KernelClass::Elementwise,
                    flops: prof.flops() / 2,
                    operands: vec![Operand::read(prof.read_bytes), Operand::write(tmp)],
                    launches: 1,
                });
                // …which the reduction stage consumes.
                kernels.push(KernelProfile {
                    name: name("reduce"),
                    class: KernelClass::Reduction {
                        width: prof.reduction_width,
                    },
                    flops: prof.flops() - prof.flops() / 2,
                    operands: vec![Operand::read_fresh(tmp), Operand::write(prof.write_bytes)],
                    launches: 1,
                });
            } else {
                kernels.push(KernelProfile {
                    name: name("map"),
                    class: KernelClass::Elementwise,
                    flops: prof.flops(),
                    operands: vec![
                        Operand::read(prof.read_bytes),
                        Operand::write(prof.write_bytes),
                    ],
                    launches: 1,
                });
            }
        }
    }
    kernels
}

/// The dynamic-routing lowering (PyTorch-style unfused chain): Eq 1 as a
/// batched GEMM, then per iteration the
/// softmax → weighted-sum → squash → agreement-update kernels with full
/// temporary materialization.
fn lower_rp_dynamic(rp: &RpCensus) -> Vec<KernelProfile> {
    let (nb, nl, nh, ch) = (rp.nb as u64, rp.nl as u64, rp.nh as u64, rp.ch as u64);
    let u_hat = rp.sizes.u_hat;
    let s = rp.sizes.s;
    let v = rp.sizes.v;
    let b = rp.sizes.b;
    let c = rp.sizes.c;
    let blh = nb * nl * nh * F32; // the Eq-4 partial-agreement temporary

    let mut kernels = Vec::new();

    // Eq 1: û = u·W as a batched GEMM. The weight tensor is re-streamed
    // tile-by-tile (passes set by the timing model's params at price time;
    // the default 4.0 is recorded here).
    kernels.push(KernelProfile {
        name: "eq1.bmm".into(),
        class: KernelClass::Gemm,
        flops: rp.equation(capsnet::RpEquation::Eq1).flops(),
        operands: vec![
            Operand::read(rp.sizes.u),
            Operand::read_passes(rp.sizes.w, 4.0),
            Operand::write(u_hat),
        ],
        launches: 1,
    });

    for iter in 0..rp.iterations {
        let tag = |n: &str| format!("it{iter}.{n}");

        // Eq 5: c = softmax_H(b): max, exp(+sub), sum, div — 4 launches on
        // small tensors.
        kernels.push(KernelProfile {
            name: tag("eq5.max"),
            class: KernelClass::Reduction { width: nh },
            flops: nl * nh,
            operands: vec![Operand::read(b), Operand::write(nl * F32)],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq5.exp"),
            class: KernelClass::Elementwise,
            flops: rp.equation(capsnet::RpEquation::Eq5).exps,
            operands: vec![
                Operand::read(b),
                Operand::read_fresh(nl * F32),
                Operand::write(c),
            ],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq5.sum"),
            class: KernelClass::Reduction { width: nh },
            flops: nl * nh,
            operands: vec![Operand::read_fresh(c), Operand::write(nl * F32)],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq5.div"),
            class: KernelClass::Elementwise,
            flops: rp.equation(capsnet::RpEquation::Eq5).divs,
            operands: vec![
                Operand::read_fresh(c),
                Operand::read_fresh(nl * F32),
                Operand::write(c),
            ],
            launches: 1,
        });

        // Eq 2: tmp = c ⊙ û (broadcast), s = Σ_L tmp.
        kernels.push(KernelProfile {
            name: tag("eq2.mul"),
            class: KernelClass::Elementwise,
            flops: nb * nl * nh * ch,
            operands: vec![
                Operand::read(u_hat),
                Operand::read(c),
                Operand::write(u_hat), // tmp has û's size
            ],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq2.sum_l"),
            class: KernelClass::Reduction { width: nl },
            flops: nb * nh * ch * nl,
            operands: vec![Operand::read_fresh(u_hat), Operand::write(s)],
            launches: 1,
        });

        // Eq 3: squash — norm reduction then scale.
        kernels.push(KernelProfile {
            name: tag("eq3.normsq"),
            class: KernelClass::Reduction { width: ch },
            flops: 2 * nb * nh * ch,
            operands: vec![Operand::read_fresh(s), Operand::write(nb * nh * F32)],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq3.scale"),
            class: KernelClass::Elementwise,
            flops: rp.equation(capsnet::RpEquation::Eq3).flops(),
            operands: vec![
                Operand::read_fresh(s),
                Operand::read_fresh(nb * nh * F32),
                Operand::write(v),
            ],
            launches: 1,
        });

        // Eq 4: tmp2 = v ⊙ û (broadcast over L), agreement = Σ_CH tmp2,
        // b += Σ_B agreement.
        kernels.push(KernelProfile {
            name: tag("eq4.mul"),
            class: KernelClass::Elementwise,
            flops: nb * nl * nh * ch,
            operands: vec![
                Operand::read(u_hat),
                Operand::read_fresh(v),
                Operand::write(u_hat), // tmp2 has û's size
            ],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq4.sum_ch"),
            class: KernelClass::Reduction { width: ch },
            flops: nb * nl * nh * ch,
            operands: vec![Operand::read_fresh(u_hat), Operand::write(blh)],
            launches: 1,
        });
        kernels.push(KernelProfile {
            name: tag("eq4.sum_b"),
            class: KernelClass::Reduction { width: nb },
            flops: nb * nl * nh,
            operands: vec![
                Operand::read_fresh(blh),
                Operand::read(b),
                Operand::write(b),
            ],
            launches: 1,
        });
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::{CapsNetSpec, NetworkCensus, RpCensus};

    fn mn1_rp() -> RpCensus {
        RpCensus::new(100, 1152, 10, 8, 16, 3)
    }

    #[test]
    fn rp_kernel_count() {
        let kernels = lower_rp(&mn1_rp());
        // 1 (Eq1) + 3 iterations × 11 kernels.
        assert_eq!(kernels.len(), 1 + 3 * 11);
    }

    #[test]
    fn rp_traffic_dominated_by_u_hat_temporaries() {
        let rp = mn1_rp();
        let kernels = lower_rp(&rp);
        let total: u64 = kernels.iter().map(|k| k.raw_traffic()).sum();
        // û streams: write once (Eq1) + per iteration ~6 full streams
        // (mul r/w, sum r) × 2 chains — far more than the census-minimal
        // traffic, exactly the PyTorch pathology.
        assert!(
            total > 15 * rp.sizes.u_hat,
            "unfused traffic {total} should be many multiples of û {}",
            rp.sizes.u_hat
        );
    }

    #[test]
    fn reduction_kernels_flagged() {
        let kernels = lower_rp(&mn1_rp());
        let reductions = kernels.iter().filter(|k| k.is_reduction()).count();
        // Per iteration: eq5.max, eq5.sum, eq2.sum_l, eq3.normsq,
        // eq4.sum_ch, eq4.sum_b = 6.
        assert_eq!(reductions, 3 * 6);
    }

    #[test]
    fn layer_lowering_shapes() {
        let census = NetworkCensus::from_spec(&CapsNetSpec::mnist(), 100).unwrap();
        let conv_kernels = lower_layer(&census.conv);
        assert_eq!(conv_kernels.len(), 2);
        assert_eq!(conv_kernels[1].class, KernelClass::Gemm);
        let fc_kernels = lower_layer(&census.fc[0]);
        assert_eq!(fc_kernels.len(), 1);
        assert!(fc_kernels[0].flops > 0);
    }

    #[test]
    fn operand_constructors() {
        assert!(!Operand::read(4).is_write);
        assert!(Operand::write(4).is_write);
        assert!(Operand::read_fresh(4).fresh);
        assert_eq!(Operand::read_passes(4, 3.0).passes, 3.0);
    }

    #[test]
    fn raw_traffic_accounts_passes() {
        let k = KernelProfile {
            name: "t".into(),
            class: KernelClass::Gemm,
            flops: 0,
            operands: vec![Operand::read_passes(100, 4.0), Operand::write(50)],
            launches: 1,
        };
        assert_eq!(k.raw_traffic(), 450);
    }
}

#[cfg(test)]
mod em_tests {
    use super::*;
    use capsnet::{CapsNetSpec, RoutingAlgorithm, RpCensus};

    #[test]
    fn generic_lowering_covers_all_slots() {
        let spec = CapsNetSpec {
            routing: RoutingAlgorithm::Em,
            ..CapsNetSpec::mnist()
        };
        let em = RpCensus::from_spec(&spec, 100).unwrap();
        let kernels = lower_rp(&em);
        // Eq1 + 3 iterations × 4 slots × 2 stages (all EM slots aggregate).
        assert_eq!(kernels.len(), 1 + 3 * 4 * 2);
        assert!(kernels.iter().any(|k| k.is_reduction()));
        let flops: u64 = kernels.iter().map(|k| k.flops).sum();
        assert!(
            flops > em.total_flops() / 2,
            "lowering must carry the flops"
        );
    }

    #[test]
    fn dynamic_dispatch_unchanged() {
        let dy = RpCensus::new(100, 1152, 10, 8, 16, 3);
        assert_eq!(lower_rp(&dy).len(), 1 + 3 * 11);
    }
}
