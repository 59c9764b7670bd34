//! GPU and memory-system specifications, including the five GPUs the paper
//! profiles (Table 4, Fig 6, Fig 7) and the calibrated model coefficients.

use serde::{Deserialize, Serialize};

/// Off-chip memory technology generations compared in Fig 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// GDDR5 (K40m class).
    Gddr5,
    /// GDDR5X (GTX 1080 Ti class).
    Gddr5x,
    /// GDDR6 (RTX 2080 Ti class).
    Gddr6,
    /// HBM2 (V100 class).
    Hbm2,
    /// HBM configured at 320 GB/s — the paper's baseline (Table 4), matched
    /// to the HMC external link bandwidth.
    Hbm320,
}

/// An off-chip memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Technology.
    pub kind: MemoryKind,
    /// Peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Load-to-use latency in nanoseconds.
    pub latency_ns: f64,
}

impl MemorySpec {
    /// GDDR5 at 288 GB/s (Fig 7's K40m point).
    pub fn gddr5() -> Self {
        MemorySpec {
            kind: MemoryKind::Gddr5,
            bandwidth_gbps: 288.0,
            latency_ns: 350.0,
        }
    }
    /// GDDR5X at 484 GB/s (GTX 1080 Ti point).
    pub fn gddr5x() -> Self {
        MemorySpec {
            kind: MemoryKind::Gddr5x,
            bandwidth_gbps: 484.0,
            latency_ns: 320.0,
        }
    }
    /// GDDR6 at 616 GB/s (RTX 2080 Ti point).
    pub fn gddr6() -> Self {
        MemorySpec {
            kind: MemoryKind::Gddr6,
            bandwidth_gbps: 616.0,
            latency_ns: 310.0,
        }
    }
    /// HBM2 at 897 GB/s (V100 point).
    pub fn hbm2() -> Self {
        MemorySpec {
            kind: MemoryKind::Hbm2,
            bandwidth_gbps: 897.0,
            latency_ns: 280.0,
        }
    }
    /// HBM at 320 GB/s — the paper's baseline memory (Table 4).
    pub fn hbm320() -> Self {
        MemorySpec {
            kind: MemoryKind::Hbm320,
            bandwidth_gbps: 320.0,
            latency_ns: 290.0,
        }
    }
}

/// A GPU specification.
///
/// `onchip_bytes` aggregates L1/shared/L2 as the paper does in Fig 6
/// (A: 1.73 MB K40m, B: 5.31 MB P100, C: 9.75 MB RTX 2080 Ti, D: 16 MB
/// V100).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// FP32 lanes per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Total on-chip storage (L1 + shared + L2) in bytes.
    pub onchip_bytes: u64,
    /// Off-chip memory system.
    pub memory: MemorySpec,
    /// Board power at full load, watts.
    pub tdp_watts: f64,
    /// Static/idle power, watts.
    pub idle_watts: f64,
}

impl GpuSpec {
    /// Peak FP32 throughput in FLOP/s (2 FLOPs per core-cycle via FMA).
    pub fn peak_flops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * 2.0 * self.clock_ghz * 1e9
    }

    /// Tesla K40m: the paper's "A" on-chip point and GDDR5 bandwidth point.
    pub fn k40m() -> Self {
        GpuSpec {
            name: "Tesla K40m".into(),
            sm_count: 15,
            cores_per_sm: 192,
            clock_ghz: 0.745,
            onchip_bytes: 1_730_000,
            memory: MemorySpec::gddr5(),
            tdp_watts: 235.0,
            idle_watts: 62.0,
        }
    }

    /// GTX 1080 Ti: the GDDR5X bandwidth point.
    pub fn gtx1080ti() -> Self {
        GpuSpec {
            name: "GTX 1080Ti".into(),
            sm_count: 28,
            cores_per_sm: 128,
            clock_ghz: 1.48,
            onchip_bytes: 5_500_000,
            memory: MemorySpec::gddr5x(),
            tdp_watts: 250.0,
            idle_watts: 55.0,
        }
    }

    /// RTX 2080 Ti: the paper's "C" on-chip point and GDDR6 point.
    pub fn rtx2080ti() -> Self {
        GpuSpec {
            name: "RTX 2080Ti".into(),
            sm_count: 68,
            cores_per_sm: 64,
            clock_ghz: 1.545,
            onchip_bytes: 9_750_000,
            memory: MemorySpec::gddr6(),
            tdp_watts: 250.0,
            idle_watts: 55.0,
        }
    }

    /// Tesla P100 — the paper's host processor (Table 4: 3584 shading units
    /// @ 1190 MHz, 24 KB×56 L1/shared + 4 MB L2, HBM at 320 GB/s).
    pub fn p100() -> Self {
        GpuSpec {
            name: "Tesla P100".into(),
            sm_count: 56,
            cores_per_sm: 64,
            clock_ghz: 1.19,
            onchip_bytes: 5_310_000,
            memory: MemorySpec::hbm320(),
            tdp_watts: 250.0,
            idle_watts: 60.0,
        }
    }

    /// Tesla V100: the paper's "D" on-chip point and HBM2 point.
    pub fn v100() -> Self {
        GpuSpec {
            name: "Tesla V100".into(),
            sm_count: 80,
            cores_per_sm: 64,
            clock_ghz: 1.455,
            onchip_bytes: 16_000_000,
            memory: MemorySpec::hbm2(),
            tdp_watts: 300.0,
            idle_watts: 65.0,
        }
    }

    /// Returns a copy with a different on-chip storage size (Fig 6 sweep).
    pub fn with_onchip(mut self, bytes: u64) -> Self {
        self.onchip_bytes = bytes;
        self
    }

    /// Returns a copy with a different memory system (Fig 7 sweep).
    pub fn with_memory(mut self, memory: MemorySpec) -> Self {
        self.memory = memory;
        self
    }
}

/// Calibrated device coefficients of the timing/energy model.
///
/// These are the only "fit" quantities in the GPU model; everything else is
/// derived from the op census. Values are chosen from public
/// microbenchmarking literature for Pascal-class GPUs and held constant
/// across all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuModelParams {
    /// Fraction of peak FLOPs a tuned GEMM/conv kernel achieves.
    pub gemm_efficiency: f64,
    /// Fraction of peak FLOPs an unfused elementwise kernel achieves.
    pub elementwise_efficiency: f64,
    /// Fraction of peak FLOPs a reduction kernel achieves.
    pub reduction_efficiency: f64,
    /// Fraction of peak DRAM bandwidth streaming kernels achieve.
    pub mem_efficiency: f64,
    /// Kernel launch overhead, seconds.
    pub kernel_launch_s: f64,
    /// Framework (eager-mode dispatch + allocator) overhead per kernel,
    /// seconds. PyTorch's unfused RP pays this ~34 times per batch.
    pub framework_overhead_s: f64,
    /// Cache hit fraction for operands that fit in on-chip storage.
    pub resident_hit: f64,
    /// Extra traffic multiplier for strided/uncoalesced reduction access.
    pub strided_penalty: f64,
    /// Effective drain rate (GB/s) of barrier-synchronized aggregation:
    /// `__syncthreads` waits are bounded by straggler-warp latency chains,
    /// which do **not** improve with more DRAM bandwidth — this is why Fig 7
    /// shows bandwidth alone cannot fix the RP.
    pub sync_drain_gbps: f64,
    /// GEMM operand re-read passes for the shared (weight) operand.
    pub gemm_weight_passes: f64,
    /// Stall-counter weight for exposed memory time (Fig 5 attribution).
    pub stall_w_mem: f64,
    /// Stall-counter weight for synchronization time.
    pub stall_w_sync: f64,
    /// Stall-counter weight for compute (resource) time.
    pub stall_w_resource: f64,
    /// Stall-counter weight for launch/dispatch (instruction fetch) time.
    pub stall_w_fetch: f64,
    /// Dynamic energy per FLOP, joules.
    pub energy_per_flop: f64,
    /// Dynamic energy per DRAM byte, joules.
    pub energy_per_dram_byte: f64,
    /// Dynamic energy per on-chip byte, joules.
    pub energy_per_onchip_byte: f64,
}

impl Default for GpuModelParams {
    fn default() -> Self {
        GpuModelParams {
            gemm_efficiency: 0.68,
            elementwise_efficiency: 0.08,
            reduction_efficiency: 0.12,
            mem_efficiency: 0.75,
            kernel_launch_s: 6.0e-6,
            framework_overhead_s: 20.0e-6,
            resident_hit: 0.88,
            strided_penalty: 1.6,
            sync_drain_gbps: 140.0,
            gemm_weight_passes: 4.0,
            stall_w_mem: 0.9,
            stall_w_sync: 1.45,
            stall_w_resource: 0.8,
            stall_w_fetch: 0.6,
            energy_per_flop: 9.0e-12,
            energy_per_dram_byte: 80.0e-12,
            energy_per_onchip_byte: 10.0e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_matches_table4() {
        let g = GpuSpec::p100();
        assert_eq!(g.sm_count * g.cores_per_sm, 3584);
        assert!((g.clock_ghz - 1.19).abs() < 1e-9);
        assert_eq!(g.memory.bandwidth_gbps, 320.0);
        assert_eq!(g.onchip_bytes, 5_310_000);
        // ~8.5 TFLOPS FP32.
        assert!((g.peak_flops() / 1e12 - 8.53).abs() < 0.1);
    }

    #[test]
    fn fig6_onchip_points() {
        assert_eq!(GpuSpec::k40m().onchip_bytes, 1_730_000);
        assert_eq!(GpuSpec::p100().onchip_bytes, 5_310_000);
        assert_eq!(GpuSpec::rtx2080ti().onchip_bytes, 9_750_000);
        assert_eq!(GpuSpec::v100().onchip_bytes, 16_000_000);
    }

    #[test]
    fn fig7_bandwidth_points() {
        assert_eq!(MemorySpec::gddr5().bandwidth_gbps, 288.0);
        assert_eq!(MemorySpec::gddr5x().bandwidth_gbps, 484.0);
        assert_eq!(MemorySpec::gddr6().bandwidth_gbps, 616.0);
        assert_eq!(MemorySpec::hbm2().bandwidth_gbps, 897.0);
    }

    #[test]
    fn with_builders() {
        let g = GpuSpec::p100()
            .with_onchip(16_000_000)
            .with_memory(MemorySpec::hbm2());
        assert_eq!(g.onchip_bytes, 16_000_000);
        assert_eq!(g.memory.kind, MemoryKind::Hbm2);
        assert_eq!(g.name, "Tesla P100");
    }

    #[test]
    fn default_params_are_sane() {
        let p = GpuModelParams::default();
        assert!(p.gemm_efficiency > p.reduction_efficiency);
        assert!(p.reduction_efficiency >= p.elementwise_efficiency);
        assert!((0.0..=1.0).contains(&p.mem_efficiency));
        assert!(p.strided_penalty >= 1.0);
    }
}
