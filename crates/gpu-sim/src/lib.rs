//! Analytic GPU timing / energy model for CapsNet inference.
//!
//! This crate stands in for the paper's physical measurement infrastructure
//! (PyTorch + CuDNN on a Tesla P100, profiled with NVprofiler / nvidia-smi,
//! §6.1) and regenerates the characterization results of §3:
//!
//! * **Fig 4** — per-layer execution-time breakdown (routing dominates);
//! * **Fig 5** — RP pipeline-stall attribution (memory / sync / …);
//! * **Fig 6** — intermediate-variable-to-on-chip-storage ratios and the
//!   (small) benefit of larger on-chip storage;
//! * **Fig 7** — the (small) benefit of more off-chip bandwidth.
//!
//! The model is *structural*: every number derives from the op census of
//! [`capsnet::census`] lowered to a realistic kernel sequence (unfused
//! PyTorch-style broadcast/reduce kernels for the RP, im2col+GEMM for the
//! convolutions) and a small set of device coefficients documented on
//! [`GpuModelParams`], held constant across every figure. The figures it
//! reproduces, beside the paper's numbers, are printed by `cargo run
//! --release -p pim-bench --bin paper`.
//!
//! # Example
//!
//! ```
//! use capsnet::{CapsNetSpec, NetworkCensus};
//! use gpu_sim::{GpuSpec, GpuTimingModel};
//!
//! let census = NetworkCensus::from_spec(&CapsNetSpec::mnist(), 100).unwrap();
//! let model = GpuTimingModel::new(GpuSpec::p100());
//! let times = model.network_times(&census);
//! // Routing dominates CapsNet inference on GPUs (Fig 4).
//! assert!(times.rp / times.total() > 0.5);
//! ```

mod energy;
mod kernels;
mod specs;
mod timing;

pub use energy::GpuEnergyModel;
pub use kernels::{lower_layer, lower_rp, KernelClass, KernelProfile, Operand};
pub use specs::{GpuModelParams, GpuSpec, MemoryKind, MemorySpec};
pub use timing::{GpuTimingModel, NetworkTimes, RpGpuResult, StallBreakdown};
