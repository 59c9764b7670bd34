//! The PIM-CapsNet benchmark suite (paper Table 1), synthetic datasets and
//! the Table 5 accuracy harness.
//!
//! The paper evaluates 12 CapsNet configurations over four datasets (MNIST,
//! CIFAR10, EMNIST, SVHN). The datasets themselves are not redistributable
//! inside this reproduction, so [`synth`] provides deterministic synthetic
//! image sets and [`accuracy`] builds *teacher-labeled* classification
//! tasks: a seeded CapsNet's exact-FP32 predictions define ground truth,
//! and calibrated label noise reproduces each benchmark's reported baseline
//! ("Origin") accuracy. The quantity Table 5 actually studies — the
//! accuracy perturbation caused by the PE's approximate special functions,
//! and its recovery — is genuinely emergent.

pub mod accuracy;
pub mod chaos;
pub mod drive;
pub mod persist;
pub mod quant_gate;
pub mod report;
pub mod rollout;
pub mod soak;
mod suite;
pub mod synth;
pub mod traffic;
pub mod zipf;

pub use suite::{benchmarks, Benchmark, Dataset};
