//! **PIM-CapsNet** — the paper's primary contribution (HPCA 2020).
//!
//! A hybrid GPU + processing-in-memory architecture for Capsule Network
//! inference: the GPU keeps the CNN-type layers (Conv / PrimaryCaps / FC),
//! while the routing procedure (RP) executes inside a Hybrid Memory Cube on
//! per-vault PE arrays. This crate implements the architecture's brains:
//!
//! * [`distribution`] — the inter-vault workload distributor (§5.1):
//!   Table 2's multi-dimensional parallelism analysis, the workload (`E`)
//!   and inter-vault-communication (`M`) models of Eqs 6–12, and the
//!   execution score `S = 1/(αE + βM)` that picks the distribution
//!   dimension offline (Fig 18);
//! * [`intra`] — the intra-vault design (§5.2): splitting each equation's
//!   sub-operations over 16 PEs per vault and lowering them to PE micro-op
//!   programs (with the §5.2.2 approximated special functions), plus the
//!   §5.3.1 addressing modes that determine per-bank traffic;
//! * [`rmas`] — the runtime memory access scheduler (§5.3.2, Eq 15)
//!   arbitrating GPU vs PE requests;
//! * [`pipeline`] — batch pipelining of host layers against in-memory RP
//!   (§4);
//! * [`engine`] — the design-variant evaluator producing every comparison
//!   point of §6 (Baseline, GPU-ICP, PIM-CapsNet, PIM-Intra, PIM-Inter,
//!   RMAS-PIM, RMAS-GPU, All-in-PIM);
//! * [`overhead`] — §6.5's area / power / thermal accounting.
//!
//! # Example
//!
//! ```
//! use capsnet::{CapsNetSpec, NetworkCensus};
//! use pim_capsnet::{evaluate, DesignVariant, Platform};
//!
//! let census = NetworkCensus::from_spec(&CapsNetSpec::mnist(), 100).unwrap();
//! let platform = Platform::paper_default();
//! let base = evaluate(&census, &platform, DesignVariant::Baseline);
//! let pim = evaluate(&census, &platform, DesignVariant::PimCapsNet);
//! // The paper's headline: PIM-CapsNet beats the GPU baseline on RP time.
//! assert!(pim.rp_time_s < base.rp_time_s);
//! ```

pub mod distribution;
pub mod engine;
pub mod intra;
pub mod overhead;
pub mod pipeline;
pub mod rmas;

pub use distribution::{
    choose_dimension, execution_score, DeviceCoeffs, Dimension, DistributionModel,
};
pub use engine::{evaluate, evaluate_with_dimension, DesignVariant, EvalResult, Platform};
pub use intra::AddressingMode;
pub use overhead::{AreaReport, OverheadModel, PowerReport};
pub use rmas::{RmasInputs, RmasPolicy};
