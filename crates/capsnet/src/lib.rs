//! Capsule Network algorithm substrate for the PIM-CapsNet reproduction.
//!
//! Implements the full CapsNet inference pipeline of §2 of the paper:
//!
//! * the **encoder** — Conv layer(s), PrimaryCaps layer, and a final Caps
//!   layer whose input/output capsules are connected by the **routing
//!   procedure** (RP);
//! * the **decoder** — fully-connected reconstruction layers;
//! * two routing algorithms: **dynamic routing** (Algorithm 1, with the
//!   batch-shared routing coefficients the paper assumes) and a simplified
//!   **EM routing**, to back the paper's claim that the PIM design
//!   generalizes across RP algorithms;
//! * a pluggable [`MathBackend`] so the special functions (`exp`,
//!   `1/sqrt`, division) can be computed exactly (GPU baseline) or with the
//!   PE bit-level approximations of §5.2.2 (via [`pim_approx`]);
//! * an **op census** ([`census`]) that derives, from a network
//!   configuration alone, the exact FLOP/byte/special-function counts of
//!   every RP equation and every layer — the single source of truth that
//!   drives both the GPU timing model and the HMC simulator.
//!
//! # Example
//!
//! ```
//! use capsnet::{CapsNetSpec, CapsNet, ExactMath};
//! use pim_tensor::Tensor;
//!
//! # fn main() -> Result<(), capsnet::CapsNetError> {
//! let spec = CapsNetSpec::tiny_for_tests();
//! let net = CapsNet::seeded(&spec, 42)?;
//! let images = Tensor::uniform(&[2, 1, spec.input_hw.0, spec.input_hw.1], 0.0, 1.0, 7);
//! let out = net.forward(&images, &ExactMath)?;
//! assert_eq!(out.class_capsules.shape().dims(), &[2, spec.h_caps, spec.ch_dim]);
//! # Ok(())
//! # }
//! ```

mod backend;
pub mod census;
mod config;
mod error;
pub mod layers;
mod model;
pub mod routing;
mod squash;
mod weights;

pub use backend::{ApproxMath, ExactMath, MathBackend};
pub use census::{EquationProfile, IntermediateSizes, NetworkCensus, RpCensus, RpEquation};
pub use config::{CapsNetSpec, RoutingAlgorithm};
pub use error::CapsNetError;
pub use model::{
    CapsNet, ForwardArena, ForwardOutput, ForwardView, WeightSource, WeightStorageCensus,
};
pub use weights::{WeightRef, WeightView};
// The routing drivers at the crate root: the serving layer (and any other
// embedder) picks an execution strategy without reaching into the module
// tree.
pub use routing::{
    dynamic_routing, dynamic_routing_parallel, dynamic_routing_with, em_routing,
    em_routing_parallel, em_routing_with, RoutingArena, RoutingScratch,
};
pub use squash::{squash_in_place, squash_into};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CapsNetError>;

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// The serving layer shares models across `std::thread::scope` workers
    /// and moves arenas into them; these bounds are API guarantees, not
    /// accidents of the current field types.
    #[test]
    fn serving_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CapsNet>();
        assert_send_sync::<CapsNetSpec>();
        assert_send_sync::<ForwardArena>();
        assert_send_sync::<RoutingScratch>();
        assert_send_sync::<ExactMath>();
        assert_send_sync::<ApproxMath>();
    }
}
