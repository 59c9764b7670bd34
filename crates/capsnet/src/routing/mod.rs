//! The routing procedure (RP) — §2.2 of the paper.
//!
//! Routing inherits features from `L` low-level capsules into `H` high-level
//! capsules without the information loss of pooling. Two algorithms are
//! provided behind one interface:
//!
//! * [`dynamic_routing_with`] — Algorithm 1 (Sabour et al. 2017), with
//!   per-sample routing coefficients (the original formulation, and what
//!   every serving workload runs) or the paper's batch-shared ones
//!   (`b_{ij}` accumulates agreement over the whole batch, Eq 4);
//! * [`em_routing_with`] — a simplified Expectation-Maximization routing
//!   (Hinton et al. 2018), demonstrating that the in-memory optimizations
//!   apply to "different RP algorithms with simple adjustment".
//!
//! Both run on one thread: they are the serial reference. Every forward
//! routes through the layer instead
//! ([`crate::layers::CapsLayer::forward_into`] into a [`RoutingArena`]),
//! which shards independent samples across cores and is checked bitwise
//! against them.

mod dynamic;
mod em;
mod parallel;
mod scratch;

pub use dynamic::dynamic_routing_with;
pub use em::em_routing_with;
pub(crate) use parallel::Procedure;
pub use parallel::RoutingArena;
pub use scratch::RoutingScratch;

use pim_tensor::Tensor;

use crate::error::CapsNetError;

/// The output windows a routing core fills: the high-level capsules `v`
/// (`[B, H, C_H]`) and the final coefficients (`[L, H]` for batch-shared
/// dynamic routing, `[B, L, H]` otherwise). Both are written in full and
/// their previous contents never read, so a sample shard can be handed
/// its window of a larger, reused buffer.
pub(crate) struct Routed<'a> {
    pub v: &'a mut [f32],
    pub coeff: &'a mut [f32],
}

/// Validates a `[B, L, H, C_H]` prediction-vector tensor and a routing
/// iteration count, returning the unpacked dims.
///
/// Zero-sized `L`/`H`/`C_H` dimensions are rejected (the inner loops'
/// chunked traversals are ill-defined for them); an empty batch (`B = 0`)
/// is fine and routes to empty outputs.
pub(crate) fn validate_u_hat(
    u_hat: &Tensor,
    iterations: usize,
) -> Result<(usize, usize, usize, usize), CapsNetError> {
    let dims = u_hat.shape().dims();
    if dims.len() != 4 || dims[1..].contains(&0) {
        return Err(CapsNetError::InputMismatch {
            expected: "[B, L, H, C_H] with L, H, C_H > 0".into(),
            actual: dims.to_vec(),
        });
    }
    if iterations == 0 {
        return Err(CapsNetError::InvalidSpec(
            "routing needs at least one iteration".into(),
        ));
    }
    Ok((dims[0], dims[1], dims[2], dims[3]))
}

/// The result of a routing procedure.
#[derive(Debug, Clone)]
pub struct RoutingOutput {
    /// High-level capsules `v`, shape `[B, H, C_H]`.
    pub v: Tensor,
    /// Final routing coefficients.
    ///
    /// Dynamic routing with batch-shared coefficients returns shape
    /// `[L, H]`; per-sample variants return `[B, L, H]`.
    pub coefficients: Tensor,
    /// Number of routing iterations executed.
    pub iterations: usize,
}

impl RoutingOutput {
    /// Allocates the outputs for pre-validated `dims`, lets `route` fill
    /// them, and wraps them as tensors (`[L, H]` coefficients when
    /// `shared_coefficients`, `[B, L, H]` otherwise).
    pub(crate) fn routed(
        (nb, nl, nh, ch): (usize, usize, usize, usize),
        shared_coefficients: bool,
        iterations: usize,
        route: impl FnOnce(Routed<'_>),
    ) -> Result<Self, CapsNetError> {
        let coeff_dims: &[usize] = if shared_coefficients {
            &[nl, nh]
        } else {
            &[nb, nl, nh]
        };
        let mut v = vec![0.0f32; nb * nh * ch];
        let mut coeff = vec![0.0f32; coeff_dims.iter().product()];
        route(Routed {
            v: &mut v,
            coeff: &mut coeff,
        });
        Ok(RoutingOutput {
            v: Tensor::from_vec(v, &[nb, nh, ch])?,
            coefficients: Tensor::from_vec(coeff, coeff_dims)?,
            iterations,
        })
    }
}
