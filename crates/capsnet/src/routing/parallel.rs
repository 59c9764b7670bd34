//! Sample-sharded routing driver.
//!
//! With per-sample routing coefficients (`batch_shared = false`, the
//! original Sabour et al. formulation and the configuration the accuracy
//! harness uses) every sample routes independently, so a batch shards
//! perfectly across cores. The driver reuses the work-size heuristics of
//! `pim_tensor::par` (the same ones gating the threaded matmul) to decide
//! when spawning is worth it, hands each shard its own [`RoutingScratch`]
//! and its own window of the output buffers — results are **bit-identical**
//! to the serial path because per-sample routing never mixes information
//! across samples (the equivalence suite asserts this).
//!
//! One routine, [`Procedure::route`], serves every caller: the layer's
//! arena path ([`RoutingArena`]), the layer's owning path and the public
//! `*_parallel` entry points.

use pim_tensor::par::{for_each_shard, plan_threads};
use pim_tensor::Tensor;

use crate::backend::MathBackend;
use crate::config::RoutingAlgorithm;
use crate::error::CapsNetError;
use crate::routing::dynamic::dynamic_routing_core;
use crate::routing::em::em_routing_core;
use crate::routing::{validate_u_hat, Routed, RoutingOutput, RoutingScratch};

/// Which routing procedure to run, as a Caps layer configures it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Procedure {
    pub algorithm: RoutingAlgorithm,
    pub iterations: usize,
    pub batch_shared: bool,
}

impl Procedure {
    /// `true` when one `[L, H]` coefficient matrix couples the whole batch
    /// (batch-shared dynamic routing); otherwise every sample routes on
    /// its own `[L, H]` slice of `[B, L, H]` and the batch can shard.
    pub fn shared_coefficients(&self) -> bool {
        self.algorithm == RoutingAlgorithm::Dynamic && self.batch_shared
    }

    /// Per-sample multiply-add-equivalents of one invocation. Dynamic:
    /// Eq 2 + Eq 4 dominate, two `L·H·C_H` passes per iteration. EM: the
    /// M-step's mean+variance fits and the E-step's quadratic forms are
    /// each `L·H·C_H` passes.
    fn work_per_sample(&self, nl: usize, nh: usize, ch: usize) -> usize {
        match self.algorithm {
            RoutingAlgorithm::Dynamic => self.iterations.saturating_mul(nl * nh * (2 * ch + 4)),
            RoutingAlgorithm::Em => (self.iterations + 1).saturating_mul(nl * nh * (4 * ch + 8)),
        }
    }

    fn core<B: MathBackend + ?Sized>(
        &self,
        uh: &[f32],
        dims: (usize, usize, usize, usize),
        backend: &B,
        scratch: &mut RoutingScratch,
        out: Routed<'_>,
    ) {
        match self.algorithm {
            RoutingAlgorithm::Dynamic => dynamic_routing_core(
                uh,
                dims,
                self.iterations,
                self.batch_shared,
                backend,
                scratch,
                out,
            ),
            RoutingAlgorithm::Em => {
                em_routing_core(uh, dims, self.iterations, backend, scratch, out)
            }
        }
    }

    /// Routes `uh` (`[B, L, H, C_H]`, pre-validated `dims`) into `out`.
    ///
    /// When samples route independently the batch splits into contiguous
    /// chunks, one per planned thread, each with its own scratch (grown
    /// into `shards` on first use) and its own window of `out` — routing a
    /// chunk as a mini-batch produces exactly the per-sample results of
    /// the full batch, so there is no reduction step.
    pub fn route<B: MathBackend + ?Sized>(
        &self,
        uh: &[f32],
        dims: (usize, usize, usize, usize),
        backend: &B,
        shards: &mut Vec<RoutingScratch>,
        out: Routed<'_>,
    ) {
        let (nb, nl, nh, ch) = dims;
        let threads = if self.shared_coefficients() {
            1
        } else {
            plan_threads(nb, self.work_per_sample(nl, nh, ch))
        };
        if shards.len() < threads {
            shards.resize_with(threads, RoutingScratch::new);
        }
        if threads == 1 {
            return self.core(uh, dims, backend, &mut shards[0], out);
        }
        // More than one thread was planned, so the work — and with it
        // every extent below — is nonzero.
        let per = nb.div_ceil(threads);
        let windows = uh
            .chunks(per * nl * nh * ch)
            .zip(out.v.chunks_mut(per * nh * ch))
            .zip(out.coeff.chunks_mut(per * nl * nh))
            .zip(shards.iter_mut());
        for_each_shard(windows, |(((uh, v), coeff), scratch)| {
            let samples = v.len() / (nh * ch);
            let out = Routed { v, coeff };
            self.core(uh, (samples, nl, nh, ch), backend, scratch, out);
        });
    }

    /// [`Self::route`] into freshly allocated output tensors.
    pub fn route_owned<B: MathBackend + ?Sized>(
        &self,
        u_hat: &Tensor,
        backend: &B,
    ) -> Result<RoutingOutput, CapsNetError> {
        let dims = validate_u_hat(u_hat, self.iterations)?;
        RoutingOutput::routed(dims, self.shared_coefficients(), self.iterations, |out| {
            self.route(u_hat.as_slice(), dims, backend, &mut Vec::new(), out);
        })
    }
}

/// Caller-owned routing state for the allocation-free layer path: one
/// [`RoutingScratch`] per sample shard plus the routed outputs. Keep one
/// per thread that runs forward passes; every buffer grows to the largest
/// problem seen and is then reused.
#[derive(Debug, Clone, Default)]
pub struct RoutingArena {
    shards: Vec<RoutingScratch>,
    v: Vec<f32>,
    coefficients: Vec<f32>,
}

impl RoutingArena {
    /// The routed high-level capsules `v` (`[B, H, C_H]` row-major) of the
    /// most recent pass.
    pub fn v(&self) -> &[f32] {
        &self.v
    }

    /// The final routing coefficients of the most recent pass: `[L, H]`
    /// for batch-shared dynamic routing, `[B, L, H]` otherwise (for EM
    /// routing, the responsibilities).
    pub fn coefficients(&self) -> &[f32] {
        &self.coefficients
    }

    /// Bytes of heap capacity the arena holds.
    pub fn capacity_bytes(&self) -> usize {
        let shards: usize = self.shards.iter().map(|s| s.capacity_bytes()).sum();
        shards + (self.v.capacity() + self.coefficients.capacity()) * std::mem::size_of::<f32>()
    }

    /// Routes `uh` (`[B, L, H, C_H]`, pre-validated `dims`) under `procedure`,
    /// leaving the outputs readable through [`Self::v`] and
    /// [`Self::coefficients`].
    pub(crate) fn route<B: MathBackend + ?Sized>(
        &mut self,
        procedure: Procedure,
        uh: &[f32],
        dims: (usize, usize, usize, usize),
        backend: &B,
    ) {
        let (nb, nl, nh, ch) = dims;
        let coeff_rows = if procedure.shared_coefficients() {
            nl
        } else {
            nb * nl
        };
        // No fill: the cores overwrite both in full.
        self.v.resize(nb * nh * ch, 0.0);
        self.coefficients.resize(coeff_rows * nh, 0.0);
        let out = Routed {
            v: &mut self.v,
            coeff: &mut self.coefficients,
        };
        procedure.route(uh, dims, backend, &mut self.shards, out);
    }
}

/// Dynamic routing with **per-sample** coefficients, sharded across cores.
///
/// Equivalent to `dynamic_routing(u_hat, iterations, false, backend)` —
/// bit-identical outputs, including the `[B, L, H]` coefficient layout —
/// but independent samples run on separate threads when the batch is large
/// enough to amortize spawning (otherwise it falls through to the serial
/// core).
///
/// # Errors
///
/// Returns [`CapsNetError::InputMismatch`] if `u_hat` is not rank 4, or
/// [`CapsNetError::InvalidSpec`] for zero iterations.
pub fn dynamic_routing_parallel<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    backend: &B,
) -> Result<RoutingOutput, CapsNetError> {
    Procedure {
        algorithm: RoutingAlgorithm::Dynamic,
        iterations,
        batch_shared: false,
    }
    .route_owned(u_hat, backend)
}

/// EM routing sharded across cores.
///
/// Equivalent to `em_routing(u_hat, iterations, backend)` — bit-identical
/// outputs — but independent samples run on separate threads when the
/// batch is large enough to amortize spawning.
///
/// # Errors
///
/// Returns [`CapsNetError::InputMismatch`] if `u_hat` is not rank 4, or
/// [`CapsNetError::InvalidSpec`] for zero iterations.
pub fn em_routing_parallel<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    backend: &B,
) -> Result<RoutingOutput, CapsNetError> {
    Procedure {
        algorithm: RoutingAlgorithm::Em,
        iterations,
        batch_shared: false,
    }
    .route_owned(u_hat, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproxMath, ExactMath};
    use crate::routing::{dynamic_routing, em_routing};

    fn uhat(nb: usize, nl: usize, nh: usize, ch: usize, seed: u64) -> Tensor {
        Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, seed)
    }

    #[test]
    fn dynamic_parallel_matches_serial_bitwise() {
        // Large enough that plan_threads actually shards on multicore hosts
        // (total work exceeds PAR_MIN_WORK).
        let u = uhat(32, 208, 8, 12, 1);
        let serial = dynamic_routing(&u, 3, false, &ExactMath).unwrap();
        let parallel = dynamic_routing_parallel(&u, 3, &ExactMath).unwrap();
        assert_eq!(serial.v, parallel.v);
        assert_eq!(serial.coefficients, parallel.coefficients);
    }

    #[test]
    fn em_parallel_matches_serial_bitwise() {
        let u = uhat(32, 144, 6, 8, 2);
        let serial = em_routing(&u, 3, &ExactMath).unwrap();
        let parallel = em_routing_parallel(&u, 3, &ExactMath).unwrap();
        assert_eq!(serial.v, parallel.v);
        assert_eq!(serial.coefficients, parallel.coefficients);
    }

    #[test]
    fn small_batches_fall_through_to_serial() {
        let u = uhat(2, 4, 3, 4, 3);
        let serial = dynamic_routing(&u, 2, false, &ExactMath).unwrap();
        let parallel = dynamic_routing_parallel(&u, 2, &ExactMath).unwrap();
        assert_eq!(serial.v, parallel.v);
        assert_eq!(serial.coefficients, parallel.coefficients);
    }

    #[test]
    fn parallel_works_through_dyn_backend() {
        let u = uhat(8, 32, 5, 8, 4);
        let boxed: &dyn MathBackend = &ApproxMath::with_recovery();
        let via_dyn = dynamic_routing_parallel(&u, 3, boxed).unwrap();
        let via_mono = dynamic_routing_parallel(&u, 3, &ApproxMath::with_recovery()).unwrap();
        assert_eq!(via_dyn.v, via_mono.v);
    }

    #[test]
    fn zero_sized_dimensions_error_instead_of_panicking() {
        // L*H work is large enough to request threads, but C_H = 0 makes
        // the per-sample stride zero — every driver must reject it with a
        // typed error (the inner loops cannot traverse zero-sized chunks).
        let u = Tensor::zeros(&[16, 512, 128, 0]);
        assert!(dynamic_routing(&u, 3, false, &ExactMath).is_err());
        assert!(dynamic_routing_parallel(&u, 3, &ExactMath).is_err());
        assert!(em_routing_parallel(&u, 3, &ExactMath).is_err());
        // Empty batches are fine and produce empty outputs.
        let empty = Tensor::zeros(&[0, 4, 3, 2]);
        let out = dynamic_routing_parallel(&empty, 3, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[0, 3, 2]);
        assert_eq!(
            out.v,
            dynamic_routing(&empty, 3, false, &ExactMath).unwrap().v
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(dynamic_routing_parallel(&Tensor::zeros(&[2, 3, 4]), 3, &ExactMath).is_err());
        let u = uhat(1, 2, 2, 2, 5);
        assert!(em_routing_parallel(&u, 0, &ExactMath).is_err());
    }
}
