//! Simplified Expectation-Maximization routing (Hinton, Sabour & Frosst,
//! "Matrix capsules with EM routing", 2018), adapted to vector capsules.
//!
//! Each high-level capsule is a diagonal Gaussian over vote vectors; the
//! E-step redistributes assignment probabilities `R_ij` by posterior
//! responsibility, the M-step refits means/variances and an activation.
//! The output capsule is the fitted mean scaled by the activation so that
//! norm-based classification works identically to dynamic routing.
//!
//! The paper's point (§2.2 Summary) is that all RP algorithms share the
//! execution pattern — all-to-all compute, per-iteration aggregations over
//! L / H / batch, massive intermediates — so the PIM design applies across
//! them. This implementation exhibits exactly those patterns.
//!
//! Every sample routes on its own responsibilities, so the core is
//! sample-major: all M/E iterations, the final M-step and the output scale
//! of one sample run before the next sample starts, while that sample's
//! votes are cache-resident, and the Gaussian scratch holds one sample.

use pim_tensor::Tensor;

use crate::backend::MathBackend;
use crate::error::CapsNetError;
use crate::routing::{validate_u_hat, Routed, RoutingOutput, RoutingScratch};

/// Variance floor keeping the Gaussians well-conditioned.
const SIGMA_FLOOR: f32 = 1e-4;
/// Inverse temperature of the activation logistic.
const LAMBDA: f32 = 1.0;
/// Activation benefit constant (`β_a` stand-in).
const BETA_A: f32 = 2.0;

/// Runs EM routing over prediction vectors (votes) `û` of shape
/// `[B, L, H, C_H]` on one thread, with caller-owned scratch.
///
/// Returns high-level capsules `[B, H, C_H]` (mean scaled by activation) and
/// per-sample assignment coefficients `[B, L, H]`. A warm scratch makes the
/// routing itself allocation-free (only the returned output tensors are
/// materialized fresh).
///
/// This is the serial reference: the layer path
/// ([`crate::layers::CapsLayer::forward_into`]) shards the batch across
/// cores and is checked bitwise against it.
///
/// Generic over the backend: concrete backends monomorphize the E/M steps
/// with the special functions inlined; `&dyn MathBackend` still works and
/// produces bit-identical results.
///
/// # Errors
///
/// Returns [`CapsNetError::InputMismatch`] if `u_hat` is not rank 4 or has
/// a zero-sized `L` / `H` / `C_H`, or [`CapsNetError::InvalidSpec`] for
/// zero iterations.
// LINT-ALLOW(R6): the serial EM reference the sharded layer path is checked against bitwise.
pub fn em_routing_with<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    backend: &B,
    scratch: &mut RoutingScratch,
) -> Result<RoutingOutput, CapsNetError> {
    let dims = validate_u_hat(u_hat, iterations)?;
    RoutingOutput::routed(dims, false, iterations, |out| {
        em_routing_core(u_hat.as_slice(), dims, iterations, backend, scratch, out);
    })
}

/// The monomorphized EM inner loop: routes `uh` (`[B, L, H, C_H]`
/// row-major, pre-validated dims) into `out` — `v` (activation-scaled
/// means) and the responsibilities (`[B, L, H]`) are written in full,
/// their previous contents never read.
/// Sample-major, as the module docs describe.
pub(crate) fn em_routing_core<B: MathBackend + ?Sized>(
    uh: &[f32],
    (nb, nl, nh, ch): (usize, usize, usize, usize),
    iterations: usize,
    backend: &B,
    scratch: &mut RoutingScratch,
    out: Routed<'_>,
) {
    debug_assert_eq!(uh.len(), nb * nl * nh * ch);
    let Routed { v, coeff: r } = out;
    debug_assert_eq!(v.len(), nb * nh * ch);
    debug_assert_eq!(r.len(), nb * nl * nh);
    let block = nh * ch;
    // The M-step overwrites μ, σ² and a before the E-step reads them, so
    // these fills only size the buffers.
    RoutingScratch::fill_buf(&mut scratch.mu, block, 0.0);
    RoutingScratch::fill_buf(&mut scratch.sigma_sq, block, 1.0);
    RoutingScratch::fill_buf(&mut scratch.act, nh, 0.5);
    RoutingScratch::fill_buf(&mut scratch.log_p, nh, 0.0);
    RoutingScratch::fill_buf(&mut scratch.r_sum, nh, 0.0);
    let gaussians = &mut Gaussians {
        mu: &mut scratch.mu,
        sigma_sq: &mut scratch.sigma_sq,
        act: &mut scratch.act,
    };
    let samples = uh
        .chunks_exact(nl * block)
        .zip(r.chunks_exact_mut(nl * nh))
        .zip(v.chunks_exact_mut(block));
    for ((u_k, r_k), v_k) in samples {
        r_k.fill(1.0 / nh as f32);
        for _ in 0..iterations {
            m_step(u_k, r_k, gaussians, &mut scratch.r_sum, nl, ch, backend);
            e_step(u_k, r_k, gaussians, &mut scratch.log_p, ch, backend);
        }
        // One final M-step so the output reflects the last responsibilities.
        m_step(u_k, r_k, gaussians, &mut scratch.r_sum, nl, ch, backend);

        // v_j = a_j * mu_j — activation-scaled mean, one scale per capsule.
        for ((&a, mu_j), v_j) in gaussians
            .act
            .iter()
            .zip(gaussians.mu.chunks_exact(ch))
            .zip(v_k.chunks_exact_mut(ch))
        {
            backend.scale_add(a, mu_j, 0.0, v_j);
        }
    }
}

/// One sample's fitted Gaussians: means and variances (`[H, C_H]`) and
/// activations (`[H]`), scratch-backed.
struct Gaussians<'a> {
    mu: &'a mut [f32],
    sigma_sq: &'a mut [f32],
    act: &'a mut [f32],
}

/// M-step: refit each H capsule's Gaussian from one sample's weighted
/// votes `u` (`[L, H, C_H]`) and responsibilities `r` (`[L, H]`).
///
/// Restructured around the backend's block kernels: per L capsule `i` the
/// responsibility-weighted mean and variance accumulations each stream one
/// contiguous `[H, C_H]` block (`weighted_sum_block` / `sq_diff_axpy_block`
/// — the same Eq 2-shaped GEMM pattern as dynamic routing), then the
/// normalizations are row-wide `div_slice` calls. Per accumulated element
/// the operations run in the same ascending-`i` order as the original
/// scalar nest, so backends using the default (scalar) kernels produce
/// bit-identical results.
fn m_step<B: MathBackend + ?Sized>(
    u: &[f32],
    r: &[f32],
    g: &mut Gaussians<'_>,
    r_sum: &mut [f32],
    nl: usize,
    ch: usize,
    backend: &B,
) {
    let nh = r_sum.len();
    let block = nh * ch;
    let rows = || r.chunks_exact(nh).zip(u.chunks_exact(block));

    // Σ_i r_ij per high-level capsule (one vector add per L row).
    r_sum.fill(0.0);
    for r_row in r.chunks_exact(nh) {
        backend.axpy(1.0, r_row, r_sum);
    }

    // Mean: accumulate r-weighted votes, then normalize row-wise.
    g.mu.fill(0.0);
    for (r_row, u_block) in rows() {
        backend.weighted_sum_block(r_row, u_block, g.mu, ch);
    }
    for (mu_row, &sum) in g.mu.chunks_exact_mut(ch).zip(r_sum.iter()) {
        backend.div_slice(mu_row, sum.max(1e-12));
    }

    // Variance: accumulate r-weighted squared deviations from the mean,
    // normalize, floor — and fold the per-capsule cost on the way.
    g.sigma_sq.fill(0.0);
    for (r_row, u_block) in rows() {
        backend.sq_diff_axpy_block(r_row, u_block, g.mu, g.sigma_sq, ch);
    }
    let fits = g
        .sigma_sq
        .chunks_exact_mut(ch)
        .zip(g.act.iter_mut())
        .zip(r_sum.iter());
    for ((sig_row, act), &sum) in fits {
        backend.div_slice(sig_row, sum.max(1e-12));
        let mut cost = 0.0f32;
        for var in sig_row.iter_mut() {
            // cost_d ≈ (log σ_d) · r_sum; log via ln(x) = -ln(1/x) is
            // not available on the PE, so the model uses 0.5·(var-1) as
            // a smooth stand-in with the same minimum.
            *var = var.max(SIGMA_FLOOR);
            cost += 0.5 * (*var - 1.0);
        }
        // Activation: logistic of (benefit − cost), scaled by how much
        // mass routed here relative to uniform.
        let mass = backend.div(sum, nl as f32 / nh as f32);
        let logit = LAMBDA * (BETA_A - cost) * mass - BETA_A;
        *act = logistic(logit, backend);
    }
}

/// E-step: recompute one sample's responsibilities `r` (`[L, H]`) from
/// Gaussian likelihoods of its votes `u` (`[L, H, C_H]`).
///
/// `log_p` is caller-owned scratch of length `H` (so the step allocates
/// nothing). Per L capsule the quadratic forms stream one contiguous
/// `[H, C_H]` block through the backend's `mahalanobis_block` kernel, the
/// exponentials are one fused `exp_slice`, and the normalization one
/// `div_slice` — per element the same operation sequence as the original
/// scalar nest, so default-kernel backends are bit-identical.
fn e_step<B: MathBackend + ?Sized>(
    u: &[f32],
    r: &mut [f32],
    g: &Gaussians<'_>,
    log_p: &mut [f32],
    ch: usize,
    backend: &B,
) {
    let nh = log_p.len();
    for (u_block, row) in u.chunks_exact(nh * ch).zip(r.chunks_exact_mut(nh)) {
        // Unnormalized log posterior per j: one row-wise quadratic-form
        // block, then shift by the max and exponentiate in one pass.
        backend.mahalanobis_block(u_block, g.mu, g.sigma_sq, log_p, ch);
        // log(a_j) folded in multiplicatively after exp; keep the
        // quadratic in log space for stability.
        for lp in log_p.iter_mut() {
            *lp *= -0.5;
        }
        let mx = log_p.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for lp in log_p.iter_mut() {
            *lp -= mx;
        }
        backend.exp_slice(log_p);
        let mut denom = 0.0f32;
        for ((x, &a), &e) in row.iter_mut().zip(g.act.iter()).zip(log_p.iter()) {
            let p = a * e;
            *x = p;
            denom += p;
        }
        backend.div_slice(row, denom.max(1e-12));
    }
}

#[inline]
fn logistic<B: MathBackend + ?Sized>(x: f32, backend: &B) -> f32 {
    backend.div(1.0, 1.0 + backend.exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproxMath, ExactMath};

    /// [`em_routing_with`] on a fresh scratch.
    fn route<B: MathBackend + ?Sized>(
        u: &Tensor,
        iterations: usize,
        backend: &B,
    ) -> Result<RoutingOutput, CapsNetError> {
        em_routing_with(u, iterations, backend, &mut RoutingScratch::new())
    }

    fn votes(nb: usize, nl: usize, nh: usize, ch: usize, seed: u64) -> Tensor {
        Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, seed)
    }

    #[test]
    fn shapes_and_finiteness() {
        let u = votes(2, 8, 3, 4, 1);
        let out = route(&u, 3, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[2, 3, 4]);
        assert_eq!(out.coefficients.shape().dims(), &[2, 8, 3]);
        assert!(out.v.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn responsibilities_are_distributions() {
        let u = votes(1, 6, 4, 3, 2);
        let out = route(&u, 3, &ExactMath).unwrap();
        for row in out.coefficients.as_slice().chunks(4) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            assert!(row.iter().all(|&x| (0.0..=1.0 + 1e-5).contains(&x)));
        }
    }

    #[test]
    fn tight_cluster_wins_assignment() {
        // All L capsules vote identically for H capsule 0 and noisily for
        // H capsule 1 — responsibilities should favour capsule 0.
        let (nb, nl, nh, ch) = (1, 10, 2, 4);
        let mut data = Tensor::uniform(&[nb, nl, nh, ch], -1.0, 1.0, 3).into_vec();
        for i in 0..nl {
            for d in 0..ch {
                data[(i * nh) * ch + d] = 0.7;
            }
        }
        let u = Tensor::from_vec(data, &[nb, nl, nh, ch]).unwrap();
        let out = route(&u, 3, &ExactMath).unwrap();
        let r = out.coefficients.as_slice();
        let mean_r0: f32 = (0..nl).map(|i| r[i * nh]).sum::<f32>() / nl as f32;
        assert!(mean_r0 > 0.5, "tight cluster got mean R {mean_r0}");
    }

    #[test]
    fn deterministic() {
        let u = votes(2, 5, 3, 4, 4);
        let a = route(&u, 3, &ExactMath).unwrap();
        let b = route(&u, 3, &ExactMath).unwrap();
        assert_eq!(a.v, b.v);
    }

    #[test]
    fn approx_backend_stays_close() {
        let u = votes(1, 12, 4, 6, 5);
        let exact = route(&u, 3, &ExactMath).unwrap();
        let approx = route(&u, 3, &ApproxMath::with_recovery()).unwrap();
        for (a, e) in approx.v.as_slice().iter().zip(exact.v.as_slice()) {
            assert!((a - e).abs() < 0.08, "approx {a} vs exact {e}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(route(&Tensor::zeros(&[2, 3, 4]), 3, &ExactMath).is_err());
        let u = votes(1, 2, 2, 2, 6);
        assert!(route(&u, 0, &ExactMath).is_err());
    }
}
