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
/// `[B, L, H, C_H]`.
///
/// Returns high-level capsules `[B, H, C_H]` (mean scaled by activation) and
/// per-sample assignment coefficients `[B, L, H]`.
///
/// Generic over the backend: concrete backends monomorphize the E/M steps
/// with the special functions inlined; `&dyn MathBackend` still works and
/// produces bit-identical results.
///
/// Allocates its scratch internally; steady-state callers should hold a
/// [`RoutingScratch`] and use [`em_routing_with`].
///
/// # Errors
///
/// Returns [`CapsNetError::InputMismatch`] if `u_hat` is not rank 4, or
/// [`CapsNetError::InvalidSpec`] for zero iterations.
pub fn em_routing<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    backend: &B,
) -> Result<RoutingOutput, CapsNetError> {
    let mut scratch = RoutingScratch::new();
    em_routing_with(u_hat, iterations, backend, &mut scratch)
}

/// [`em_routing`] with caller-owned scratch: a warm scratch makes the
/// routing itself allocation-free (only the returned output tensors are
/// materialized fresh).
///
/// # Errors
///
/// Same conditions as [`em_routing`].
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
    r.fill(1.0 / nh as f32);
    RoutingScratch::fill_buf(&mut scratch.mu, nb * nh * ch, 0.0);
    RoutingScratch::fill_buf(&mut scratch.sigma_sq, nb * nh * ch, 1.0);
    RoutingScratch::fill_buf(&mut scratch.act, nb * nh, 0.5);
    RoutingScratch::fill_buf(&mut scratch.log_p, nh, 0.0);
    RoutingScratch::fill_buf(&mut scratch.r_sum, nh, 0.0);
    let (mu, sigma_sq, act, log_p, r_sum) = (
        &mut scratch.mu,
        &mut scratch.sigma_sq,
        &mut scratch.act,
        &mut scratch.log_p,
        &mut scratch.r_sum,
    );

    for _ in 0..iterations {
        m_step(uh, r, mu, sigma_sq, act, r_sum, nb, nl, nh, ch, backend);
        e_step(uh, r, mu, sigma_sq, act, log_p, nb, nl, nh, ch, backend);
    }
    // One final M-step so the output reflects the last responsibilities.
    m_step(uh, r, mu, sigma_sq, act, r_sum, nb, nl, nh, ch, backend);

    // v_j = a_j * mu_j — activation-scaled mean, one scale per capsule.
    for k in 0..nb {
        for j in 0..nh {
            let a = act[k * nh + j];
            let base = (k * nh + j) * ch;
            backend.scale_add(a, &mu[base..base + ch], 0.0, &mut v[base..base + ch]);
        }
    }
}

/// M-step: refit each H capsule's Gaussian from its weighted votes.
///
/// Restructured around the backend's block kernels: per `(k, i)` pair the
/// responsibility-weighted mean and variance accumulations each stream one
/// contiguous `[H, C_H]` block (`weighted_sum_block` / `sq_diff_axpy_block`
/// — the same Eq 2-shaped GEMM pattern as dynamic routing), then the
/// normalizations are row-wide `div_slice` calls. Per accumulated element
/// the operations run in the same ascending-`i` order as the original
/// scalar nest, so backends using the default (scalar) kernels produce
/// bit-identical results.
#[allow(clippy::too_many_arguments)]
fn m_step<B: MathBackend + ?Sized>(
    uh: &[f32],
    r: &[f32],
    mu: &mut [f32],
    sigma_sq: &mut [f32],
    act: &mut [f32],
    r_sum: &mut [f32],
    nb: usize,
    nl: usize,
    nh: usize,
    ch: usize,
    backend: &B,
) {
    let block = nh * ch;
    for k in 0..nb {
        let mu_block = &mut mu[k * block..(k + 1) * block];
        let sig_block = &mut sigma_sq[k * block..(k + 1) * block];
        let r_sum_row = &mut r_sum[..nh];

        // Σ_i r_ij per high-level capsule (one vector add per L row).
        r_sum_row.fill(0.0);
        for i in 0..nl {
            backend.axpy(1.0, &r[(k * nl + i) * nh..(k * nl + i + 1) * nh], r_sum_row);
        }

        // Mean: accumulate r-weighted votes, then normalize row-wise.
        mu_block.fill(0.0);
        for i in 0..nl {
            let r_row = &r[(k * nl + i) * nh..(k * nl + i + 1) * nh];
            let u_block = &uh[(k * nl + i) * block..(k * nl + i + 1) * block];
            backend.weighted_sum_block(r_row, u_block, mu_block, ch);
        }
        for j in 0..nh {
            let denom = r_sum_row[j].max(1e-12);
            backend.div_slice(&mut mu_block[j * ch..(j + 1) * ch], denom);
        }

        // Variance: accumulate r-weighted squared deviations from the mean,
        // normalize, floor — and fold the per-capsule cost on the way.
        sig_block.fill(0.0);
        for i in 0..nl {
            let r_row = &r[(k * nl + i) * nh..(k * nl + i + 1) * nh];
            let u_block = &uh[(k * nl + i) * block..(k * nl + i + 1) * block];
            backend.sq_diff_axpy_block(r_row, u_block, mu_block, sig_block, ch);
        }
        for j in 0..nh {
            let denom = r_sum_row[j].max(1e-12);
            let sig_row = &mut sig_block[j * ch..(j + 1) * ch];
            backend.div_slice(sig_row, denom);
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
            let mass = backend.div(r_sum_row[j], nl as f32 / nh as f32);
            let logit = LAMBDA * (BETA_A - cost) * mass - BETA_A;
            act[k * nh + j] = logistic(logit, backend);
        }
    }
}

/// E-step: recompute responsibilities from Gaussian likelihoods.
///
/// `log_p` is caller-owned scratch of length `nh` (so the step allocates
/// nothing). Per `(k, i)` pair the quadratic forms stream one contiguous
/// `[H, C_H]` block through the backend's `mahalanobis_block` kernel, the
/// exponentials are one fused `exp_slice`, and the normalization one
/// `div_slice` — per element the same operation sequence as the original
/// scalar nest, so default-kernel backends are bit-identical.
#[allow(clippy::too_many_arguments)]
fn e_step<B: MathBackend + ?Sized>(
    uh: &[f32],
    r: &mut [f32],
    mu: &[f32],
    sigma_sq: &[f32],
    act: &[f32],
    log_p: &mut [f32],
    nb: usize,
    nl: usize,
    nh: usize,
    ch: usize,
    backend: &B,
) {
    let block = nh * ch;
    for k in 0..nb {
        let mu_block = &mu[k * block..(k + 1) * block];
        let sig_block = &sigma_sq[k * block..(k + 1) * block];
        let act_row = &act[k * nh..(k + 1) * nh];
        for i in 0..nl {
            // Unnormalized log posterior per j: one row-wise quadratic-form
            // block, then shift by the max and exponentiate in one pass.
            let u_block = &uh[(k * nl + i) * block..(k * nl + i + 1) * block];
            backend.mahalanobis_block(u_block, mu_block, sig_block, log_p, ch);
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
            let row = &mut r[(k * nl + i) * nh..(k * nl + i + 1) * nh];
            let mut denom = 0.0f32;
            for ((x, &a), &e) in row.iter_mut().zip(act_row).zip(log_p.iter()) {
                let p = a * e;
                *x = p;
                denom += p;
            }
            backend.div_slice(row, denom.max(1e-12));
        }
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

    fn votes(nb: usize, nl: usize, nh: usize, ch: usize, seed: u64) -> Tensor {
        Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, seed)
    }

    #[test]
    fn shapes_and_finiteness() {
        let u = votes(2, 8, 3, 4, 1);
        let out = em_routing(&u, 3, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[2, 3, 4]);
        assert_eq!(out.coefficients.shape().dims(), &[2, 8, 3]);
        assert!(out.v.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn responsibilities_are_distributions() {
        let u = votes(1, 6, 4, 3, 2);
        let out = em_routing(&u, 3, &ExactMath).unwrap();
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
        let out = em_routing(&u, 3, &ExactMath).unwrap();
        let r = out.coefficients.as_slice();
        let mean_r0: f32 = (0..nl).map(|i| r[i * nh]).sum::<f32>() / nl as f32;
        assert!(mean_r0 > 0.5, "tight cluster got mean R {mean_r0}");
    }

    #[test]
    fn deterministic() {
        let u = votes(2, 5, 3, 4, 4);
        let a = em_routing(&u, 3, &ExactMath).unwrap();
        let b = em_routing(&u, 3, &ExactMath).unwrap();
        assert_eq!(a.v, b.v);
    }

    #[test]
    fn approx_backend_stays_close() {
        let u = votes(1, 12, 4, 6, 5);
        let exact = em_routing(&u, 3, &ExactMath).unwrap();
        let approx = em_routing(&u, 3, &ApproxMath::with_recovery()).unwrap();
        for (a, e) in approx.v.as_slice().iter().zip(exact.v.as_slice()) {
            assert!((a - e).abs() < 0.08, "approx {a} vs exact {e}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(em_routing(&Tensor::zeros(&[2, 3, 4]), 3, &ExactMath).is_err());
        let u = votes(1, 2, 2, 2, 6);
        assert!(em_routing(&u, 0, &ExactMath).is_err());
    }
}
