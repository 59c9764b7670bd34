//! Dynamic routing — Algorithm 1 of the paper, faithfully:
//!
//! ```text
//! û_{j|i}^k = u_i^k · W_ij                         (Eq 1, done by CapsLayer)
//! b_ij ← 0
//! for each routing iteration:
//!     c_ij   = softmax_j(b_ij)                      (Eq 5)
//!     s_j^k  = Σ_i û_{j|i}^k · c_ij                 (Eq 2)
//!     v_j^k  = squash(s_j^k)                        (Eq 3)
//!     b_ij   = Σ_k v_j^k · û_{j|i}^k + b_ij         (Eq 4)
//! ```
//!
//! With `batch_shared = true` the coefficients couple the whole batch
//! (the paper cites [55]: batching avoids local optima of the routing
//! coefficients); with `false` each sample routes independently (the
//! original Sabour et al. formulation).

use pim_tensor::Tensor;

use crate::backend::MathBackend;
use crate::error::CapsNetError;
use crate::routing::{validate_u_hat, Routed, RoutingOutput, RoutingScratch};
use crate::squash::squash_into;

/// Runs dynamic routing over prediction vectors `û` of shape
/// `[B, L, H, C_H]`.
///
/// Returns the high-level capsules `[B, H, C_H]` and the final routing
/// coefficients (`[L, H]` if `batch_shared`, else `[B, L, H]`).
///
/// Generic over the backend: calling with a concrete type (`&ExactMath`,
/// `&ApproxMath`) monomorphizes the whole RP with the special functions
/// inlined; calling with `&dyn MathBackend` still works and produces
/// bit-identical results through virtual dispatch.
///
/// Allocates its scratch internally; steady-state callers should hold a
/// [`RoutingScratch`] and use [`dynamic_routing_with`].
///
/// # Errors
///
/// Returns [`CapsNetError::InputMismatch`] if `u_hat` is not rank 4, or
/// [`CapsNetError::InvalidSpec`] for zero iterations.
pub fn dynamic_routing<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    batch_shared: bool,
    backend: &B,
) -> Result<RoutingOutput, CapsNetError> {
    let mut scratch = RoutingScratch::new();
    dynamic_routing_with(u_hat, iterations, batch_shared, backend, &mut scratch)
}

/// [`dynamic_routing`] with caller-owned scratch: a warm scratch makes the
/// routing itself allocation-free (only the returned output tensors are
/// materialized fresh).
///
/// # Errors
///
/// Same conditions as [`dynamic_routing`].
pub fn dynamic_routing_with<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    batch_shared: bool,
    backend: &B,
    scratch: &mut RoutingScratch,
) -> Result<RoutingOutput, CapsNetError> {
    let dims = validate_u_hat(u_hat, iterations)?;
    RoutingOutput::routed(dims, batch_shared, iterations, |out| {
        dynamic_routing_core(
            u_hat.as_slice(),
            dims,
            iterations,
            batch_shared,
            backend,
            scratch,
            out,
        );
    })
}

/// The monomorphized RP inner loop: routes `uh` (`[B, L, H, C_H]`
/// row-major, pre-validated dims) into `out` — `v` and the coefficients
/// are written in full, their previous contents never read.
///
/// This is the paper's Algorithm 1 exactly, written against the backend's
/// slice/block kernels: the softmax over coupling logits is one fused row
/// kernel per `i`, the Eq 2 weighted sum and Eq 4 agreement each stream one
/// contiguous `[H, C_H]` block per `(k, i)` pair. No virtual calls with a
/// concrete backend, no heap allocation once `scratch` is warm, and every
/// dot product / axpy runs over contiguous memory.
pub(crate) fn dynamic_routing_core<B: MathBackend + ?Sized>(
    uh: &[f32],
    (nb, nl, nh, ch): (usize, usize, usize, usize),
    iterations: usize,
    batch_shared: bool,
    backend: &B,
    scratch: &mut RoutingScratch,
    out: Routed<'_>,
) {
    debug_assert_eq!(uh.len(), nb * nl * nh * ch);
    let coeff_rows = if batch_shared { nl } else { nb * nl };
    let Routed { v, coeff: c } = out;
    debug_assert_eq!(v.len(), nb * nh * ch);
    debug_assert_eq!(c.len(), coeff_rows * nh);
    RoutingScratch::fill_buf(&mut scratch.b_logits, coeff_rows * nh, 0.0);
    RoutingScratch::fill_buf(&mut scratch.s, nb * nh * ch, 0.0);
    let (b_logits, s) = (&mut scratch.b_logits, &mut scratch.s);
    let block = nh * ch;

    // Pass fusion: Algorithm 1 runs softmax → Eq 2 → squash → Eq 4 per
    // iteration, which streams û twice. But the Eq 4 update of coupling row
    // `i` only feeds that same row's softmax in the *next* iteration, and
    // the final iteration's Eq 4 output is discarded (v and c are already
    // final). So iteration t ≥ 2 performs {Eq 4 with v(t−1) → softmax →
    // Eq 2} per row while each û block is hot in cache — one û pass per
    // iteration instead of two, and the dead final Eq 4 pass vanishes.
    // Per-element accumulation order is unchanged (b row i still sums k
    // ascending, s still sums i ascending), so results are bit-identical
    // to the unfused loop for any backend.
    for iter in 0..iterations {
        s.fill(0.0);
        if batch_shared {
            let u_stride = nl * block;
            for i in 0..nl {
                // Eq 4 (previous iteration): b_ij += Σ_k <v_j^k, û_{j|i}^k>
                // — one strided sweep over the batch. (`min` keeps the
                // slice in-bounds for empty batches, where the sweeps are
                // no-ops but the softmax still emits uniform coefficients.)
                let u_i = &uh[(i * block).min(uh.len())..];
                if iter > 0 {
                    let b_row = &mut b_logits[i * nh..(i + 1) * nh];
                    backend.agreement_blocks_strided(u_i, u_stride, v, nb, b_row, ch);
                }
                // Eq 5: c_ij = softmax over the H dimension of b_ij.
                let b_row = &b_logits[i * nh..(i + 1) * nh];
                let c_row = &mut c[i * nh..(i + 1) * nh];
                backend.softmax_row(b_row, c_row);
                // Eq 2: s_j^k += û·c for this L capsule, every sample.
                backend.weighted_sum_blocks_strided(c_row, u_i, u_stride, s, nb, ch);
            }
        } else {
            // Per-sample coefficients: row (k, i) is self-contained, so the
            // whole Eq 4 → softmax → Eq 2 chain fuses per û block, streamed
            // in storage order.
            for k in 0..nb {
                for i in 0..nl {
                    let u_block = &uh[(k * nl + i) * block..(k * nl + i + 1) * block];
                    let row = (k * nl + i) * nh;
                    if iter > 0 {
                        let v_block = &v[k * block..(k + 1) * block];
                        backend.agreement_block(u_block, v_block, &mut b_logits[row..row + nh], ch);
                    }
                    let c_row = &mut c[row..row + nh];
                    backend.softmax_row(&b_logits[row..row + nh], c_row);
                    let s_block = &mut s[k * block..(k + 1) * block];
                    backend.weighted_sum_block(c_row, u_block, s_block, ch);
                }
            }
        }

        // Eq 3: v = squash(s), capsule by capsule (dot for the norm
        // square, one scale to write v — no intermediate copy).
        for (s_cap, v_cap) in s.chunks(ch).zip(v.chunks_mut(ch)) {
            squash_into(s_cap, v_cap, backend);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproxMath, ExactMath};

    fn uhat(nb: usize, nl: usize, nh: usize, ch: usize, seed: u64) -> Tensor {
        Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, seed)
    }

    #[test]
    fn output_shapes() {
        let u = uhat(2, 6, 3, 4, 1);
        let out = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[2, 3, 4]);
        assert_eq!(out.coefficients.shape().dims(), &[6, 3]);
        let per_sample = dynamic_routing(&u, 3, false, &ExactMath).unwrap();
        assert_eq!(per_sample.coefficients.shape().dims(), &[2, 6, 3]);
    }

    #[test]
    fn coefficients_are_distributions_over_h() {
        let u = uhat(2, 6, 3, 4, 2);
        let out = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        for row in out.coefficients.as_slice().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row sum {sum}");
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn first_iteration_coefficients_are_uniform_before_update() {
        // With a single iteration, c comes from b=0, i.e. uniform 1/H.
        let u = uhat(1, 4, 5, 3, 3);
        let out = dynamic_routing(&u, 1, true, &ExactMath).unwrap();
        for &cv in out.coefficients.as_slice() {
            assert!((cv - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn iterations_sharpen_agreeing_capsules() {
        // Construct û where every L capsule points the same way for H
        // capsule 0 and randomly for the others: routing should raise
        // c[:,0] above uniform.
        let nb = 1;
        let (nl, nh, ch) = (8, 4, 4);
        let mut data = Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, 4).into_vec();
        for i in 0..nl {
            for d in 0..ch {
                data[(i * nh) * ch + d] = 1.0; // j = 0 agreement
            }
        }
        let u = Tensor::from_vec(data, &[nb, nl, nh, ch]).unwrap();
        let out = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        let c = out.coefficients.as_slice();
        for i in 0..nl {
            assert!(
                c[i * nh] > 1.0 / nh as f32 + 0.05,
                "capsule {i} coefficient {} did not sharpen",
                c[i * nh]
            );
        }
    }

    #[test]
    fn v_norms_below_one() {
        let u = uhat(3, 10, 4, 8, 5);
        let out = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        for cap in out.v.as_slice().chunks(8) {
            let n: f32 = cap.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(n < 1.0);
        }
    }

    #[test]
    fn deterministic() {
        let u = uhat(2, 6, 3, 4, 6);
        let a = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        let b = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        assert_eq!(a.v, b.v);
        assert_eq!(a.coefficients, b.coefficients);
    }

    #[test]
    fn approx_backend_close_to_exact() {
        let u = uhat(2, 12, 5, 8, 7);
        let exact = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        let approx = dynamic_routing(&u, 3, true, &ApproxMath::with_recovery()).unwrap();
        let mut max_diff = 0.0f32;
        for (a, e) in approx.v.as_slice().iter().zip(exact.v.as_slice()) {
            max_diff = max_diff.max((a - e).abs());
        }
        assert!(
            max_diff < 0.05,
            "approx routing diverged from exact: {max_diff}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let u3 = Tensor::zeros(&[2, 3, 4]);
        assert!(dynamic_routing(&u3, 3, true, &ExactMath).is_err());
        let u = uhat(1, 2, 2, 2, 8);
        assert!(dynamic_routing(&u, 0, true, &ExactMath).is_err());
    }

    #[test]
    fn batch_shared_differs_from_per_sample() {
        // With >1 samples the two coefficient schemes route differently.
        let u = uhat(4, 6, 3, 4, 9);
        let shared = dynamic_routing(&u, 3, true, &ExactMath).unwrap();
        let per = dynamic_routing(&u, 3, false, &ExactMath).unwrap();
        let diff: f32 = shared
            .v
            .as_slice()
            .iter()
            .zip(per.v.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "expected differing outputs, diff {diff}");
    }
}
