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
//!
//! Loop order: batch-shared routing is iteration-major (every iteration
//! sweeps the batch). Per-sample routing is sample-major — all iterations
//! of sample k, then sample k + 1 — so one sample's û is what each
//! iteration streams, and it stays cache-resident across the iterations.
//! Both fuse Eq 4 of one iteration with the softmax and Eq 2 of the next
//! (see [`dynamic_routing_core`]), so û is streamed once per iteration.
//! Per-sample routing hands each iteration's rows to the backend in one
//! call ([`MathBackend::route_rows`]), which [`crate::ExactMath`] runs in
//! blocks of four rows, and computes iteration 0's coefficient row once.

use pim_tensor::Tensor;

use crate::backend::MathBackend;
use crate::error::CapsNetError;
use crate::routing::{validate_u_hat, Routed, RoutingOutput, RoutingScratch};
use crate::squash::squash_into;

/// Runs dynamic routing over prediction vectors `û` of shape
/// `[B, L, H, C_H]` on one thread, with caller-owned scratch.
///
/// Returns the high-level capsules `[B, H, C_H]` and the final routing
/// coefficients (`[L, H]` if `batch_shared`, else `[B, L, H]`). A warm
/// scratch makes the routing itself allocation-free (only the returned
/// output tensors are materialized fresh).
///
/// This is the serial reference: the layer path
/// ([`crate::layers::CapsLayer::forward_into`]) shards independent samples
/// across cores and is checked bitwise against it.
///
/// Generic over the backend: calling with a concrete type (`&ExactMath`,
/// `&ApproxMath`) monomorphizes the whole RP with the special functions
/// inlined; calling with `&dyn MathBackend` still works and produces
/// bit-identical results through virtual dispatch.
///
/// # Errors
///
/// Returns [`CapsNetError::InputMismatch`] if `u_hat` is not rank 4 or has
/// a zero-sized `L` / `H` / `C_H`, or [`CapsNetError::InvalidSpec`] for
/// zero iterations.
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
///
/// Pass fusion: Algorithm 1 runs softmax → Eq 2 → squash → Eq 4 per
/// iteration, which streams û twice. But the Eq 4 update of coupling row
/// `i` only feeds that same row's softmax in the *next* iteration, and the
/// final iteration's Eq 4 output is discarded (v and c are already final).
/// So iteration t ≥ 2 performs {Eq 4 with v(t−1) → softmax → Eq 2} per row
/// while each û block is hot in cache — one û pass per iteration instead
/// of two, and the dead final Eq 4 pass vanishes. Per-element accumulation
/// order is unchanged (b row i still sums k ascending, s still sums i
/// ascending), so results are bit-identical to the unfused loop for any
/// backend.
///
/// Per sample, two more steps keep that order:
///
/// * Iteration 0's logits are all zero, so every row's coefficients are
///   `softmax(0)`: one row per call, computed once into `c`'s first row
///   and copied into every other row (`c` is still written in full); each
///   sample's iteration 0 is then Eq 2 alone.
/// * Each later iteration is one [`MathBackend::route_rows`] call over the
///   sample's `L` rows. The default runs the per-row chain above;
///   [`crate::ExactMath`]'s SIMD kernel walks the rows in blocks of four,
///   loading each `v` (Eq 4) and each `s` (Eq 2) vector once per block
///   while every row keeps its own reduction and `s` its ascending-`i`
///   FMA chain, so it is bitwise the per-row result.
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
    let Routed { v, coeff: c } = out;
    debug_assert_eq!(v.len(), nb * nh * ch);
    debug_assert_eq!(c.len(), if batch_shared { 1 } else { nb } * nl * nh);
    let block = nh * ch;
    RoutingScratch::fill_buf(&mut scratch.b_logits, nl * nh, 0.0);
    let b_logits = &mut scratch.b_logits;

    if !batch_shared {
        // Per-sample coefficients, sample-major (module docs): sample k
        // reads only its own û, logits and `s`, so `b_logits` and `s` are
        // one sample's and are reset per sample. Iteration 0's logits are
        // all zero, so its coefficient row is one softmax per call, copied
        // into every row of `c` up front; later iterations run Eq 4 →
        // softmax → Eq 2 over the sample's rows in one backend call.
        if !c.is_empty() {
            let (first, rest) = c.split_at_mut(nh);
            backend.softmax_row(&b_logits[..nh], first);
            for row in rest.chunks_exact_mut(nh) {
                row.copy_from_slice(first);
            }
        }
        RoutingScratch::fill_buf(&mut scratch.s, block, 0.0);
        let s = &mut scratch.s;
        let samples = uh
            .chunks_exact(nl * block)
            .zip(v.chunks_exact_mut(block))
            .zip(c.chunks_exact_mut(nl * nh));
        for ((u_k, v_k), c_k) in samples {
            b_logits.fill(0.0);
            s.fill(0.0);
            backend.route_rows(u_k, None, c_k, s, ch);
            squash_all(s, v_k, ch, backend);
            for _ in 1..iterations {
                s.fill(0.0);
                backend.route_rows(u_k, Some((v_k, b_logits)), c_k, s, ch);
                squash_all(s, v_k, ch, backend);
            }
        }
        return;
    }

    // Batch-shared coefficients: one `[L, H]` logit matrix couples every
    // sample, so each iteration sweeps the whole batch.
    RoutingScratch::fill_buf(&mut scratch.s, nb * block, 0.0);
    let s = &mut scratch.s;
    let u_stride = nl * block;
    for iter in 0..iterations {
        s.fill(0.0);
        for i in 0..nl {
            // Eq 4 (previous iteration): b_ij += Σ_k <v_j^k, û_{j|i}^k> —
            // one strided sweep over the batch. (`min` keeps the slice
            // in-bounds for empty batches, where the sweeps are no-ops but
            // the softmax still emits uniform coefficients.)
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
        squash_all(s, v, ch, backend);
    }
}

/// Eq 3: v = squash(s), capsule by capsule (dot for the norm square, one
/// scale to write v — no intermediate copy).
fn squash_all<B: MathBackend + ?Sized>(s: &[f32], v: &mut [f32], ch: usize, backend: &B) {
    for (s_cap, v_cap) in s.chunks(ch).zip(v.chunks_mut(ch)) {
        squash_into(s_cap, v_cap, backend);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproxMath, ExactMath};

    /// [`dynamic_routing_with`] on a fresh scratch.
    fn route<B: MathBackend + ?Sized>(
        u: &Tensor,
        iterations: usize,
        batch_shared: bool,
        backend: &B,
    ) -> Result<RoutingOutput, CapsNetError> {
        dynamic_routing_with(
            u,
            iterations,
            batch_shared,
            backend,
            &mut RoutingScratch::new(),
        )
    }

    fn uhat(nb: usize, nl: usize, nh: usize, ch: usize, seed: u64) -> Tensor {
        Tensor::uniform(&[nb, nl, nh, ch], -0.5, 0.5, seed)
    }

    #[test]
    fn output_shapes() {
        let u = uhat(2, 6, 3, 4, 1);
        let out = route(&u, 3, true, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[2, 3, 4]);
        assert_eq!(out.coefficients.shape().dims(), &[6, 3]);
        let per_sample = route(&u, 3, false, &ExactMath).unwrap();
        assert_eq!(per_sample.coefficients.shape().dims(), &[2, 6, 3]);
    }

    #[test]
    fn coefficients_are_distributions_over_h() {
        let u = uhat(2, 6, 3, 4, 2);
        let out = route(&u, 3, true, &ExactMath).unwrap();
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
        let out = route(&u, 1, true, &ExactMath).unwrap();
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
        let out = route(&u, 3, true, &ExactMath).unwrap();
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
        let out = route(&u, 3, true, &ExactMath).unwrap();
        for cap in out.v.as_slice().chunks(8) {
            let n: f32 = cap.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(n < 1.0);
        }
    }

    #[test]
    fn deterministic() {
        let u = uhat(2, 6, 3, 4, 6);
        let a = route(&u, 3, true, &ExactMath).unwrap();
        let b = route(&u, 3, true, &ExactMath).unwrap();
        assert_eq!(a.v, b.v);
        assert_eq!(a.coefficients, b.coefficients);
    }

    #[test]
    fn approx_backend_close_to_exact() {
        let u = uhat(2, 12, 5, 8, 7);
        let exact = route(&u, 3, true, &ExactMath).unwrap();
        let approx = route(&u, 3, true, &ApproxMath::with_recovery()).unwrap();
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
        assert!(route(&u3, 3, true, &ExactMath).is_err());
        let u = uhat(1, 2, 2, 2, 8);
        assert!(route(&u, 0, true, &ExactMath).is_err());
    }

    #[test]
    fn batch_shared_differs_from_per_sample() {
        // With >1 samples the two coefficient schemes route differently.
        let u = uhat(4, 6, 3, 4, 9);
        let shared = route(&u, 3, true, &ExactMath).unwrap();
        let per = route(&u, 3, false, &ExactMath).unwrap();
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
