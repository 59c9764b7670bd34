//! Reusable scratch memory for the routing procedure.
//!
//! The RP is the hot loop of CapsNet inference (the entire premise of the
//! paper), and the seed implementation reallocated its `b`/`s`
//! intermediates on every call. [`RoutingScratch`] owns those buffers so a
//! warm engine performs **zero heap allocations** per routing invocation:
//! every buffer is `clear()`+`resize()`d in place, which only touches the
//! allocator when a larger problem than any seen before arrives. The
//! routed capsules and coefficients are not scratch — the cores write them
//! straight into the caller's output windows (see [`super::Routed`]).
//!
//! Per-sample routing (dynamic with `batch_shared = false`, and EM) runs
//! sample-major — every iteration of one sample before the next — so its
//! buffers (`b_logits`, `s`, `mu`, `sigma_sq`, `act`) hold **one sample**
//! and the scratch does not grow with the batch. Only batch-shared dynamic
//! routing keeps a batch-wide `s` (`[B, H, C_H]`).

/// Scratch buffers for [`dynamic_routing_with`](crate::routing::dynamic_routing_with)
/// and [`em_routing_with`](crate::routing::em_routing_with).
///
/// One scratch serves both algorithms (buffers are disjoint per algorithm
/// but reuse is harmless); keep one per thread — the buffers are the reason
/// the sample-sharded driver hands each shard its own.
#[derive(Debug, Clone, Default)]
pub struct RoutingScratch {
    // Dynamic routing (Algorithm 1): the `[L, H]` coupling logits, and
    // `s` for one sample (`[H, C_H]`) or, batch-shared, the batch.
    pub(crate) b_logits: Vec<f32>,
    pub(crate) s: Vec<f32>,
    // EM routing, one sample: `[H, C_H]` means and variances, `[H]`
    // activations and row scratch.
    pub(crate) mu: Vec<f32>,
    pub(crate) sigma_sq: Vec<f32>,
    pub(crate) act: Vec<f32>,
    pub(crate) log_p: Vec<f32>,
    pub(crate) r_sum: Vec<f32>,
}

impl RoutingScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap capacity the scratch holds.
    pub fn capacity_bytes(&self) -> usize {
        let buffers = [
            &self.b_logits,
            &self.s,
            &self.mu,
            &self.sigma_sq,
            &self.act,
            &self.log_p,
            &self.r_sum,
        ];
        buffers.iter().map(|b| b.capacity()).sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// Resizes `buf` to `len` filled with `value`, reusing capacity.
    pub(crate) fn fill_buf(buf: &mut Vec<f32>, len: usize, value: f32) {
        buf.clear();
        buf.resize(len, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactMath;
    use crate::routing::{dynamic_routing_with, em_routing_with};
    use pim_tensor::Tensor;

    /// Routes one `[batch, 24, 6, 8]` û per sample: dynamic on `dynamic`,
    /// EM on `em`.
    fn route_per_sample(batch: usize, dynamic: &mut RoutingScratch, em: &mut RoutingScratch) {
        let u = Tensor::uniform(&[batch, 24, 6, 8], -0.5, 0.5, batch as u64);
        dynamic_routing_with(&u, 3, false, &ExactMath, dynamic).unwrap();
        em_routing_with(&u, 3, &ExactMath, em).unwrap();
    }

    #[test]
    fn per_sample_scratch_holds_one_sample_whatever_the_batch() {
        let (mut dynamic, mut em) = (RoutingScratch::new(), RoutingScratch::new());
        route_per_sample(1, &mut dynamic, &mut em);
        let after_one = (dynamic.capacity_bytes(), em.capacity_bytes());
        assert!(after_one.0 > 0 && after_one.1 > 0);
        route_per_sample(16, &mut dynamic, &mut em);
        let after_sixteen = (dynamic.capacity_bytes(), em.capacity_bytes());
        assert_eq!(after_sixteen, after_one, "the scratch grew with the batch");
    }
}
