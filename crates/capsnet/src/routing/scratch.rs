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

/// Scratch buffers for [`dynamic_routing`](crate::routing::dynamic_routing)
/// and [`em_routing`](crate::routing::em_routing).
///
/// One scratch serves both algorithms (buffers are disjoint per algorithm
/// but reuse is harmless); keep one per thread — the buffers are the reason
/// the sample-sharded driver hands each shard its own.
#[derive(Debug, Clone, Default)]
pub struct RoutingScratch {
    // Dynamic routing (Algorithm 1).
    pub(crate) b_logits: Vec<f32>,
    pub(crate) s: Vec<f32>,
    // EM routing.
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
