//! Per-sample dynamic routing against its per-row oracle.
//!
//! `dynamic_routing_with`'s per-sample branch hands the backend a whole
//! sample per iteration (`MathBackend::route_rows`, which `ExactMath` runs
//! as one fused Eq 4 → softmax → Eq 2 kernel over blocks of four rows) and
//! computes iteration 0's coefficient row once. The oracle below is the
//! loop it replaced, verbatim: one `agreement_block` → `softmax_row` →
//! `weighted_sum_block` chain per `(sample, row, iteration)`. Every
//! routing entry must match it bit for bit at the serve benchmark's
//! routing shapes — the serial reference, the same call through
//! `&dyn MathBackend`, and the layer's sharded `RoutingArena` — under
//! `ExactMath` at whatever SIMD level the host runs (CI also runs this
//! suite under `PIM_SIMD=avx2` and `PIM_SIMD=scalar`). Under `ApproxMath`,
//! whose per-row default must leave its outputs unchanged, the serial
//! entry is checked.

use capsnet::layers::CapsLayer;
use capsnet::routing::{dynamic_routing_with, RoutingOutput};
use capsnet::{
    squash_into, ApproxMath, ExactMath, MathBackend, RoutingAlgorithm, RoutingArena, RoutingScratch,
};
use pim_tensor::Tensor;

/// The per-sample branch of `dynamic_routing_core` before rows were
/// blocked: `(v, coefficients)` for `uh` = `[B, L, H, C_H]`.
fn per_row_oracle<B: MathBackend + ?Sized>(
    uh: &[f32],
    (nb, nl, nh, ch): (usize, usize, usize, usize),
    iterations: usize,
    backend: &B,
) -> (Vec<f32>, Vec<f32>) {
    let block = nh * ch;
    let mut v = vec![0.0f32; nb * block];
    let mut c = vec![0.0f32; nb * nl * nh];
    let mut b_logits = vec![0.0f32; nl * nh];
    let mut s = vec![0.0f32; block];
    let samples = uh
        .chunks_exact(nl * block)
        .zip(v.chunks_exact_mut(block))
        .zip(c.chunks_exact_mut(nl * nh));
    for ((u_k, v_k), c_k) in samples {
        b_logits.fill(0.0);
        for iter in 0..iterations {
            s.fill(0.0);
            for ((u_block, b_row), c_row) in u_k
                .chunks_exact(block)
                .zip(b_logits.chunks_exact_mut(nh))
                .zip(c_k.chunks_exact_mut(nh))
            {
                if iter > 0 {
                    backend.agreement_block(u_block, v_k, b_row, ch);
                }
                backend.softmax_row(b_row, c_row);
                backend.weighted_sum_block(c_row, u_block, &mut s, ch);
            }
            for (s_cap, v_cap) in s.chunks(ch).zip(v_k.chunks_mut(ch)) {
                squash_into(s_cap, v_cap, backend);
            }
        }
    }
    (v, c)
}

/// A routing shape: `(name, L, C_L, H, C_H, iterations)`.
type Shape = (&'static str, usize, usize, usize, usize, usize);

/// The benchmark workloads' routing (`benchmark/src/workloads.rs`), plus
/// an `L` that leaves a remainder row after the blocks of four. `stream`
/// projects from 64-wide capsules there; `C_L` does not change the routing
/// shape, so it projects from 8 here, which keeps the debug build's
/// projection short.
const SHAPES: [Shape; 5] = [
    ("rp_heavy", 1152, 8, 62, 16, 9),
    ("stream", 1152, 8, 62, 16, 3),
    ("mnist", 1152, 8, 10, 16, 3),
    ("micro_pool", 4, 4, 2, 4, 1),
    ("odd_l", 1151, 8, 62, 16, 3),
];

const BATCH: usize = 3;

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let diff = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits());
    assert_eq!(diff, None, "{what}: first differing element");
}

/// Projects û through a seeded layer, routing it on the way through the
/// layer's sharded arena; returns û, the arena and the oracle's
/// `(v, coefficients)` for it.
fn project_and_route<B: MathBackend>(
    backend: &B,
    (_, nl, cl, nh, ch, iterations): Shape,
) -> (Tensor, RoutingArena, (Vec<f32>, Vec<f32>)) {
    let layer = CapsLayer::seeded(
        nl,
        cl,
        nh,
        ch,
        RoutingAlgorithm::Dynamic,
        iterations,
        1.0,
        3,
    )
    .with_batch_shared(false);
    let u = Tensor::uniform(&[BATCH, nl, cl], -1.0, 1.0, 5);
    let mut u_hat = Tensor::default();
    let mut arena = RoutingArena::default();
    layer
        .forward_into(&u, backend, &mut u_hat, &mut arena)
        .unwrap();
    let oracle = per_row_oracle(u_hat.as_slice(), (BATCH, nl, nh, ch), iterations, backend);
    (u_hat, arena, oracle)
}

fn serial<B: MathBackend + ?Sized>(
    u_hat: &Tensor,
    iterations: usize,
    backend: &B,
) -> RoutingOutput {
    dynamic_routing_with(
        u_hat,
        iterations,
        false,
        backend,
        &mut RoutingScratch::new(),
    )
    .unwrap()
}

#[test]
fn exact_routing_matches_the_per_row_oracle_bitwise() {
    for shape in SHAPES {
        let (u_hat, arena, (v, c)) = project_and_route(&ExactMath, shape);
        let (name, iterations) = (shape.0, shape.5);
        let mono = serial(&u_hat, iterations, &ExactMath);
        assert_bits(&format!("{name} serial v"), mono.v.as_slice(), &v);
        assert_bits(
            &format!("{name} serial c"),
            mono.coefficients.as_slice(),
            &c,
        );
        let boxed: &dyn MathBackend = &ExactMath;
        let via_dyn = serial(&u_hat, iterations, boxed);
        assert_bits(&format!("{name} dyn v"), via_dyn.v.as_slice(), &v);
        assert_bits(
            &format!("{name} dyn c"),
            via_dyn.coefficients.as_slice(),
            &c,
        );
        assert_bits(&format!("{name} arena v"), arena.v(), &v);
        assert_bits(&format!("{name} arena c"), arena.coefficients(), &c);
    }
}

#[test]
fn approx_routing_is_unchanged() {
    let approx = ApproxMath::with_recovery();
    for shape in SHAPES {
        let (u_hat, _, (v, c)) = project_and_route(&approx, shape);
        let out = serial(&u_hat, shape.5, &approx);
        assert_bits(&format!("{} approx v", shape.0), out.v.as_slice(), &v);
        assert_bits(
            &format!("{} approx c", shape.0),
            out.coefficients.as_slice(),
            &c,
        );
    }
}
