//! Prints FNV-1a digests of routing and forward outputs at the serve
//! benchmark's four geometries, so two builds (or two `PIM_SIMD` levels)
//! can be compared bit for bit without a reference file:
//!
//! ```text
//! cargo run --release -p capsnet --example routing_digest
//! PIM_SIMD=avx2 cargo run --release -p capsnet --example routing_digest
//! PIM_SIMD=scalar cargo run --release -p capsnet --example routing_digest
//! ```
//!
//! For every geometry and batch (1, 3 and the workload's `max_batch`) one
//! line carries four digests, each over the output's `f32` bit patterns:
//!
//! * `dynamic` — `dynamic_routing_with` per sample (`v`, then the
//!   coefficients) on a seeded û of the layer's shape, `ExactMath`;
//! * `shared` — the same with batch-shared coefficients;
//! * `approx` — per sample under `ApproxMath::with_recovery()`;
//! * `forward` — `CapsNet::forward` under `ExactMath` (class capsules,
//!   norms, coefficients) on seeded images, weights seeded as the
//!   benchmark seeds them.
//!
//! The geometries and the model seed are copies of the values in
//! `benchmark/src/workloads.rs`; nothing checks that they match, so they
//! must be kept in step with that file by hand.

use capsnet::routing::dynamic_routing_with;
use capsnet::RoutingScratch;
use capsnet::{ApproxMath, CapsNet, CapsNetSpec, ExactMath, MathBackend, RoutingAlgorithm};
use pim_tensor::Tensor;

/// A benchmark geometry. `conv1` is `(channels, kernel)` at stride 1;
/// `primary` is `(channels, cl_dim, kernel, stride)`; the input has one
/// channel and the model routes per sample with [`RoutingAlgorithm::Dynamic`].
struct Geometry {
    name: &'static str,
    input_hw: usize,
    conv1: (usize, usize),
    primary: (usize, usize, usize, usize),
    h_caps: usize,
    ch_dim: usize,
    iterations: usize,
    decoder_dims: &'static [usize],
    max_batch: usize,
}

/// The four workloads of `benchmark/src/workloads.rs`, copied (module docs).
const GEOMETRIES: [Geometry; 4] = [
    Geometry {
        name: "stream",
        input_hw: 12,
        conv1: (16, 5),
        primary: (128, 64, 3, 2),
        h_caps: 62,
        ch_dim: 16,
        iterations: 3,
        decoder_dims: &[16, 144],
        max_batch: 16,
    },
    Geometry {
        name: "rp_heavy",
        input_hw: 12,
        conv1: (16, 5),
        primary: (128, 8, 3, 2),
        h_caps: 62,
        ch_dim: 16,
        iterations: 9,
        decoder_dims: &[16, 144],
        max_batch: 16,
    },
    Geometry {
        name: "mnist",
        input_hw: 28,
        conv1: (256, 9),
        primary: (32, 8, 9, 2),
        h_caps: 10,
        ch_dim: 16,
        iterations: 3,
        decoder_dims: &[512, 1024, 784],
        max_batch: 8,
    },
    Geometry {
        name: "micro_pool",
        input_hw: 6,
        conv1: (4, 3),
        primary: (4, 4, 3, 2),
        h_caps: 2,
        ch_dim: 4,
        iterations: 1,
        decoder_dims: &[8, 36],
        max_batch: 8,
    },
];

/// Seed of the benchmark's model weights.
const MODEL_SEED: u64 = 0xCA95;

fn spec(g: &Geometry) -> CapsNetSpec {
    let (primary_channels, cl_dim, primary_kernel, primary_stride) = g.primary;
    CapsNetSpec {
        name: g.name.into(),
        input_channels: 1,
        input_hw: (g.input_hw, g.input_hw),
        conv1_channels: g.conv1.0,
        conv1_kernel: g.conv1.1,
        conv1_stride: 1,
        primary_channels,
        cl_dim,
        primary_kernel,
        primary_stride,
        h_caps: g.h_caps,
        ch_dim: g.ch_dim,
        routing_iterations: g.iterations,
        routing: RoutingAlgorithm::Dynamic,
        decoder_dims: g.decoder_dims.to_vec(),
        routing_sharpness: 1.0,
        batch_shared_routing: false,
    }
}

/// 64-bit FNV-1a over the little-endian bytes of every `f32` in `parts`.
fn fnv1a(parts: &[&[f32]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in parts.iter().flat_map(|p| p.iter()) {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn route<B: MathBackend + ?Sized>(u_hat: &Tensor, g: &Geometry, shared: bool, backend: &B) -> u64 {
    let out = dynamic_routing_with(
        u_hat,
        g.iterations,
        shared,
        backend,
        &mut RoutingScratch::new(),
    )
    .expect("benchmark geometries route");
    fnv1a(&[out.v.as_slice(), out.coefficients.as_slice()])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("simd {}", pim_tensor::simd::active_level().name());
    for g in &GEOMETRIES {
        let spec = spec(g);
        let net = CapsNet::seeded(&spec, MODEL_SEED)?;
        let l_caps = spec.l_caps()?;
        for batch in [1, 3, g.max_batch] {
            let u_hat = Tensor::uniform(&[batch, l_caps, g.h_caps, g.ch_dim], -0.5, 0.5, 7);
            let images = Tensor::uniform(&[batch, 1, g.input_hw, g.input_hw], 0.0, 1.0, 11);
            let out = net.forward(&images, &ExactMath)?;
            let forward = fnv1a(&[
                out.class_capsules.as_slice(),
                out.class_norms_sq.as_slice(),
                out.routing_coefficients.as_slice(),
            ]);
            println!(
                "{:<10} batch {:>2}  dynamic {:016x}  shared {:016x}  approx {:016x}  forward {:016x}",
                g.name,
                batch,
                route(&u_hat, g, false, &ExactMath),
                route(&u_hat, g, true, &ExactMath),
                route(&u_hat, g, false, &ApproxMath::with_recovery()),
                forward,
            );
        }
    }
    Ok(())
}
