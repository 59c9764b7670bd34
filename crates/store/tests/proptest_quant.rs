//! Property tests for the quantized artifact path: quantize → save →
//! mmap → forward on randomized weights — including NaN, ±∞, negative
//! zero and subnormals. Quantization is deliberately lossy, so the
//! invariants are determinism ones: the stored payload matches an
//! in-memory quantization of the same weights bit-for-bit, both backings
//! rebuild bit-identical networks, and for ordinary finite weights the
//! end-to-end divergence from f32 stays inside the declared bound. (That
//! the two SIMD levels decode stored payloads alike is `pim-tensor`'s
//! `uhat` unit test on payloads with the same specials.)

use std::collections::BTreeMap;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_store::{MappedModel, ModelWriter, QuantSpec};
use pim_tensor::{QuantDType, Tensor};
use proptest::prelude::*;

/// Declared end-to-end bound: max |Δ| on squared class norms (which live
/// in [0, 1]) for a fully-quantized tiny net vs its f32 source.
const I8_NORM_DIVERGENCE: f32 = 0.25;
const F16_NORM_DIVERGENCE: f32 = 0.02;

fn special_f32() -> impl Strategy<Value = f32> {
    (0usize..7, -10.0f32..10.0f32).prop_map(|(kind, x)| match kind {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0f32,
        4 => f32::MIN_POSITIVE / 2.0, // subnormal
        5 => f32::MAX,
        _ => x,
    })
}

fn poked_net(seed: u64, pokes: &[(usize, f32)]) -> CapsNet {
    let base = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed).unwrap();
    let mut weights: Vec<(String, Tensor)> = base
        .named_weights()
        .into_iter()
        .map(|(n, t)| (n, t.expect_f32().clone()))
        .collect();
    let total: usize = weights.iter().map(|(_, t)| t.len()).sum();
    for &(pos, value) in pokes {
        let mut idx = pos % total;
        for (_, t) in &mut weights {
            if idx < t.len() {
                t.as_mut_slice()[idx] = value;
                break;
            }
            idx -= t.len();
        }
    }
    let mut source: BTreeMap<String, Tensor> = weights.into_iter().collect();
    CapsNet::from_views(base.spec(), &mut source).unwrap()
}

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_store_qprop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dtype_of(pick: usize) -> QuantDType {
    if pick == 0 {
        QuantDType::I8
    } else {
        QuantDType::F16
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Special values may not survive quantization (NaN has no int8
    /// encoding; ±∞ saturates) — but the lossy mapping must be
    /// deterministic and identical on disk and in memory, the kernels
    /// must agree bitwise, and nothing may panic.
    #[test]
    fn quantize_save_mmap_forward_is_deterministic(
        seed in 0u64..1000,
        pokes in proptest::collection::vec((0usize..100_000, special_f32()), 0..12),
        dtype_pick in 0usize..2,
        vault_aligned in (0usize..2).prop_map(|b| b == 1),
    ) {
        let dtype = dtype_of(dtype_pick);
        let net = poked_net(seed, &pokes);
        let dir = tmp_dir();
        let path = dir.join(format!("qprop_{seed}_{dtype_pick}_{}.pimcaps", pokes.len()));
        let writer = if vault_aligned {
            ModelWriter::vault_aligned()
        } else {
            ModelWriter::new()
        };
        writer
            .with_quant(QuantSpec::weights(dtype))
            .save(&net, &path)
            .unwrap();

        let mapped = MappedModel::open(&path).unwrap();

        // The stored quantized section equals an in-memory quantization
        // of the same weights, byte for byte — per partition, with each
        // partition's own affine params.
        let view = mapped.weight_view("caps.weight").unwrap();
        let q = view.as_quant().expect("caps.weight must be quantized");
        let original = net
            .named_weights()
            .into_iter()
            .find(|(n, _)| n == "caps.weight")
            .unwrap()
            .1
            .expect_f32()
            .clone();
        let dims = original.shape().dims().to_vec();
        let rows: Vec<usize> = {
            let row_stride: usize = dims[1..].iter().product();
            q.blocks().iter().map(|b| b.elems / row_stride).collect()
        };
        let reference =
            pim_tensor::QuantTensor::quantize(dtype, original.as_slice(), &dims, &rows).unwrap();
        prop_assert_eq!(q.bytes(), reference.bytes());
        for (a, b) in q.blocks().iter().zip(reference.blocks()) {
            prop_assert_eq!(a.scale.to_bits(), b.scale.to_bits());
            prop_assert_eq!(a.zero_point, b.zero_point);
        }

        // Both backings rebuild the same network: forward is bit-identical
        // between them (even if outputs are NaN/∞), and never panics.
        let from_map = mapped.capsnet().unwrap();
        let from_owned = MappedModel::read(&path).unwrap().capsnet().unwrap();
        let images = Tensor::uniform(&[2, 1, 12, 12], 0.0, 1.0, seed ^ 0xF00D);
        let a = from_map.forward(&images, &ExactMath).unwrap();
        let b = from_owned.forward(&images, &ExactMath).unwrap();
        for (x, y) in a
            .class_norms_sq
            .as_slice()
            .iter()
            .zip(b.class_norms_sq.as_slice())
        {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        let _ = std::fs::remove_file(&path);
    }

    /// For ordinary finite weights the quantized model must stay inside
    /// the declared divergence bound of its f32 source.
    #[test]
    fn finite_weights_stay_inside_declared_divergence(
        seed in 0u64..1000,
        dtype_pick in 0usize..2,
    ) {
        let dtype = dtype_of(dtype_pick);
        let bound = match dtype {
            QuantDType::I8 => I8_NORM_DIVERGENCE,
            QuantDType::F16 => F16_NORM_DIVERGENCE,
        };
        let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed).unwrap();
        let dir = tmp_dir();
        let path = dir.join(format!("qdiv_{seed}_{dtype_pick}.pimcaps"));
        ModelWriter::vault_aligned()
            .with_quant(QuantSpec::weights(dtype))
            .save(&net, &path)
            .unwrap();
        let loaded = MappedModel::open(&path).unwrap().capsnet().unwrap();

        let images = Tensor::uniform(&[3, 1, 12, 12], 0.0, 1.0, seed ^ 0xBEEF);
        let a = net.forward(&images, &ExactMath).unwrap();
        let b = loaded.forward(&images, &ExactMath).unwrap();
        let div = a
            .class_norms_sq
            .as_slice()
            .iter()
            .zip(b.class_norms_sq.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        prop_assert!(
            div <= bound,
            "{:?} divergence {} exceeds declared bound {}",
            dtype, div, bound
        );

        let _ = std::fs::remove_file(&path);
    }
}
