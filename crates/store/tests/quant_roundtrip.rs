//! Quantized artifact roundtrips: quantize → save → (`read` | `open`) →
//! forward, in both layouts and both quantized dtypes. Also pins the
//! version-emission contract (unquantized artifacts stay byte-identical
//! v1) and the refuse-to-requantize writer guard.

use capsnet::{CapsNet, CapsNetSpec, ExactMath, WeightRef};
use pim_store::format::{Header, FORMAT_VERSION, FORMAT_VERSION_F32};
use pim_store::{Layout, MappedModel, ModelWriter, QuantSpec, StoreError};
use pim_tensor::{QuantDType, Tensor};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_store_q_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_net(seed: u64) -> CapsNet {
    CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed).unwrap()
}

fn images(n: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
}

/// Max |a - b| over the class norms of a forward pass on shared images.
fn norm_divergence(a: &CapsNet, b: &CapsNet) -> f32 {
    let imgs = images(4, 99);
    let oa = a.forward(&imgs, &ExactMath).unwrap();
    let ob = b.forward(&imgs, &ExactMath).unwrap();
    oa.class_norms_sq
        .as_slice()
        .iter()
        .zip(ob.class_norms_sq.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn assert_forward_bitwise(a: &CapsNet, b: &CapsNet) {
    let imgs = images(3, 17);
    let oa = a.forward(&imgs, &ExactMath).unwrap();
    let ob = b.forward(&imgs, &ExactMath).unwrap();
    for (x, y) in oa
        .class_capsules
        .as_slice()
        .iter()
        .zip(ob.class_capsules.as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn unquantized_artifacts_stay_v1_and_byte_identical() {
    let dir = tmp_dir("v1");
    let net = tiny_net(3);
    let plain = dir.join("plain.pimcaps");
    let empty_spec = dir.join("empty_spec.pimcaps");
    ModelWriter::new().save(&net, &plain).unwrap();
    ModelWriter::new()
        .with_quant(QuantSpec::new())
        .save(&net, &empty_spec)
        .unwrap();

    let a = std::fs::read(&plain).unwrap();
    let b = std::fs::read(&empty_spec).unwrap();
    assert_eq!(a, b, "an empty QuantSpec must not perturb the artifact");
    assert_eq!(Header::decode(&a).unwrap().version, FORMAT_VERSION_F32);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn packed_roundtrip(dtype: QuantDType, tag: &str, max_div: f32) {
    let dir = tmp_dir(tag);
    let path = dir.join("quant.pimcaps");
    let net = tiny_net(7);
    let report = ModelWriter::new()
        .with_quant(QuantSpec::weights(dtype))
        .save(&net, &path)
        .unwrap();
    assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());

    // Quantized artifacts are format v2.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(Header::decode(&bytes).unwrap().version, FORMAT_VERSION);

    // The mapped reader hands out the quantized section zero-copy.
    let mapped = MappedModel::open(&path).unwrap();
    let loaded = mapped.capsnet().unwrap();
    let weights = loaded.named_weights();
    let Some((_, WeightRef::Quant(q))) = weights.iter().find(|(n, _)| n == "caps.weight") else {
        panic!("caps.weight must stay quantized")
    };
    assert_eq!(q.dtype(), dtype);
    assert!(
        q.is_shared(),
        "packed quantized section must be a zero-copy view"
    );
    // ... and it matches an in-memory quantization of the same weights.
    let original = net
        .named_weights()
        .into_iter()
        .find(|(n, _)| n == "caps.weight")
        .unwrap()
        .1
        .expect_f32()
        .clone();
    let dims = original.shape().dims().to_vec();
    let reference =
        pim_tensor::QuantTensor::quantize(dtype, original.as_slice(), &dims, &[dims[0]]).unwrap();
    assert_eq!(q.bytes(), reference.bytes());
    for (x, y) in q
        .dequantize()
        .as_slice()
        .iter()
        .zip(reference.dequantize().as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // Both backings rebuild the same network (bit-identical forward), and
    // the quantized model stays close to the f32 source.
    let from_map = mapped.capsnet().unwrap();
    let from_owned = MappedModel::read(&path).unwrap().capsnet().unwrap();
    assert_forward_bitwise(&from_map, &from_owned);
    let div = norm_divergence(&net, &from_map);
    assert!(
        div <= max_div,
        "{tag}: quantized divergence {div} exceeds {max_div}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn packed_int8_roundtrip_both_readers() {
    packed_roundtrip(QuantDType::I8, "packed_i8", 0.05);
}

#[test]
fn packed_f16_roundtrip_both_readers() {
    packed_roundtrip(QuantDType::F16, "packed_f16", 1e-2);
}

#[test]
fn vault_aligned_quantized_roundtrip_and_partitions() {
    let dir = tmp_dir("vault_q");
    let path = dir.join("vault_q.pimcaps");
    let net = tiny_net(11);
    ModelWriter::vault_aligned()
        .with_quant(QuantSpec::weights(QuantDType::I8))
        .save(&net, &path)
        .unwrap();

    let mapped = MappedModel::open(&path).unwrap();
    assert!(matches!(mapped.layout(), Layout::VaultAligned { .. }));

    // caps.weight is sharded: each vault share dequantizes with its own
    // affine params, and the shares tile the full-tensor read exactly.
    let full = mapped.tensor("caps.weight").unwrap();
    let parts = mapped.vault_partitions("caps.weight").unwrap();
    let mut reassembled: Vec<f32> = Vec::new();
    for p in &parts {
        assert_eq!(p.tensor.shape().dims()[0], p.rows);
        reassembled.extend_from_slice(p.tensor.as_slice());
    }
    assert_eq!(reassembled.len(), full.len());
    for (x, y) in reassembled.iter().zip(full.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // The rebuilt network forwards, with bounded divergence from f32.
    let loaded = mapped.capsnet().unwrap();
    let div = norm_divergence(&net, &loaded);
    assert!(div <= 0.05, "vault-aligned int8 divergence {div}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resaving_a_quantized_network_is_a_typed_error() {
    let dir = tmp_dir("resave");
    let path = dir.join("quant.pimcaps");
    let net = tiny_net(13);
    ModelWriter::new()
        .with_quant(QuantSpec::weights(QuantDType::I8))
        .save(&net, &path)
        .unwrap();
    let loaded = MappedModel::open(&path).unwrap().capsnet().unwrap();
    let err = ModelWriter::new()
        .save(&loaded, &dir.join("resave.pimcaps"))
        .unwrap_err();
    match err {
        StoreError::Corrupt(msg) => {
            assert!(msg.contains("re-quantize"), "unexpected message: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
