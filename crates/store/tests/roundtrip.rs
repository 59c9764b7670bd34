//! End-to-end artifact roundtrips: save → (owned `read` | mapped `open`)
//! → forward, bit-identical to the in-memory network, in both layouts.

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_store::{Layout, MappedModel, ModelWriter, QuantSpec};
use pim_tensor::{QuantDType, Tensor};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_store_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_net(seed: u64) -> CapsNet {
    CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed).unwrap()
}

fn images(n: usize, seed: u64) -> Tensor {
    Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
}

/// Bitwise comparison of the full forward output (capsules + norms).
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
    for (x, y) in oa
        .class_norms_sq
        .as_slice()
        .iter()
        .zip(ob.class_norms_sq.as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn packed_roundtrip_owned_and_mapped() {
    let dir = tmp_dir("packed");
    let path = dir.join("tiny.pimcaps");
    let net = tiny_net(42);
    let report = ModelWriter::new().save(&net, &path).unwrap();
    assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());
    assert_eq!(report.tensors, net.named_weights().len());
    assert_eq!(
        report.partitions, report.tensors,
        "packed: 1 partition each"
    );

    // Owned image.
    let owned = MappedModel::read(&path).unwrap();
    assert!(!owned.is_mapped());
    assert_eq!(owned.spec(), net.spec());
    assert_eq!(owned.layout(), Layout::Packed);
    assert_forward_bitwise(&net, &owned.capsnet().unwrap());

    // Zero-copy mapped load.
    let mapped = MappedModel::open(&path).unwrap();
    assert!(mapped.is_mapped(), "unix hosts must really mmap");
    assert_eq!(mapped.spec(), net.spec());
    let loaded = mapped.capsnet().unwrap();
    assert_forward_bitwise(&net, &loaded);

    // Every stored tensor is byte-exact, and packed tensors are shared
    // (zero-copy) views.
    for (name, original) in net.named_weights() {
        let t = mapped.tensor(&name).unwrap();
        assert!(t.is_shared(), "{name} should be zero-copy in packed layout");
        assert_eq!(t.shape().dims(), original.dims());
        for (x, y) in t.as_slice().iter().zip(original.expect_f32().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
    }

    // The loaded network must survive the MappedModel being dropped (it
    // holds the mapping via Arc).
    drop(mapped);
    assert_forward_bitwise(&net, &loaded);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn vault_aligned_roundtrip_and_partitions() {
    let dir = tmp_dir("vault");
    let path = dir.join("tiny_vault.pimcaps");
    let net = tiny_net(7);
    let vaults = 16;
    let report = ModelWriter::vault_aligned().save(&net, &path).unwrap();
    // tiny caps.weight is [16, 4, 18]: exactly 16 rows → 16 partitions.
    assert!(report.partitions > report.tensors);

    let mapped = MappedModel::open(&path).unwrap();
    assert_eq!(mapped.layout(), Layout::VaultAligned { vaults });

    // Full-tensor reads still reproduce the exact weights (owned gather
    // when padding broke contiguity), and forward is bit-identical.
    assert_forward_bitwise(&net, &mapped.capsnet().unwrap());

    // The per-vault shares tile the tensor exactly, in order, and each
    // share is a zero-copy view of the mapping.
    let caps_original = net
        .named_weights()
        .into_iter()
        .find(|(n, _)| n == "caps.weight")
        .unwrap()
        .1
        .expect_f32()
        .clone();
    let parts = mapped.vault_partitions("caps.weight").unwrap();
    assert_eq!(parts.len(), vaults);
    let mut reassembled: Vec<f32> = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(p.vault, i);
        assert!(p.tensor.is_shared(), "vault {i} share must be zero-copy");
        assert_eq!(p.tensor.shape().dims()[0], p.rows);
        assert_eq!(p.tensor.shape().dims()[1..], [4, 18]);
        reassembled.extend_from_slice(p.tensor.as_slice());
    }
    assert_eq!(reassembled.len(), caps_original.len());
    for (x, y) in reassembled.iter().zip(caps_original.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // Shares follow the distributor's even-shares rule.
    let shares: Vec<usize> = parts.iter().map(|p| p.rows).collect();
    assert_eq!(shares, pim_capsnet::distribution::vault_shares(16, vaults));

    // Single-partition tensors (biases) report one share on vault 0.
    let bias_parts = mapped.vault_partitions("conv1.bias").unwrap();
    assert_eq!(bias_parts.len(), 1);
    assert_eq!(bias_parts[0].vault, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn em_and_sharpness_specs_roundtrip() {
    let dir = tmp_dir("spec_variants");
    let path = dir.join("em.pimcaps");
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.routing = capsnet::RoutingAlgorithm::Em;
    spec.routing_sharpness = 1.75;
    spec.batch_shared_routing = false;
    let net = CapsNet::seeded(&spec, 3).unwrap();
    ModelWriter::new().save(&net, &path).unwrap();
    let mapped = MappedModel::open(&path).unwrap();
    assert_eq!(mapped.spec(), &spec);
    assert_forward_bitwise(&net, &mapped.capsnet().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_replaces_atomically_and_readers_see_whole_artifacts() {
    let dir = tmp_dir("replace");
    let path = dir.join("model.pimcaps");
    let old = tiny_net(1);
    let new = tiny_net(2);
    ModelWriter::new().save(&old, &path).unwrap();
    let before = MappedModel::open(&path).unwrap().capsnet().unwrap();
    assert_forward_bitwise(&old, &before);

    // Overwrite in place (rename over the open mapping is fine on unix —
    // the old inode stays alive under the old mapping).
    ModelWriter::vault_aligned().save(&new, &path).unwrap();
    let after = MappedModel::open(&path).unwrap().capsnet().unwrap();
    assert_forward_bitwise(&new, &after);
    // The previously-loaded network is unaffected.
    assert_forward_bitwise(&old, &before);

    // No temp files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name() != "model.pimcaps")
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn larger_model_with_uneven_vault_shares() {
    // 12×12 functional front-end with 20 primary channels: L = 80 caps,
    // 80 rows over 16 vaults = 5 each; conv1 weight rows (16) also split.
    let dir = tmp_dir("uneven");
    let path = dir.join("wide.pimcaps");
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.primary_channels = 20;
    spec.h_caps = 5;
    let net = CapsNet::seeded(&spec, 11).unwrap();
    ModelWriter::vault_aligned().save(&net, &path).unwrap();
    let mapped = MappedModel::open(&path).unwrap();
    let parts = mapped.vault_partitions("caps.weight").unwrap();
    let rows: Vec<usize> = parts.iter().map(|p| p.rows).collect();
    assert_eq!(rows.iter().sum::<usize>(), spec.l_caps().unwrap());
    assert_forward_bitwise(&net, &mapped.capsnet().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_and_open_give_bitwise_identical_forwards_over_layouts_and_dtypes() {
    let dir = tmp_dir("read_vs_open");
    let net = tiny_net(23);
    for (layout, writer) in [
        ("packed", ModelWriter::new()),
        ("vault", ModelWriter::vault_aligned()),
    ] {
        for (dtype, quant) in [
            ("f32", None),
            ("int8", Some(QuantDType::I8)),
            ("fp16", Some(QuantDType::F16)),
        ] {
            let path = dir.join(format!("{layout}_{dtype}.pimcaps"));
            let writer = match quant {
                Some(q) => writer.clone().with_quant(QuantSpec::weights(q)),
                None => writer.clone(),
            };
            writer.save(&net, &path).unwrap();
            let owned = MappedModel::read(&path).unwrap();
            let mapped = MappedModel::open(&path).unwrap();
            assert!(!owned.is_mapped(), "{layout}/{dtype}: read never maps");
            assert!(
                mapped.is_mapped(),
                "{layout}/{dtype}: unix hosts must really mmap"
            );
            assert_eq!(owned.image_len(), mapped.image_len());
            assert_forward_bitwise(&mapped.capsnet().unwrap(), &owned.capsnet().unwrap());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shared_artifact_backs_many_networks_with_one_mapping() {
    let dir = tmp_dir("shared_artifact");
    let path = dir.join("shared.pimcaps");
    let net = tiny_net(31);
    ModelWriter::new().save(&net, &path).unwrap();

    let artifact = MappedModel::open(&path).unwrap();
    assert_eq!(artifact.path(), path.as_path());
    assert!(artifact.image_len() > 0);
    #[cfg(unix)]
    assert!(artifact.is_mapped());

    // Every network built from the one artifact (one per replica, say)
    // reads the caps weight from the same physical bytes: identical
    // backing pointers, zero owned copies of the packed-layout tensors.
    let nets: Vec<CapsNet> = (0..3).map(|_| artifact.capsnet().unwrap()).collect();
    let base_ptr = nets[0]
        .named_weights()
        .iter()
        .find(|(n, _)| n == "caps.weight")
        .map(|(_, t)| t.expect_f32().as_slice().as_ptr())
        .unwrap();
    for net_i in &nets {
        for (name, t) in net_i.named_weights() {
            assert!(t.is_shared(), "{name} should borrow the shared mapping");
            if name == "caps.weight" {
                assert_eq!(
                    t.expect_f32().as_slice().as_ptr(),
                    base_ptr,
                    "replicas must share bytes"
                );
            }
        }
    }
    for n in &nets {
        assert_forward_bitwise(&net, n);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_place_truncation_is_a_typed_error_not_a_crash() {
    // The rollout contract says artifacts are only replaced via the atomic
    // temp+rename writer. If something violates that and truncates the
    // file in place, readers opening it afterwards must get a typed error
    // (the header commits to the full length), never a SIGBUS or panic.
    let dir = tmp_dir("truncate_in_place");
    let path = dir.join("t.pimcaps");
    ModelWriter::vault_aligned()
        .save(&tiny_net(5), &path)
        .unwrap();
    let full = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full - 64).unwrap();
    drop(f);
    assert!(matches!(
        MappedModel::open(&path),
        Err(pim_store::StoreError::Truncated { .. })
    ));
    assert!(matches!(
        MappedModel::read(&path),
        Err(pim_store::StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
