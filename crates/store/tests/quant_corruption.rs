//! Corruption resistance for quantized (format v2) artifacts: truncation
//! inside the per-partition affine-parameter block, flipped bytes in int8
//! and fp16 payloads, forged dtype tags with *valid* table checksums, and
//! a valid-checksum artifact declaring an unknown future dtype — all
//! typed [`StoreError`]s, never a panic. An int8 partition boundary moved
//! inside a capsule is rejected too, even with every checksum recomputed.

use capsnet::{CapsNet, CapsNetSpec};
use pim_store::format::{decode_table, Header};
use pim_store::hash::{hash64, Hasher};
use pim_store::{MappedModel, ModelWriter, QuantSpec, StoreError};
use pim_tensor::QuantDType;

const DTYPE_F32: u8 = 1;
const DTYPE_I8: u8 = 2;
const DTYPE_F16: u8 = 3;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_store_qcorrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quant_artifact_bytes(dir: &std::path::Path, dtype: QuantDType) -> (std::path::PathBuf, Vec<u8>) {
    let path = dir.join("model.pimcaps");
    let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 5).unwrap();
    ModelWriter::vault_aligned()
        .with_quant(QuantSpec::weights(dtype))
        .save(&net, &path)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

fn assert_both_backings_reject(path: &std::path::Path, what: &str) {
    match MappedModel::read(path) {
        Err(_) => {}
        Ok(_) => panic!("MappedModel::read accepted {what}"),
    }
    match MappedModel::open(path) {
        Err(_) => {}
        Ok(_) => panic!("MappedModel::open accepted {what}"),
    }
}

/// Byte extents of one record inside the raw table bytes, found by
/// walking the v2 record encoding.
struct RecordSpan {
    /// Offset of the record's dtype byte, relative to the table start.
    dtype_at: usize,
    /// Offset of the first partition's affine scale bytes (int8 records
    /// only), relative to the table start.
    first_params_at: Option<usize>,
    /// Offset of the first partition's `(offset, elems)` pair, relative to
    /// the table start.
    first_part_at: usize,
    /// Bytes per partition entry.
    part_len: usize,
    /// Partition count.
    parts: usize,
}

fn find_record(table: &[u8], want: &str) -> RecordSpan {
    let mut pos = 0usize;
    loop {
        let name_len = u16::from_le_bytes(table[pos..pos + 2].try_into().unwrap()) as usize;
        let name = std::str::from_utf8(&table[pos + 2..pos + 2 + name_len]).unwrap();
        let dtype_at = pos + 2 + name_len;
        let dtype = table[dtype_at];
        let rank = table[dtype_at + 1] as usize;
        let parts_at = dtype_at + 2 + rank * 8;
        let parts = u32::from_le_bytes(table[parts_at..parts_at + 4].try_into().unwrap()) as usize;
        let part_len = 16 + if dtype == DTYPE_I8 { 8 } else { 0 };
        if name == want {
            let first_params_at = (dtype == DTYPE_I8).then_some(parts_at + 4 + 16);
            return RecordSpan {
                dtype_at,
                first_params_at,
                first_part_at: parts_at + 4,
                part_len,
                parts,
            };
        }
        pos = parts_at + 4 + parts * part_len + 8;
        assert!(pos < table.len(), "record {want:?} not found in table");
    }
}

/// Rewrites `bytes` in place: applies `patch` to the table region, then
/// recomputes the trailing table checksum so the forgery is
/// checksum-valid (the hash is public — an attacker can always do this).
fn forge_table(bytes: &mut [u8], patch: impl FnOnce(&mut [u8], &RecordSpan), want: &str) {
    let header = Header::decode(bytes).unwrap();
    let start = header.table_off as usize;
    let end = start + header.table_len as usize;
    let span = find_record(&bytes[start..end - 8], want);
    patch(&mut bytes[start..end - 8], &span);
    let sum = hash64(&bytes[start..end - 8]);
    bytes[end - 8..end].copy_from_slice(&sum.to_le_bytes());
}

fn u64_at(table: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(table[at..at + 8].try_into().unwrap())
}

#[test]
fn an_int8_partition_boundary_inside_a_capsule_is_rejected() {
    let dir = tmp_dir("split_capsule");
    let (path, bytes) = quant_artifact_bytes(&dir, QuantDType::I8);
    // Move the first boundary 4 elements (4 bytes, keeping the offset
    // word-aligned) into the second capsule: partition 0 grows, partition
    // 1 starts later. Element counts still sum to the volume.
    let mut forged = bytes.clone();
    forge_table(
        &mut forged,
        |table, span| {
            assert!(span.parts >= 2, "caps.weight must be vault-partitioned");
            let p0 = span.first_part_at;
            let p1 = p0 + span.part_len;
            let (e0, o1, e1) = (
                u64_at(table, p0 + 8),
                u64_at(table, p1),
                u64_at(table, p1 + 8),
            );
            table[p0 + 8..p0 + 16].copy_from_slice(&(e0 + 4).to_le_bytes());
            table[p1..p1 + 8].copy_from_slice(&(o1 + 4).to_le_bytes());
            table[p1 + 8..p1 + 16].copy_from_slice(&(e1 - 4).to_le_bytes());
            // Recompute the record's data checksum over the moved
            // partitions, as the writer does.
            let mut hasher = Hasher::new();
            for k in 0..span.parts {
                let at = span.first_part_at + k * span.part_len;
                let (off, elems) = (u64_at(table, at) as usize, u64_at(table, at + 8) as usize);
                hasher.update(&bytes[off..off + elems]);
            }
            let sum_at = span.first_part_at + span.parts * span.part_len;
            table[sum_at..sum_at + 8].copy_from_slice(&hasher.finish().to_le_bytes());
        },
        "caps.weight",
    );
    std::fs::write(&path, &forged).unwrap();
    // The checksums hold, but a verified artifact must be one that builds:
    // both backings refuse the split capsule at load.
    for (what, result) in [
        ("read", MappedModel::read(&path)),
        ("open", MappedModel::open(&path)),
    ] {
        match result {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("splits a row"), "{msg}"),
            other => panic!(
                "MappedModel::{what} accepted a split capsule: {:?}",
                other.err()
            ),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_inside_affine_params_is_rejected() {
    let dir = tmp_dir("trunc_params");
    let (path, bytes) = quant_artifact_bytes(&dir, QuantDType::I8);
    let header = Header::decode(&bytes).unwrap();
    let table_start = header.table_off as usize;
    let span = find_record(
        &bytes[table_start..table_start + header.table_len as usize - 8],
        "caps.weight",
    );
    let params = table_start + span.first_params_at.unwrap();
    // Cut mid-scale, mid-zero-point, and right before the params.
    for keep in [params - 1, params + 2, params + 4, params + 6] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        assert_both_backings_reject(
            &path,
            &format!("a file cut at {keep}, inside affine params"),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_bytes_in_quant_payloads_are_rejected() {
    for (dtype, tag) in [(QuantDType::I8, "flip_i8"), (QuantDType::F16, "flip_f16")] {
        let dir = tmp_dir(tag);
        let (path, bytes) = quant_artifact_bytes(&dir, dtype);
        // The first, a middle and the last byte of every stored partition
        // of every quantized section.
        let header = Header::decode(&bytes).unwrap();
        let table =
            &bytes[header.table_off as usize..(header.table_off + header.table_len) as usize];
        let mut positions = Vec::new();
        for record in decode_table(table, header.tensor_count, header.version).unwrap() {
            if record.dtype.quant().is_none() {
                continue;
            }
            for p in &record.partitions {
                let (start, len) = (p.offset as usize, (p.elems * record.elem_bytes()) as usize);
                positions.extend([start, start + len / 2, start + len - 1]);
            }
        }
        assert!(!positions.is_empty(), "{tag}: no quantized section");
        for pos in positions {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            std::fs::write(&path, &corrupt).unwrap();
            assert_both_backings_reject(&path, &format!("{tag}: a payload flip at {pos}"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn forged_dtype_tags_with_valid_table_checksum_are_rejected() {
    // f32 → f16 forge: the record layout is identical (no affine params),
    // so the forged table parses — but the section's byte extent and its
    // data checksum no longer line up with the payload on disk.
    let dir = tmp_dir("forge_tag");
    let (path, bytes) = quant_artifact_bytes(&dir, QuantDType::F16);
    let mut forged = bytes.clone();
    forge_table(
        &mut forged,
        |table, span| {
            assert_eq!(table[span.dtype_at], DTYPE_F32);
            table[span.dtype_at] = DTYPE_F16;
        },
        "conv1.bias",
    );
    std::fs::write(&path, &forged).unwrap();
    assert_both_backings_reject(&path, "an f32 section re-tagged as f16");

    // f16 → f32 forge on the genuinely-quantized section: claims twice
    // the payload bytes that exist at that offset.
    let mut forged = bytes.clone();
    forge_table(
        &mut forged,
        |table, span| {
            assert_eq!(table[span.dtype_at], DTYPE_F16);
            table[span.dtype_at] = DTYPE_F32;
        },
        "caps.weight",
    );
    std::fs::write(&path, &forged).unwrap();
    assert_both_backings_reject(&path, "an f16 section re-tagged as f32");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_future_dtype_with_valid_checksums_is_typed() {
    // A checksum-valid artifact declaring a dtype this reader has never
    // heard of is a *future format*, not corruption: both backings must say
    // so with `UnsupportedDtype`, naming the tensor and the code.
    let dir = tmp_dir("future_dtype");
    let (path, mut bytes) = quant_artifact_bytes(&dir, QuantDType::F16);
    forge_table(
        &mut bytes,
        |table, span| {
            table[span.dtype_at] = 77;
        },
        "caps.weight",
    );
    std::fs::write(&path, &bytes).unwrap();
    for result in [
        MappedModel::read(&path).map(|_| ()),
        MappedModel::open(&path).map(|_| ()),
    ] {
        match result {
            Err(StoreError::UnsupportedDtype { name, code }) => {
                assert_eq!(name, "caps.weight");
                assert_eq!(code, 77);
            }
            other => panic!("expected UnsupportedDtype, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
