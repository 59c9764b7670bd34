//! Corruption resistance: truncated files, flipped bytes, bad magic and
//! wrong format versions must all be rejected with typed errors — never a
//! panic, never a silently-wrong model.

use capsnet::{CapsNet, CapsNetError, CapsNetSpec};
use pim_store::format::{decode_table, Header, FORMAT_VERSION, HEADER_LEN};
use pim_store::hash::hash64;
use pim_store::{MappedModel, ModelWriter, StoreError};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_store_corrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn artifact_bytes(dir: &std::path::Path) -> (std::path::PathBuf, Vec<u8>) {
    let path = dir.join("model.pimcaps");
    let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 5).unwrap();
    ModelWriter::vault_aligned().save(&net, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Both backings must reject the on-disk bytes at `path`.
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

#[test]
fn truncation_at_every_region_is_rejected() {
    let dir = tmp_dir("trunc");
    let (path, bytes) = artifact_bytes(&dir);
    // Cut inside the header, the spec, the table, the data, and one byte
    // short of complete.
    for keep in [
        0,
        10,
        HEADER_LEN - 1,
        HEADER_LEN + 5,
        200,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        assert_both_backings_reject(&path, &format!("a file truncated to {keep} bytes"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_flipped_byte_is_detected() {
    let dir = tmp_dir("flip");
    let (path, bytes) = artifact_bytes(&dir);
    // Flip one byte in each region: header fields, spec, table, and the
    // first, a middle and the last byte of every stored partition. (The
    // alignment padding between sections is the one region checksums do
    // not cover — it carries no information.)
    let mut positions = vec![9, 13, 22, 30, 70, 90, 150, 200];
    let header = Header::decode(&bytes).unwrap();
    let table = &bytes[header.table_off as usize..(header.table_off + header.table_len) as usize];
    for record in decode_table(table, header.tensor_count, header.version).unwrap() {
        for p in &record.partitions {
            let (start, len) = (p.offset as usize, (p.elems * record.elem_bytes()) as usize);
            positions.extend([start, start + len / 2, start + len - 1]);
        }
    }
    for &pos in &positions {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        if corrupt[pos] == bytes[pos] {
            continue;
        }
        std::fs::write(&path, &corrupt).unwrap();
        assert_both_backings_reject(&path, &format!("a byte flip at offset {pos}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_magic_is_a_typed_error() {
    let dir = tmp_dir("magic");
    let (path, mut bytes) = artifact_bytes(&dir);
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        MappedModel::read(&path),
        Err(StoreError::BadMagic)
    ));
    assert!(matches!(
        MappedModel::open(&path),
        Err(StoreError::BadMagic)
    ));
    // Arbitrary non-artifact files too.
    std::fs::write(&path, b"not an artifact at all").unwrap();
    assert_both_backings_reject(&path, "a random file");
    std::fs::write(&path, b"").unwrap();
    assert_both_backings_reject(&path, "an empty file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wrong_version_is_a_typed_error() {
    let dir = tmp_dir("version");
    let (path, mut bytes) = artifact_bytes(&dir);
    // Re-encode the header with a future version and a *valid* checksum:
    // the reader must refuse on the version, not on corruption.
    let mut header = Header::decode(&bytes).unwrap();
    header.version = FORMAT_VERSION + 1;
    bytes[..HEADER_LEN].copy_from_slice(&header.encode());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        MappedModel::read(&path),
        Err(StoreError::UnsupportedVersion { found }) if found == header.version
    ));
    assert!(matches!(
        MappedModel::open(&path),
        Err(StoreError::UnsupportedVersion { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crafted_headers_with_huge_fields_are_typed_errors_not_panics() {
    // A forged header carries a *valid* checksum (the hash is public), so
    // the readers must survive adversarial field values: near-overflow
    // spec lengths and absurd tensor counts must produce typed errors,
    // never arithmetic panics or abort-on-alloc.
    let dir = tmp_dir("crafted");
    let (path, bytes) = artifact_bytes(&dir);
    let base = Header::decode(&bytes).unwrap();

    // spec_len chosen so HEADER_LEN + spec_len (+8) brushes u64::MAX.
    for spec_len in [u64::MAX - 64, u64::MAX - 72, u64::MAX / 2] {
        let mut header = base.clone();
        header.spec_len = spec_len;
        let mut crafted = bytes.clone();
        crafted[..HEADER_LEN].copy_from_slice(&header.encode());
        std::fs::write(&path, &crafted).unwrap();
        assert_both_backings_reject(&path, &format!("a header with spec_len {spec_len}"));
    }

    // tensor_count = u32::MAX would be a ~380 GB Vec pre-allocation if
    // trusted before validation.
    let mut header = base.clone();
    header.tensor_count = u32::MAX;
    let mut crafted = bytes.clone();
    crafted[..HEADER_LEN].copy_from_slice(&header.encode());
    std::fs::write(&path, &crafted).unwrap();
    assert_both_backings_reject(&path, "a header with tensor_count u32::MAX");

    // table_off/table_len near the end of the address space.
    let mut header = base;
    header.table_off = u64::MAX - 4;
    header.table_len = 16;
    let mut crafted = bytes.clone();
    crafted[..HEADER_LEN].copy_from_slice(&header.encode());
    std::fs::write(&path, &crafted).unwrap();
    assert_both_backings_reject(&path, "a header with table_off near u64::MAX");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checksum_valid_spec_with_a_zero_kernel_or_stride_is_a_typed_error() {
    // The spec section's fields in order after the name: input_channels,
    // input_h, input_w, conv1_channels, conv1_kernel (4), conv1_stride (5),
    // primary_channels, cl_dim, primary_kernel (8), primary_stride (9), …
    let dir = tmp_dir("zero_geometry");
    let (path, bytes) = artifact_bytes(&dir);
    let header = Header::decode(&bytes).unwrap();
    let spec_end = HEADER_LEN + header.spec_len as usize;
    let name_len = u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
    let fields = HEADER_LEN + 4 + name_len as usize;
    for (field, name) in [
        (4, "conv1_kernel"),
        (5, "conv1_stride"),
        (8, "primary_kernel"),
        (9, "primary_stride"),
    ] {
        let mut forged = bytes.clone();
        let at = fields + 4 * field;
        forged[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        // Recompute the spec checksum, as anyone rewriting the file can.
        let sum = hash64(&forged[HEADER_LEN..spec_end]);
        forged[spec_end..spec_end + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        for result in [
            MappedModel::read(&path).map(|_| ()),
            MappedModel::open(&path).map(|_| ()),
        ] {
            match result {
                Err(StoreError::CapsNet(CapsNetError::InvalidSpec(_))) => {}
                other => panic!("{name} = 0: expected InvalidSpec, got {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trailing_garbage_is_rejected() {
    let dir = tmp_dir("trailing");
    let (path, mut bytes) = artifact_bytes(&dir);
    bytes.extend_from_slice(&[0xAB; 64]);
    std::fs::write(&path, &bytes).unwrap();
    assert_both_backings_reject(&path, "a file with trailing garbage");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_committed_length_off_the_data_alignment_is_corrupt() {
    // Every writer pads the image to a multiple of 64 bytes. A file grown
    // by one byte whose header commits to the new length (checksum
    // recomputed, as anyone rewriting the file can) must be refused, not
    // copied into an owned image in place of the mapping.
    let dir = tmp_dir("odd_len");
    let (path, mut bytes) = artifact_bytes(&dir);
    let mut header = Header::decode(&bytes).unwrap();
    header.file_len += 1;
    bytes.push(0);
    bytes[..HEADER_LEN].copy_from_slice(&header.encode());
    std::fs::write(&path, &bytes).unwrap();
    for result in [
        MappedModel::read(&path).map(|_| ()),
        MappedModel::open(&path).map(|_| ()),
    ] {
        match result {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("a {}-byte committed length: {other:?}", header.file_len),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_file_is_io() {
    let path = std::path::Path::new("/nonexistent/pim_store_missing.pimcaps");
    assert!(matches!(MappedModel::read(path), Err(StoreError::Io(_))));
    assert!(matches!(MappedModel::open(path), Err(StoreError::Io(_))));
}
