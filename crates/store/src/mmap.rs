//! Read-only file memory mapping via direct `libc` FFI.
//!
//! The workspace has no registry access, so instead of the `memmap2` crate
//! this module declares the two syscall wrappers it needs (`mmap`,
//! `munmap`) against the C library the Rust standard library already
//! links. Unix-only; on other platforms [`map_file`] reports
//! [`StoreError::MmapUnsupported`] and callers fall back to owned reads.

use crate::error::StoreError;

/// A read-only, private memory mapping of an entire file. Unmapped on
/// drop. The mapping is immutable for its lifetime, so sharing the bytes
/// across threads is sound (`Send + Sync` below).
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never handed out mutably; the
// pointer is owned by this struct alone and freed exactly once in Drop.
unsafe impl Send for Mmap {}
// SAFETY: same argument as Send — the bytes are immutable for the
// mapping's whole lifetime, so shared references are sound across threads.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }

    /// Mapped length in bytes.
    #[allow(dead_code)] // exercised by tests; kept for API symmetry
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty mapping.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(unix)]
mod sys {
    use super::{Mmap, StoreError};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    pub(super) fn map(file: &std::fs::File, len: usize) -> Result<Mmap, StoreError> {
        if len == 0 {
            // mmap(len = 0) is EINVAL; model artifacts are never empty, but
            // return the canonical empty mapping rather than an OS error.
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: plain PROT_READ/MAP_PRIVATE mapping of an open fd; the
        // kernel validates every argument and we check the sentinel below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(StoreError::Io(std::io::Error::last_os_error()));
        }
        Ok(Mmap { ptr, len })
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: ptr/len came from a successful mmap owned by the
                // dropping Mmap; munmap failure on a valid mapping is
                // unreachable, and there is nothing useful to do with it in
                // Drop anyway.
                unsafe {
                    let _ = munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// Rejects a mapping whose file changed size between the pre-map stat and
/// the post-map re-stat.
///
/// A mapping is sized from `metadata().len()`, but nothing stops another
/// process from truncating or rewriting the file between that stat and the
/// `mmap` call. A mapping that extends past the file's real end SIGBUSes
/// the first reader that touches the missing pages — with a multi-replica
/// supervisor mapping one artifact N times, that is every replica at once.
/// Re-statting the *open descriptor* after the map closes that window: the
/// mapping's extent is fixed at map time, so a post-map length equal to the
/// pre-map length proves the bytes behind the mapping all exist.
///
/// Mutations *after* this check are excluded by the writer contract
/// instead: artifacts are only ever replaced via `ModelWriter`'s atomic
/// temp-file + `rename` (see `crates/store/src/writer.rs`), which swaps the
/// directory entry and never touches the mapped inode — a reader's mapping
/// keeps the old file alive until unmapped. Rollout code must never rewrite
/// an artifact in place.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the lengths disagree.
fn ensure_len_stable(mapped_len: usize, len_after_map: u64) -> Result<(), StoreError> {
    if mapped_len as u64 != len_after_map {
        return Err(StoreError::Corrupt(format!(
            "file resized during mapping: mapped {mapped_len} bytes, file now {len_after_map} \
             (artifact replaced non-atomically? writers must use atomic temp+rename)"
        )));
    }
    Ok(())
}

/// Maps `path` read-only in its entirety.
///
/// The mapped length is validated against a re-stat of the open descriptor
/// **after** the map (see [`ensure_len_stable`]), so a concurrently
/// truncated or non-atomically overwritten artifact surfaces as a typed
/// [`StoreError::Corrupt`] instead of a SIGBUS in whoever reads the
/// mapping first.
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be opened, statted, or mapped;
/// [`StoreError::Corrupt`] when the file's length changed while mapping;
/// [`StoreError::MmapUnsupported`] on non-Unix targets (callers fall back
/// to owned reads).
pub fn map_file(path: &std::path::Path) -> Result<Mmap, StoreError> {
    #[cfg(unix)]
    {
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| StoreError::Corrupt("file larger than address space".into()))?;
        let mapping = sys::map(&file, len)?;
        ensure_len_stable(mapping.len(), file.metadata()?.len())?;
        Ok(mapping)
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        Err(StoreError::MmapUnsupported)
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents_read_only() {
        let path = std::env::temp_dir().join(format!("pim_store_mmap_test_{}", std::process::id()));
        std::fs::write(&path, b"hello mapping").unwrap();
        let m = map_file(&path).unwrap();
        assert_eq!(m.as_bytes(), b"hello mapping");
        assert_eq!(m.len(), 13);
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = map_file(std::path::Path::new("/nonexistent/pim_store_nope")).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }

    #[test]
    fn length_instability_is_corrupt_not_a_crash() {
        // The race itself (truncation between stat and map) cannot be
        // provoked deterministically from a test, so the check is factored
        // out and pinned here: any disagreement between the mapped length
        // and the post-map file length must surface as a typed Corrupt.
        ensure_len_stable(4096, 4096).unwrap();
        ensure_len_stable(0, 0).unwrap();
        let err = ensure_len_stable(4096, 1024).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        assert!(err.to_string().contains("resized during mapping"));
        // Growth is just as fatal: the header's committed file_len no
        // longer describes the inode either way.
        assert!(ensure_len_stable(1024, 4096).is_err());
    }
}
