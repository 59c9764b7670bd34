//! Lock-free atomic bloom filter for negative-lookup admission.
//!
//! The cache's common case at scale is a **miss**: most request digests
//! have never been seen. A bloom filter answers "definitely absent" with a
//! handful of relaxed atomic loads, so the negative path never touches a
//! cache-shard mutex. Bits are set with `fetch_or` and never cleared —
//! version-keyed membership (see [`crate::ResponseCache`]) means stale
//! epochs decay into harmless false-positive noise instead of requiring a
//! rebuild. One filter per model serves every replica of a pool, since
//! the pool shares one cache.

use std::sync::atomic::{AtomicU64, Ordering};

/// Finalizing mix (splitmix64 style) used to derive the two double-hashing
/// streams from an already-hashed 64-bit key.
fn remix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fixed-size bloom filter over `u64` keys with atomic, lock-free
/// insert/contains. Bit positions come from double hashing:
/// `(h1 + i·h2) & mask` with `h2` forced odd so every probe stream visits
/// the whole (power-of-two) bit space.
#[derive(Debug)]
pub struct AtomicBloom {
    words: Vec<AtomicU64>,
    /// Bit-index mask; bit count is always a power of two.
    mask: u64,
    hashes: u32,
}

impl AtomicBloom {
    /// A filter with at least `bits` bits (rounded up to a power of two,
    /// minimum 64) probed `hashes` times per key.
    ///
    /// # Panics
    ///
    /// Panics when `hashes` is zero.
    pub fn new(bits: usize, hashes: u32) -> Self {
        assert!(hashes >= 1, "bloom filter needs at least one hash");
        let bits = bits.max(64).next_power_of_two();
        let words = (0..bits / 64).map(|_| AtomicU64::new(0)).collect();
        AtomicBloom {
            words,
            mask: (bits - 1) as u64,
            hashes,
        }
    }

    /// Number of bits in the filter.
    pub fn bits(&self) -> usize {
        self.words.len() * 64
    }

    fn streams(&self, key: u64) -> (u64, u64) {
        let h1 = remix(key);
        let h2 = remix(key ^ 0x6A09_E667_F3BC_C909) | 1;
        (h1, h2)
    }

    /// Sets the key's bits.
    pub fn insert(&self, key: u64) {
        let (h1, h2) = self.streams(key);
        for i in 0..u64::from(self.hashes) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            self.words[(bit / 64) as usize].fetch_or(1 << (bit % 64), Ordering::Relaxed);
        }
    }

    /// `false` means **definitely absent**; `true` means "possibly present"
    /// and the caller must fall through to an exact-key check.
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = self.streams(key);
        (0..u64::from(self.hashes)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            self.words[(bit / 64) as usize].load(Ordering::Relaxed) & (1 << (bit % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_bits_up_to_power_of_two() {
        assert_eq!(AtomicBloom::new(0, 1).bits(), 64);
        assert_eq!(AtomicBloom::new(65, 1).bits(), 128);
        assert_eq!(AtomicBloom::new(1 << 14, 3).bits(), 1 << 14);
    }

    #[test]
    fn no_false_negatives() {
        let bloom = AtomicBloom::new(1 << 14, 3);
        let keys: Vec<u64> = (0..1000u64).map(remix).collect();
        for &k in &keys {
            bloom.insert(k);
        }
        for &k in &keys {
            assert!(bloom.contains(k), "inserted key {k:#x} reported absent");
        }
    }

    #[test]
    fn most_absent_keys_are_negative() {
        let bloom = AtomicBloom::new(1 << 16, 3);
        for i in 0..256u64 {
            bloom.insert(remix(i));
        }
        let false_positives = (10_000..20_000u64)
            .filter(|&i| bloom.contains(remix(i)))
            .count();
        // 256 keys × 3 bits in 65536 bits → fp rate well under 1%.
        assert!(false_positives < 100, "{false_positives} false positives");
    }
}
