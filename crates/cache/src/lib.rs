//! **pim-cache** — content-addressed response caching for the serving tier.
//!
//! At millions of users, duplicate inference requests dominate traffic and
//! the cheapest forward pass is the one never run — the paper's data-reuse
//! argument lifted from the accelerator to the serving tier. This crate
//! provides the cache itself; `pim-serve` wires it in front of admission:
//!
//! * **Content-addressed keys.** Entries are keyed by
//!   `(model, version, digest)` where the digest is the shared
//!   [`pim_store::hash`] XXH64-style checksum of the request tensor's raw
//!   bytes (hashed zero-copy — no materialized byte copies). Two requests
//!   with bit-identical input tensors collide onto one entry; anything else
//!   cannot.
//! * **Bloom-filter admission** ([`bloom::AtomicBloom`]): the
//!   overwhelmingly-common negative lookup is answered by a handful of
//!   relaxed atomic loads and never touches a cache-shard lock.
//! * **Sharded CLOCK eviction** under a byte budget: each shard keeps a
//!   clock ring; referenced entries get a second chance, unreferenced ones
//!   are evicted when the budget is exceeded.
//! * **Version-keyed invalidation, free under hot-swap.** The serving
//!   registry's versions are strictly monotone, so a swap simply orphans
//!   the old version's entries: lookups for the new version cannot match
//!   them, and the clock hand fast-tracks their reclamation
//!   (`orphan_evictions`). In-flight batches still holding the old model
//!   `Arc` may keep filling their own epoch — harmless, lazily reclaimed.
//! * **One cache per replica pool.** The cache is `Sync` and its keys
//!   carry the version, so every replica of a `pim-serve` pool shares one
//!   instance: a response one replica filled is a hit on every other. This
//!   is sound because a pool numbers its versions from one counter — one
//!   `(model, version)` names one network on every replica.
//!
//! The crate is value-agnostic: anything `Clone + Send + Sync` with a
//! byte-cost estimate ([`CacheValue`]) can be cached.

pub mod bloom;

use bloom::AtomicBloom;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Re-export of the shared digest implementation so callers hash with the
/// exact machinery the artifact store uses — one implementation, no copy.
pub use pim_store::hash;

/// Configuration of a [`ResponseCache`]. `Copy` so it can ride inside the
/// serve tier's `Copy` config structs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total cached-value byte budget across all shards — for a replica
    /// pool, the budget of the one cache every replica shares.
    pub byte_budget: usize,
    /// Number of independently locked shards.
    pub shards: usize,
    /// Bloom filter size in bits per model (rounded up to a power of two).
    pub bloom_bits: usize,
    /// Probes per key in the bloom filter.
    pub bloom_hashes: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 << 20,
            shards: 8,
            bloom_bits: 1 << 16,
            bloom_hashes: 3,
        }
    }
}

impl CacheConfig {
    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.byte_budget == 0 {
            return Err("byte_budget must be positive".into());
        }
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        if self.bloom_hashes == 0 || self.bloom_hashes > 16 {
            return Err("bloom_hashes must be in 1..=16".into());
        }
        Ok(())
    }
}

/// A cacheable response payload.
pub trait CacheValue: Clone + Send + Sync {
    /// Approximate heap footprint, charged against
    /// [`CacheConfig::byte_budget`].
    fn cost_bytes(&self) -> usize;
}

/// Counter snapshot from [`ResponseCache::report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheReport {
    /// Exact-key lookup hits.
    pub hits: u64,
    /// Lookup misses (bloom negatives included).
    pub misses: u64,
    /// Misses answered by the bloom filter alone — no shard lock touched.
    pub bloom_negatives: u64,
    /// Values admitted.
    pub insertions: u64,
    /// Live entries evicted under byte pressure.
    pub evictions: u64,
    /// Entries reclaimed because a hot-swap orphaned their version.
    pub orphan_evictions: u64,
    /// Current entry count.
    pub entries: u64,
    /// Current charged bytes.
    pub bytes: u64,
}

impl CacheReport {
    /// Hit fraction over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    model: usize,
    version: u64,
    digest: u64,
}

struct Entry<V> {
    value: V,
    cost: usize,
    /// CLOCK reference counter: decremented as the hand passes, evicted at
    /// zero. Fresh inserts start at 1; hits raise it to protected.
    clock: u8,
}

/// Clock credit for a fresh insert.
const CLOCK_FRESH: u8 = 1;
/// Clock credit for an entry that was hit.
const CLOCK_PROTECTED: u8 = 3;

struct Shard<V> {
    map: HashMap<Key, Entry<V>>,
    /// CLOCK ring over the map's keys; `hand` indexes the next victim
    /// candidate. Eviction `swap_remove`s, so order is arbitrary but every
    /// entry is visited once per lap.
    ring: Vec<Key>,
    hand: usize,
    bytes: usize,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            bytes: 0,
        }
    }

    fn evict_at(&mut self, i: usize) -> Key {
        let key = self.ring.swap_remove(i);
        // LINT-ALLOW(R2): evict_at is only called with keys read off the ring, and ring/map membership moves together under the shard lock
        let entry = self.map.remove(&key).expect("ring key present in map");
        self.bytes -= entry.cost;
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
        key
    }
}

/// Per-model shared state: bloom membership and the newest version
/// observed (the invalidation watermark).
struct ModelState {
    bloom: AtomicBloom,
    latest_version: AtomicU64,
}

#[derive(Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    bloom_negatives: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    orphan_evictions: AtomicU64,
}

/// Mixes `(version, digest)` into the bloom key so a hot-swap's new epoch
/// probes disjoint bits — old-epoch bits decay into false-positive noise
/// instead of requiring a filter rebuild.
fn bloom_key(version: u64, digest: u64) -> u64 {
    let mut x = digest ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x ^ (x >> 31)
}

/// Bounded, sharded, content-addressed response cache. See the crate docs
/// for the design; `pim-serve` owns the integration.
pub struct ResponseCache<V> {
    cfg: CacheConfig,
    models: Vec<ModelState>,
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: usize,
    stats: Stats,
}

impl<V: CacheValue> ResponseCache<V> {
    /// A cache for `models` registered models.
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid or `models` is zero.
    pub fn new(cfg: CacheConfig, models: usize) -> Self {
        // LINT-ALLOW(R2): constructor contract: the `# Panics` doc requires a validated config; serving code builds configs from checked defaults
        cfg.validate().expect("valid cache config");
        assert!(models >= 1, "cache needs at least one model");
        let model_states = (0..models)
            .map(|_| ModelState {
                bloom: AtomicBloom::new(cfg.bloom_bits, cfg.bloom_hashes),
                latest_version: AtomicU64::new(0),
            })
            .collect();
        let shards = (0..cfg.shards).map(|_| Mutex::new(Shard::new())).collect();
        ResponseCache {
            shard_budget: (cfg.byte_budget / cfg.shards).max(1),
            cfg,
            models: model_states,
            shards,
            stats: Stats::default(),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of models the cache tracks.
    pub fn models(&self) -> usize {
        self.models.len()
    }

    fn shard_of(&self, digest: u64) -> &Mutex<Shard<V>> {
        // The digest is already avalanched; fold the high bits in so
        // shard count doesn't alias low-bit structure.
        &self.shards[((digest ^ (digest >> 32)) % self.shards.len() as u64) as usize]
    }

    fn lock_shard(&self, digest: u64) -> std::sync::MutexGuard<'_, Shard<V>> {
        match self.shard_of(digest).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up `(model, version, digest)`. The bloom filter answers the
    /// common negative without locking; a positive falls through to the
    /// exact-key check (bloom false positives miss correctly there).
    pub fn get(&self, model: usize, version: u64, digest: u64) -> Option<V> {
        let state = &self.models[model];
        state.latest_version.fetch_max(version, Ordering::Relaxed);
        if !state.bloom.contains(bloom_key(version, digest)) {
            self.stats.bloom_negatives.fetch_add(1, Ordering::Relaxed);
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = Key {
            model,
            version,
            digest,
        };
        let mut shard = self.lock_shard(digest);
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.clock = CLOCK_PROTECTED;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Admits a value under the byte budget, evicting via CLOCK as needed.
    /// Returns `false` when the value alone exceeds a shard's budget.
    ///
    /// Inserting under an orphaned (pre-swap) version is allowed — an
    /// in-flight batch on the old model `Arc` fills its own epoch and the
    /// entry is fast-tracked for reclamation.
    pub fn insert(&self, model: usize, version: u64, digest: u64, value: V) -> bool {
        let state = &self.models[model];
        state.latest_version.fetch_max(version, Ordering::Relaxed);
        let cost = value.cost_bytes().max(1);
        if cost > self.shard_budget {
            return false;
        }
        let key = Key {
            model,
            version,
            digest,
        };
        // Bloom bits are set *before* the entry is published into the
        // shard map. Lock-free probes read the filter without the shard
        // lock, and the filter's contract is "negative ⇒ definitely
        // absent": publishing the entry first would open a window where a
        // racing probe sees the entry's key miss the filter and skips a
        // present value. Setting bits first is the safe over-approximation
        // (a transient false positive costs one locked lookup). Modeled as
        // the `bloom` interleaving check in `pim_analyzer::exhaust`, whose
        // Broken variant is exactly the publish-then-set order this used
        // to have.
        state.bloom.insert(bloom_key(version, digest));
        let mut shard = self.lock_shard(digest);
        if let Some(entry) = shard.map.get_mut(&key) {
            // Concurrent fill of the same key: keep the existing entry
            // (values are bit-identical by construction), refresh credit.
            entry.clock = entry.clock.max(CLOCK_FRESH);
            return true;
        }
        // CLOCK sweep until the new entry fits. Each full lap decrements
        // every counter, so the loop terminates; the lap guard force-evicts
        // if every survivor is somehow pinned.
        let mut scanned = 0usize;
        while shard.bytes + cost > self.shard_budget && !shard.ring.is_empty() {
            let hand = shard.hand;
            let candidate = shard.ring[hand];
            let orphaned = candidate.version
                < self.models[candidate.model]
                    .latest_version
                    .load(Ordering::Relaxed);
            let lap_guard = shard.ring.len() * (CLOCK_PROTECTED as usize + 1);
            if orphaned {
                shard.evict_at(hand);
                self.stats.orphan_evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                // LINT-ALLOW(R2): the candidate key was just read from this shard's ring under the same lock that guards both structures
                let entry = shard.map.get_mut(&candidate).expect("ring key in map");
                if entry.clock > 0 && scanned < lap_guard {
                    entry.clock -= 1;
                    shard.hand = (hand + 1) % shard.ring.len();
                } else {
                    shard.evict_at(hand);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            scanned += 1;
        }
        shard.bytes += cost;
        shard.ring.push(key);
        shard.map.insert(
            key,
            Entry {
                value,
                cost,
                clock: CLOCK_FRESH,
            },
        );
        drop(shard);
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Counter snapshot.
    pub fn report(&self) -> CacheReport {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheReport {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            bloom_negatives: self.stats.bloom_negatives.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            orphan_evictions: self.stats.orphan_evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheValue for Vec<u8> {
        fn cost_bytes(&self) -> usize {
            self.len()
        }
    }

    fn small() -> CacheConfig {
        CacheConfig {
            byte_budget: 1024,
            shards: 1,
            bloom_bits: 1 << 12,
            bloom_hashes: 3,
        }
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        assert!(CacheConfig::default().validate().is_ok());
        for cfg in [
            CacheConfig {
                byte_budget: 0,
                ..CacheConfig::default()
            },
            CacheConfig {
                shards: 0,
                ..CacheConfig::default()
            },
            CacheConfig {
                bloom_hashes: 0,
                ..CacheConfig::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn bloom_bits_published_before_shard_entry() {
        // Regression for the insert publication order: the bloom filter
        // must answer "maybe" for any key whose entry is visible in a
        // shard, because lock-free probes treat a bloom negative as a
        // definitive miss. The old order (shard entry first, bits after)
        // had a window where a racing reader skipped a present value; the
        // exhaustive interleaving proof lives in `pim_analyzer::exhaust`
        // (`bloom` model) — this test races the real structures and pins
        // the invariant on the production code path.
        // Budget sized so no insert ever evicts: every published entry
        // stays observable, and the reader's spin below always terminates.
        let cfg = CacheConfig {
            byte_budget: 64 * 1024,
            shards: 1,
            bloom_bits: 1 << 16,
            bloom_hashes: 3,
        };
        let cache: std::sync::Arc<ResponseCache<Vec<u8>>> =
            std::sync::Arc::new(ResponseCache::new(cfg, 1));
        let writer = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                for digest in 0..2_000u64 {
                    assert!(cache.insert(0, 1, digest, vec![0u8; 8]));
                }
            })
        };
        // Reader: the moment an entry becomes visible under the shard
        // lock, the bloom bits must already be set — they are written
        // before the shard lock is taken, and the lock acquisition orders
        // them before our probe.
        for digest in 0..2_000u64 {
            loop {
                let published = {
                    let shard = cache.lock_shard(digest);
                    shard.map.contains_key(&Key {
                        model: 0,
                        version: 1,
                        digest,
                    })
                };
                if published {
                    assert!(
                        cache.models[0].bloom.contains(bloom_key(1, digest)),
                        "digest {digest} visible in shard but bloom still negative"
                    );
                    break;
                }
                std::hint::spin_loop();
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn roundtrip_hit_and_miss() {
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 2);
        assert_eq!(cache.get(0, 1, 42), None);
        assert!(cache.insert(0, 1, 42, vec![1, 2, 3]));
        assert_eq!(cache.get(0, 1, 42), Some(vec![1, 2, 3]));
        // Different digest, version, or model each miss.
        assert_eq!(cache.get(0, 1, 43), None);
        assert_eq!(cache.get(0, 2, 42), None);
        assert_eq!(cache.get(1, 1, 42), None);
        let rep = cache.report();
        assert_eq!(rep.hits, 1);
        assert_eq!(rep.misses, 4);
        assert!(rep.bloom_negatives >= 2, "{rep:?}");
        assert_eq!(rep.entries, 1);
        assert_eq!(rep.bytes, 3);
    }

    #[test]
    fn negative_lookups_are_bloom_answered() {
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 1);
        for d in 0..64u64 {
            assert_eq!(cache.get(0, 1, d), None);
        }
        let rep = cache.report();
        // An empty bloom answers every lookup without a false positive.
        assert_eq!(rep.bloom_negatives, 64);
        assert_eq!(rep.misses, 64);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 1);
        for d in 0..100u64 {
            assert!(cache.insert(0, 1, d, vec![0u8; 100]));
        }
        let rep = cache.report();
        assert!(rep.bytes <= 1024, "{} bytes over budget", rep.bytes);
        assert_eq!(rep.entries, rep.bytes / 100);
        assert_eq!(rep.evictions + rep.entries, 100);
        // Oversized values are rejected outright.
        assert!(!cache.insert(0, 1, 200, vec![0u8; 4096]));
    }

    #[test]
    fn clock_keeps_recently_hit_entries() {
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 1);
        // Fill the budget, then hammer one key so its clock credit is high.
        for d in 0..10u64 {
            cache.insert(0, 1, d, vec![0u8; 100]);
        }
        for _ in 0..4 {
            assert!(cache.get(0, 1, 7).is_some());
        }
        // Pressure: insert fresh keys; the hot key must survive the sweep.
        for d in 100..105u64 {
            cache.insert(0, 1, d, vec![0u8; 100]);
        }
        assert!(cache.get(0, 1, 7).is_some(), "hot entry was evicted");
    }

    #[test]
    fn hot_swap_orphans_old_version_entries() {
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 1);
        for d in 0..10u64 {
            cache.insert(0, 1, d, vec![0u8; 100]);
        }
        // The swap is observed via a lookup at the new version.
        assert_eq!(cache.get(0, 2, 0), None);
        assert_eq!(cache.models[0].latest_version.load(Ordering::Relaxed), 2);
        // Old-version entries still exist (lazy reclamation) but byte
        // pressure reclaims them first, before any live entry.
        for d in 0..5u64 {
            cache.insert(0, 2, d, vec![0u8; 100]);
        }
        let rep = cache.report();
        assert!(rep.orphan_evictions >= 5, "{rep:?}");
        for d in 0..5u64 {
            assert!(cache.get(0, 2, d).is_some(), "live entry {d} evicted");
        }
        // An in-flight batch on the old Arc may still fill its epoch.
        assert!(cache.insert(0, 1, 99, vec![0u8; 10]));
    }

    #[test]
    fn bloom_collision_still_misses_on_exact_key() {
        // Adversarial: a tiny 64-bit bloom makes collisions easy to find.
        let cfg = CacheConfig {
            bloom_bits: 64,
            bloom_hashes: 2,
            ..small()
        };
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(cfg, 1);
        cache.insert(0, 1, 0xDEAD_BEEF, vec![1]);
        // Find a distinct digest whose bloom probes all land on set bits:
        // a bloom-positive miss does NOT increment bloom_negatives.
        let mut colliding = None;
        for d in 0..1_000_000u64 {
            if d == 0xDEAD_BEEF {
                continue;
            }
            let negatives_before = cache.report().bloom_negatives;
            assert!(cache.get(0, 1, d).is_none(), "distinct input served value");
            if cache.report().bloom_negatives == negatives_before {
                colliding = Some(d);
                break;
            }
        }
        // The colliding digest passed the bloom but missed on the exact
        // key — a false positive never serves a wrong value.
        let colliding = colliding.expect("a 64-bit bloom collides quickly");
        assert_ne!(colliding, 0xDEAD_BEEF);
        assert!(cache.get(0, 1, colliding).is_none());
    }

    #[test]
    fn report_hit_rate() {
        let rep = CacheReport {
            hits: 3,
            misses: 1,
            ..CacheReport::default()
        };
        assert!((rep.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheReport::default().hit_rate(), 0.0);
    }
}
