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
//! * **Exact-key lookups.** Every lookup takes one shard lock and probes
//!   the exact key; a miss costs the same lock as a hit.
//! * **Sharded CLOCK eviction** under a byte budget: each shard keeps a
//!   clock ring; referenced entries get a second chance, unreferenced ones
//!   are evicted when the budget is exceeded.
//! * **Version-keyed invalidation, free under hot-swap.** The serving
//!   registry's versions are strictly monotone, so a swap simply orphans
//!   the old version's entries: lookups for the new version cannot match
//!   them. Once no user of the cache serves the old version any more, the
//!   swapper says so ([`ResponseCache::retire_below`]), which reclaims
//!   every entry of the retired versions at once (`orphan_evictions`), so
//!   byte pressure never evicts a live entry while an orphan is cached.
//!   In-flight batches still holding the old model `Arc` may keep filling
//!   their own epoch — harmless: such a fill is reclaimed on arrival. A
//!   version some replica still serves is never an orphan, however new the
//!   versions other replicas serve.
//! * **One cache per replica pool.** The cache is `Sync` and its keys
//!   carry the version, so every replica of a `pim-serve` pool shares one
//!   instance: a response one replica filled is a hit on every other. This
//!   is sound because a pool numbers its versions from one counter — one
//!   `(model, version)` names one network on every replica.
//!
//! The crate is value-agnostic: anything `Clone + Send + Sync` with a
//! byte-cost estimate ([`CacheValue`]) can be cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 << 20,
            shards: 8,
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
    /// Lookup misses.
    pub misses: u64,
    /// Always 0: the cache has no bloom filter, so no miss is answered
    /// without the shard lock. Kept because the benchmark's pinned API
    /// surface reads it (`cache.bloom_negative_share`).
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

    /// Evicts every entry of `model` below version `below`; returns how
    /// many went.
    fn evict_retired(&mut self, model: usize, below: u64) -> u64 {
        let mut evicted = 0;
        let mut i = 0;
        while i < self.ring.len() {
            let key = self.ring[i];
            if key.model == model && key.version < below {
                // `swap_remove` moves an unvisited key into slot `i`.
                self.evict_at(i);
                evicted += 1;
            } else {
                i += 1;
            }
        }
        evicted
    }
}

fn lock<V>(shard: &Mutex<Shard<V>>) -> MutexGuard<'_, Shard<V>> {
    match shard.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    orphan_evictions: AtomicU64,
}

/// Bounded, sharded, content-addressed response cache. See the crate docs
/// for the design; `pim-serve` owns the integration.
pub struct ResponseCache<V> {
    cfg: CacheConfig,
    /// Per model, the oldest version any user of the cache still serves
    /// (the invalidation watermark: entries of older versions are orphans).
    oldest_served: Vec<AtomicU64>,
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
        let shards = (0..cfg.shards).map(|_| Mutex::new(Shard::new())).collect();
        ResponseCache {
            shard_budget: (cfg.byte_budget / cfg.shards).max(1),
            cfg,
            oldest_served: (0..models).map(|_| AtomicU64::new(0)).collect(),
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
        self.oldest_served.len()
    }

    fn shard_of(&self, digest: u64) -> &Mutex<Shard<V>> {
        // The digest is already avalanched; fold the high bits in so
        // shard count doesn't alias low-bit structure.
        &self.shards[((digest ^ (digest >> 32)) % self.shards.len() as u64) as usize]
    }

    fn lock_shard(&self, digest: u64) -> MutexGuard<'_, Shard<V>> {
        lock(self.shard_of(digest))
    }

    /// Looks up `(model, version, digest)` under its shard's lock.
    pub fn get(&self, model: usize, version: u64, digest: u64) -> Option<V> {
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
    /// Inserting under a retired (pre-swap) version is allowed — an
    /// in-flight batch on the old model `Arc` fills its own epoch — but no
    /// user of the cache can look such an entry up, so it is reclaimed on
    /// arrival: counted as an insertion and an orphan eviction, never
    /// stored.
    pub fn insert(&self, model: usize, version: u64, digest: u64, value: V) -> bool {
        let cost = value.cost_bytes().max(1);
        if cost > self.shard_budget {
            return false;
        }
        let key = Key {
            model,
            version,
            digest,
        };
        let mut shard = self.lock_shard(digest);
        // Read under the shard lock: `retire_below` raises the watermark
        // before it sweeps this shard, so a retired fill is either swept
        // there or seen here.
        if version < self.oldest_served[model].load(Ordering::Relaxed) {
            drop(shard);
            self.stats.insertions.fetch_add(1, Ordering::Relaxed);
            self.stats.orphan_evictions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if let Some(entry) = shard.map.get_mut(&key) {
            // Concurrent fill of the same key: keep the existing entry
            // (values are bit-identical by construction), refresh credit.
            entry.clock = entry.clock.max(CLOCK_FRESH);
            return true;
        }
        // CLOCK sweep until the new entry fits. No orphan is cached (see
        // `retire_below`), so every candidate is live. Each full lap
        // decrements every counter, so the loop terminates; the lap guard
        // force-evicts if every survivor is somehow pinned.
        let mut scanned = 0usize;
        while shard.bytes + cost > self.shard_budget && !shard.ring.is_empty() {
            let hand = shard.hand;
            let candidate = shard.ring[hand];
            let lap_guard = shard.ring.len() * (CLOCK_PROTECTED as usize + 1);
            // LINT-ALLOW(R2): the candidate key was just read from this shard's ring under the same lock that guards both structures
            let entry = shard.map.get_mut(&candidate).expect("ring key in map");
            if entry.clock > 0 && scanned < lap_guard {
                entry.clock -= 1;
                shard.hand = (hand + 1) % shard.ring.len();
            } else {
                shard.evict_at(hand);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
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

    /// Declares that no user of the cache serves a version of `model`
    /// below `version` any more, and reclaims every cached entry of those
    /// versions (orphans) at once, one shard lock at a time — so byte
    /// pressure only ever evicts live entries. Call it after a swap with
    /// the lowest version still served: for one server, the version it
    /// swapped in; for a replica pool, the minimum over its replicas. The
    /// watermark only rises (a lower `version` than before is ignored).
    pub fn retire_below(&self, model: usize, version: u64) {
        let before = self.oldest_served[model].fetch_max(version, Ordering::Relaxed);
        if version <= before {
            // Nothing newly retired: earlier calls swept the lower
            // versions, and `insert` drops fills under them.
            return;
        }
        for shard in &self.shards {
            let evicted = lock(shard).evict_retired(model, version);
            self.stats
                .orphan_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn report(&self) -> CacheReport {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let shard = lock(shard);
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheReport {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            orphan_evictions: self.stats.orphan_evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            ..CacheReport::default()
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
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
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
        assert_eq!(rep.bloom_negatives, 0);
        assert_eq!(rep.entries, 1);
        assert_eq!(rep.bytes, 3);
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
        // The swap: version 2 is served from now on, version 1 no more.
        cache.retire_below(0, 2);
        assert_eq!(cache.get(0, 2, 0), None);
        assert_eq!(cache.oldest_served[0].load(Ordering::Relaxed), 2);
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
    fn retired_entries_go_before_live_ones_whatever_the_ring_order() {
        // Twenty v1 fills leave the hand mid-ring after ten CLOCK
        // evictions; the retired entries must still all go before any of
        // the v2 entries that replace them.
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 1);
        for d in 0..20u64 {
            cache.insert(0, 1, d, vec![0u8; 100]);
        }
        cache.retire_below(0, 2);
        for d in 0..5u64 {
            cache.insert(0, 2, d, vec![0u8; 100]);
        }
        let rep = cache.report();
        let survivors = (0..5u64).filter(|&d| cache.get(0, 2, d).is_some());
        assert_eq!(survivors.count(), 5, "{rep:?}");
        assert_eq!((rep.evictions, rep.orphan_evictions), (10, 10), "{rep:?}");
        // A late fill under the retired version is accepted and reclaimed
        // on arrival: it displaces nothing.
        assert!(cache.insert(0, 1, 0, vec![0u8; 100]));
        assert_eq!(cache.get(0, 1, 0), None);
        let rep = cache.report();
        assert_eq!((rep.entries, rep.orphan_evictions), (5, 11), "{rep:?}");
    }

    #[test]
    fn a_newer_version_elsewhere_does_not_orphan_a_served_one() {
        // A pool mid-rollout: one replica already serves v3, the others
        // still serve v1. Their v1 lookups and fills must evict by CLOCK
        // as usual, not as orphans of v3.
        let cache: ResponseCache<Vec<u8>> = ResponseCache::new(small(), 1);
        for d in 0..10u64 {
            cache.insert(0, 1, d, vec![0u8; 100]);
        }
        assert_eq!(cache.get(0, 3, 0), None);
        for d in 10..20u64 {
            cache.insert(0, 1, d, vec![0u8; 100]);
        }
        let survivors = (10..20u64).filter(|&d| cache.get(0, 1, d).is_some());
        assert_eq!(survivors.count(), 10, "{:?}", cache.report());
        assert_eq!(cache.report().orphan_evictions, 0);
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
