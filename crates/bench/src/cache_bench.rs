//! The content-addressed response-cache gate: the same seeded Zipf-skewed
//! traffic driven through the serve tier twice — cache off, then cache on
//! — with every cache-on response checked bitwise against its cache-off
//! twin. Gates ([`crate::check::check_cache`], run on the record before it
//! is written, so CI fails loudly): hit rate at the classic `s ≈ 1.0` web
//! skew, `completions == requests + cache_hits`, exact ticket
//! reconciliation, and bitwise equality. What the cache buys in
//! *throughput* is the benchmark's claim, not this gate's: `bash
//! benchmark/run.sh --workload micro_pool` (paced Zipf phase, `cache.*`
//! layer metrics). Emits `bench_results/BENCH_cache.json`.

use std::sync::Arc;
use std::time::Duration;

use capsnet::{CapsNet, ExactMath};
use capsnet_workloads::drive::{bitwise_eq, drive, Arrivals, Backpressure, Drive, Driven, Ledger};
use capsnet_workloads::traffic::{request_images, streaming_spec, Arrival};
use capsnet_workloads::zipf::{distinct_content, ZipfConfig};
use pim_serve::{
    CacheConfig, CacheReport, MetricsReport, ModelRegistry, Request, ServeCache, ServeConfig,
    ServedModel, Server,
};

use crate::check::check_cache;
use crate::emit::{ledger_value, write_json_artifact, BenchHost};
use crate::jsonlite::{Object, Value};

/// Gate: minimum fraction of requests served from cache at `skew ≈ 1.0`.
const GATE_HIT_RATE_MIN: f64 = 0.5;

/// Everything one cache-bench run measured.
pub struct CacheBenchResult {
    /// The Zipf stream both passes replayed.
    pub traffic: ZipfConfig,
    /// Distinct `(model, image_seed)` keys the stream actually drew.
    pub distinct: usize,
    /// Cache-off scheduler metrics.
    pub off_metrics: MetricsReport,
    /// Cache-on scheduler metrics (`requests` = dispatched misses only).
    pub on_metrics: MetricsReport,
    /// The cache's own counters after the cache-on pass.
    pub cache: CacheReport,
    /// The cache configuration the on-pass served under.
    pub cache_cfg: CacheConfig,
    /// Fraction of cache-on completions served from cache.
    pub hit_rate: f64,
    /// `true` when every cache-on response was bit-identical to the
    /// cache-off response of the same arrival.
    pub bitwise_equal: bool,
    /// Where every arrival of the cache-on pass ended up.
    pub ledger: Ledger,
    /// Caps-layer weight footprint of the served model, bytes.
    pub caps_weight_bytes: usize,
    /// The measurement host the record came from.
    pub host: BenchHost,
}

/// The scheduler configuration both passes share — pinned field by field
/// so recorded numbers stay comparable across PRs.
fn bench_cache_serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    }
}

/// The cache configuration the on-pass serves under.
fn bench_cache_config() -> CacheConfig {
    CacheConfig::default()
}

/// The Zipf stream for `requests` arrivals: single streaming model, the
/// classic `s = 1.0` skew, and a catalog that scales with the stream so
/// the achievable hit rate stays put when CI runs a reduced count.
fn bench_cache_traffic(requests: usize) -> ZipfConfig {
    ZipfConfig {
        rate_hz: 50_000.0, // timestamps unused: the stream is windowed
        requests,
        tenants: 4,
        models: 1,
        keys: (requests / 16).max(4),
        skew: 1.0,
        samples: 1,
        seed: 0xCAC4E,
    }
}

/// Runs both passes.
///
/// The served model is [`streaming_spec`] — its ~292 MB of capsule weights
/// make every dispatched forward stream DRAM, which is precisely the cost
/// a response-cache hit avoids. Pass one serves the stream with no cache
/// and records every payload; pass two serves the identical stream with
/// the cache attached and must reproduce every payload bit for bit.
pub fn run_cache_bench(requests: usize) -> CacheBenchResult {
    let spec = streaming_spec();
    let net = CapsNet::seeded(&spec, 42).expect("streaming spec is valid");
    let caps_weight_bytes = spec.l_caps().expect("valid")
        * spec.cl_dim
        * spec.h_caps
        * spec.ch_dim
        * std::mem::size_of::<f32>();
    let traffic = bench_cache_traffic(requests);
    let arrivals = traffic.arrivals();
    let distinct = distinct_content(&arrivals);
    let cfg = bench_cache_serve_config();
    let cache_cfg = bench_cache_config();
    let registry = ModelRegistry::from_models([ServedModel::new(spec.name.clone(), net)]);

    // Windows of one full batch rather than a single burst: a burst
    // front-loads every repeat of a key before the first instance's batch
    // has completed and inserted, so the cache never gets to answer them
    // — windows give inserts one batch turnaround to land, which is how a
    // paced production stream behaves. Both passes share the protocol.
    let pass = |server: Server<'_, ExactMath>| -> (Driven, MetricsReport) {
        server.run(|handle| {
            drive(
                handle,
                &arrivals,
                Drive {
                    arrivals: Arrivals::Windowed(cfg.max_batch),
                    backpressure: Backpressure::Retry,
                    keep_responses: true,
                },
                |_, a: &Arrival| {
                    Request::new(a.tenant, 0, request_images(&spec, a.samples, a.image_seed))
                },
                |_, _| {},
            )
        })
    };
    let (off, off_metrics) = pass(Server::new(&registry, &ExactMath, cfg).expect("serve config"));
    let cache = Arc::new(ServeCache::new(cache_cfg, 1));
    let (on, on_metrics) = pass(
        Server::new(&registry, &ExactMath, cfg)
            .expect("serve config")
            .with_cache(Arc::clone(&cache)),
    );

    let submitted = arrivals.len() as u64;
    let bitwise_equal = off.ledger.completed == submitted
        && on.outcomes.len() == off.outcomes.len()
        && on.outcomes.iter().zip(&off.outcomes).all(|(on, off)| {
            matches!((&on.result, &off.result), (Ok(on), Ok(off))
                if bitwise_eq(on, &off.predictions, &off.class_norms_sq))
        });
    let hit_rate = on_metrics.cache_hits as f64 / on_metrics.completions() as f64;

    CacheBenchResult {
        traffic,
        distinct,
        off_metrics,
        on_metrics,
        cache: cache.report(),
        cache_cfg,
        hit_rate,
        bitwise_equal,
        ledger: on.ledger,
        caps_weight_bytes,
        host: BenchHost::detect(),
    }
}

impl CacheBenchResult {
    /// The `BENCH_cache.json` record.
    pub fn to_value(&self) -> Value {
        let cache = Object::new()
            .with("byte_budget", self.cache_cfg.byte_budget)
            .with("shards", self.cache_cfg.shards);
        let traffic = Object::new()
            .with("requests", self.traffic.requests)
            .with("tenants", self.traffic.tenants)
            .with("keys", self.traffic.keys)
            .with("skew", self.traffic.skew)
            .with("distinct_content", self.distinct)
            .with("achievable_hits", self.traffic.requests - self.distinct);
        let off = &self.off_metrics;
        let cache_off = Object::new()
            .with("p50_us", off.p50_us)
            .with("p99_us", off.p99_us)
            .with("dispatched", off.requests);
        let on = &self.on_metrics;
        let cache_on = Object::new()
            .with("p50_us", on.p50_us)
            .with("p99_us", on.p99_us)
            .with("dispatched", on.requests)
            .with("cache_hits", on.cache_hits)
            .with("hit_rate", self.hit_rate)
            .with("insertions", self.cache.insertions)
            .with(
                "evictions",
                self.cache.evictions + self.cache.orphan_evictions,
            );
        let model = Object::new().with("name", streaming_spec().name).with(
            "caps_weight_mb",
            self.caps_weight_bytes as f64 / (1 << 20) as f64,
        );
        Object::new()
            .with("host", &self.host)
            .with("model", model)
            .with("cache", cache)
            .with("traffic", traffic)
            .with("cache_off", cache_off)
            .with("cache_on", cache_on)
            .with("ledger", ledger_value(&self.ledger))
            .with("hit_responses_bitwise_equal", self.bitwise_equal)
            .with("hit_rate_min", GATE_HIT_RATE_MIN)
            .into()
    }

    /// Prints the human-readable summary and writes `BENCH_cache.json`.
    ///
    /// # Panics
    ///
    /// Panics (before writing) when a gate fails: bitwise divergence, hit
    /// rate below `GATE_HIT_RATE_MIN`, completions that do not partition
    /// into dispatched + cache hits, or a lost ticket.
    pub fn report_and_write(&self) {
        println!(
            "cache_bench: {} requests over {} keys (skew {:.1}), {} distinct / {} achievable hits",
            self.traffic.requests,
            self.traffic.keys,
            self.traffic.skew,
            self.distinct,
            self.traffic.requests - self.distinct
        );
        println!(
            "  cache off p50/p99 {}/{} us   cache on p50/p99 {}/{} us   hits {} ({:.1}%)",
            self.off_metrics.p50_us,
            self.off_metrics.p99_us,
            self.on_metrics.p50_us,
            self.on_metrics.p99_us,
            self.on_metrics.cache_hits,
            100.0 * self.hit_rate
        );
        println!("  bitwise_equal {}", self.bitwise_equal);
        write_json_artifact("BENCH_cache.json", &self.to_value(), check_cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(requests: u64, cache_hits: u64) -> MetricsReport {
        let tiers = pim_serve::Priority::ALL.map(|p| crate::fixtures::tier(p, 0, 0, 0));
        crate::fixtures::metrics(requests, cache_hits, tiers)
    }

    fn synthetic() -> CacheBenchResult {
        let off_metrics = metrics(64, 0);
        let on_metrics = metrics(14, 50);
        CacheBenchResult {
            traffic: bench_cache_traffic(64),
            distinct: 14,
            off_metrics,
            on_metrics,
            cache: CacheReport {
                hits: 50,
                misses: 14,
                insertions: 14,
                evictions: 0,
                orphan_evictions: 0,
                entries: 14,
                bytes: 700,
                ..CacheReport::default()
            },
            cache_cfg: bench_cache_config(),
            hit_rate: 50.0 / 64.0,
            bitwise_equal: true,
            ledger: Ledger {
                submitted: 64,
                completed: 64,
                ..Default::default()
            },
            caps_weight_bytes: 292 << 20,
            host: BenchHost {
                simd: "avx2+fma",
                threads: 4,
            },
        }
    }

    #[test]
    fn cache_json_schema_is_stable() {
        // A synthetic result exercises the JSON shape and its checker
        // without running the (expensive) measurement.
        let doc = CacheBenchResult::to_value;
        let good = synthetic();
        assert_eq!(check_cache(&doc(&good)), Ok(()));
        let on = doc(&good);
        let on = on.get("cache_on").expect("cache_on object");
        assert_eq!(on.get("cache_hits").unwrap().as_f64(), Some(50.0));
        assert_eq!(on.get("dispatched").unwrap().as_f64(), Some(14.0));

        // Each kept gate fails the record when violated.
        let mut diverged = synthetic();
        diverged.bitwise_equal = false;
        assert!(check_cache(&doc(&diverged)).is_err());
        let mut dropped = synthetic();
        dropped.ledger.completed -= 1;
        assert!(check_cache(&doc(&dropped)).is_err());
        let mut cold = synthetic();
        cold.hit_rate = 0.4;
        assert!(check_cache(&doc(&cold)).is_err());
        let mut leaky = synthetic();
        leaky.on_metrics.cache_hits -= 1; // completions != requests + hits
        assert!(check_cache(&doc(&leaky)).is_err());
        // A record naming a knob the cache no longer has is refused.
        let mut stale = doc(&good);
        if let Value::Obj(members) = &mut stale {
            if let Some((_, Value::Obj(knobs))) = members.iter_mut().find(|(k, _)| k == "cache") {
                knobs.push(("hot_keys".to_string(), Value::Num(32.0)));
            }
        }
        let why = check_cache(&stale).unwrap_err();
        assert!(why.contains("hot_keys"), "{why}");
    }

    #[test]
    fn traffic_scales_catalog_with_requests() {
        assert_eq!(bench_cache_traffic(400).keys, 25);
        assert_eq!(bench_cache_traffic(160).keys, 10);
        assert_eq!(bench_cache_traffic(8).keys, 4);
        // The committed stream must be meaningfully skewed and repeat-heavy.
        let t = bench_cache_traffic(400);
        let d = distinct_content(&t.arrivals());
        assert!(
            (400 - d) as f64 / 400.0 >= GATE_HIT_RATE_MIN,
            "stream only achieves {} hits",
            400 - d
        );
    }
}
