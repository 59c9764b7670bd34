//! The content-addressed response-cache measurement: the same seeded
//! Zipf-skewed traffic driven through the serve tier twice — cache off,
//! then cache on — with every cache-on response checked bitwise against
//! its cache-off twin. Gates (asserted in-process, so CI fails loudly):
//! hit rate at the classic `s ≈ 1.0` web skew, samples/s uplift from
//! skipping repeat forwards, exact ticket reconciliation, and bitwise
//! equality. Emits `bench_results/BENCH_cache.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use capsnet::{CapsNet, ExactMath};
use capsnet_workloads::traffic::{request_images, streaming_spec, Arrival};
use capsnet_workloads::zipf::{distinct_content, ZipfConfig};
use pim_serve::{
    CacheConfig, CacheReport, MetricsReport, ModelRegistry, Request, ServeCache, ServeConfig,
    ServedModel, Server, Ticket,
};

use crate::emit::{write_json_artifact, BenchHost};

/// Gate: minimum fraction of requests served from cache at `skew ≈ 1.0`.
pub const GATE_HIT_RATE_MIN: f64 = 0.5;
/// Gate: minimum cache-on / cache-off samples-per-second ratio.
pub const GATE_UPLIFT_MIN: f64 = 1.5;

/// Everything one cache-bench run measured.
pub struct CacheBenchResult {
    /// The Zipf stream both passes replayed.
    pub traffic: ZipfConfig,
    /// Distinct `(model, image_seed)` keys the stream actually drew.
    pub distinct: usize,
    /// Cache-off pass: samples per second.
    pub off_sps: f64,
    /// Cache-off scheduler metrics.
    pub off_metrics: MetricsReport,
    /// Cache-on pass: samples per second over the same stream.
    pub on_sps: f64,
    /// Cache-on scheduler metrics (`requests` = dispatched misses only).
    pub on_metrics: MetricsReport,
    /// The cache's own counters after the cache-on pass.
    pub cache: CacheReport,
    /// The cache configuration the on-pass served under.
    pub cache_cfg: CacheConfig,
    /// `on_sps / off_sps`.
    pub uplift: f64,
    /// Fraction of cache-on completions served from cache.
    pub hit_rate: f64,
    /// `true` when every cache-on response was bit-identical to the
    /// cache-off response of the same arrival.
    pub bitwise_equal: bool,
    /// Tickets submitted per pass (reconciliation numerator).
    pub submitted: u64,
    /// Tickets that resolved `Ok` in the cache-on pass.
    pub completed: u64,
    /// Caps-layer weight footprint of the served model, bytes.
    pub caps_weight_bytes: usize,
    /// The measurement host the numbers came from.
    pub host: BenchHost,
}

/// The scheduler configuration both passes share — pinned field by field
/// so recorded numbers stay comparable across PRs.
pub fn bench_cache_serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    }
}

/// The cache configuration the on-pass serves under. The watchdog-driven
/// digest sync is a replica-pool concern; a single server ignores
/// `sync_interval`.
pub fn bench_cache_config() -> CacheConfig {
    CacheConfig::default()
}

/// The Zipf stream for `requests` arrivals: single streaming model, the
/// classic `s = 1.0` skew, and a catalog that scales with the stream so
/// the achievable hit rate stays put when CI runs a reduced count.
pub fn bench_cache_traffic(requests: usize) -> ZipfConfig {
    ZipfConfig {
        rate_hz: 50_000.0, // far above service capacity: an open-loop burst
        requests,
        tenants: 4,
        models: 1,
        keys: (requests / 16).max(4),
        skew: 1.0,
        samples: 1,
        seed: 0xCAC4E,
    }
}

/// Runs the measurement.
///
/// The served model is [`streaming_spec`] — its ~292 MB of capsule weights
/// make every dispatched forward stream DRAM, which is precisely the cost
/// a response-cache hit avoids. Pass one serves the stream with no cache
/// and records every payload; pass two serves the identical stream with
/// the cache attached and must reproduce every payload bit for bit.
///
/// # Panics
///
/// Panics when any gate fails: bitwise divergence, hit rate below
/// [`GATE_HIT_RATE_MIN`], uplift below [`GATE_UPLIFT_MIN`], or a ticket
/// lost (submitted ≠ completed).
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

    // Warm the kernels (first forward sizes every buffer).
    let _ = net
        .forward(&request_images(&spec, 1, 0), &ExactMath)
        .expect("warm-up");
    let registry = ModelRegistry::from_models([ServedModel::new(spec.name.clone(), net)]);

    // Pass one: cache off — the baseline payloads and throughput.
    let server = Server::new(&registry, &ExactMath, cfg).expect("valid serve config");
    let t0 = Instant::now();
    let (off_responses, off_metrics) =
        server.run(|handle| drive(handle, &spec, &arrivals, cfg.max_batch));
    let off_s = t0.elapsed().as_secs_f64();

    // Pass two: cache on — the identical stream, repeats served from
    // memory instead of DRAM-streaming forwards.
    let cache = Arc::new(ServeCache::new(cache_cfg, 1));
    let server = Server::new(&registry, &ExactMath, cfg)
        .expect("valid serve config")
        .with_cache(Arc::clone(&cache));
    let t0 = Instant::now();
    let (on_responses, on_metrics) =
        server.run(|handle| drive(handle, &spec, &arrivals, cfg.max_batch));
    let on_s = t0.elapsed().as_secs_f64();

    let bitwise_equal = off_responses.len() == on_responses.len()
        && on_responses.iter().zip(&off_responses).all(|(on, off)| {
            on.predictions == off.predictions
                && on.class_norms_sq.len() == off.class_norms_sq.len()
                && on
                    .class_norms_sq
                    .iter()
                    .zip(&off.class_norms_sq)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });

    let samples: usize = arrivals.iter().map(|a| a.samples).sum();
    let submitted = arrivals.len() as u64;
    let completed = on_responses.len() as u64;
    let off_sps = samples as f64 / off_s;
    let on_sps = samples as f64 / on_s;
    let uplift = on_sps / off_sps;
    let hit_rate = on_metrics.cache_hits as f64 / on_metrics.completions() as f64;

    // The gates, asserted in-process so a regressing PR fails in CI
    // rather than committing a red artifact.
    assert!(bitwise_equal, "cache-on responses diverged from cache-off");
    assert_eq!(
        (submitted, completed),
        (submitted, submitted),
        "dropped tickets in the cache-on pass"
    );
    assert_eq!(
        off_responses.len() as u64,
        submitted,
        "dropped tickets in the cache-off pass"
    );
    assert_eq!(
        on_metrics.completions(),
        submitted,
        "cache-on metrics lost completions"
    );
    assert_eq!(
        on_metrics.requests + on_metrics.cache_hits,
        submitted,
        "fast-path accounting broke"
    );
    assert!(
        hit_rate >= GATE_HIT_RATE_MIN,
        "hit rate {hit_rate:.3} below gate {GATE_HIT_RATE_MIN} \
         (achievable {:.3})",
        (submitted as usize - distinct) as f64 / submitted as f64
    );
    assert!(
        uplift >= GATE_UPLIFT_MIN,
        "uplift {uplift:.2}x below gate {GATE_UPLIFT_MIN}x"
    );

    CacheBenchResult {
        traffic,
        distinct,
        off_sps,
        off_metrics,
        on_sps,
        on_metrics,
        cache: cache.report(),
        cache_cfg,
        uplift,
        hit_rate,
        bitwise_equal,
        submitted,
        completed,
        caps_weight_bytes,
        host: BenchHost::detect(),
    }
}

/// Submits the arrivals in windows of one full batch (waiting each window
/// out before opening the next) and returns the responses in order.
///
/// Windowing rather than a single unbounded burst: a burst front-loads
/// every repeat of a key before the first instance's batch has completed
/// and inserted, so the cache never gets to answer them — windows keep
/// the off-pass at full batch occupancy while giving inserts one batch
/// turnaround to land, which is how a paced production stream behaves.
/// Both passes share this drive, so the comparison stays protocol-matched.
fn drive<B: capsnet::MathBackend + Sync + ?Sized>(
    handle: &pim_serve::ServerHandle<'_, '_, B>,
    spec: &capsnet::CapsNetSpec,
    arrivals: &[Arrival],
    window: usize,
) -> Vec<pim_serve::Response> {
    let mut responses = Vec::with_capacity(arrivals.len());
    for chunk in arrivals.chunks(window.max(1)) {
        let tickets: Vec<Ticket> = chunk
            .iter()
            .map(|a| {
                let images = request_images(spec, a.samples, a.image_seed);
                loop {
                    match handle.submit(Request::new(a.tenant, 0, images.clone())) {
                        Ok(t) => break t,
                        Err(pim_serve::SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected reject: {e}"),
                    }
                }
            })
            .collect();
        responses.extend(
            tickets
                .into_iter()
                .map(|t| t.wait().expect("bench inference")),
        );
    }
    responses
}

impl CacheBenchResult {
    /// Renders `BENCH_cache.json`.
    pub fn to_json(&self) -> String {
        let spec = streaming_spec();
        format!(
            concat!(
                "{{\n",
                "  \"host\": {{\"simd\": \"{simd}\", \"threads\": {threads}}},\n",
                "  \"model\": {{\"name\": \"{name}\", \"caps_weight_mb\": {wmb:.1}}},\n",
                "  \"cache\": {{\"byte_budget\": {budget}, \"shards\": {shards}, ",
                "\"bloom_bits\": {bbits}, \"bloom_hashes\": {bhash}, \"hot_keys\": {hot}}},\n",
                "  \"traffic\": {{\"requests\": {req}, \"tenants\": {ten}, \"keys\": {keys}, ",
                "\"skew\": {skew:.2}, \"distinct_content\": {distinct}, ",
                "\"achievable_hits\": {achievable}}},\n",
                "  \"cache_off\": {{\"samples_per_s\": {osps:.2}, \"p50_us\": {op50}, ",
                "\"p99_us\": {op99}, \"dispatched\": {oreq}}},\n",
                "  \"cache_on\": {{\"samples_per_s\": {nsps:.2}, \"p50_us\": {np50}, ",
                "\"p99_us\": {np99}, \"dispatched\": {nreq}, \"cache_hits\": {hits}, ",
                "\"hit_rate\": {hr:.4}, \"bloom_negatives\": {bneg}, ",
                "\"insertions\": {ins}, \"evictions\": {ev}}},\n",
                "  \"reconciliation\": {{\"submitted\": {sub}, \"completed\": {comp}, ",
                "\"dropped\": {dropped}}},\n",
                "  \"uplift_on_vs_off\": {uplift:.4},\n",
                "  \"hit_responses_bitwise_equal\": {eq},\n",
                "  \"gates\": {{\"hit_rate_min\": {ghr}, \"uplift_min\": {gup}, ",
                "\"passed\": {passed}}}\n",
                "}}\n",
            ),
            simd = self.host.simd,
            threads = self.host.threads,
            name = spec.name,
            wmb = self.caps_weight_bytes as f64 / (1 << 20) as f64,
            budget = self.cache_cfg.byte_budget,
            shards = self.cache_cfg.shards,
            bbits = self.cache_cfg.bloom_bits,
            bhash = self.cache_cfg.bloom_hashes,
            hot = self.cache_cfg.hot_keys,
            req = self.traffic.requests,
            ten = self.traffic.tenants,
            keys = self.traffic.keys,
            skew = self.traffic.skew,
            distinct = self.distinct,
            achievable = self.traffic.requests - self.distinct,
            osps = self.off_sps,
            op50 = self.off_metrics.p50_us,
            op99 = self.off_metrics.p99_us,
            oreq = self.off_metrics.requests,
            nsps = self.on_sps,
            np50 = self.on_metrics.p50_us,
            np99 = self.on_metrics.p99_us,
            nreq = self.on_metrics.requests,
            hits = self.on_metrics.cache_hits,
            hr = self.hit_rate,
            bneg = self.cache.bloom_negatives,
            ins = self.cache.insertions,
            ev = self.cache.evictions + self.cache.orphan_evictions,
            sub = self.submitted,
            comp = self.completed,
            dropped = self.submitted - self.completed,
            uplift = self.uplift,
            eq = self.bitwise_equal,
            ghr = GATE_HIT_RATE_MIN,
            gup = GATE_UPLIFT_MIN,
            passed = self.bitwise_equal
                && self.hit_rate >= GATE_HIT_RATE_MIN
                && self.uplift >= GATE_UPLIFT_MIN
                && self.submitted == self.completed,
        )
    }

    /// Prints the human-readable summary and writes `BENCH_cache.json`.
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
            "  cache off {:>8.1} samples/s   p50/p99 {}/{} us",
            self.off_sps, self.off_metrics.p50_us, self.off_metrics.p99_us
        );
        println!(
            "  cache on  {:>8.1} samples/s   p50/p99 {}/{} us   hits {} ({:.1}%)",
            self.on_sps,
            self.on_metrics.p50_us,
            self.on_metrics.p99_us,
            self.on_metrics.cache_hits,
            100.0 * self.hit_rate
        );
        println!(
            "  uplift    {:>8.2}x   bitwise_equal {}   bloom_negatives {}",
            self.uplift, self.bitwise_equal, self.cache.bloom_negatives
        );
        write_json_artifact("BENCH_cache.json", &self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonlite::Value;

    fn metrics(requests: u64, cache_hits: u64, p50_us: u64, p99_us: u64) -> MetricsReport {
        let tier = |priority| pim_serve::TierReport {
            priority,
            requests: 0,
            shed: 0,
            cache_hits: 0,
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
        };
        MetricsReport {
            requests,
            samples: requests,
            batches: requests,
            cache_hits,
            rejected_full: 0,
            rejected_quota: 0,
            failed_requests: 0,
            failed_batches: 0,
            p50_us,
            p95_us: p99_us,
            p99_us,
            mean_us: p50_us as f64,
            batch_occupancy: vec![0, requests],
            elapsed_s: 1.0,
            tiers: [
                tier(pim_serve::Priority::High),
                tier(pim_serve::Priority::Normal),
                tier(pim_serve::Priority::Low),
            ],
            version_counts: Vec::new(),
            swaps: 0,
        }
    }

    fn synthetic() -> CacheBenchResult {
        let off_metrics = metrics(64, 0, 900, 4000);
        let on_metrics = metrics(14, 50, 120, 3000);
        CacheBenchResult {
            traffic: bench_cache_traffic(64),
            distinct: 14,
            off_sps: 100.0,
            off_metrics,
            on_sps: 400.0,
            on_metrics,
            cache: CacheReport {
                hits: 50,
                misses: 14,
                bloom_negatives: 10,
                insertions: 14,
                evictions: 0,
                orphan_evictions: 0,
                digests_applied: 0,
                digests_ignored: 0,
                entries: 14,
                bytes: 700,
            },
            cache_cfg: bench_cache_config(),
            uplift: 4.0,
            hit_rate: 50.0 / 64.0,
            bitwise_equal: true,
            submitted: 64,
            completed: 64,
            caps_weight_bytes: 292 << 20,
            host: BenchHost {
                simd: "avx2+fma",
                threads: 4,
            },
        }
    }

    #[test]
    fn cache_json_schema_is_stable() {
        // A synthetic result exercises the JSON shape without running the
        // (expensive) measurement.
        let v = crate::jsonlite::parse(&synthetic().to_json()).unwrap();
        let host = v.get("host").expect("host object");
        assert_eq!(host.get("simd").unwrap().as_str(), Some("avx2+fma"));
        let on = v.get("cache_on").expect("cache_on object");
        assert_eq!(on.get("cache_hits").unwrap().as_f64(), Some(50.0));
        assert_eq!(on.get("dispatched").unwrap().as_f64(), Some(14.0));
        let rec = v.get("reconciliation").expect("reconciliation object");
        assert_eq!(rec.get("dropped").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("uplift_on_vs_off").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            v.get("hit_responses_bitwise_equal")
                .and_then(Value::as_bool),
            Some(true)
        );
        let gates = v.get("gates").expect("gates object");
        assert_eq!(gates.get("passed").and_then(Value::as_bool), Some(true));
        assert_eq!(
            gates.get("hit_rate_min").unwrap().as_f64(),
            Some(GATE_HIT_RATE_MIN)
        );
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
