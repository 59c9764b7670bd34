//! The two kinds of run: end-to-end (tracing off) and per-layer (traced).
//! Each serves one workload in this process and returns named metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, Arena, DriverCache, LayerStack, Model};
use crate::driver::{bits_equal, Driver, Phase, Tally};
use crate::stats::{median, percentile, percentile_of, supported_permille, P50, P95, P99};
use crate::trace::Trace;
use crate::workloads::{Serving, Workload, MODEL_SEED};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Printed beside them, not gated.
    pub notes: Vec<Metric>,
}

/// `setup_s` is the quickest of the set-ups of an end-to-end run: at least
/// `MIN_SET_UPS`, and as many more as fit in `SET_UP_BUDGET_S` (the
/// weight-streaming model takes 1.5 s to set up, the micro model 0.4 ms).
/// Every set-up does the same work and the host's interference, which
/// comes in bursts of about 100 ms, only ever adds to it: over two sets of
/// ten runs the median moved by up to 0.26 and spread by up to 0.42
/// (README.md).
const MIN_SET_UPS: usize = 5;
const MAX_SET_UPS: usize = 101;
const SET_UP_BUDGET_S: f64 = 2.0;
/// Unmeasured closed-loop time before the timed phases.
const WARM_UP_S: f64 = 2.0;
/// Shares of `--seconds` the two timed phases of an end-to-end run get.
const SAT_SHARE: f64 = 0.4;
const PACED_SHARE: f64 = 0.6;
/// Share of `--seconds` the closed loop through the one-replica pool gets.
const POOL_SHARE: f64 = 0.1;
/// Share of `--seconds` the layer probe of a traced run gets.
const LAYER_SHARE: f64 = 0.3;
/// A run whose generator ran later than this share of the latency limit
/// (at p99) is reported invalid.
const MAX_LAG_SHARE_OF_LIMIT: f64 = 0.1;
/// `fail_share` beyond this fails the run: a share that is 0 on every
/// workload cannot carry a bound relative to its median, so the absolute
/// bound is enforced here.
const MAX_FAIL_SHARE: f64 = 0.001;

fn artifact_path(out_dir: &Path, wl: &Workload) -> PathBuf {
    out_dir.join(format!("{}.pimcaps", wl.name))
}

/// One set-up of an end-to-end run: builds the model and, for the workload
/// served from the store, maps the saved artifact back in its place. With
/// `save`, the artifact is written first; the seconds that took are
/// returned and kept out of `setup_s`, because an `fsync`ed write of
/// 297 MB times the host's disk (README.md).
fn set_up(wl: &Workload, out_dir: &Path, save: bool) -> (Model, f64) {
    let net = adapter::build_model(&wl.geometry, MODEL_SEED);
    if wl.serving != Serving::BareFromStore {
        return (net, 0.0);
    }
    let path = artifact_path(out_dir, wl);
    let began = Instant::now();
    if save {
        adapter::save_model(&net, &path);
    }
    let save_s = began.elapsed().as_secs_f64();
    (adapter::load_mapped(&path), save_s)
}

/// Set-up of the traced run: the model is saved and mapped back whatever
/// the workload, so the store layer has numbers at every model size; only
/// `stream` serves the mapped network. Returns the bytes written too.
fn traced_set_up(wl: &Workload, out_dir: &Path, trace: &mut Trace) -> (Model, u64) {
    let net = adapter::build_model(&wl.geometry, MODEL_SEED);
    let path = artifact_path(out_dir, wl);
    let bytes = trace.span("store.save", None, |_, _| adapter::save_model(&net, &path));
    let mapped = trace.span("store.load_mmap", None, |_, _| adapter::load_mapped(&path));
    let served = if wl.serving == Serving::BareFromStore {
        mapped
    } else {
        net
    };
    (served, bytes)
}

/// A fresh response cache, for the workload served behind one.
fn new_cache(wl: &Workload) -> Option<DriverCache> {
    match wl.serving {
        Serving::BareCached { cache_entries, .. } => {
            Some(DriverCache::new(&wl.geometry, cache_entries))
        }
        _ => None,
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

struct PacedView {
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    supported_pct: f64,
    slo_share: f64,
    lag_p99_us: f64,
    valid: bool,
}

fn paced_view(wl: &Workload, paced: &mut Phase) -> PacedView {
    paced.latencies_ns.sort_unstable();
    let at = |permille| percentile(&paced.latencies_ns, permille).unwrap_or(0) as f64 / 1e6;
    let lag_p99_us = percentile_of(&mut paced.gen_lag_us, P99) as f64;
    PacedView {
        p50_ms: at(P50),
        p95_ms: at(P95),
        p99_ms: at(P99),
        supported_pct: supported_permille(paced.latencies_ns.len()).unwrap_or(0) as f64 / 10.0,
        slo_share: paced.within_limit as f64 / paced.tally.attempted.max(1) as f64,
        lag_p99_us,
        valid: lag_p99_us <= MAX_LAG_SHARE_OF_LIMIT * wl.slo_limit_us as f64,
    }
}

fn driver_notes(wl: &Workload, paced: &Phase, view: &PacedView) -> Vec<Metric> {
    vec![
        metric("driver.offered_rps", wl.paced_rate_hz, "1/s"),
        metric("driver.achieved_rps", paced.ok_per_second(), "1/s"),
        metric("driver.gen_lag_p99_us", view.lag_p99_us, "us"),
        metric("driver.paced_latency_p95_ms", view.p95_ms, "ms"),
        metric("driver.paced_latency_p99_ms", view.p99_ms, "ms"),
        metric("driver.paced_tail_supported_pct", view.supported_pct, "%"),
        metric("driver.valid", f64::from(u8::from(view.valid)), "flag"),
    ]
}

/// End-to-end run: set-up (several times, the quickest), warm-up, saturation,
/// paced, the bitwise checks, then the pool window for the workload that
/// has one. Tracing is off throughout.
pub fn end_to_end(wl: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut setup_s = Vec::new();
    let mut save_s = 0.0;
    let mut spent_s = 0.0;
    let ((sat, mut paced, rss_mb, checks), report) = loop {
        // The window of the last set-up is the one that is measured; the
        // ones before it exist only to be set up.
        let done = setup_s.len() + 1;
        let last = done >= MIN_SET_UPS && (spent_s >= SET_UP_BUDGET_S || done >= MAX_SET_UPS);
        let began = Instant::now();
        let (net, saving) = set_up(wl, out_dir, setup_s.is_empty());
        save_s += saving;
        let cache = new_cache(wl);
        let (run, report) = adapter::serve(wl, net, cache.as_ref(), |endpoint, net| {
            let mut driver = Driver::new(wl, endpoint, seed);
            driver.one();
            setup_s.push(began.elapsed().as_secs_f64() - saving);
            last.then(|| {
                driver.warm_up(WARM_UP_S);
                let sat = driver.saturate(seconds * SAT_SHARE);
                let paced = driver.paced(seconds * PACED_SHARE);
                let rss_mb = peak_rss_mb();
                (sat, paced, rss_mb, driver.checks(net))
            })
        });
        spent_s += began.elapsed().as_secs_f64() - saving;
        if let Some(run) = run {
            break (run, report);
        }
    };
    let pool = pool_window(wl, seed, seconds * POOL_SHARE);

    let view = paced_view(wl, &mut paced);
    let mut total = checks.total;
    total.add(&pool.total);
    let fail_share = total.not_ok() as f64 / total.attempted as f64;
    let correct = checks.pass(&report) && pool.pass && fail_share <= MAX_FAIL_SHARE;
    if !correct {
        eprintln!(
            "{}: {checks:?}, window {report:?}, pool window ok: {}, fail share {fail_share}",
            wl.name, pool.pass
        );
    }
    let mut notes = driver_notes(wl, &paced, &view);
    notes.extend([
        metric("fail_share", fail_share, "share"),
        metric(
            "driver.paced_samples",
            paced.latencies_ns.len() as f64,
            "count",
        ),
        metric("driver.sat_completed", sat.tally.ok as f64, "count"),
        metric("driver.sat_seconds", sat.seconds, "s"),
        metric("driver.set_ups", setup_s.len() as f64, "count"),
        metric("driver.setup_median_s", median(&mut setup_s), "s"),
        metric("driver.setup_save_s", save_s, "s"),
        metric("driver.pool_sat_sps", pool.sat_sps, "samples/s"),
        metric("driver.responses_checked", checks.checked as f64, "count"),
    ]);
    Outcome {
        correct,
        attempted: total.attempted,
        failed: total.not_ok(),
        metrics: vec![
            metric(
                "setup_s",
                setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
            metric("sat_throughput_sps", sat.ok_per_second(), "samples/s"),
            metric("paced_latency_p50_ms", view.p50_ms, "ms"),
            metric("paced_slo_share", view.slo_share, "share"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ],
        notes,
    }
}

fn median_ms(trace: &Trace, span: &str) -> f64 {
    let mut ms = trace.durations_ms(span);
    if ms.is_empty() {
        0.0
    } else {
        median(&mut ms)
    }
}

fn p_us(values: &mut [u64], permille: u32) -> f64 {
    percentile_of(values, permille) as f64
}

struct LayerTimes {
    metrics: Vec<Metric>,
    forward_ms: f64,
    equal: bool,
}

/// Times each encoder layer's public entry point on layers rebuilt from
/// the model's seeds, beside the real network's arena forward, for about
/// `budget_s`. Everything runs on this thread with no server alive.
fn layer_probe(
    wl: &Workload,
    net: &Model,
    seed: u64,
    budget_s: f64,
    trace: &mut Trace,
) -> LayerTimes {
    let g = &wl.geometry;
    let mut content = crate::gen::Content::new(seed ^ 0x5EED, g.pixels());
    let mut batch_of = |n: usize| {
        let pixels: Vec<f32> = (0..n).flat_map(|_| content.next_image()).collect();
        adapter::images(g, n, pixels)
    };
    let full = batch_of(wl.max_batch);
    let single = batch_of(1);
    let mut stack = LayerStack::seeded(g, MODEL_SEED);
    let mut arena = Arena::default();
    let mut arena_b1 = Arena::default();
    let mut gemm_macs = 0;
    let mut rep = |t: &mut Trace| {
        let rebuilt = stack.forward(&full, t);
        if g.routing_iterations > 1 {
            stack.route("capsnet.routing_1iter", 1, None, t);
        }
        gemm_macs = stack.primary_conv_kernels(t);
        let real = adapter::forward_arena(net, &full, &mut arena, "capsnet.forward_with", t);
        adapter::forward_arena(net, &single, &mut arena_b1, "capsnet.forward_with_b1", t);
        bits_equal(&rebuilt, &real)
    };
    // The first repeat grows every buffer; its spans are thrown away.
    let mut equal = rep(&mut Trace::new());
    let began = Instant::now();
    let mut reps = 0;
    while reps < 3 || (began.elapsed().as_secs_f64() < budget_s && reps < 40) {
        equal &= rep(trace);
        reps += 1;
    }

    let ms = |span| median_ms(trace, span);
    let (conv1, primary, uhat, routing) = (
        ms("capsnet.conv1"),
        ms("capsnet.primary"),
        ms("capsnet.uhat"),
        ms("capsnet.routing"),
    );
    let forward = ms("capsnet.forward_with");
    let routing_iter = if g.routing_iterations > 1 {
        (routing - ms("capsnet.routing_1iter")) / (g.routing_iterations - 1) as f64
    } else {
        0.0
    };
    let census = adapter::census(g, wl.max_batch);
    // bytes / (ms * 1e6) = GB/s
    let gbps = |bytes: u64, ms: f64| bytes as f64 / (ms * 1e6);
    let gemm = ms("tensor.gemm");
    LayerTimes {
        metrics: vec![
            metric("capsnet.conv1_ms", conv1, "ms"),
            metric("capsnet.primary_ms", primary, "ms"),
            metric("capsnet.uhat_ms", uhat, "ms"),
            metric("capsnet.routing_ms", routing, "ms"),
            metric("capsnet.forward_ms", forward, "ms"),
            metric("capsnet.forward_b1_ms", ms("capsnet.forward_with_b1"), "ms"),
            metric("capsnet.routing_iter_ms", routing_iter, "ms"),
            metric(
                "capsnet.unattributed_share",
                1.0 - (conv1 + primary + uhat + routing) / forward,
                "share",
            ),
            metric("capsnet.rp_share", routing / forward, "share"),
            metric(
                "capsnet.caps_layer_share",
                (uhat + routing) / forward,
                "share",
            ),
            metric("capsnet.uhat_gbps", gbps(census.uhat_bytes, uhat), "GB/s"),
            metric(
                "capsnet.routing_gbps",
                gbps(census.routing_bytes, routing),
                "GB/s",
            ),
            metric("gpu-sim.rp_share_pred", census.gpu_rp_share, "share"),
            metric("tensor.im2col_ms", ms("tensor.im2col"), "ms"),
            metric("tensor.gemm_ms", gemm, "ms"),
            // 2 flops per multiply-add; flops / (ms * 1e6) = GFLOP/s
            metric(
                "tensor.gemm_gflops",
                2.0 * gemm_macs as f64 / (gemm * 1e6),
                "GFLOP/s",
            ),
        ],
        forward_ms: forward,
        equal,
    }
}

/// What the pool window of a run came to.
struct PoolWindow {
    /// Completed OK per second of its closed loop; 0 without a pool.
    sat_sps: f64,
    total: Tally,
    restarts: u64,
    failovers: u64,
    quarantines: u64,
    /// Tickets reconcile, sampled responses are bitwise equal to a direct
    /// forward, and the supervisor restarted, failed over and quarantined
    /// nothing.
    pass: bool,
}

/// The cached workload's saturation traffic through a one-replica
/// `ReplicaSet`, so that the mailbox, supervision and failover path is
/// driven and checked on every run. Its rate is reported but never gated:
/// the pool needs three busy threads (generator, replica control loop,
/// worker) on two cores and every `submit` is a blocking rendezvous with
/// the control loop, so the rate follows where the host's scheduler put
/// the threads (README.md).
fn pool_window(wl: &Workload, seed: u64, seconds: f64) -> PoolWindow {
    let Serving::BareCached { cache_entries, .. } = wl.serving else {
        return PoolWindow {
            sat_sps: 0.0,
            total: Tally::default(),
            restarts: 0,
            failovers: 0,
            quarantines: 0,
            pass: true,
        };
    };
    let net = adapter::build_model(&wl.geometry, MODEL_SEED);
    let ((sat, checks), report) = adapter::serve_pool(wl, &net, cache_entries, |endpoint| {
        let mut driver = Driver::new(wl, endpoint, seed);
        driver.warm_up(seconds / 4.0);
        (driver.saturate(seconds), driver.checks(&net))
    });
    PoolWindow {
        sat_sps: sat.ok_per_second(),
        total: checks.total,
        restarts: report.restarts,
        failovers: report.failovers,
        quarantines: report.quarantines,
        pass: checks.pass(&report) && report.restarts + report.failovers + report.quarantines == 0,
    }
}

/// Per-layer run: the same window with spans around the benchmark's calls
/// into each layer, then the layer probes with no server alive. Writes
/// the spans to `out_dir/trace_<workload>.json`.
pub fn per_layer(wl: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut trace = Trace::new();
    let (net, artifact_bytes) = traced_set_up(wl, out_dir, &mut trace);
    let cache = new_cache(wl);
    let counts = || cache.as_ref().map(DriverCache::counts).unwrap_or_default();
    let (run, report) = adapter::serve(wl, net, cache.as_ref(), |endpoint, net| {
        let mut driver = Driver::new(wl, endpoint, seed);
        driver.warm_up(WARM_UP_S);
        let sat_plain = driver.saturate(seconds * 0.15);
        driver.trace = Some(&mut trace);
        let before_sat = counts();
        let sat = driver.saturate(seconds * 0.2);
        let before_paced = counts();
        let paced = driver.paced(seconds * 0.3);
        (
            (sat_plain, sat, paced),
            (before_sat, before_paced),
            driver.checks(net),
        )
    });
    let ((sat_plain, mut sat, mut paced), (before_sat, before_paced), checks) = run;

    // A fresh copy of the model: the window consumed the first.
    let net = match wl.serving {
        Serving::BareFromStore => adapter::load_mapped(&artifact_path(out_dir, wl)),
        _ => adapter::build_model(&wl.geometry, MODEL_SEED),
    };
    let layers = layer_probe(wl, &net, seed, seconds * LAYER_SHARE, &mut trace);
    drop(net);
    let pool = pool_window(wl, seed, seconds * POOL_SHARE);
    let mut total = checks.total;
    total.add(&pool.total);

    let view = paced_view(wl, &mut paced);
    let mut sat_detail = sat.detail.take().expect("a traced phase keeps detail");
    let mut paced_detail = paced.detail.take().expect("a traced phase keeps detail");
    let mut submit_ns = std::mem::take(&mut sat_detail.submit_ns_miss);
    submit_ns.append(&mut sat_detail.submit_ns_hit);
    let full_batch_service_ms = p_us(&mut sat_detail.full_batch_service_us, P50) / 1e3;
    // Cache counters by phase: saturation sends content that never
    // repeats (bloom negatives, insertions, evictions); paced repeats keys.
    let after = counts();
    let share = |part: u64, of: u64| part as f64 / of.max(1) as f64;
    let sat_lookups =
        (before_paced.hits + before_paced.misses) - (before_sat.hits + before_sat.misses);
    let paced_hits = after.hits - before_paced.hits;
    let paced_lookups = paced_hits + after.misses - before_paced.misses;

    let mut metrics = vec![
        metric("store.save_ms", median_ms(&trace, "store.save"), "ms"),
        metric(
            "store.load_mmap_ms",
            median_ms(&trace, "store.load_mmap"),
            "ms",
        ),
        metric("store.artifact_mb", artifact_bytes as f64 / 1e6, "MB"),
    ];
    metrics.extend(layers.metrics);
    metrics.extend([
        metric("serve.submit_us_p50", p_us(&mut submit_ns, P50) / 1e3, "us"),
        metric(
            "serve.queue_us_p50",
            p_us(&mut paced_detail.queue_us, P50),
            "us",
        ),
        metric(
            "serve.queue_us_p95",
            p_us(&mut paced_detail.queue_us, P95),
            "us",
        ),
        metric(
            "serve.service_us_p50",
            p_us(&mut paced_detail.service_us, P50),
            "us",
        ),
        metric(
            "serve.batch_occupancy_mean",
            report.batch_occupancy_mean,
            "samples",
        ),
        metric("serve.batches", report.batches as f64, "count"),
        metric(
            "serve.service_over_forward",
            full_batch_service_ms / layers.forward_ms,
            "ratio",
        ),
        metric("serve.shed", total.shed as f64, "count"),
        metric("serve.rejected", total.rejected as f64, "count"),
        metric("serve.failed", total.failed as f64, "count"),
        metric("serve.report_ms", report.report_ms, "ms"),
    ]);
    metrics.extend([
        metric(
            "replica.pool_overhead_ratio",
            if pool.sat_sps > 0.0 {
                sat_plain.ok_per_second() / pool.sat_sps
            } else {
                0.0
            },
            "ratio",
        ),
        metric("replica.restarts", pool.restarts as f64, "count"),
        metric("replica.failovers", pool.failovers as f64, "count"),
        metric("replica.quarantines", pool.quarantines as f64, "count"),
    ]);
    metrics.extend([
        metric("cache.hit_rate", share(paced_hits, paced_lookups), "share"),
        metric(
            "cache.bloom_negative_share",
            share(
                before_paced.bloom_negatives - before_sat.bloom_negatives,
                sat_lookups,
            ),
            "share",
        ),
        metric("cache.insertions", after.insertions as f64, "count"),
        metric("cache.evictions", after.evictions as f64, "count"),
        metric(
            "cache.hit_latency_us_p50",
            p_us(&mut paced_detail.submit_ns_hit, P50) / 1e3,
            "us",
        ),
        metric(
            "cache.miss_submit_us_p50",
            p_us(&mut paced_detail.submit_ns_miss, P50) / 1e3,
            "us",
        ),
    ]);
    metrics.extend(driver_notes(wl, &paced, &view));
    metrics.push(metric(
        "driver.trace_overhead_share",
        1.0 - sat.ok_per_second() / sat_plain.ok_per_second(),
        "share",
    ));

    let trace_path = out_dir.join(format!("trace_{}.json", wl.name));
    std::fs::write(&trace_path, trace.to_json(wl.name)).expect("trace file is writable");

    let correct = checks.pass(&report) && layers.equal && pool.pass;
    if !correct {
        eprintln!(
            "{}: {checks:?}, window {report:?}, rebuilt layers equal: {}, pool window ok: {}",
            wl.name, layers.equal, pool.pass
        );
    }
    Outcome {
        correct,
        attempted: total.attempted,
        failed: total.not_ok(),
        metrics,
        notes: vec![
            metric("paced_latency_p50_ms", view.p50_ms, "ms"),
            metric("driver.spans", trace.spans().len() as f64, "count"),
        ],
    }
}
