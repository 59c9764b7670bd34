//! Service metrics: request latencies, batch occupancy, throughput,
//! per-priority-tier latency/shed accounting, and per-(model, version)
//! dispatch counters for hot-swap observability.
//!
//! The recorder's memory is fixed when it is created: latencies go into
//! one [`LatencyHistogram`] per priority tier (≈ 30 KB each), never into
//! a per-request buffer, and the window-wide percentiles come from
//! merging the three. A report therefore costs O(buckets), not a sort of
//! every sample, so it can be taken mid-run
//! ([`crate::ServerHandle::snapshot`]). Percentiles are bucketed: never
//! below the exact nearest-rank value and at most 1/64 above it (exact
//! below 128 µs). Counts, the mean and the maximum are exact.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::admission::{Priority, TIERS};
use crate::histogram::LatencyHistogram;

/// Mutable recorder the workers feed; lives behind a mutex in the server.
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    started: Instant,
    /// Per-tier total (queue + service) latency of completed requests,
    /// microseconds; each sample is recorded once, in its request's tier.
    tier_latencies_us: [LatencyHistogram; TIERS],
    /// `occupancy[s]` = number of dispatched batches holding `s` samples.
    occupancy: Vec<u64>,
    samples: u64,
    rejected_full: u64,
    /// Submissions rejected over the tenant fairness quota.
    rejected_quota: u64,
    /// Per-tier submissions shed by the SLO-aware admission layer.
    shed: [u64; TIERS],
    /// Per-tier fast-path completions served from the response cache: the
    /// request never entered the queue, so it contributes no latency
    /// sample and no batch. Disjoint from `tier_latencies_us`.
    cache_hits: [u64; TIERS],
    /// Requests whose dispatched batch failed (tickets resolved with an
    /// error). Disjoint from `tier_latencies_us`.
    failed_requests: u64,
    /// Dispatched batches that failed. Disjoint from `occupancy`.
    failed_batches: u64,
    /// `(model, version)` → requests/samples dispatched on that epoch.
    versions: BTreeMap<(usize, u64), (u64, u64)>,
    swaps: u64,
}

impl MetricsRecorder {
    pub(crate) fn new(max_batch: usize) -> Self {
        MetricsRecorder {
            started: Instant::now(),
            tier_latencies_us: std::array::from_fn(|_| LatencyHistogram::new()),
            occupancy: vec![0; max_batch + 1],
            samples: 0,
            rejected_full: 0,
            rejected_quota: 0,
            shed: [0; TIERS],
            cache_hits: [0; TIERS],
            failed_requests: 0,
            failed_batches: 0,
            versions: BTreeMap::new(),
            swaps: 0,
        }
    }

    /// Records a completed batch; `request_latencies_us` carries one
    /// `(priority, total latency)` entry per request the batch held.
    pub(crate) fn record_batch(
        &mut self,
        model: usize,
        version: u64,
        batch_samples: usize,
        request_latencies_us: &[(Priority, u64)],
    ) {
        // Clamp into the top bucket rather than silently dropping the
        // occupancy sample: `batches` is derived as `occupancy.sum()`, so a
        // dropped sample would make it disagree with dispatched batches.
        // (In-range is the invariant today — the scheduler never forms a
        // batch above `max_batch` — but the recorder must stay consistent
        // for any caller.)
        let slot = batch_samples.min(self.occupancy.len() - 1);
        self.occupancy[slot] += 1;
        self.samples += batch_samples as u64;
        for &(priority, latency_us) in request_latencies_us {
            self.tier_latencies_us[priority.index()].record(latency_us);
        }
        let entry = self.versions.entry((model, version)).or_insert((0, 0));
        entry.0 += request_latencies_us.len() as u64;
        entry.1 += batch_samples as u64;
    }

    /// Records a dispatched batch whose forward failed: `requests` tickets
    /// resolved with an error. Failed traffic is counted separately —
    /// `requests`/`batches`/`samples` keep meaning *completed* work — but
    /// it is never silent: the rollout canary (and any operator) needs a
    /// failure signal.
    pub(crate) fn record_failed_batch(&mut self, requests: usize) {
        self.failed_batches += 1;
        self.failed_requests += requests as u64;
    }

    pub(crate) fn record_reject_full(&mut self) {
        self.rejected_full += 1;
    }

    pub(crate) fn record_reject_quota(&mut self) {
        self.rejected_quota += 1;
    }

    pub(crate) fn record_shed(&mut self, priority: Priority) {
        self.shed[priority.index()] += 1;
    }

    /// Records a response-cache fast-path completion: the submission was
    /// answered before admission, bypassing queueing and dispatch.
    pub(crate) fn record_cache_hit(&mut self, priority: Priority) {
        self.cache_hits[priority.index()] += 1;
    }

    pub(crate) fn record_swap(&mut self) {
        self.swaps += 1;
    }

    /// Adds this window's latency samples, all tiers, to `window`.
    pub(crate) fn merge_latencies_into(&self, window: &mut LatencyHistogram) {
        for tier in &self.tier_latencies_us {
            window.merge(tier);
        }
    }

    pub(crate) fn report(&self) -> MetricsReport {
        let mut all = LatencyHistogram::new();
        self.merge_latencies_into(&mut all);
        let [p50_us, p95_us, p99_us] = all.quantiles(PERCENTILES);
        let tiers = Priority::ALL.map(|priority| {
            let latencies = &self.tier_latencies_us[priority.index()];
            let [p50_us, p95_us, p99_us] = latencies.quantiles(PERCENTILES);
            TierReport {
                priority,
                requests: latencies.count(),
                shed: self.shed[priority.index()],
                cache_hits: self.cache_hits[priority.index()],
                p50_us,
                p95_us,
                p99_us,
            }
        });
        MetricsReport {
            requests: all.count(),
            samples: self.samples,
            batches: self.occupancy.iter().sum(),
            cache_hits: self.cache_hits.iter().sum(),
            rejected_full: self.rejected_full,
            rejected_quota: self.rejected_quota,
            failed_requests: self.failed_requests,
            failed_batches: self.failed_batches,
            p50_us,
            p95_us,
            p99_us,
            mean_us: all.mean(),
            batch_occupancy: self.occupancy.clone(),
            elapsed_s: self.started.elapsed().as_secs_f64(),
            tiers,
            version_counts: self
                .versions
                .iter()
                .map(
                    |(&(model, version), &(requests, samples))| ModelVersionCount {
                        model,
                        version,
                        requests,
                        samples,
                    },
                )
                .collect(),
            swaps: self.swaps,
        }
    }
}

/// The percentiles every report carries: p50, p95, p99.
pub(crate) const PERCENTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Dispatch volume attributed to one `(model, version)` epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelVersionCount {
    /// Registry slot index.
    pub model: usize,
    /// Model version the batches dispatched with.
    pub version: u64,
    /// Requests completed on this version.
    pub requests: u64,
    /// Samples completed on this version.
    pub samples: u64,
}

/// One priority tier's view of a serve window: its completed volume, its
/// shed count, and its own latency percentiles (the SLO the tier's
/// shed ceiling exists to protect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierReport {
    /// The tier.
    pub priority: Priority,
    /// Requests of this tier completed.
    pub requests: u64,
    /// Submissions of this tier shed by admission control.
    pub shed: u64,
    /// Fast-path completions of this tier served from the response cache
    /// (never queued, never dispatched). Disjoint from
    /// [`TierReport::requests`]; a tier's total completions are
    /// `requests + cache_hits`.
    pub cache_hits: u64,
    /// Median total latency of the tier's completed requests, µs. Like
    /// every reported percentile it is bucketed: never below the exact
    /// nearest-rank value, at most 1/64 above it, exact below 128 µs.
    pub p50_us: u64,
    /// 95th-percentile latency, µs (bucketed as [`TierReport::p50_us`]).
    pub p95_us: u64,
    /// 99th-percentile latency, µs (bucketed as [`TierReport::p50_us`]).
    pub p99_us: u64,
}

/// Immutable snapshot of the service's behavior over one [`crate::Server::run`]
/// window — or, from [`crate::ServerHandle::snapshot`], over the window so
/// far.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Completed requests.
    pub requests: u64,
    /// Completed samples (requests may carry several).
    pub samples: u64,
    /// Dispatched batches.
    pub batches: u64,
    /// Fast-path completions served from the response cache before
    /// admission. Disjoint from [`MetricsReport::requests`] (which keeps
    /// meaning *dispatched* completions), so total completions are
    /// `requests + cache_hits` — see [`MetricsReport::completions`].
    pub cache_hits: u64,
    /// Submissions rejected with [`crate::SubmitError::QueueFull`].
    pub rejected_full: u64,
    /// Submissions rejected with [`crate::SubmitError::TenantQuotaExceeded`].
    pub rejected_quota: u64,
    /// Requests whose dispatched batch failed (tickets resolved with
    /// [`crate::ServeError::Forward`]). Disjoint from [`MetricsReport::requests`].
    pub failed_requests: u64,
    /// Dispatched batches that failed. Disjoint from [`MetricsReport::batches`].
    pub failed_batches: u64,
    /// Median total (queue + service) request latency, microseconds, from
    /// the merged per-tier histograms: never below the exact nearest-rank
    /// value, at most 1/64 above it, exact below 128 µs.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds (bucketed as
    /// [`MetricsReport::p50_us`]).
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds (bucketed as
    /// [`MetricsReport::p50_us`]).
    pub p99_us: u64,
    /// Mean latency, microseconds (exact).
    pub mean_us: f64,
    /// `batch_occupancy[s]` = dispatched batches that held `s` samples
    /// (length `max_batch + 1`; index 0 is always 0).
    pub batch_occupancy: Vec<u64>,
    /// Wall-clock seconds the serve window was open.
    pub elapsed_s: f64,
    /// Per-priority-tier latency and shed accounting, in
    /// [`Priority::ALL`] order (High, Normal, Low). Every completed
    /// request appears in exactly one tier, so
    /// `tiers.map(requests).sum() == requests` and
    /// `tiers.map(shed).sum()` is the window's total shed count.
    pub tiers: [TierReport; 3],
    /// Dispatch volume per `(model, version)` — every batch is attributed
    /// to the version it formed under, so a hot-swap splits a model's
    /// traffic across exactly the epochs that served it.
    pub version_counts: Vec<ModelVersionCount>,
    /// Hot swaps performed during the window.
    pub swaps: u64,
}

impl MetricsReport {
    /// Completed samples per second over the serve window.
    pub fn samples_per_s(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.samples as f64 / self.elapsed_s
        }
    }

    /// Mean samples per dispatched batch.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }

    /// Total submissions shed across all tiers.
    pub fn shed_total(&self) -> u64 {
        self.tiers.iter().map(|t| t.shed).sum()
    }

    /// Total successful completions: dispatched requests plus cache-hit
    /// fast-path completions (`completions == cache_hits + requests`, the
    /// identity the metrics proptest pins).
    pub fn completions(&self) -> u64 {
        self.requests + self.cache_hits
    }

    /// One tier's report.
    pub fn tier(&self, priority: Priority) -> &TierReport {
        &self.tiers[priority.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal(latencies: &[u64]) -> Vec<(Priority, u64)> {
        latencies.iter().map(|&l| (Priority::Normal, l)).collect()
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = MetricsRecorder::new(100);
        let v: Vec<_> = (1..=100u64).collect();
        r.record_batch(0, 1, 100, &normal(&v));
        let rep = r.report();
        assert_eq!((rep.p50_us, rep.p95_us, rep.p99_us), (50, 95, 99));
        let empty = MetricsRecorder::new(1).report();
        assert_eq!((empty.p50_us, empty.p99_us, empty.mean_us), (0, 0, 0.0));
        let mut one = MetricsRecorder::new(1);
        one.record_batch(0, 1, 1, &normal(&[7]));
        assert_eq!(one.report().p99_us, 7);
    }

    /// Counts the bytes this thread allocates, so a test can see what a
    /// recorder holds on the heap.
    mod heap {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static ALLOCATED: Cell<usize> = const { Cell::new(0) };
        }

        fn note(grown: usize, freed: usize) {
            // `try_with`: the counters may be gone while a thread exits.
            let _ = LIVE.try_with(|l| l.set(l.get() + grown as isize - freed as isize));
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + grown));
        }

        /// `(live, allocated)` bytes on this thread: live is net of frees,
        /// allocated counts every allocation and growth.
        pub(super) fn bytes() -> (isize, usize) {
            (LIVE.with(Cell::get), ALLOCATED.with(Cell::get))
        }

        struct Counting;

        // SAFETY: every method forwards to `System` with the caller's own
        // arguments, so `System`'s guarantees are the caller's; the
        // counters are thread-local `Cell`s that never allocate.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size(), 0);
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size(), 0);
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                note(0, layout.size());
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size, layout.size());
                // SAFETY: forwarded unchanged (see the impl).
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;
    }

    #[test]
    fn recorder_memory_does_not_grow_with_traffic() {
        const SAMPLES: u64 = 2_000_000;
        let mut batch = [(Priority::High, 0u64); 8];
        let fill = |batch: &mut [(Priority, u64)], i: u64| {
            for (k, entry) in batch.iter_mut().enumerate() {
                let n = i * 8 + k as u64;
                // Every tier; µs-scale hits and ms-scale misses.
                let latency = if n.is_multiple_of(5) {
                    1_000 + n % 9_000
                } else {
                    n % 40
                };
                *entry = (Priority::ALL[k % 3], latency);
            }
        };
        let (before_new, _) = heap::bytes();
        let mut r = MetricsRecorder::new(batch.len());
        let (when_new, _) = heap::bytes();
        let footprint = when_new - before_new;
        assert!(footprint < 128 * 1024, "fixed footprint: {footprint} B");
        // The first batch on a (model, version) adds that epoch's dispatch
        // counter: the one allocation a batch may make.
        fill(&mut batch, 0);
        r.record_batch(0, 1, batch.len(), &batch);
        let (warm, _) = heap::bytes();
        assert!(
            warm - when_new < 1024,
            "one epoch counter: {} B",
            warm - when_new
        );
        for i in 1..SAMPLES / batch.len() as u64 {
            fill(&mut batch, i);
            r.record_batch(0, 1, batch.len(), &batch);
        }
        let (after, _) = heap::bytes();
        assert_eq!(after, warm, "{SAMPLES} samples grew the recorder");

        // A report allocates the same whatever the sample count: no
        // per-sample copy, no sort.
        let mut small = MetricsRecorder::new(batch.len());
        small.record_batch(0, 1, 1, &[(Priority::Normal, 42)]);
        let report_bytes = |rec: &MetricsRecorder| {
            let (_, before) = heap::bytes();
            let rep = rec.report();
            let (_, after) = heap::bytes();
            (rep.requests, after - before)
        };
        let (n_big, big_bytes) = report_bytes(&r);
        let (n_small, small_bytes) = report_bytes(&small);
        assert_eq!((n_big, n_small), (SAMPLES, 1));
        assert_eq!(big_bytes, small_bytes);
    }

    #[test]
    fn recorder_aggregates() {
        let mut r = MetricsRecorder::new(4);
        r.record_batch(0, 1, 3, &normal(&[10, 20, 30]));
        r.record_swap();
        r.record_batch(0, 2, 1, &normal(&[40]));
        r.record_reject_full();
        let rep = r.report();
        assert_eq!(rep.swaps, 1);
        assert_eq!(
            rep.version_counts,
            vec![
                ModelVersionCount {
                    model: 0,
                    version: 1,
                    requests: 3,
                    samples: 3
                },
                ModelVersionCount {
                    model: 0,
                    version: 2,
                    requests: 1,
                    samples: 1
                },
            ]
        );
        assert_eq!(rep.requests, 4);
        assert_eq!(rep.samples, 4);
        assert_eq!(rep.batches, 2);
        assert_eq!(rep.rejected_full, 1);
        assert_eq!(rep.failed_requests, 0);
        assert_eq!(rep.failed_batches, 0);
        assert_eq!(rep.batch_occupancy[3], 1);
        assert_eq!(rep.batch_occupancy[1], 1);
        assert!((rep.mean_occupancy() - 2.0).abs() < 1e-12);
        assert_eq!(rep.p50_us, 20);
        assert!(rep.mean_us > 0.0);
    }

    #[test]
    fn out_of_range_occupancy_clamps_into_top_bucket() {
        // Regression: `record_batch` used to drop the occupancy sample for
        // any `batch_samples > max_batch`, so `batches` (occupancy.sum())
        // disagreed with dispatched batches.
        let mut r = MetricsRecorder::new(4);
        r.record_batch(0, 1, 9, &normal(&[10])); // above max_batch
        r.record_batch(0, 1, 0, &[]); // below any real batch
        let rep = r.report();
        assert_eq!(rep.batches, 2, "every dispatched batch must be counted");
        assert_eq!(rep.batch_occupancy[4], 1, "clamped into the top bucket");
        assert_eq!(rep.batch_occupancy[0], 1);
        assert_eq!(rep.samples, 9);
    }

    #[test]
    fn failed_batches_are_counted_separately() {
        let mut r = MetricsRecorder::new(4);
        r.record_batch(0, 1, 2, &normal(&[10, 20]));
        r.record_failed_batch(3);
        r.record_failed_batch(1);
        let rep = r.report();
        assert_eq!(rep.requests, 2);
        assert_eq!(rep.batches, 1);
        assert_eq!(rep.failed_requests, 4);
        assert_eq!(rep.failed_batches, 2);
    }

    #[test]
    fn tiers_partition_latencies_and_count_sheds() {
        let mut r = MetricsRecorder::new(8);
        r.record_batch(
            0,
            1,
            4,
            &[
                (Priority::High, 10),
                (Priority::Low, 400),
                (Priority::High, 20),
                (Priority::Normal, 50),
            ],
        );
        r.record_shed(Priority::Low);
        r.record_shed(Priority::Low);
        r.record_shed(Priority::Normal);
        r.record_reject_quota();
        let rep = r.report();
        assert_eq!(rep.tier(Priority::High).requests, 2);
        assert_eq!(rep.tier(Priority::Normal).requests, 1);
        assert_eq!(rep.tier(Priority::Low).requests, 1);
        assert_eq!(rep.tier(Priority::High).p99_us, 20);
        assert_eq!(rep.tier(Priority::Low).p50_us, 400);
        assert_eq!(rep.tier(Priority::Low).shed, 2);
        assert_eq!(rep.tier(Priority::Normal).shed, 1);
        assert_eq!(rep.tier(Priority::High).shed, 0);
        assert_eq!(rep.shed_total(), 3);
        assert_eq!(rep.rejected_quota, 1);
        let tier_requests: u64 = rep.tiers.iter().map(|t| t.requests).sum();
        assert_eq!(tier_requests, rep.requests);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under arbitrary (even out-of-range) batch sizes, failure
            /// interleavings, and admission events (sheds, quota rejects,
            /// queue-full rejects, cache-hit fast paths), the derived
            /// report stays self-consistent — and **every submission is
            /// accounted for exactly once**:
            /// `completions + failed_requests + shed + rejected_full +
            /// rejected_quota == submissions`, where
            /// `completions == cache_hits + dispatched completions`.
            #[test]
            fn recorder_is_consistent_under_random_batches(
                max_batch in 1usize..12,
                batches in proptest::collection::vec(
                    (0usize..24, 0usize..6, 0u32..2, 0usize..3), 0..40),
                admission_events in proptest::collection::vec(0usize..8, 0..60),
            ) {
                let mut r = MetricsRecorder::new(max_batch);
                let mut want_requests = 0u64;
                let mut want_samples = 0u64;
                let mut want_batches = 0u64;
                let mut want_failed_requests = 0u64;
                let mut want_failed_batches = 0u64;
                let mut want_shed = [0u64; 3];
                let mut want_hits = [0u64; 3];
                let mut want_rejected_full = 0u64;
                let mut want_rejected_quota = 0u64;
                let mut submissions = 0u64;
                for (i, &(batch_samples, requests, failed, tier)) in batches.iter().enumerate() {
                    submissions += requests as u64;
                    if failed == 1 {
                        r.record_failed_batch(requests);
                        want_failed_requests += requests as u64;
                        want_failed_batches += 1;
                    } else {
                        let priority = Priority::ALL[tier];
                        let latencies: Vec<(Priority, u64)> =
                            (0..requests as u64).map(|k| (priority, 10 * k + i as u64)).collect();
                        r.record_batch(i % 3, 1 + (i % 2) as u64, batch_samples, &latencies);
                        want_requests += requests as u64;
                        want_samples += batch_samples as u64;
                        want_batches += 1;
                    }
                }
                for &e in &admission_events {
                    submissions += 1;
                    match e {
                        0..=2 => {
                            r.record_shed(Priority::ALL[e]);
                            want_shed[e] += 1;
                        }
                        3 => {
                            r.record_reject_full();
                            want_rejected_full += 1;
                        }
                        4 => {
                            r.record_reject_quota();
                            want_rejected_quota += 1;
                        }
                        _ => {
                            r.record_cache_hit(Priority::ALL[e - 5]);
                            want_hits[e - 5] += 1;
                        }
                    }
                }
                let rep = r.report();
                prop_assert_eq!(rep.requests, want_requests);
                prop_assert_eq!(rep.samples, want_samples);
                prop_assert_eq!(rep.batches, want_batches);
                prop_assert_eq!(rep.batch_occupancy.iter().sum::<u64>(), want_batches);
                prop_assert_eq!(rep.batch_occupancy.len(), max_batch + 1);
                prop_assert_eq!(rep.failed_requests, want_failed_requests);
                prop_assert_eq!(rep.failed_batches, want_failed_batches);
                prop_assert_eq!(rep.rejected_full, want_rejected_full);
                prop_assert_eq!(rep.rejected_quota, want_rejected_quota);
                for p in Priority::ALL {
                    prop_assert_eq!(rep.tier(p).shed, want_shed[p.index()]);
                    prop_assert_eq!(rep.tier(p).cache_hits, want_hits[p.index()]);
                }
                // The tiers partition completed requests and cache hits.
                prop_assert_eq!(rep.tiers.iter().map(|t| t.requests).sum::<u64>(), rep.requests);
                prop_assert_eq!(
                    rep.tiers.iter().map(|t| t.cache_hits).sum::<u64>(),
                    rep.cache_hits
                );
                // Cache hits are fast-path completions, disjoint from
                // dispatched requests: completions == hits + dispatched.
                prop_assert_eq!(rep.cache_hits, want_hits.iter().sum::<u64>());
                prop_assert_eq!(rep.completions(), rep.cache_hits + rep.requests);
                // Version attribution covers exactly the successful requests.
                let attributed: u64 = rep.version_counts.iter().map(|v| v.requests).sum();
                prop_assert_eq!(attributed, want_requests);
                // The accounting identity: every submission resolves
                // exactly once as completed (dispatched or cache hit),
                // failed, shed, or rejected.
                prop_assert_eq!(
                    rep.completions() + rep.failed_requests + rep.shed_total()
                        + rep.rejected_full + rep.rejected_quota,
                    submissions
                );
            }

            /// Merging per-tier histograms equals recording every sample
            /// into one, in whichever order the tiers are merged — what
            /// lets a report (and a replica pool) take window-wide
            /// percentiles from per-tier stores.
            #[test]
            fn merged_tier_histograms_equal_one_histogram(
                samples in proptest::collection::vec(
                    (0usize..3, 0u32..64, 0u64..u64::MAX)
                        .prop_map(|(tier, shift, bits)| (tier, bits >> shift)),
                    0..300),
            ) {
                let mut one = LatencyHistogram::new();
                let mut tiers: [LatencyHistogram; 3] =
                    std::array::from_fn(|_| LatencyHistogram::new());
                for &(tier, value) in &samples {
                    one.record(value);
                    tiers[tier].record(value);
                }
                for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
                    let mut merged = LatencyHistogram::new();
                    for t in order {
                        merged.merge(&tiers[t]);
                    }
                    prop_assert_eq!(&merged, &one);
                }
                // Associativity: (t0 + t1) + t2 == t0 + (t1 + t2).
                let mut left = tiers[0].clone();
                left.merge(&tiers[1]);
                left.merge(&tiers[2]);
                let mut right = tiers[1].clone();
                right.merge(&tiers[2]);
                let mut grouped = tiers[0].clone();
                grouped.merge(&right);
                prop_assert_eq!(&left, &grouped);
                prop_assert_eq!(one.quantiles(PERCENTILES), left.quantiles(PERCENTILES));
            }
        }
    }
}
