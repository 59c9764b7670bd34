//! Shared work-splitting heuristics for the threaded kernels.
//!
//! The GEMM, the û projection and the capsnet batch-parallel routing driver
//! shard independent work items across `std::thread::scope` workers; this
//! module centralizes the "is threading worth it?" decision so every
//! consumer amortizes spawn cost the same way.

/// Minimum total work (in multiply-add-equivalents) before threads are
/// worth spawning at all. Derived from two measurements on the 2-core
/// reference host: a scoped spawn and join costs ~75 µs (median of 200) and
/// the register tile retires 24–31 G multiply-adds/s on one thread (packed
/// panels), so two shards beat one thread above 2 × 75 µs × 24–31 G/s ≈
/// 3.6–4.7 M multiply-adds.
const PAR_MIN_WORK: usize = 1 << 22;

/// Number of worker threads the machine offers (1 when unknown).
///
/// Cached after the first query: `std::thread::available_parallelism` is a
/// syscall on Linux, and this function sits on the dispatch path of every
/// matmul/conv/routing call — at small GEMM sizes the uncached syscall cost
/// (~10 µs) exceeded the kernel itself. Affinity changes made after the
/// first call are deliberately ignored.
pub fn available_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Plans a thread count for `items` independent work items costing
/// `work_per_item` multiply-add-equivalents each.
///
/// Returns 1 (stay serial) when there is only one item, threading is
/// unavailable, or the total work is below [`PAR_MIN_WORK`]; otherwise the
/// smaller of the machine's parallelism and the item count, so no worker
/// is ever idle.
pub fn plan_threads(items: usize, work_per_item: usize) -> usize {
    let threads = available_threads();
    if threads <= 1 || items <= 1 || items.saturating_mul(work_per_item) < PAR_MIN_WORK {
        return 1;
    }
    threads.min(items)
}

/// Splits `0..items` into `threads` contiguous ranges, runs `chunk_map`
/// over each on its own `std::thread::scope` worker, and returns the
/// results in range order.
///
/// With `threads <= 1` (or nothing to do) the single range runs on the
/// calling thread — callers get identical results either way, so pairing
/// this with [`plan_threads`] makes threading a pure go-faster knob.
pub fn map_sharded<R, F>(items: usize, threads: usize, chunk_map: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if threads <= 1 || items <= 1 {
        return vec![chunk_map(0..items)];
    }
    let per = items.div_ceil(threads);
    let chunks = items.div_ceil(per);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(chunks).collect();
    std::thread::scope(|scope| {
        let chunk_map = &chunk_map;
        for (i, slot) in results.iter_mut().enumerate() {
            let range = i * per..((i + 1) * per).min(items);
            scope.spawn(move || {
                *slot = Some(chunk_map(range));
            });
        }
    });
    results
        .into_iter()
        // LINT-ALLOW(R2): join() only errs if a shard thread panicked; propagating that panic (not masking it) is the intended behavior
        .map(|r| r.expect("every shard runs to completion"))
        .collect()
}

/// Runs `run` over every shard: the first on the calling thread, each
/// further one on its own `std::thread::scope` worker — so a single shard
/// spawns nothing. Shards are values (typically disjoint `&mut` windows),
/// which is what lets callers shard without `unsafe`. A panicking worker
/// propagates once every shard has finished.
pub fn for_each_shard<T: Send>(shards: impl IntoIterator<Item = T>, run: impl Fn(T) + Sync) {
    let mut rest = shards.into_iter().peekable();
    let Some(first) = rest.next() else {
        return;
    };
    if rest.peek().is_none() {
        return run(first);
    }
    std::thread::scope(|scope| {
        let run = &run;
        for shard in rest {
            scope.spawn(move || run(shard));
        }
        run(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_shard_visits_every_window_once() {
        for shards in [0usize, 1, 2, 5] {
            let mut data = vec![0u32; shards * 3];
            let caller = std::thread::current().id();
            let on_caller = std::sync::atomic::AtomicUsize::new(0);
            for_each_shard(data.chunks_mut(3).enumerate(), |(t, window)| {
                if std::thread::current().id() == caller {
                    on_caller.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                window.fill(t as u32 + 1);
            });
            let want: Vec<u32> = (0..shards).flat_map(|t| [t as u32 + 1; 3]).collect();
            assert_eq!(data, want, "shards={shards}");
            assert_eq!(
                on_caller.into_inner(),
                shards.min(1),
                "one shard runs inline"
            );
        }
    }

    #[test]
    fn tiny_work_stays_serial() {
        assert_eq!(plan_threads(1, usize::MAX), 1);
        assert_eq!(plan_threads(1000, 4), 1);
        assert_eq!(plan_threads(0, 1 << 30), 1);
    }

    #[test]
    fn large_work_uses_threads_bounded_by_items() {
        let t = available_threads();
        if t > 1 {
            assert_eq!(plan_threads(2, PAR_MIN_WORK), 2);
            assert_eq!(plan_threads(10_000, PAR_MIN_WORK), t);
        }
    }

    #[test]
    fn work_product_saturates_instead_of_overflowing() {
        assert!(plan_threads(usize::MAX, usize::MAX) <= available_threads());
    }

    #[test]
    fn map_sharded_covers_every_item_in_order() {
        for threads in [1, 2, 3, 7, 16] {
            let parts = map_sharded(10, threads, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<usize>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_sharded_handles_empty_input() {
        let parts = map_sharded(0, 8, |r| r.len());
        assert_eq!(parts, vec![0]);
    }
}
