//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! Supports the API surface this workspace's benches use —
//! [`criterion_group!`] / [`criterion_main!`], [`Criterion::benchmark_group`],
//! `bench_function`, `sample_size`, [`black_box`] — with a simple
//! calibrate-then-sample measurement loop. Reported numbers are median
//! ns/iter over the collected samples. Beyond that surface:
//!
//! * passing `--test` (as `cargo test` does for benches) runs each closure
//!   once and skips measurement entirely;
//! * the first positional argument is the real crate's `FILTER`: only ids
//!   containing it run;
//! * [`Criterion::take_results`] exposes the measurements programmatically
//!   so a harness (e.g. `micro_kernels`) can read back what it measured.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/name` identifier.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Timing driver handed to bench closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the harness-chosen number of iterations, timing the
    /// whole batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark harness context.
pub struct Criterion {
    test_mode: bool,
    /// Substring a benchmark id must contain to run (the real crate's
    /// positional `FILTER` argument).
    filter: Option<String>,
    default_sample_size: usize,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test")
            || std::env::var_os("CRITERION_TEST_MODE").is_some();
        Criterion {
            test_mode,
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
            default_sample_size: 10,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.default_sample_size,
            criterion: self,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let sample_size = self.default_sample_size;
        self.run_one(id.to_string(), sample_size, f);
        self
    }

    /// Drains the measurements collected so far.
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: String, sample_size: usize, mut f: F) {
        if self
            .filter
            .as_ref()
            .is_some_and(|filter| !id.contains(filter))
        {
            return;
        }
        if self.test_mode {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            println!("{id:<40} ok (test mode)");
            return;
        }
        // Calibrate: grow the batch until one batch costs >= ~2 ms.
        let mut iters: u64 = 1;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= Duration::from_millis(2) || iters >= 1 << 24 {
                break;
            }
            iters = iters.saturating_mul(4).max(iters + 1);
        }
        // Sample.
        let mut samples: Vec<f64> = (0..sample_size.max(3))
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed: Duration::ZERO,
                };
                f(&mut b);
                b.elapsed.as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let (lo, hi) = (samples[0], samples[samples.len() - 1]);
        println!("{id:<40} time: [{lo:>12.1} {median:>12.1} {hi:>12.1}] ns/iter");
        self.results.push(BenchResult {
            id,
            ns_per_iter: median,
        });
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Benchmarks one function within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.criterion.run_one(full, sample_size, f);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Declares a group function running each target against one [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a bench binary built with `harness = false`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion {
            test_mode: false,
            filter: None,
            default_sample_size: 3,
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(3).bench_function("sum", |b| {
            b.iter(|| (0..1000u64).map(black_box).sum::<u64>())
        });
        g.finish();
        let results = c.take_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, "g/sum");
        assert!(results[0].ns_per_iter > 0.0);
    }

    #[test]
    fn test_mode_skips_measurement() {
        let mut c = Criterion {
            test_mode: true,
            filter: Some("qui".to_string()),
            default_sample_size: 10,
            results: Vec::new(),
        };
        let mut ran = 0u32;
        c.bench_function("quick", |b| b.iter(|| ran += 1));
        c.bench_function("filtered out", |b| b.iter(|| ran += 1));
        assert_eq!(ran, 1);
        assert!(c.take_results().is_empty());
    }
}
