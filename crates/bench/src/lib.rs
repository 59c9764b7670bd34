//! The paper's figures and tables ([`paper`], run by `--bin paper`), the
//! recorders and checkers behind `bench_results/BENCH_*.json`, and their
//! shared output helpers.
//!
//! Every table is printed to stdout and written as a CSV into
//! `bench_results/` (override the directory with the `PIM_BENCH_OUT`
//! environment variable).

pub mod cache_bench;
pub mod chaos_bench;
pub mod check;
pub mod emit;
pub mod jsonlite;
pub mod paper;
pub mod quant_bench;
pub mod replica_bench;
pub mod soak_bench;

use std::path::{Path, PathBuf};

use capsnet::NetworkCensus;
use capsnet_workloads::report::Table;
use capsnet_workloads::{benchmarks, Benchmark};
use pim_capsnet::Platform;

/// What the paper's tables are evaluated on: a platform plus the Table 1
/// suite.
pub struct BenchContext {
    /// Table 4 platform (P100 + HMC Gen3).
    pub platform: Platform,
    /// The 12 Table 1 benchmarks.
    pub benchmarks: Vec<Benchmark>,
}

impl BenchContext {
    /// Creates the default context.
    pub fn new() -> Self {
        BenchContext {
            platform: Platform::paper_default(),
            benchmarks: benchmarks(),
        }
    }

    /// Census for one benchmark at its Table 1 batch size.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid — covered by workload tests.
    pub fn census(&self, b: &Benchmark) -> NetworkCensus {
        NetworkCensus::from_spec(&b.spec(), b.batch_size).expect("table-1 spec valid")
    }
}

impl Default for BenchContext {
    fn default() -> Self {
        Self::new()
    }
}

/// The output directory for CSV artifacts: `bench_results/` at the
/// workspace root (benches execute with the package directory as CWD, so
/// this resolves relative to the manifest instead). Override with
/// `PIM_BENCH_OUT`.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("PIM_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(manifest);
    root.join("bench_results")
}

/// Prints a table's title.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints the table and writes it as `bench_results/<name>.csv`.
///
/// # Panics
///
/// Panics when the CSV cannot be written, so a run that leaves no output
/// exits non-zero.
pub fn finish(name: &str, table: &Table) {
    table.print();
    let path = results_dir().join(format!("{name}.csv"));
    if let Err(e) = table.write_csv(&path) {
        panic!("[csv] failed to write {}: {e}", path.display());
    }
    println!("[csv] {}", path.display());
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// The count following `flag` on the command line, or `default`.
///
/// # Panics
///
/// Panics on any other argument, a missing value, or a non-count.
pub fn count_arg(flag: &str, default: usize) -> usize {
    let mut count = default;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        assert!(arg == flag, "unknown argument {arg:?} (try {flag} N)");
        let value = args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        count = value
            .parse()
            .unwrap_or_else(|_| panic!("{flag} must be a count"));
    }
    count
}

/// Synthetic serve-tier reports for the artifact modules' unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use pim_serve::{MetricsReport, Priority, TierReport};

    /// One tier row with `p99` (and proportionate p50/p95).
    pub fn tier(priority: Priority, requests: u64, shed: u64, p99: u64) -> TierReport {
        TierReport {
            priority,
            requests,
            cache_hits: 0,
            shed,
            p50_us: p99 / 2,
            p95_us: p99,
            p99_us: p99,
        }
    }

    /// A one-second window that dispatched `requests` single-sample batches.
    pub fn metrics(requests: u64, cache_hits: u64, tiers: [TierReport; 3]) -> MetricsReport {
        MetricsReport {
            requests,
            samples: requests,
            batches: requests,
            cache_hits,
            rejected_full: 0,
            rejected_quota: 0,
            failed_requests: 0,
            failed_batches: 0,
            p50_us: 10,
            p95_us: 20,
            p99_us: 30,
            mean_us: 12.0,
            batch_occupancy: vec![0, requests],
            elapsed_s: 1.0,
            tiers,
            version_counts: Vec::new(),
            swaps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_all_censuses() {
        let ctx = BenchContext::new();
        assert_eq!(ctx.benchmarks.len(), 12);
        for b in &ctx.benchmarks {
            let c = ctx.census(b);
            assert_eq!(c.rp.nl, b.l_caps);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.00%");
    }
}
