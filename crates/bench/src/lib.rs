//! The paper's figures and tables ([`paper`], run by `--bin paper`), the
//! recorders and checkers behind `bench_results/BENCH_*.json`, and their
//! shared output helpers.
//!
//! Every table is printed to stdout and written as a CSV into
//! `bench_results/` (override the directory with the `PIM_BENCH_OUT`
//! environment variable).

pub mod chaos_bench;
pub mod check;
pub mod emit;
pub mod jsonlite;
pub mod paper;
pub mod quant_bench;
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

/// The output directory for CSV and JSON artifacts: `bench_results/` at
/// the root of the workspace the process runs in, found at run time by
/// walking up from the working directory (tests and benches run in the
/// package directory). Override with `PIM_BENCH_OUT`.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("PIM_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().expect("the working directory is readable");
    results_dir_from(&cwd)
}

/// `bench_results/` in the nearest ancestor of `start` (itself included)
/// whose `Cargo.toml` declares a `[workspace]`, or in `start` when none
/// does.
fn results_dir_from(start: &Path) -> PathBuf {
    let is_root = |dir: &&Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.contains("[workspace]"))
    };
    let root = start.ancestors().find(is_root).unwrap_or(start);
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
    fn results_dir_is_found_from_the_working_directory() {
        let tmp = std::env::temp_dir().join(format!("pim_bench_results_{}", std::process::id()));
        let package = tmp.join("ws/crates/pkg/src");
        std::fs::create_dir_all(&package).unwrap();
        std::fs::write(tmp.join("ws/Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(tmp.join("ws/crates/pkg/Cargo.toml"), "[package]\n").unwrap();
        let want = tmp.join("ws/bench_results");
        assert_eq!(results_dir_from(&package), want);
        assert_eq!(results_dir_from(&tmp.join("ws")), want);
        // Outside any workspace: next to where the process runs.
        let stray = tmp.join("stray");
        assert_eq!(results_dir_from(&stray), stray.join("bench_results"));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.00%");
    }
}
