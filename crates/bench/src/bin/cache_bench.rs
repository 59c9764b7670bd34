//! `cache_bench` — content-addressed response cache measurement: one
//! seeded Zipf-skewed stream (s ≈ 1.0) through the serve tier with the
//! cache off and again with it on, with the bitwise-equality, hit-rate,
//! fast-path-accounting and zero-dropped-tickets gates checked before the
//! record is written (CI regression gate). Emits
//! `bench_results/BENCH_cache.json`.
//!
//! Usage: `cache_bench [--requests N]` (default 400).

use pim_bench::cache_bench::run_cache_bench;
use pim_bench::count_arg;

fn main() {
    run_cache_bench(count_arg("--requests", 400)).report_and_write();
}
