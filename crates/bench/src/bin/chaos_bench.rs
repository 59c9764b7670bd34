//! `chaos_bench` — deterministic chaos soak over a 4-replica pool:
//! fault-free baseline phase, then the same seeded Poisson traffic under
//! a scripted fault plan (2 worker panics + 1 stall longer than the
//! replica timeout + a mid-traffic operator quarantine), with the
//! zero-dropped-tickets, faults-fired, restart-accounting,
//! fleet-recovered and clean-replica-p99 gates checked before the record
//! is written (CI regression gate). Emits
//! `bench_results/BENCH_chaos.json`.
//!
//! Usage: `chaos_bench [--requests-per-phase N]` (default 120000, which
//! keeps the chaos phase over the 100k-request target).

use pim_bench::chaos_bench::run_chaos_bench;
use pim_bench::count_arg;

fn main() {
    run_chaos_bench(count_arg("--requests-per-phase", 120_000)).report_and_write();
}
