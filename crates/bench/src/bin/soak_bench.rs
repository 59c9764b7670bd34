//! `soak_bench` — scheduler scale-out soak: capacity probe plus
//! 0.8x/1.0x/1.2x open-loop phases over 300 tenants, with the
//! zero-dropped-tickets, bounded-high-p99 and shed-low-first gates
//! checked before the record is written (CI regression gate). Emits
//! `bench_results/BENCH_soak.json`.
//!
//! Usage: `soak_bench [--requests-per-phase N]` (default 340000, which
//! puts the three-phase total over the 1M-request soak target).

use pim_bench::count_arg;
use pim_bench::soak_bench::run_soak_bench;

fn main() {
    run_soak_bench(count_arg("--requests-per-phase", 340_000)).report_and_write();
}
