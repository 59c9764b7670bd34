//! `quant_bench` — measures batch-1 streaming throughput off f32 vs int8
//! vs fp16 artifacts of the streaming model, runs the Table 5 accuracy
//! gate on the quantized reloads, and emits
//! `bench_results/BENCH_quant.json`.
//!
//! Exits non-zero, writing nothing, if the accuracy gate fails or
//! `check_quant` rejects the record — the quantized artifacts must not
//! ship numbers alongside broken classifications. The streaming-rate bars
//! depend on the CPU, so only a committed record is held to them
//! (`check_committed`, run by the golden test).

use pim_bench::quant_bench::{default_gate_benchmark, run_quant_bench};

fn main() {
    // Enough batch-1 requests that each measurement streams the caps
    // weights for a second or more, keeping the samples/s stable.
    const REQUESTS: usize = 24;

    run_quant_bench(REQUESTS, &default_gate_benchmark()).report_and_write();
    println!("[quant_bench] accuracy gate passed");
}
