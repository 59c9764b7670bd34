//! Prints the whole-suite comparison of every design variant — a compact
//! version of Figs 15–17 for quick inspection — then measures the routing
//! engine's execution strategies, writing `BENCH_routing.json` so future
//! changes have a perf trajectory to compare against. (Serving throughput
//! is the benchmark's: `bash benchmark/run.sh --workload stream`.)
//!
//! ```text
//! cargo run --release -p pim-bench --bin suite_summary
//! ```

use std::time::Instant;

use capsnet::routing::{
    dynamic_routing, dynamic_routing_parallel, dynamic_routing_with, em_routing,
};
use capsnet::{ExactMath, MathBackend, RoutingScratch};
use capsnet_workloads::report::{mean, Table};
use pim_bench::check::check_routing;
use pim_bench::emit::{routing_json, write_json_artifact, BenchHost, RoutingMeasurement};
use pim_bench::{f2, pct, BenchContext};
use pim_capsnet::DesignVariant;
use pim_tensor::Tensor;

fn main() {
    let ctx = BenchContext::new();
    let mut table = Table::new(&[
        "network",
        "base_ms",
        "PIM_rp_x",
        "PIM_total_x",
        "energy_saving",
        "dim",
    ]);
    let mut rp_x = Vec::new();
    let mut tot_x = Vec::new();
    for b in &ctx.benchmarks {
        let base = ctx.eval(b, DesignVariant::Baseline);
        let pim = ctx.eval(b, DesignVariant::PimCapsNet);
        rp_x.push(pim.rp_speedup_vs(&base));
        tot_x.push(pim.total_speedup_vs(&base));
        table.row(vec![
            b.name.to_string(),
            f2(base.total_time_s * 1e3),
            f2(pim.rp_speedup_vs(&base)),
            f2(pim.total_speedup_vs(&base)),
            pct(pim.energy_saving_vs(&base)),
            pim.chosen_dimension
                .map(|d| d.to_string())
                .unwrap_or_default(),
        ]);
    }
    table.print();
    println!(
        "\nsuite averages: RP {}x, overall {}x (paper: 2.17x / 2.44x)",
        f2(mean(&rp_x)),
        f2(mean(&tot_x))
    );

    write_routing_benchmarks();
}

/// Times `f` with a calibrated batch size (total per sample >= ~2 ms).
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 2 || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }
    // Median of 5 samples.
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

/// Measures the routing execution strategies (boxed dyn-dispatch baseline
/// vs monomorphized vs warm-arena vs batch-parallel) and writes
/// `BENCH_routing.json` into the results directory.
fn write_routing_benchmarks() {
    let host = BenchHost::detect();
    println!(
        "\n=== routing engine — ns/iter by execution strategy (simd: {}, threads: {}) ===",
        host.simd, host.threads
    );
    let u_shared = Tensor::uniform(&[8, 128, 10, 16], -0.5, 0.5, 1);
    let u_batch = Tensor::uniform(&[32, 128, 10, 16], -0.5, 0.5, 2);
    let exact = ExactMath;
    let dyn_exact: &dyn MathBackend = &exact;
    let mut scratch = RoutingScratch::new();

    let measurements = [
        RoutingMeasurement {
            name: "dynamic_shared_boxed",
            baseline: "dynamic_shared_boxed",
            ns_per_iter: time_ns(|| {
                dynamic_routing(&u_shared, 3, true, dyn_exact).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "dynamic_shared_mono",
            baseline: "dynamic_shared_boxed",
            ns_per_iter: time_ns(|| {
                dynamic_routing(&u_shared, 3, true, &exact).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "dynamic_shared_arena",
            baseline: "dynamic_shared_boxed",
            ns_per_iter: time_ns(|| {
                dynamic_routing_with(&u_shared, 3, true, &exact, &mut scratch).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "dynamic_per_sample_boxed",
            baseline: "dynamic_per_sample_boxed",
            ns_per_iter: time_ns(|| {
                dynamic_routing(&u_batch, 3, false, dyn_exact).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "dynamic_per_sample_mono",
            baseline: "dynamic_per_sample_boxed",
            ns_per_iter: time_ns(|| {
                dynamic_routing(&u_batch, 3, false, &exact).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "dynamic_per_sample_parallel",
            baseline: "dynamic_per_sample_boxed",
            ns_per_iter: time_ns(|| {
                dynamic_routing_parallel(&u_batch, 3, &exact).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "em_boxed",
            baseline: "em_boxed",
            ns_per_iter: time_ns(|| {
                em_routing(&u_shared, 3, dyn_exact).unwrap();
            }),
        },
        RoutingMeasurement {
            name: "em_mono",
            baseline: "em_boxed",
            ns_per_iter: time_ns(|| {
                em_routing(&u_shared, 3, &exact).unwrap();
            }),
        },
    ];

    let baseline_ns = |name: &str| {
        measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_iter)
            .unwrap_or(f64::NAN)
    };
    for m in &measurements {
        println!(
            "{:<32} {:>14.0} ns/iter   {:>5.2}x vs {}",
            m.name,
            m.ns_per_iter,
            baseline_ns(m.baseline) / m.ns_per_iter,
            m.baseline
        );
    }
    write_json_artifact(
        "BENCH_routing.json",
        &routing_json(&host, &measurements),
        check_routing,
    );
}
