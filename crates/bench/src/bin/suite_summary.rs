//! Prints the whole-suite comparison of every design variant — a compact
//! version of Figs 15–17 for quick inspection. (The routing engine's
//! execution strategies are timed by `cargo bench -p pim-bench --bench
//! micro_kernels -- routing/`; serving throughput is the benchmark's:
//! `bash benchmark/run.sh --workload stream`.)
//!
//! ```text
//! cargo run --release -p pim-bench --bin suite_summary
//! ```

use capsnet_workloads::report::{mean, Table};
use pim_bench::{f2, pct, BenchContext};
use pim_capsnet::DesignVariant;

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
}
