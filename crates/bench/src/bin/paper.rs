//! Prints every figure and table of the paper the reproduction covers,
//! writes each as a CSV (see `pim_bench::results_dir`), then prints our
//! suite numbers beside the paper's and exits non-zero if a gated row is
//! outside its tolerance.
//!
//! ```text
//! cargo run --release -p pim-bench --bin paper
//! ```

use pim_bench::paper;
use pim_bench::BenchContext;

fn main() {
    let ctx = BenchContext::new();
    let nets = paper::nets(&ctx);
    paper::print_figures(&nets);
    paper::table02();
    paper::sec65_area(&ctx);
    paper::ablation_batch_routing();
    paper::ablation_subpage();

    let outcomes = paper::outcomes(&nets, false);
    println!("\n=== Reproduction gate — ours vs the paper ===");
    paper::gate_table(&outcomes).print();
    let failed = outcomes.iter().filter(|o| o.fails()).count();
    if failed > 0 {
        eprintln!("{failed} gated row(s) outside tolerance");
        std::process::exit(1);
    }
}
