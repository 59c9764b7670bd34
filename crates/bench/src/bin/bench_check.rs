//! Bench-regression gate: compares a freshly measured
//! `BENCH_routing.json` against the committed baseline and fails (exit 1)
//! when the `dynamic_shared_mono` strategy regressed by more than the
//! allowed margin.
//!
//! ```text
//! cargo run --release -p pim-bench --bin bench_check -- \
//!     <committed BENCH_routing.json> <fresh BENCH_routing.json>
//! ```
//!
//! The 15% margin absorbs run-to-run noise on a warm machine; real kernel
//! regressions (a lost SIMD path, an allocation sneaking back into the hot
//! loop) overshoot it by integer factors.

use std::path::Path;
use std::process::ExitCode;

use pim_bench::check::{host_summary, load};
use pim_bench::jsonlite::Value;

/// The strategy the gate watches — the monomorphized shared-coefficient
/// routing path, which every serving configuration runs through.
const GATED: &str = "dynamic_shared_mono";
/// Allowed slowdown before the gate trips.
const MAX_REGRESSION: f64 = 1.15;

fn ns_per_iter(doc: &Value, name: &str, path: &str) -> Result<f64, String> {
    doc.get("benchmarks")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing \"benchmarks\" array"))?
        .iter()
        .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|b| b.get("ns_per_iter").and_then(Value::as_f64))
        .ok_or_else(|| format!("{path}: no ns_per_iter for {name:?}"))
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<(), String> {
    let baseline = load(Path::new(baseline_path))?;
    let fresh = load(Path::new(fresh_path))?;
    let base_ns = ns_per_iter(&baseline, GATED, baseline_path)?;
    let fresh_ns = ns_per_iter(&fresh, GATED, fresh_path)?;
    if !(base_ns > 0.0 && base_ns.is_finite()) {
        return Err(format!(
            "{baseline_path}: bad baseline ns_per_iter {base_ns}"
        ));
    }
    let ratio = fresh_ns / base_ns;
    println!(
        "{GATED}: baseline {base_ns:.0} ns/iter ({}) vs fresh {fresh_ns:.0} ns/iter ({}) — {ratio:.3}x",
        host_summary(&baseline),
        host_summary(&fresh),
    );
    if ratio > MAX_REGRESSION {
        return Err(format!(
            "{GATED} regressed {ratio:.3}x (> {MAX_REGRESSION}x allowed): \
             {base_ns:.0} -> {fresh_ns:.0} ns/iter"
        ));
    }
    println!("bench gate OK (allowed up to {MAX_REGRESSION}x)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline, fresh) = match args.as_slice() {
        [_, b, f] => (b.as_str(), f.as_str()),
        _ => {
            eprintln!("usage: bench_check <committed.json> <fresh.json>");
            return ExitCode::from(2);
        }
    };
    match run(baseline, fresh) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench gate FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
