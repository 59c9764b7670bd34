//! Quant-regression gate: compares a freshly measured `BENCH_quant.json`
//! against the committed baseline and fails (exit 1) when the int8
//! streaming throughput regressed by more than the allowed margin, or
//! when the fresh accuracy gate did not pass.
//!
//! ```text
//! cargo run --release -p pim-bench --bin quant_check -- \
//!     <committed BENCH_quant.json> <fresh BENCH_quant.json>
//! ```
//!
//! The 15% margin absorbs run-to-run DRAM-bandwidth noise; a lost fused
//! kernel (falling back to dequantize-then-multiply, or worse, an f32
//! materialization) overshoots it by integer factors.

use std::path::Path;
use std::process::ExitCode;

use pim_bench::check::{host_summary, load};
use pim_bench::jsonlite::Value;

/// The dtype row the gate watches. int8 stores 4× fewer bytes than f32,
/// but while the strip loader converts to f32 inside its inner loop it
/// streams no faster than fp16: `pim_bench::check::check_quant` holds both
/// dtypes to ≥ 1.6× f32 and int8 to within 5% of fp16 (ROADMAP, parked
/// W8A8 item), and this gate holds int8 to its own committed rate.
const GATED: &str = "int8";
/// Allowed slowdown before the gate trips.
const MAX_REGRESSION: f64 = 1.15;

fn samples_per_s(doc: &Value, dtype: &str, path: &str) -> Result<f64, String> {
    doc.get("dtypes")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing \"dtypes\" array"))?
        .iter()
        .find(|d| d.get("dtype").and_then(Value::as_str) == Some(dtype))
        .and_then(|d| d.get("samples_per_s").and_then(Value::as_f64))
        .ok_or_else(|| format!("{path}: no samples_per_s for dtype {dtype:?}"))
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<(), String> {
    let baseline = load(Path::new(baseline_path))?;
    let fresh = load(Path::new(fresh_path))?;

    if fresh.get("gate_passed").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{fresh_path}: accuracy gate did not pass"));
    }

    let base_sps = samples_per_s(&baseline, GATED, baseline_path)?;
    let fresh_sps = samples_per_s(&fresh, GATED, fresh_path)?;
    if !(base_sps > 0.0 && base_sps.is_finite()) {
        return Err(format!(
            "{baseline_path}: bad baseline samples_per_s {base_sps}"
        ));
    }
    let ratio = base_sps / fresh_sps;
    println!(
        "{GATED}: baseline {base_sps:.2} samples/s ({}) vs fresh {fresh_sps:.2} samples/s ({}) — {ratio:.3}x",
        host_summary(&baseline),
        host_summary(&fresh),
    );
    if ratio > MAX_REGRESSION {
        return Err(format!(
            "{GATED} streaming throughput regressed {ratio:.3}x (> {MAX_REGRESSION}x allowed): \
             {base_sps:.2} -> {fresh_sps:.2} samples/s"
        ));
    }
    println!("quant gate OK (allowed up to {MAX_REGRESSION}x)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline, fresh) = match args.as_slice() {
        [_, b, f] => (b.as_str(), f.as_str()),
        _ => {
            eprintln!("usage: quant_check <committed.json> <fresh.json>");
            return ExitCode::from(2);
        }
    };
    match run(baseline, fresh) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("quant gate FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
