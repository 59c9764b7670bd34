//! Builders for the machine-readable perf-trajectory artifacts
//! (`bench_results/BENCH_*.json`).
//!
//! The JSON strings are assembled here — not inline in the bench binaries —
//! so the checkers in [`crate::check`] can be run on a synthetic document
//! without re-running the measurements.

use capsnet_workloads::drive::Ledger;

use crate::check::Verdict;
use crate::jsonlite::Value;
use crate::results_dir;

/// The measurement host's execution environment: which SIMD path the
/// runtime dispatch selected and how many threads the work-splitting
/// heuristics may use. Numbers from different hosts are only comparable
/// with this context attached.
pub struct BenchHost {
    /// Active kernel path (e.g. `avx2+fma`, `scalar`).
    pub simd: &'static str,
    /// Worker threads available to the threaded kernels.
    pub threads: usize,
}

impl BenchHost {
    /// Detects the current host.
    pub fn detect() -> Self {
        BenchHost {
            simd: pim_tensor::simd::active_level().name(),
            threads: pim_tensor::par::available_threads(),
        }
    }
}

/// One timed persistence step (see the `store_load` binary).
pub struct StoreMeasurement {
    /// Step name (e.g. `load_mmap`).
    pub name: &'static str,
    /// Wall milliseconds.
    pub ms: f64,
}

/// One quantized-artifact row in `BENCH_store.json`: the same model saved
/// with every eligible weight quantized, next to the f32 baseline.
pub struct QuantArtifactRow {
    /// Stored dtype label (`int8` / `fp16`).
    pub dtype: &'static str,
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
    /// Wall milliseconds to quantize + save.
    pub save_ms: f64,
    /// Wall milliseconds to mmap-open + rebuild the network.
    pub load_mmap_ms: f64,
}

/// Everything `BENCH_store.json` records about the persistence tier.
pub struct StoreBenchInputs {
    /// Served model name.
    pub model: String,
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
    /// Caps-layer weight footprint, bytes (the part that dwarfs the LLC).
    pub caps_weight_bytes: u64,
    /// The timed steps, in execution order.
    pub measurements: Vec<StoreMeasurement>,
    /// The quantized variants of the same artifact (int8, fp16).
    pub quant_artifacts: Vec<QuantArtifactRow>,
    /// `rebuild_rng ms / load_mmap ms` — the headline: loading beats
    /// rebuilding.
    pub speedup_mmap_vs_rebuild: f64,
    /// Whether the mmap load was a true mapping (not the owned fallback).
    pub mapped: bool,
    /// Whether serving off the mapped weights was bit-identical to the
    /// in-memory network.
    pub bitwise_identical: bool,
}

/// Renders `BENCH_store.json`.
pub fn store_json(host: &BenchHost, inputs: &StoreBenchInputs) -> String {
    let mut json = format!(
        "{{\n  \"host\": {{\"simd\": \"{}\", \"threads\": {}}},\n  \"model\": {{\"name\": \"{}\", \"artifact_bytes\": {}, \"caps_weight_bytes\": {}}},\n  \"measurements\": [\n",
        host.simd, host.threads, inputs.model, inputs.artifact_bytes, inputs.caps_weight_bytes
    );
    for (i, m) in inputs.measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ms\": {:.3}}}{}\n",
            m.name,
            m.ms,
            if i + 1 == inputs.measurements.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("  ],\n  \"quant_artifacts\": [\n");
    for (i, q) in inputs.quant_artifacts.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dtype\": \"{}\", \"artifact_bytes\": {}, \"save_ms\": {:.3}, \"load_mmap_ms\": {:.3}}}{}\n",
            q.dtype,
            q.artifact_bytes,
            q.save_ms,
            q.load_mmap_ms,
            if i + 1 == inputs.quant_artifacts.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"speedup_mmap_vs_rebuild\": {:.2},\n  \"mapped\": {},\n  \"bitwise_identical\": {}\n}}\n",
        inputs.speedup_mmap_vs_rebuild, inputs.mapped, inputs.bitwise_identical
    ));
    json
}

/// One dtype row in `BENCH_quant.json`: the streaming model stored and
/// served as this element type.
pub struct QuantDtypeRow {
    /// Stored dtype label (`f32` / `int8` / `fp16`).
    pub dtype: &'static str,
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
    /// Batch-1 streaming throughput off this artifact.
    pub samples_per_s: f64,
    /// Max |Δ| on squared class norms vs the f32 row (0 for f32 itself).
    pub max_norm_divergence: f32,
}

/// One accuracy-gate row in `BENCH_quant.json` (see
/// `capsnet_workloads::quant_gate`).
pub struct QuantGateRow {
    /// Quantized dtype label.
    pub dtype: &'static str,
    /// Fraction of harness samples with identical top-1 prediction.
    pub agreement: f64,
    /// Max |Δ| on squared class norms on the harness.
    pub max_norm_divergence: f32,
    /// Calibrated harness accuracy, f32 network.
    pub f32_accuracy: f64,
    /// Calibrated harness accuracy, quantized reload.
    pub quant_accuracy: f64,
    /// `"pass"` / `"fail"`.
    pub verdict: &'static str,
}

/// Everything `BENCH_quant.json` records.
pub struct QuantBenchInputs {
    /// Streaming model name.
    pub model: String,
    /// Caps-layer weight footprint, bytes (f32).
    pub caps_weight_bytes: u64,
    /// Batch-1 requests per throughput measurement.
    pub requests: usize,
    /// One row per stored dtype; the `f32` row is the baseline.
    pub dtypes: Vec<QuantDtypeRow>,
    /// Accuracy-gate benchmark name (Table 1).
    pub gate_benchmark: String,
    /// Harness samples the gate evaluated.
    pub gate_samples: usize,
    /// One gate row per quantized dtype.
    pub gate: Vec<QuantGateRow>,
    /// Whether every gate row passed.
    pub gate_passed: bool,
}

/// Renders `BENCH_quant.json`: per-dtype artifact sizes and streaming
/// throughputs (with speedup over the f32 row) plus the accuracy gate.
pub fn quant_json(host: &BenchHost, inputs: &QuantBenchInputs) -> String {
    let f32_sps = inputs
        .dtypes
        .iter()
        .find(|d| d.dtype == "f32")
        .map(|d| d.samples_per_s)
        .unwrap_or(f64::NAN);
    let mut json = format!(
        "{{\n  \"host\": {{\"simd\": \"{}\", \"threads\": {}}},\n  \"model\": {{\"name\": \"{}\", \"caps_weight_bytes\": {}, \"requests\": {}}},\n  \"dtypes\": [\n",
        host.simd, host.threads, inputs.model, inputs.caps_weight_bytes, inputs.requests
    );
    for (i, d) in inputs.dtypes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dtype\": \"{}\", \"artifact_bytes\": {}, \"samples_per_s\": {:.2}, \"speedup_vs_f32\": {:.4}, \"max_norm_divergence\": {:e}}}{}\n",
            d.dtype,
            d.artifact_bytes,
            d.samples_per_s,
            d.samples_per_s / f32_sps,
            d.max_norm_divergence,
            if i + 1 == inputs.dtypes.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"accuracy_gate\": {{\n    \"benchmark\": \"{}\", \"samples\": {},\n    \"rows\": [\n",
        inputs.gate_benchmark, inputs.gate_samples
    ));
    for (i, g) in inputs.gate.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"dtype\": \"{}\", \"agreement\": {:.4}, \"max_norm_divergence\": {:e}, \"f32_accuracy\": {:.4}, \"quant_accuracy\": {:.4}, \"verdict\": \"{}\"}}{}\n",
            g.dtype,
            g.agreement,
            g.max_norm_divergence,
            g.f32_accuracy,
            g.quant_accuracy,
            g.verdict,
            if i + 1 == inputs.gate.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "    ]\n  }},\n  \"gate_passed\": {}\n}}\n",
        inputs.gate_passed
    ));
    json
}

/// One [`Ledger`] as every serve gate records it: each bucket of the
/// reconciliation identity (`shed` per tier, high to low), and whether it
/// held.
pub fn ledger_json(ledger: &Ledger) -> String {
    format!(
        concat!(
            "{{\"submitted\": {}, \"completed\": {}, \"failed_forward\": {}, ",
            "\"deadline_exceeded\": {}, \"replica_timeout\": {}, \"other_failed\": {}, ",
            "\"shed\": {:?}, \"rejected_full\": {}, \"rejected_quota\": {}, ",
            "\"rejected_shutdown\": {}, \"reconciled\": {}}}",
        ),
        ledger.submitted,
        ledger.completed,
        ledger.failed_forward,
        ledger.deadline_exceeded,
        ledger.replica_timeout,
        ledger.other_failed,
        ledger.shed,
        ledger.rejected_full,
        ledger.rejected_quota,
        ledger.rejected_shutdown,
        ledger.reconciles(),
    )
}

/// Writes a JSON artifact into the results directory — after running its
/// checker on it, so a record its own golden test would reject is never
/// written and the recording binary exits non-zero instead.
///
/// # Panics
///
/// Panics when `check` rejects the document, or when the file cannot be
/// written.
pub fn write_json_artifact(file_name: &str, json: &str, check: fn(&Value) -> Verdict) {
    let verdict = crate::jsonlite::parse(json).and_then(|doc| check(&doc));
    if let Err(why) = verdict {
        panic!("refusing to write {file_name}: {why}\n{json}");
    }
    let dir = results_dir();
    let path = dir.join(file_name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        panic!("[json] failed to write {}: {e}", path.display());
    }
    println!("[json] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streaming-rate bars `check_quant` applies until the convert
    /// leaves the strip loader's inner loop: both dtypes >= 1.6x f32, int8
    /// no more than 5% behind fp16.
    #[test]
    fn quant_rate_bars_follow_what_the_kernels_support() {
        let verdict = |int8_sps: f64, fp16_sps: f64| {
            let row = |dtype, artifact_bytes, samples_per_s| QuantDtypeRow {
                dtype,
                artifact_bytes,
                samples_per_s,
                max_norm_divergence: 0.0,
            };
            let gate = |dtype| QuantGateRow {
                dtype,
                agreement: 1.0,
                max_norm_divergence: 1e-3,
                f32_accuracy: 0.99,
                quant_accuracy: 0.99,
                verdict: "pass",
            };
            let inputs = QuantBenchInputs {
                model: "Caps-Serve-Stream".into(),
                caps_weight_bytes: 292 << 20,
                requests: 24,
                dtypes: vec![
                    row("f32", 297 << 20, 100.0),
                    row("int8", 75 << 20, int8_sps),
                    row("fp16", 149 << 20, fp16_sps),
                ],
                gate_benchmark: "Caps-MN1".into(),
                gate_samples: 60,
                gate: vec![gate("int8"), gate("fp16")],
                gate_passed: true,
            };
            let host = BenchHost {
                simd: "avx2+fma",
                threads: 2,
            };
            crate::check::check_quant(&crate::jsonlite::parse(&quant_json(&host, &inputs)).unwrap())
        };
        assert_eq!(verdict(199.0, 177.0), Ok(()), "this host, fresh");
        assert_eq!(verdict(192.0, 194.0), Ok(()), "PR 13's record");
        assert!(verdict(155.0, 177.0).is_err(), "int8 under 1.6x");
        assert!(verdict(199.0, 150.0).is_err(), "fp16 under 1.6x");
        assert!(verdict(170.0, 195.0).is_err(), "int8 > 5% behind fp16");
    }

    #[test]
    fn detected_host_is_sane() {
        let host = BenchHost::detect();
        assert!(host.threads >= 1);
        assert!(matches!(host.simd, "scalar" | "avx2+fma"));
    }
}
