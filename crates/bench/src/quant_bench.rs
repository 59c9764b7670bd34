//! The quantized-artifact measurement: batch-1 streaming throughput off
//! f32 vs int8 vs fp16 artifacts of the same model, plus the Table 5
//! accuracy gate. Shared by the `quant_bench` binary (which emits
//! `bench_results/BENCH_quant.json`) and its tests.
//!
//! The served model is `streaming_spec()`: its caps weights (~292 MB f32)
//! dwarf the last-level cache, so every batch-1 forward re-streams them
//! from DRAM. Quantized storage shrinks the streamed bytes 4× (int8) /
//! 2× (fp16) and the fused dequantizing kernels consume them in
//! registers — the throughput rows record how much of that bandwidth win
//! survives as samples/s.

use std::time::Instant;

use capsnet::{CapsNet, ExactMath, ForwardArena};
use capsnet_workloads::quant_gate::{run_quant_gate, QuantGateResult};
use capsnet_workloads::traffic::{request_images, streaming_spec};
use capsnet_workloads::{benchmarks, Benchmark};
use pim_tensor::QuantDType;

use crate::check::check_quant;
use crate::emit::{write_json_artifact, BenchHost};
use crate::jsonlite::{Object, Value};

/// The streaming model stored and served as one element type.
pub struct DtypeRow {
    /// Stored dtype label (`f32` / `int8` / `fp16`).
    pub dtype: &'static str,
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
    /// Batch-1 streaming throughput off this artifact.
    pub samples_per_s: f64,
    /// Max |Δ| on squared class norms vs the f32 row (0 for f32 itself).
    pub max_norm_divergence: f32,
}

/// Everything one quant-bench run measured.
pub struct QuantBenchResult {
    /// Per-dtype artifact sizes, throughputs and divergences; the `f32`
    /// row is the baseline.
    pub dtypes: Vec<DtypeRow>,
    /// Per-dtype accuracy-gate rows.
    pub gate: Vec<(QuantDType, QuantGateResult)>,
    /// Gate benchmark name.
    pub gate_benchmark: String,
    /// Harness samples the gate evaluated.
    pub gate_samples: usize,
    /// Batch-1 requests per throughput measurement.
    pub requests: usize,
    /// Caps-layer weight footprint, bytes (f32).
    pub caps_weight_bytes: u64,
    /// Model name.
    pub model: String,
}

fn dtype_label(dtype: QuantDType) -> &'static str {
    match dtype {
        QuantDType::I8 => "int8",
        QuantDType::F16 => "fp16",
    }
}

/// Times `requests` batch-1 forwards through `net` and returns
/// (samples/s, class-norm outputs per request).
fn measure_stream(
    net: &CapsNet,
    spec: &capsnet::CapsNetSpec,
    requests: usize,
) -> (f64, Vec<Vec<f32>>) {
    let mut arena = ForwardArena::new();
    // Warm-up sizes every buffer (and faults the mapping in).
    let warm = request_images(spec, 1, 0);
    let _ = net
        .forward_with(&warm, &ExactMath, &mut arena)
        .expect("warm-up forward");
    let t0 = Instant::now();
    let outputs: Vec<Vec<f32>> = (0..requests)
        .map(|i| {
            let images = request_images(spec, 1, i as u64);
            net.forward_with(&images, &ExactMath, &mut arena)
                .expect("streaming forward")
                .class_norms_sq()
                .to_vec()
        })
        .collect();
    let sps = requests as f64 / t0.elapsed().as_secs_f64();
    (sps, outputs)
}

fn max_divergence(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0, f32::max)
}

/// Runs the full measurement: artifact sizes + streaming throughput for
/// f32/int8/fp16, and the accuracy gate on `gate_benchmark`.
///
/// `requests` batch-1 forwards are timed per dtype per pass; `PASSES`
/// interleaved passes are run and the median samples/s recorded, so a
/// noisy neighbor on a shared host skews every dtype equally.
pub fn run_quant_bench(requests: usize, gate_benchmark: &Benchmark) -> QuantBenchResult {
    /// Interleaved measurement passes per dtype (median recorded).
    const PASSES: usize = 3;
    /// Harness samples for the accuracy gate.
    const GATE_SAMPLES: usize = 60;

    let spec = streaming_spec();
    let caps_weight_bytes = (spec.l_caps().expect("valid spec")
        * spec.cl_dim
        * spec.h_caps
        * spec.ch_dim
        * std::mem::size_of::<f32>()) as u64;
    println!(
        "[quant_bench] model {} (caps weights {} MB f32)",
        spec.name,
        caps_weight_bytes >> 20
    );
    let net = CapsNet::seeded(&spec, 42).expect("streaming spec is valid");

    // Artifact sizes: save each dtype once (temp dir, removed at the end).
    let dir = std::env::temp_dir().join(format!("pim_bench_quant_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let f32_path = dir.join("stream_f32.pimcaps");
    let f32_bytes = pim_store::ModelWriter::vault_aligned()
        .save(&net, &f32_path)
        .expect("save f32")
        .bytes;
    let mut artifact_bytes = vec![("f32", f32_bytes)];
    let mut nets: Vec<(&'static str, CapsNet)> = Vec::new();
    for dtype in [QuantDType::I8, QuantDType::F16] {
        let path = dir.join(format!("stream_{}.pimcaps", dtype_label(dtype)));
        let report = pim_store::ModelWriter::vault_aligned()
            .with_quant(pim_store::QuantSpec::weights(dtype))
            .save(&net, &path)
            .expect("save quantized");
        artifact_bytes.push((dtype_label(dtype), report.bytes));
        nets.push((
            dtype_label(dtype),
            pim_store::MappedModel::open(&path)
                .expect("open quantized")
                .capsnet()
                .expect("rebuild quantized"),
        ));
        println!(
            "[quant_bench] {} artifact {} MB ({}x smaller than f32)",
            dtype_label(dtype),
            report.bytes >> 20,
            f32_bytes / report.bytes.max(1)
        );
    }

    // Interleaved throughput passes; median per dtype.
    let mut sps: Vec<Vec<f64>> = vec![Vec::new(); nets.len() + 1];
    let mut f32_outputs = Vec::new();
    let mut divergences = vec![0.0f32; nets.len()];
    for pass in 0..PASSES {
        let (s, outputs) = measure_stream(&net, &spec, requests);
        sps[0].push(s);
        if pass == 0 {
            f32_outputs = outputs;
        }
        for (i, (label, qnet)) in nets.iter().enumerate() {
            let (s, outputs) = measure_stream(qnet, &spec, requests);
            sps[i + 1].push(s);
            if pass == 0 {
                divergences[i] = max_divergence(&outputs, &f32_outputs);
                println!(
                    "[quant_bench] {label} max |Δ| on class norms vs f32: {:.2e}",
                    divergences[i]
                );
            }
        }
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut dtypes = Vec::new();
    for (i, (label, bytes)) in artifact_bytes.iter().enumerate() {
        let samples_per_s = median(sps[i].clone());
        println!("[quant_bench] {label:>5} {samples_per_s:>8.2} samples/s");
        dtypes.push(DtypeRow {
            dtype: label,
            artifact_bytes: *bytes,
            samples_per_s,
            max_norm_divergence: if i == 0 { 0.0 } else { divergences[i - 1] },
        });
    }

    // Accuracy gate on a Table 1 benchmark harness.
    let mut gate = Vec::new();
    for dtype in [QuantDType::I8, QuantDType::F16] {
        let r = run_quant_gate(gate_benchmark, GATE_SAMPLES, 23, dtype).expect("gate artifact");
        println!(
            "[quant_bench] gate {} {}: agreement {:.4}, divergence {:.2e}, accuracy {:.4} vs {:.4} — {}",
            gate_benchmark.name,
            dtype_label(dtype),
            r.agreement,
            r.max_norm_divergence,
            r.f32_accuracy,
            r.quant_accuracy,
            r.verdict()
        );
        gate.push((dtype, r));
    }

    std::fs::remove_dir_all(&dir).expect("cleanup temp dir");
    QuantBenchResult {
        dtypes,
        gate,
        gate_benchmark: gate_benchmark.name.to_string(),
        gate_samples: GATE_SAMPLES,
        requests,
        caps_weight_bytes,
        model: spec.name.clone(),
    }
}

impl QuantBenchResult {
    /// The `BENCH_quant.json` record, measured on `host`: per-dtype
    /// artifact sizes and streaming throughputs (with speedup over the f32
    /// row) plus the accuracy gate.
    pub fn to_value(&self, host: &BenchHost) -> Value {
        let f32_sps = self.dtypes.first().map_or(f64::NAN, |d| d.samples_per_s);
        let dtypes = self.dtypes.iter().map(|d| {
            Object::new()
                .with("dtype", d.dtype)
                .with("artifact_bytes", d.artifact_bytes)
                .with("samples_per_s", d.samples_per_s)
                .with("speedup_vs_f32", d.samples_per_s / f32_sps)
                .with("max_norm_divergence", d.max_norm_divergence)
        });
        let rows = self.gate.iter().map(|(dtype, r)| {
            Object::new()
                .with("dtype", dtype_label(*dtype))
                .with("agreement", r.agreement)
                .with("max_norm_divergence", r.max_norm_divergence)
                .with("f32_accuracy", r.f32_accuracy)
                .with("quant_accuracy", r.quant_accuracy)
                .with("verdict", r.verdict())
        });
        let model = Object::new()
            .with("name", self.model.as_str())
            .with("caps_weight_bytes", self.caps_weight_bytes)
            .with("requests", self.requests);
        let accuracy_gate = Object::new()
            .with("benchmark", self.gate_benchmark.as_str())
            .with("samples", self.gate_samples)
            .with("rows", rows.collect::<Vec<_>>());
        Object::new()
            .with("host", host)
            .with("model", model)
            .with("dtypes", dtypes.collect::<Vec<_>>())
            .with("accuracy_gate", accuracy_gate)
            .with("gate_passed", self.gate.iter().all(|(_, r)| r.passes()))
            .into()
    }

    /// Writes `BENCH_quant.json`.
    ///
    /// # Panics
    ///
    /// Panics (before writing) when [`check_quant`] rejects the record: a
    /// failed accuracy row, an artifact that did not shrink, or a rate
    /// that is not a positive number.
    pub fn report_and_write(&self) {
        let record = self.to_value(&BenchHost::detect());
        write_json_artifact("BENCH_quant.json", &record, check_quant);
    }
}

/// The Table 1 benchmark the gate runs on (Caps-MN1, the first entry —
/// the full-suite sweep lives in `capsnet_workloads::quant_gate` tests).
pub fn default_gate_benchmark() -> Benchmark {
    benchmarks().into_iter().next().expect("suite is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_committed;

    /// The streaming-rate bars a committed `BENCH_quant.json` clears until
    /// the convert leaves the strip loader's inner loop: both dtypes at
    /// least 1.6x f32, int8 no more than 5% behind fp16. No recorder
    /// applies them: `check_quant` passes every rate here.
    #[test]
    fn quant_rate_bars_follow_what_the_kernels_support() {
        let verdict = |int8_sps: f64, fp16_sps: f64| {
            let row = |dtype, artifact_bytes, samples_per_s| DtypeRow {
                dtype,
                artifact_bytes,
                samples_per_s,
                max_norm_divergence: 0.0,
            };
            let gate = |dtype| QuantGateResult {
                dtype,
                samples: 60,
                agreement: 1.0,
                max_norm_divergence: 1e-3,
                f32_accuracy: 0.99,
                quant_accuracy: 0.99,
            };
            let result = QuantBenchResult {
                dtypes: vec![
                    row("f32", 297 << 20, 100.0),
                    row("int8", 75 << 20, int8_sps),
                    row("fp16", 149 << 20, fp16_sps),
                ],
                gate: vec![
                    (QuantDType::I8, gate(QuantDType::I8)),
                    (QuantDType::F16, gate(QuantDType::F16)),
                ],
                gate_benchmark: "Caps-MN1".into(),
                gate_samples: 60,
                requests: 24,
                caps_weight_bytes: 292 << 20,
                model: "Caps-Serve-Stream".into(),
            };
            let host = BenchHost {
                simd: "avx2+fma",
                threads: 2,
            };
            let record = result.to_value(&host);
            assert_eq!(check_quant(&record), Ok(()), "{int8_sps} / {fp16_sps}");
            check_committed("BENCH_quant.json", &record)
        };
        assert_eq!(verdict(199.0, 177.0), Ok(()), "this host, fresh");
        assert_eq!(verdict(192.0, 194.0), Ok(()), "int8 1% behind fp16");
        assert!(verdict(155.0, 177.0).is_err(), "int8 under 1.6x");
        assert!(verdict(199.0, 150.0).is_err(), "fp16 under 1.6x");
        assert!(verdict(170.0, 195.0).is_err(), "int8 > 5% behind fp16");
    }
}
