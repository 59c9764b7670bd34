//! The quantized-artifact accuracy gate.
//!
//! Quantizing weights (int8 affine / fp16) is lossy; before a quantized
//! artifact may replace its f32 source in serving, this gate measures how
//! far the quantized network's *classifications* drift on the Table 5
//! accuracy harness. The contract: top-1 predictions are (near-)identical
//! sample-for-sample, routing norms stay inside a declared divergence
//! bound, and the harness accuracy score moves by at most a declared
//! budget — otherwise the artifact fails the gate and must not ship.

use capsnet::{CapsNet, ExactMath};
use pim_store::{MappedModel, ModelWriter, QuantSpec, StoreError};
use pim_tensor::QuantDType;

use crate::accuracy::AccuracyExperiment;
use crate::suite::Benchmark;

/// Minimum fraction of harness samples whose top-1 prediction must match
/// the f32 network, per dtype. fp16 carries ~11 bits of mantissa — it is
/// expected to be classification-identical; int8 affine (8 bits per
/// vault partition) is allowed a sliver of knife-edge flips.
const I8_MIN_AGREEMENT: f64 = 0.97;
/// See [`I8_MIN_AGREEMENT`].
const F16_MIN_AGREEMENT: f64 = 0.995;

/// Max |Δ| on squared class norms (which live in [0, 1]) vs f32.
const I8_MAX_NORM_DIVERGENCE: f32 = 0.10;
/// See [`I8_MAX_NORM_DIVERGENCE`].
const F16_MAX_NORM_DIVERGENCE: f32 = 0.01;

/// Max |Δ| on the calibrated harness accuracy score vs f32.
const MAX_ACCURACY_DELTA: f64 = 0.03;

/// What the gate measured for one benchmark × dtype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantGateResult {
    /// Quantized dtype under test.
    pub dtype: QuantDType,
    /// Harness samples evaluated.
    pub samples: usize,
    /// Fraction of samples with identical top-1 prediction vs f32.
    pub agreement: f64,
    /// Max |Δ| over squared class norms vs f32.
    pub max_norm_divergence: f32,
    /// Calibrated harness accuracy of the f32 network.
    pub f32_accuracy: f64,
    /// Calibrated harness accuracy of the quantized reload.
    pub quant_accuracy: f64,
}

impl QuantGateResult {
    /// The declared (agreement, divergence) bounds for a dtype.
    fn bounds(dtype: QuantDType) -> (f64, f32) {
        match dtype {
            QuantDType::I8 => (I8_MIN_AGREEMENT, I8_MAX_NORM_DIVERGENCE),
            QuantDType::F16 => (F16_MIN_AGREEMENT, F16_MAX_NORM_DIVERGENCE),
        }
    }

    /// Whether every gate criterion holds.
    pub fn passes(&self) -> bool {
        let (min_agreement, max_div) = Self::bounds(self.dtype);
        self.agreement >= min_agreement
            && self.max_norm_divergence <= max_div
            && (self.f32_accuracy - self.quant_accuracy).abs() <= MAX_ACCURACY_DELTA
    }

    /// `"pass"` / `"fail"` — the string recorded in `BENCH_quant.json`.
    pub fn verdict(&self) -> &'static str {
        if self.passes() {
            "pass"
        } else {
            "fail"
        }
    }
}

/// Runs the gate for one Table 1 benchmark and one quantized dtype.
///
/// Builds the benchmark's harness (margin-filtered teacher-labeled
/// samples), saves the harness network as a vault-aligned artifact with
/// every eligible weight quantized, reloads it through the mmap reader —
/// the exact path serving uses — and compares.
///
/// # Errors
///
/// [`StoreError`] if the artifact cannot be written or read back.
pub fn run_quant_gate(
    benchmark: &Benchmark,
    samples: usize,
    seed: u64,
    dtype: QuantDType,
) -> Result<QuantGateResult, StoreError> {
    let exp = AccuracyExperiment::new(benchmark, samples, seed);
    let quantized = quantized_reload(exp.net(), dtype)?;
    Ok(gate_against(&exp, &quantized, dtype))
}

/// Saves `net` with every eligible weight quantized as `dtype` and
/// reloads it through the mmap reader (temp file, removed afterwards).
///
/// # Errors
///
/// [`StoreError`] if the artifact cannot be written or read back.
fn quantized_reload(net: &CapsNet, dtype: QuantDType) -> Result<CapsNet, StoreError> {
    let dir = std::env::temp_dir().join(format!("pim_quant_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}_{:?}.pimcaps", net.spec().name, dtype));
    ModelWriter::vault_aligned()
        .with_quant(QuantSpec::weights(dtype))
        .save(net, &path)?;
    let loaded = MappedModel::open(&path)?.capsnet()?;
    let _ = std::fs::remove_file(&path);
    Ok(loaded)
}

/// Scores an already-reloaded quantized network against an experiment.
fn gate_against(
    exp: &AccuracyExperiment,
    quantized: &CapsNet,
    dtype: QuantDType,
) -> QuantGateResult {
    let (agreement, max_norm_divergence) = exp.agreement_with(quantized);
    QuantGateResult {
        dtype,
        samples: exp.samples(),
        agreement,
        max_norm_divergence,
        f32_accuracy: exp.accuracy(&ExactMath),
        quant_accuracy: exp.accuracy_of(quantized, &ExactMath),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::benchmarks;

    #[test]
    fn gate_passes_on_a_representative_benchmark() {
        for dtype in [QuantDType::I8, QuantDType::F16] {
            let r = run_quant_gate(&benchmarks()[0], 60, 23, dtype).unwrap();
            assert!(
                r.passes(),
                "{dtype:?} gate failed: agreement {}, divergence {}, accuracy {} vs {}",
                r.agreement,
                r.max_norm_divergence,
                r.f32_accuracy,
                r.quant_accuracy
            );
            assert_eq!(r.verdict(), "pass");
        }
    }

    #[test]
    fn gate_fails_a_garbage_network() {
        // A differently-seeded network is maximally "divergent" — the gate
        // must reject it, proving the criteria have teeth.
        let b = &benchmarks()[0];
        let exp = AccuracyExperiment::new(b, 60, 23);
        let stranger = CapsNet::seeded(&b.functional_spec(), 999).unwrap();
        let r = gate_against(&exp, &stranger, QuantDType::I8);
        assert!(!r.passes(), "gate accepted an unrelated network: {r:?}");
        assert_eq!(r.verdict(), "fail");
    }

    /// The full-suite release gate: every Table 1 benchmark, both dtypes.
    /// Debug-mode forwards on the larger specs are too slow for the
    /// default test job, so the sweep runs under `--release` only — the
    /// CI `quant` leg invokes it explicitly.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: full Table 1 sweep")]
    fn full_suite_release_gate() {
        for b in benchmarks() {
            for dtype in [QuantDType::I8, QuantDType::F16] {
                let r = run_quant_gate(&b, 40, 31, dtype).unwrap();
                assert!(
                    r.passes(),
                    "{} {dtype:?}: agreement {}, divergence {}, accuracy {} vs {}",
                    b.name,
                    r.agreement,
                    r.max_norm_divergence,
                    r.f32_accuracy,
                    r.quant_accuracy
                );
            }
        }
    }
}
