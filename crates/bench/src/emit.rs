//! What every perf-trajectory record (`bench_results/BENCH_*.json`)
//! shares: the measurement [`BenchHost`], the serve gates' [`Ledger`]
//! object, and [`write_json_artifact`], which checks a record and writes
//! it.
//!
//! Each recorder builds its record once, as a [`Value`] (its result's
//! `to_value`), so the checkers in [`crate::check`] run on a synthetic
//! result's record without re-running the measurements, and on a real
//! record before it is rendered and written.

use capsnet_workloads::drive::Ledger;

use crate::check::Verdict;
use crate::jsonlite::{render, Object, Value};
use crate::results_dir;

/// The measurement host's execution environment: which SIMD path the
/// runtime dispatch selected and how many threads the work-splitting
/// heuristics may use. Numbers from different hosts are only comparable
/// with this context attached.
pub struct BenchHost {
    /// Active kernel path (`scalar`, `avx2+fma` or `avx512`).
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

impl From<&BenchHost> for Value {
    fn from(host: &BenchHost) -> Self {
        Object::new()
            .with("simd", host.simd)
            .with("threads", host.threads)
            .into()
    }
}

/// One [`Ledger`] as every serve gate records it: each bucket of the
/// reconciliation identity (`shed` per tier, high to low), and whether it
/// held.
pub fn ledger_value(ledger: &Ledger) -> Value {
    Object::new()
        .with("submitted", ledger.submitted)
        .with("completed", ledger.completed)
        .with("failed_forward", ledger.failed_forward)
        .with("deadline_exceeded", ledger.deadline_exceeded)
        .with("replica_timeout", ledger.replica_timeout)
        .with("other_failed", ledger.other_failed)
        .with("shed", ledger.shed.to_vec())
        .with("rejected_full", ledger.rejected_full)
        .with("rejected_quota", ledger.rejected_quota)
        .with("rejected_shutdown", ledger.rejected_shutdown)
        .with("reconciled", ledger.reconciles())
        .into()
}

/// Writes a record into the results directory — after running its
/// checker on the same value, so a record the checker rejects is never
/// written and the recording binary exits non-zero instead.
///
/// # Panics
///
/// Panics, writing nothing, when the record holds a non-finite number or
/// `check` rejects it, and when the file cannot be written.
pub fn write_json_artifact(file_name: &str, record: &Value, check: fn(&Value) -> Verdict) {
    let json = render(record).and_then(|json| match check(record) {
        Ok(()) => Ok(json),
        Err(why) => Err(format!("{why}\n{json}")),
    });
    let json = json.unwrap_or_else(|why| panic!("refusing to write {file_name}: {why}"));
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

    #[test]
    fn a_non_finite_record_is_refused_and_not_written() {
        let file = "BENCH_non_finite.json";
        let record: Value = Object::new()
            .with("host", &BenchHost::detect())
            .with("ms", f64::NAN)
            .into();
        let wrote = std::panic::catch_unwind(|| write_json_artifact(file, &record, |_| Ok(())));
        let why = wrote.unwrap_err();
        let why = why.downcast_ref::<String>().expect("a formatted panic");
        assert!(why.contains("$.ms is NaN"), "{why}");
        assert!(!results_dir().join(file).exists());
    }

    #[test]
    fn detected_host_is_sane() {
        let host = BenchHost::detect();
        assert!(host.threads >= 1);
        assert!(matches!(host.simd, "scalar" | "avx2+fma" | "avx512"));
    }
}
