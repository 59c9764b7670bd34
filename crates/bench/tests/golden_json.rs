//! Golden-file tests for the committed perf-trajectory artifacts.
//!
//! Each `bench_results/BENCH_*.json` is checked by the same
//! `pim_bench::check::check_<artifact>` its recording binary ran before
//! writing it — schema, reconciliation identities and bars, never
//! machine-dependent numbers — plus what only a *committed* record owes:
//! it was cut on a host whose kernels could use at least two threads (a
//! one-thread record mis-states every sharded path), and at full size.

use pim_bench::check::{
    check_cache, check_chaos, check_host, check_quant, check_replica, check_soak, check_store,
    load, Verdict,
};
use pim_bench::jsonlite::Value;
use pim_bench::results_dir;

/// Checks one committed artifact; `floor` is a top-level size field and
/// the least a committed record may carry there.
fn committed(file: &str, check: fn(&Value) -> Verdict, floor: Option<(&str, f64)>) {
    let doc = load(&results_dir().join(file)).unwrap_or_else(|e| panic!("not committed? {e}"));
    check(&doc).unwrap_or_else(|why| panic!("{file}: {why}"));
    let threads = check_host(&doc).expect("checked above");
    assert!(threads >= 2.0, "{file}: recorded at host.threads {threads}");
    if let Some((field, least)) = floor {
        let size = doc.get(field).and_then(Value::as_f64).unwrap_or(0.0);
        assert!(size >= least, "{file}: committed {field} {size} < {least}");
    }
}

macro_rules! golden {
    ($($test:ident: $file:literal, $check:ident, $floor:expr;)+) => {$(
        #[test]
        fn $test() {
            committed($file, $check, $floor);
        }
    )+};
}

golden! {
    bench_store_schema: "BENCH_store.json", check_store, None;
    bench_quant_schema: "BENCH_quant.json", check_quant, None;
    bench_replica_schema: "BENCH_replica.json", check_replica, None;
    bench_soak_schema: "BENCH_soak.json", check_soak, Some(("total_requests", 1e6));
    bench_cache_schema: "BENCH_cache.json", check_cache, None;
    bench_chaos_schema: "BENCH_chaos.json", check_chaos, Some(("requests_per_phase", 1e5));
}
