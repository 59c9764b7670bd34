//! Golden-file tests for the committed perf-trajectory artifacts.
//!
//! Each `bench_results/BENCH_*.json` is checked by the same
//! `pim_bench::check::check_<artifact>` its recording binary ran before
//! writing it — schema, reconciliation identities and the gates that
//! compare a host with itself — and then by `check_committed`, which only
//! these tests run: the bars a different CPU could miss with no code at
//! fault (the store and quant rates, `host.threads >= 2`) and the
//! full-size soak and chaos runs.

use pim_bench::check::{
    check_cache, check_chaos, check_committed, check_quant, check_replica, check_soak, check_store,
    load, Verdict,
};
use pim_bench::jsonlite::Value;
use pim_bench::results_dir;

fn committed_record(file: &str) -> Value {
    load(&results_dir().join(file)).unwrap_or_else(|e| panic!("not committed? {e}"))
}

/// Checks one committed artifact with its recorder's check and the
/// committed-record check.
fn committed(file: &str, check: fn(&Value) -> Verdict) {
    let doc = committed_record(file);
    check(&doc).unwrap_or_else(|why| panic!("{file}: {why}"));
    check_committed(file, &doc).unwrap_or_else(|why| panic!("{file}: {why}"));
}

macro_rules! golden {
    ($($test:ident: $file:literal, $check:ident;)+) => {$(
        #[test]
        fn $test() {
            committed($file, $check);
        }
    )+};
}

golden! {
    bench_store_schema: "BENCH_store.json", check_store;
    bench_quant_schema: "BENCH_quant.json", check_quant;
    bench_replica_schema: "BENCH_replica.json", check_replica;
    bench_soak_schema: "BENCH_soak.json", check_soak;
    bench_cache_schema: "BENCH_cache.json", check_cache;
    bench_chaos_schema: "BENCH_chaos.json", check_chaos;
}

/// Sets the number at `path` (object keys, outermost first).
fn set(doc: &mut Value, path: &[&str], x: f64) {
    let slot = path.iter().fold(doc, |v, key| match v {
        Value::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).expect("key").1,
        _ => panic!("{key} is not under an object"),
    });
    *slot = Value::Num(x);
}

/// A record off a slow disk or a one-thread host passes its recorder's
/// check — the recorder exits zero — and fails only as a committed record.
#[test]
fn host_speed_bars_fail_only_the_committed_check() {
    let mut store = committed_record("BENCH_store.json");
    set(&mut store, &["speedup_mmap_vs_rebuild"], 9.5);
    assert_eq!(check_store(&store), Ok(()));
    let why = check_committed("BENCH_store.json", &store).unwrap_err();
    assert!(why.contains("mmap vs rebuild 9.5x"), "{why}");

    let mut replica = committed_record("BENCH_replica.json");
    set(&mut replica, &["host", "threads"], 1.0);
    assert_eq!(check_replica(&replica), Ok(()));
    let why = check_committed("BENCH_replica.json", &replica).unwrap_err();
    assert!(why.contains("host.threads 1"), "{why}");

    let unknown = check_committed("BENCH_routing.json", &committed_record("BENCH_cache.json"));
    assert!(unknown.unwrap_err().contains("not a bench record"));
}
