//! Golden-file tests for the committed perf-trajectory artifacts.
//!
//! Each `bench_results/BENCH_*.json` is checked by the same
//! `pim_bench::check::check_<artifact>` its recording binary ran before
//! writing it — schema, reconciliation identities and the gates that
//! compare a host with itself — and then by `check_committed`, which only
//! these tests enforce (a recorder just prints its verdict): the bars a
//! different CPU could miss with no code at fault (the store and quant
//! rates, `host.threads >= 2`) and the full-size soak and chaos runs.

use pim_bench::check::{
    check_chaos, check_committed, check_quant, check_soak, check_store, load, Verdict,
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

/// One test per committed record, and [`GOLDEN`]: the records they cover.
macro_rules! golden {
    ($($test:ident: $file:literal, $check:ident;)+) => {
        $(
            #[test]
            fn $test() {
                committed($file, $check);
            }
        )+
        const GOLDEN: &[&str] = &[$($file),+];
    };
}

golden! {
    bench_store_schema: "BENCH_store.json", check_store;
    bench_quant_schema: "BENCH_quant.json", check_quant;
    bench_soak_schema: "BENCH_soak.json", check_soak;
    bench_chaos_schema: "BENCH_chaos.json", check_chaos;
}

/// The committed records are exactly the golden cases, and
/// `check_committed` knows each of them and no retired one, so a recorder
/// that is deleted cannot leave its record behind.
#[test]
fn every_committed_record_has_a_golden_case() {
    let mut on_disk: Vec<String> = std::fs::read_dir(results_dir())
        .expect("bench_results/ is committed")
        .map(|entry| entry.expect("a readable entry").file_name())
        .filter_map(|name| name.to_str().map(str::to_string))
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut golden: Vec<String> = GOLDEN.iter().map(|f| f.to_string()).collect();
    golden.sort();
    assert_eq!(on_disk, golden, "committed records vs golden cases");

    // Each golden case holds its record to `check_committed`, so every
    // arm above is live; the retired names must have no arm left.
    let store = committed_record("BENCH_store.json");
    for retired in [
        "BENCH_cache.json",
        "BENCH_replica.json",
        "BENCH_routing.json",
    ] {
        let why = check_committed(retired, &store).unwrap_err();
        assert!(why.contains("not a bench record"), "{retired}: {why}");
    }
}

/// Sets the number at `path` (object keys and array indices, outermost
/// first).
fn set(doc: &mut Value, path: &[&str], x: f64) {
    let slot = path.iter().fold(doc, |v, key| match v {
        Value::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).expect("key").1,
        Value::Arr(items) => &mut items[key.parse::<usize>().expect("an index")],
        _ => panic!("{key} is not under an object or an array"),
    });
    *slot = Value::Num(x);
}

/// The number at `path`.
fn get(doc: &Value, path: &[&str]) -> f64 {
    let slot = path.iter().fold(doc, |v, key| match v {
        Value::Arr(items) => &items[key.parse::<usize>().expect("an index")],
        _ => v.get(key).expect("key"),
    });
    slot.as_f64().expect("a number")
}

/// A record off a slow disk or a one-thread host passes its recorder's
/// check — the recorder exits zero — and fails only as a committed record.
#[test]
fn host_speed_bars_fail_only_the_committed_check() {
    // A 9.5x store record whose `load_mmap` time says so.
    let mut store = committed_record("BENCH_store.json");
    let rebuild_ms = get(&store, &["measurements", "0", "ms"]);
    set(&mut store, &["measurements", "3", "ms"], rebuild_ms / 9.5);
    set(&mut store, &["speedup_mmap_vs_rebuild"], 9.5);
    assert_eq!(check_store(&store), Ok(()));
    let why = check_committed("BENCH_store.json", &store).unwrap_err();
    assert!(why.contains("mmap vs rebuild 9.5x"), "{why}");

    // A one-thread quant record, its rates untouched.
    let mut quant = committed_record("BENCH_quant.json");
    set(&mut quant, &["host", "threads"], 1.0);
    assert_eq!(check_quant(&quant), Ok(()));
    let why = check_committed("BENCH_quant.json", &quant).unwrap_err();
    assert!(why.contains("host.threads 1"), "{why}");
}

/// A ratio the recorder's check judges is recomputed from the timings
/// beside it: a record whose ratio contradicts them is refused.
#[test]
fn a_ratio_that_contradicts_its_timings_is_refused() {
    let mut store = committed_record("BENCH_store.json");
    set(&mut store, &["speedup_mmap_vs_rebuild"], 9.5);
    let why = check_store(&store).unwrap_err();
    assert!(why.contains("speedup_mmap_vs_rebuild 9.5 but"), "{why}");

    let mut quant = committed_record("BENCH_quant.json");
    set(&mut quant, &["dtypes", "1", "speedup_vs_f32"], 1.5);
    let why = check_quant(&quant).unwrap_err();
    assert!(why.contains("speedup_vs_f32 1.5 but"), "{why}");
}
