//! The checks on the `bench_results/BENCH_*.json` records.
//!
//! `check_<artifact>` holds what any host owes: schema, identities
//! (recomputed from the raw fields, not trusted from the recorded flags)
//! and the gates that compare a host with itself. The recording binary
//! runs it on the record it is about to write
//! ([`crate::emit::write_json_artifact`]), `tests/golden_json.rs` on the
//! committed file, the artifact module's unit test on a synthetic result.
//! [`check_committed`] holds the bars a different CPU could miss with no
//! code at fault: `tests/golden_json.rs` holds the committed file to
//! them, while the recorder only prints whether its record clears them.

use crate::jsonlite::Value;

/// A checker's verdict: `Err` names the first violated expectation.
pub type Verdict = Result<(), String>;

/// `at_least(.., TINY, ..)`: strictly positive.
const TINY: f64 = f64::MIN_POSITIVE;

/// Fails the check unless `$cond` holds (a NaN comparison does not).
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

fn member<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    let x = member(v, key)?.as_f64();
    x.ok_or_else(|| format!("{key:?} is not a number"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    let s = member(v, key)?.as_str();
    s.ok_or_else(|| format!("{key:?} is not a string"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let items = member(v, key)?.as_array();
    items.ok_or_else(|| format!("{key:?} is not an array"))
}

/// The numbers of array `key`.
fn nums(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let items = list(v, key)?.iter().map(Value::as_f64);
    let items: Option<Vec<f64>> = items.collect();
    items.ok_or_else(|| format!("{key:?} holds a non-number"))
}

/// The `key` member of every element of `items`.
fn each<'a, T>(
    items: &'a [Value],
    key: &str,
    get: fn(&'a Value, &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items.iter().map(|item| get(item, key)).collect()
}

/// The rows of array `key`, whose `label` members must read `expected`.
fn rows<'a>(
    v: &'a Value,
    key: &str,
    label: &str,
    expected: &[&str],
) -> Result<&'a [Value], String> {
    let rows = list(v, key)?;
    let labels = each(rows, label, text)?;
    ensure!(labels == expected, "{key} rows changed: {labels:?}");
    Ok(rows)
}

/// Every `keys` member of `v` is a finite number of at least `least`.
fn at_least(v: &Value, least: f64, keys: &[&str]) -> Verdict {
    for key in keys {
        let x = num(v, key)?;
        ensure!(x >= least && x.is_finite(), "{key} {x} (want >= {least})");
    }
    Ok(())
}

/// Every `flags` member of `v` is `true`.
fn all_true(v: &Value, flags: &[&str]) -> Verdict {
    for name in flags {
        let passed = member(v, name)?.as_bool() == Some(true);
        ensure!(passed, "gate {name} did not pass");
    }
    Ok(())
}

/// The sum of the `keys` members of `v`.
fn sum(v: &Value, keys: &[&str]) -> Result<f64, String> {
    keys.iter().map(|key| num(v, key)).sum()
}

/// The `ledger` member of `v` (one `capsnet_workloads::drive::Ledger`):
/// recomputes the zero-dropped-tickets identity from its buckets and
/// returns the object.
fn ledger(v: &Value) -> Result<&Value, String> {
    let ledger = member(v, "ledger")?;
    let shed: f64 = nums(ledger, "shed")?.iter().sum();
    let buckets = [
        "completed",
        "failed_forward",
        "deadline_exceeded",
        "replica_timeout",
        "other_failed",
        "rejected_full",
        "rejected_quota",
        "rejected_shutdown",
    ];
    let (submitted, accounted) = (num(ledger, "submitted")?, sum(ledger, &buckets)? + shed);
    ensure!(submitted == accounted, "ledger: {accounted} of {submitted}");
    all_true(ledger, &["reconciled"])?;
    Ok(ledger)
}

/// A recorded ratio agrees with the one recomputed from the raw fields
/// beside it, up to the rounding a committed record may carry (relative
/// 1e-3).
fn ratio_agrees(recorded: f64, recomputed: f64) -> bool {
    (recorded - recomputed).abs() <= 1e-3 * recomputed.abs()
}

/// `clean` within 10x of `base`, or under the absolute `floor`.
fn p99_bounded(base: f64, clean: f64, floor: f64) -> bool {
    base > 0.0 && clean > 0.0 && clean <= (10.0 * base).max(floor)
}

/// Reads and parses one artifact.
///
/// # Errors
///
/// Names the path when it cannot be read or is not valid JSON.
pub fn load(path: &std::path::Path) -> Result<Value, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    crate::jsonlite::parse(&text).map_err(|e| format!("{shown} is not valid JSON: {e}"))
}

/// The measurement host: numbers are only interpretable knowing which SIMD
/// path ran and how many threads the kernels could use. Returns
/// `host.threads`.
fn check_host(doc: &Value) -> Result<f64, String> {
    let host = member(doc, "host")?;
    ensure!(!text(host, "simd")?.is_empty(), "host.simd is empty");
    let threads = num(host, "threads")?;
    let whole = threads >= 1.0 && threads.fract() == 0.0;
    ensure!(whole, "host.threads {threads}");
    Ok(threads)
}

/// The served model is the weight-streaming one (caps weights ≫ LLC).
/// Returns its caps-weight bytes.
fn streaming_model(doc: &Value) -> Result<f64, String> {
    let model = member(doc, "model")?;
    text(model, "name")?;
    let bytes = num(model, "caps_weight_bytes")?;
    let streams = bytes > 200.0 * 1024.0 * 1024.0;
    ensure!(streams, "model left the weight-streaming regime");
    Ok(bytes)
}

/// `BENCH_store.json`: every timed step ran, the quantized artifacts
/// shrink, `speedup_mmap_vs_rebuild` is `rebuild_rng` over `load_mmap`, the
/// load was a mapping and a forward off the mapping was bitwise.
pub fn check_store(doc: &Value) -> Verdict {
    check_host(doc)?;
    let f32_bytes = num(member(doc, "model")?, "artifact_bytes")?;
    let holds_weights = f32_bytes >= streaming_model(doc)?;
    ensure!(holds_weights, "artifact smaller than its caps weights");
    let steps = ["rebuild_rng", "save_cold", "load_owned", "load_mmap"];
    let steps = rows(doc, "measurements", "name", &steps)?;
    for step in steps {
        at_least(step, TINY, &["ms"])?;
    }
    for q in rows(doc, "quant_artifacts", "dtype", &["int8", "fp16"])? {
        at_least(q, TINY, &["artifact_bytes", "save_ms", "load_mmap_ms"])?;
        let smaller = num(q, "artifact_bytes")? < f32_bytes;
        ensure!(smaller, "a quantized artifact is not smaller than f32");
    }
    let (rebuild, mmap) = (num(&steps[0], "ms")?, num(&steps[3], "ms")?);
    let speedup = num(doc, "speedup_mmap_vs_rebuild")?;
    let agrees = ratio_agrees(speedup, rebuild / mmap);
    ensure!(
        agrees,
        "speedup_mmap_vs_rebuild {speedup} but {rebuild} / {mmap} ms"
    );
    all_true(doc, &["mapped", "bitwise_identical"])
}

/// `BENCH_quant.json`: artifact shrink, each `speedup_vs_f32` recomputed
/// from `samples_per_s` over the f32 row, and the accuracy gate.
pub fn check_quant(doc: &Value) -> Verdict {
    check_host(doc)?;
    streaming_model(doc)?;
    at_least(member(doc, "model")?, 1.0, &["requests"])?;
    let dtypes = rows(doc, "dtypes", "dtype", &["f32", "int8", "fp16"])?;
    for d in dtypes {
        at_least(d, TINY, &["samples_per_s", "artifact_bytes"])?;
        at_least(d, 0.0, &["max_norm_divergence"])?;
    }
    let bytes = each(dtypes, "artifact_bytes", num)?;
    ensure!(bytes[1] < bytes[0] / 3.0, "int8 must shrink close to 4x");
    ensure!(bytes[2] < bytes[0] / 1.8, "fp16 must shrink close to 2x");
    let f32_rate = num(&dtypes[0], "samples_per_s")?;
    for d in dtypes {
        let (x, rate) = (num(d, "speedup_vs_f32")?, num(d, "samples_per_s")?);
        let agrees = ratio_agrees(x, rate / f32_rate);
        ensure!(
            agrees,
            "speedup_vs_f32 {x} but {rate} / {f32_rate} samples/s"
        );
    }

    let gate = member(doc, "accuracy_gate")?;
    text(gate, "benchmark")?;
    at_least(gate, 1.0, &["samples"])?;
    for r in rows(gate, "rows", "dtype", &["int8", "fp16"])? {
        at_least(r, 0.0, &["max_norm_divergence"])?;
        for share in ["agreement", "f32_accuracy", "quant_accuracy"] {
            let x = num(r, share)?;
            ensure!((0.0..=1.0).contains(&x), "{share} {x}");
        }
        ensure!(text(r, "verdict")? == "pass", "a gate row failed");
    }
    all_true(doc, &["gate_passed"])
}

/// `BENCH_soak.json`: exact per-phase reconciliation, one capacity under
/// ascending offered rates, a calm 0.8x baseline, low-tier-only-never-high
/// shedding at 1.2x and the bounded high-tier p99.
pub fn check_soak(doc: &Value) -> Verdict {
    check_host(doc)?;
    ensure!(text(doc, "model")? == "caps-soak-micro", "model changed");
    at_least(doc, 100.0, &["tenants"])?;
    at_least(doc, 1.0, &["sweeps"])?;
    let sched = member(doc, "scheduler")?;
    let slo_aware = text(sched, "admission")? == "slo_aware";
    ensure!(slo_aware, "the soak runs SLO-aware admission");
    let ceilings = nums(sched, "shed_wait_us")?;
    let tightening = ceilings.len() == 3 && ceilings.windows(2).all(|w| w[0] >= w[1]);
    ensure!(tightening, "tier ceilings loosen: {ceilings:?}");
    at_least(sched, 1.0, &["tenant_quota"])?;
    let capacity = member(doc, "capacity")?;
    let probe = ["requests", "queue_bound", "overdrive"];
    at_least(capacity, 1.0, &probe)?;
    ensure!(!text(capacity, "method")?.is_empty(), "capacity.method");
    let capacity_hz = num(capacity, "hz")?;

    let per_phase = num(doc, "requests_per_phase")?;
    let phases = list(doc, "phases")?;
    let multipliers = each(phases, "multiplier", num)?;
    ensure!(multipliers == [0.8, 1.0, 1.2], "capacity sweep changed");
    let total = num(doc, "total_requests")?;
    ensure!(total == per_phase * 3.0, "total_requests {total}");
    let mut high_p99 = Vec::new();
    for (p, m) in phases.iter().zip(&multipliers) {
        // Exact reconciliation, and against the server's own metrics.
        let (counts, server) = (ledger(p)?, member(p, "server")?);
        let tiers = rows(p, "tiers", "priority", &["high", "normal", "low"])?;
        let failed = [
            "failed_forward",
            "deadline_exceeded",
            "replica_timeout",
            "other_failed",
        ];
        let agree = num(counts, "submitted")? == per_phase
            && num(counts, "completed")? == num(server, "requests")?
            && sum(counts, &failed)? == num(server, "failed_requests")?
            && num(counts, "rejected_full")? == num(server, "rejected_full")?
            && num(counts, "rejected_quota")? == num(server, "rejected_quota")?
            && nums(counts, "shed")? == each(tiers, "shed", num)?;
        ensure!(agree, "phase {m}: ledger and server metrics disagree");
        at_least(p, TINY, &["achieved_hz"])?;
        // Every phase is anchored to the one estimate, so the rates ascend.
        let offered = num(p, "offered_hz")?;
        let anchored = capacity_hz > 0.0 && (offered - m * capacity_hz).abs() < 0.02;
        ensure!(anchored, "phase {m}: offered {offered} of {capacity_hz}");
        for t in tiers {
            at_least(t, 0.0, &["requests", "shed"])?;
            let (p50, p95, p99) = (num(t, "p50_us")?, num(t, "p95_us")?, num(t, "p99_us")?);
            let ordered = p50 <= p95 && p95 <= p99;
            ensure!(ordered, "phase {m}: percentiles {p50}/{p95}/{p99}");
        }
        high_p99.push(num(&tiers[0], "p99_us")?);
    }
    let calm_shed: f64 = nums(ledger(&phases[0])?, "shed")?.iter().sum();
    let calm = calm_shed <= crate::soak_bench::CALM_SHED_SHARE * per_phase;
    ensure!(calm, "0.8x shed {calm_shed} of {per_phase}: not a baseline");
    let shed = nums(ledger(&phases[2])?, "shed")?;
    ensure!(shed.len() == 3, "shed is per tier");
    let (high, low) = (shed[0], shed[2]);
    let low_first = low > 0.0 && high == 0.0;
    ensure!(low_first, "1.2x shed {high} high against {low} low");
    let floor = num(doc, "high_p99_floor_us")?;
    let bounded = p99_bounded(high_p99[0], high_p99[2], floor);
    ensure!(
        bounded,
        "high-tier p99 {} us at 0.8x, {} us at 1.2x",
        high_p99[0],
        high_p99[2]
    );
    Ok(())
}

/// `BENCH_chaos.json`: exact reconciliation in both phases, every scripted
/// fault fired, one restart per panic, every replica serving at the end.
pub fn check_chaos(doc: &Value) -> Verdict {
    check_host(doc)?;
    ensure!(text(doc, "model")? == "caps-soak-micro", "model changed");
    let replicas = num(doc, "replicas")?;
    ensure!(replicas >= 2.0, "chaos needs a fleet to fail over within");
    at_least(doc, TINY, &["capacity_hz", "pool_hz"])?;
    let per_phase = num(doc, "requests_per_phase")?;
    let sup = member(doc, "supervision")?;
    at_least(sup, TINY, &["replica_timeout_ms"])?;
    at_least(sup, 1.0, &["breaker_threshold", "max_restarts"])?;
    let plan = member(doc, "plan")?;
    let (panics, stalls) = (num(plan, "panics")?, num(plan, "stalls")?);
    let scripted = panics >= 2.0 && stalls >= 1.0;
    ensure!(scripted, "the plan needs >= 2 panics and >= 1 stall");
    let outlives = num(plan, "stall_ms")? > num(sup, "replica_timeout_ms")?;
    ensure!(outlives, "the stall must outlive the replica timeout");
    let at = each(list(plan, "points")?, "at_arrival", num)?;
    let placed = at.len() as f64 == panics + stalls
        && at.windows(2).all(|w| w[0] < w[1])
        && at.iter().all(|&a| a < per_phase);
    ensure!(placed, "fault arrivals {at:?}");

    let phases = rows(doc, "phases", "name", &["baseline", "chaos"])?;
    for p in phases {
        let name = text(p, "name")?;
        let submitted = num(ledger(p)?, "submitted")?;
        ensure!(submitted == per_phase, "{name}: {submitted} submitted");
        at_least(p, TINY, &["offered_hz", "achieved_hz"])?;
        let serving = list(p, "serving_at_end")?;
        let all_serve =
            serving.len() as f64 == replicas && serving.iter().all(|s| s.as_bool() == Some(true));
        ensure!(all_serve, "{name}: a replica is not serving at the end");
        let sized = list(p, "tainted")?.len() as f64 == replicas;
        ensure!(sized, "{name}: tainted");
    }
    let (baseline, chaos) = (&phases[0], &phases[1]);
    let fired = (
        num(chaos, "injected_panics")?,
        num(chaos, "injected_stalls")?,
    );
    ensure!(fired == (panics, stalls), "a scripted fault did not fire");
    let restarts: f64 = nums(chaos, "restarts_per_replica")?.iter().sum();
    let one_each = num(chaos, "restarts")? == panics && restarts == panics;
    ensure!(one_each, "one replica-life restart per panic");
    // 0 records "no clean replica had high-tier completions".
    let p99 = each(phases, "clean_high_p99_us", num)?;
    let bounded = p99_bounded(p99[0], p99[1], num(doc, "high_p99_floor_us")?);
    ensure!(bounded, "clean-replica high-tier p99 {p99:?} us");
    let idle = num(baseline, "restarts")? == 0.0 && num(baseline, "injected_panics")? == 0.0;
    ensure!(idle, "the baseline phase must be fault-free");
    Ok(())
}

/// What the committed record `file` owes beyond its `check_<artifact>`:
/// two threads (a one-thread record mis-states every sharded path), full
/// size (soak, chaos) and the rate bars (store, quant).
///
/// # Errors
///
/// Names the first bar the record misses, or a `file` that is no record.
pub fn check_committed(file: &str, doc: &Value) -> Verdict {
    let threads = check_host(doc)?;
    ensure!(threads >= 2.0, "recorded at host.threads {threads}");
    match file {
        "BENCH_store.json" => {
            let speedup = num(doc, "speedup_mmap_vs_rebuild")?;
            ensure!(speedup >= 10.0, "mmap vs rebuild {speedup}x (bar: 10x)");
        }
        "BENCH_quant.json" => {
            // What the kernels support while the strip loader converts to
            // f32 inside its inner loop: both dtypes are convert-bound, so
            // int8's 4x fewer bytes buy no more than fp16's 2x (ROADMAP,
            // parked W8A8 item).
            let dtypes = rows(doc, "dtypes", "dtype", &["f32", "int8", "fp16"])?;
            let x = each(dtypes, "speedup_vs_f32", num)?;
            let both = x[1] >= 1.6 && x[2] >= 1.6;
            ensure!(both, "int8 / fp16 under 1.6x f32: {x:?}");
            let abreast = x[1] >= 0.95 * x[2];
            ensure!(abreast, "int8 more than 5% behind fp16: {x:?}");
        }
        "BENCH_soak.json" => at_least(doc, 1e6, &["total_requests"])?,
        "BENCH_chaos.json" => at_least(doc, 1e5, &["requests_per_phase"])?,
        other => return Err(format!("{other} is not a bench record")),
    }
    Ok(())
}
