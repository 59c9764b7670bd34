//! `soak_bench` — the scheduler scale-out soak and its CI gates
//! (`bench_results/BENCH_soak.json`).
//!
//! Drives three open-loop Poisson phases at **0.8x / 1.0x / 1.2x** of the
//! capacity the micro soak model sustains — measured once, up front, as
//! the phase's own driver configuration saturated (see
//! [`capsnet_workloads::soak::saturated_hz`]), so the offered rates ascend
//! by construction — over hundreds of tenants, the scheduler running
//! SLO-aware admission ([`pim_serve::AdmissionPolicy::SloAware`]). Three
//! invariants are enforced by [`crate::check::check_soak`] on the record,
//! from its raw fields, before it is written — so the binary doubles as
//! the p99-under-overload regression gate in CI:
//!
//! 1. **zero dropped tickets** — every phase's submissions reconcile
//!    exactly against completions + sheds + rejections, cross-checked
//!    against the server's own metrics;
//! 2. **high-priority p99 stays bounded at 1.2x** — within 10x of its
//!    0.8x value (or an absolute 100 ms floor, whichever is larger), the
//!    0.8x phase being a real under-capacity baseline (it sheds at most
//!    [`CALM_SHED_SHARE`] of its requests);
//! 3. **overload sheds best-effort first** — at 1.2x the low tier sheds
//!    and the high tier never does.

use capsnet::ExactMath;
use capsnet_workloads::soak::{
    run_soak_phase, saturated_hz, soak_registry, soak_serve_config, SoakConfig, SoakPhaseReport,
    OVERDRIVE, PROBE_QUEUE,
};
use pim_serve::{AdmissionPolicy, Priority};

use crate::check::check_soak;
use crate::emit::{ledger_value, write_json_artifact, BenchHost};
use crate::jsonlite::{Object, Value};

/// Phase rates as multiples of the measured capacity.
const MULTIPLIERS: [f64; 3] = [0.8, 1.0, 1.2];

/// Tenants issuing soak traffic (tiers split 20/50/30 by
/// `capsnet_workloads::soak`'s `tier_for_tenant`).
pub const TENANTS: usize = 300;

/// Share of its requests the 0.8x phase may shed and still count as the
/// under-capacity baseline. A host hiccup of a few milliseconds sheds a
/// burst of low-tier arrivals (up to 2.4% of a CI-size phase, measured);
/// a phase offered its capacity or more sheds 10% and up.
pub const CALM_SHED_SHARE: f64 = 0.05;

/// Ceiling, microseconds, the high tier's 1.2x p99 may never exceed even
/// when 10x its 0.8x p99 is smaller.
pub const HIGH_P99_FLOOR_US: u64 = 100_000;

/// Sweeps [`run_soak_bench`] takes at most: one the host disturbed
/// ([`SoakBenchResult::disturbed`]) is discarded and taken again from the
/// capacity probe; the last is judged by the gates whatever it met.
const SWEEPS: usize = 3;

/// Milliseconds of one sweep the hypervisor may steal. A quiet sweep
/// loses 0–10; a pause of tens of milliseconds inside one batch inflates
/// the server's service estimate a thousandfold for the next few batches,
/// and whatever arrives then is shed, high tier included (measured: 380 ms
/// stolen, high-tier p99 189 ms at 1.2x).
const STOLEN_MS: u64 = 50;

/// Milliseconds the hypervisor has kept this guest's runnable vCPUs off
/// the host: `steal` on the `cpu` line of `/proc/stat`, in 10 ms ticks.
/// Zero where there is no such counter.
fn stolen_ms(proc_stat: &str) -> u64 {
    let cpu = proc_stat.lines().next().unwrap_or_default();
    let steal = cpu.split_whitespace().nth(8);
    steal.and_then(|ticks| ticks.parse().ok()).unwrap_or(0) * 10
}

/// Everything `BENCH_soak.json` records.
pub struct SoakBenchResult {
    /// Measurement host.
    pub host: BenchHost,
    /// Sweeps run; all but the last were discarded as disturbed.
    pub sweeps: usize,
    /// Requests in the capacity sprint and in the overdriven phase.
    pub capacity_requests: usize,
    /// The capacity every phase rate is a multiple of, requests/s.
    pub capacity_hz: f64,
    /// Requests offered per phase.
    pub requests_per_phase: usize,
    /// One report per entry of `MULTIPLIERS`, same order.
    pub phases: Vec<SoakPhaseReport>,
}

/// Runs the capacity probe and the three open-loop phases — again, up to
/// `SWEEPS` times, while the host disturbs them; the gates are applied
/// when the record is written. `requests_per_phase` scales the run: ~340k
/// for the committed ≥1M-request artifact, tens of thousands for the CI
/// leg.
pub fn run_soak_bench(requests_per_phase: usize) -> SoakBenchResult {
    assert!(requests_per_phase > 0);
    let registry = soak_registry(0x50AC);
    let serve = soak_serve_config();
    let probe = requests_per_phase.clamp(2_000, 100_000);
    println!("soak_bench: {TENANTS} tenants, {requests_per_phase} requests/phase");
    let stolen = || stolen_ms(&std::fs::read_to_string("/proc/stat").unwrap_or_default());
    for sweeps in 1.. {
        let stolen_before = stolen();
        let capacity_hz = saturated_hz(&registry, &ExactMath, serve, probe, TENANTS, 0x50AC);
        println!(
            "  capacity {capacity_hz:.0} req/s (a {probe}-request phase paced {OVERDRIVE}x a \
             saturating sprint)"
        );
        let phases = MULTIPLIERS.iter().enumerate().map(|(i, &multiplier)| {
            let report = run_soak_phase(
                &registry,
                &ExactMath,
                &SoakConfig {
                    tenants: TENANTS,
                    requests: requests_per_phase,
                    rate_hz: capacity_hz * multiplier,
                    seed: 0x50AC0 + i as u64,
                    serve,
                },
            );
            let c = &report.counts;
            println!(
                "  {multiplier:.1}x: offered {:.0} req/s, achieved {:.0} req/s, \
                 completed {} shed {:?} full {} quota {}  high p99 {} us",
                report.offered_hz,
                report.achieved_hz,
                c.completed,
                c.shed,
                c.rejected_full,
                c.rejected_quota,
                report.metrics.tier(Priority::High).p99_us,
            );
            report
        });
        let result = SoakBenchResult {
            host: BenchHost::detect(),
            sweeps,
            capacity_requests: probe,
            capacity_hz,
            requests_per_phase,
            phases: phases.collect(),
        };
        match result.disturbed(stolen() - stolen_before) {
            Some(how) if sweeps < SWEEPS => println!("  not a measurement, {how}: again"),
            _ => return result,
        }
    }
    unreachable!("the last sweep returns")
}

impl SoakBenchResult {
    /// How the host kept this sweep from being the experiment its labels
    /// say, if it did: it stole `stolen_ms` of it, or its speed left the
    /// capacity estimate behind (0.8x was no under-capacity baseline, or
    /// the server kept up with 1.2x). Blind to what the gates judge: which
    /// tiers shed, the high tier's p99, the reconciliation.
    fn disturbed(&self, stolen_ms: u64) -> Option<String> {
        let shed = |phase: usize| self.phases[phase].counts.shed_total();
        let calm = CALM_SHED_SHARE * self.requests_per_phase as f64;
        if stolen_ms > STOLEN_MS {
            Some(format!("the hypervisor stole {stolen_ms} ms"))
        } else if shed(0) as f64 > calm {
            Some(format!("the 0.8x phase shed {}", shed(0)))
        } else if shed(2) == 0 {
            Some("the server kept up with the 1.2x phase".into())
        } else {
            None
        }
    }

    /// The `BENCH_soak.json` record.
    pub fn to_value(&self) -> Value {
        let serve = soak_serve_config();
        let AdmissionPolicy::SloAware(slo) = serve.admission else {
            unreachable!("soak serve config is SLO-aware");
        };
        let scheduler = Object::new()
            .with("max_batch", serve.max_batch)
            .with("max_wait_us", serve.max_wait.as_micros())
            .with("queue_capacity", serve.queue_capacity)
            .with("workers", serve.workers)
            .with("admission", "slo_aware")
            .with("shed_wait_us", slo.shed_wait_us.to_vec())
            .with("tenant_quota", slo.tenant_quota);
        let capacity = Object::new()
            .with("hz", self.capacity_hz)
            .with("requests", self.capacity_requests)
            .with("queue_bound", PROBE_QUEUE)
            .with("overdrive", OVERDRIVE)
            .with(
                "method",
                "completions/s of one phase paced at overdrive x the requests/s of one sprint \
                 (the phase's stream and side-thread harvester offered as a burst against a \
                 bounded queue, QueueFull retried), taken once before the first phase",
            );
        let phases = MULTIPLIERS
            .iter()
            .zip(&self.phases)
            .map(|(&multiplier, p)| {
                let tiers = p.metrics.tiers.iter().map(|t| {
                    Object::new()
                        .with("priority", t.priority.label())
                        .with("requests", t.requests)
                        .with("shed", t.shed)
                        .with("p50_us", t.p50_us)
                        .with("p95_us", t.p95_us)
                        .with("p99_us", t.p99_us)
                });
                let server = Object::new()
                    .with("requests", p.metrics.requests)
                    .with("failed_requests", p.metrics.failed_requests)
                    .with("rejected_full", p.metrics.rejected_full)
                    .with("rejected_quota", p.metrics.rejected_quota);
                Object::new()
                    .with("multiplier", multiplier)
                    .with("offered_hz", p.offered_hz)
                    .with("achieved_hz", p.achieved_hz)
                    .with("ledger", ledger_value(&p.counts))
                    .with("server", server)
                    .with("tiers", tiers.collect::<Vec<_>>())
            });
        Object::new()
            .with("host", &self.host)
            .with("model", "caps-soak-micro")
            .with("tenants", TENANTS)
            .with("sweeps", self.sweeps)
            .with("scheduler", scheduler)
            .with("capacity", capacity)
            .with("requests_per_phase", self.requests_per_phase)
            .with(
                "total_requests",
                self.requests_per_phase * self.phases.len(),
            )
            .with("high_p99_floor_us", HIGH_P99_FLOOR_US)
            .with("phases", phases.collect::<Vec<_>>())
            .into()
    }

    /// Writes `BENCH_soak.json`.
    ///
    /// # Panics
    ///
    /// Panics (before writing) when a gate fails: a phase whose ledger
    /// does not reconcile exactly or disagrees with the server's metrics,
    /// offered rates that are not the multipliers of one capacity, a 0.8x
    /// phase that was not calm, a 1.2x phase that shed the wrong tiers, or
    /// a high-tier p99 that blew up under overload.
    pub fn report_and_write(&self) {
        write_json_artifact("BENCH_soak.json", &self.to_value(), check_soak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet_workloads::drive::Ledger;
    use pim_serve::{MetricsReport, TierReport};

    /// One tier row with `p99` (and proportionate p50/p95).
    fn tier(priority: Priority, requests: u64, shed: u64, p99: u64) -> TierReport {
        TierReport {
            priority,
            requests,
            cache_hits: 0,
            shed,
            p50_us: p99 / 2,
            p95_us: p99,
            p99_us: p99,
        }
    }

    /// A one-second window that dispatched `requests` single-sample batches.
    fn metrics(requests: u64, tiers: [TierReport; 3]) -> MetricsReport {
        MetricsReport {
            requests,
            samples: requests,
            batches: requests,
            cache_hits: 0,
            rejected_full: 0,
            rejected_quota: 0,
            failed_requests: 0,
            failed_batches: 0,
            p50_us: 10,
            p95_us: 20,
            p99_us: 30,
            mean_us: 12.0,
            batch_occupancy: vec![0, requests],
            elapsed_s: 1.0,
            tiers,
            version_counts: Vec::new(),
            swaps: 0,
        }
    }

    fn phase(multiplier: f64, shed: [u64; 3], high_p99: u64) -> SoakPhaseReport {
        let completed = 100 - shed.iter().sum::<u64>();
        let tiers = [
            tier(Priority::High, 20, shed[0], high_p99),
            tier(Priority::Normal, 50 - shed[1], shed[1], 40),
            tier(Priority::Low, completed - 20 - (50 - shed[1]), shed[2], 50),
        ];
        let metrics = metrics(completed, tiers);
        SoakPhaseReport {
            counts: Ledger {
                submitted: 100,
                completed,
                shed,
                ..Default::default()
            },
            metrics,
            offered_hz: 100.0 * multiplier,
            achieved_hz: completed as f64,
        }
    }

    fn synthetic() -> SoakBenchResult {
        SoakBenchResult {
            host: BenchHost {
                simd: "scalar",
                threads: 2,
            },
            sweeps: 1,
            capacity_requests: 100,
            capacity_hz: 100.0,
            requests_per_phase: 100,
            phases: vec![
                phase(0.8, [0, 0, 0], 100),
                phase(1.0, [0, 0, 1], 150),
                phase(1.2, [0, 2, 20], 400),
            ],
        }
    }

    fn verdict(result: &SoakBenchResult) -> crate::check::Verdict {
        check_soak(&result.to_value())
    }

    #[test]
    fn soak_json_schema_is_stable() {
        let result = synthetic();
        assert_eq!(verdict(&result), Ok(()));
        let v = result.to_value();
        let overload = &v.get("phases").and_then(|x| x.as_array()).unwrap()[2];
        let shed = overload.get("ledger").unwrap().get("shed").unwrap();
        assert_eq!(shed.as_array().unwrap()[2].as_f64(), Some(20.0));
        // A CI-size soak passes the gates but is no committed record.
        let why = crate::check::check_committed("BENCH_soak.json", &v).unwrap_err();
        assert!(why.contains("total_requests 300"), "{why}");
    }

    #[test]
    fn a_disturbed_sweep_is_told_from_a_failed_gate() {
        let stat = "cpu  646839 0 129502 1212073 17252 0 1272 14935 0 0\ncpu0 1 2";
        assert_eq!(stolen_ms(stat), 149_350);
        assert_eq!(stolen_ms("cpu 1 2 3"), 0);
        assert_eq!(stolen_ms(""), 0);

        assert_eq!(synthetic().disturbed(STOLEN_MS), None);
        assert!(synthetic().disturbed(STOLEN_MS + 10).is_some());
        let mut drifted = synthetic();
        drifted.phases[0] = phase(0.8, [0, 0, 6], 100);
        assert!(drifted.disturbed(0).unwrap().contains("0.8x"));
        drifted.phases[0] = phase(0.8, [0, 0, 0], 100);
        drifted.phases[2] = phase(1.2, [0, 0, 0], 400);
        assert!(drifted.disturbed(0).unwrap().contains("kept up"));
        // What the gates judge is not a disturbance: it must reach them.
        let mut high_shed = synthetic();
        high_shed.phases[2] = phase(1.2, [1, 2, 20], 400);
        high_shed.phases[2].metrics.tiers[Priority::High.index()].p99_us = 2_000_000;
        assert_eq!(high_shed.disturbed(0), None);
    }

    #[test]
    fn gates_catch_violations() {
        let mut dropped = synthetic();
        dropped.phases[1].counts.completed -= 1; // one vanished ticket
        assert!(verdict(&dropped).is_err());

        let mut unmetered = synthetic();
        unmetered.phases[1].metrics.requests -= 1; // server saw one fewer
        assert!(verdict(&unmetered).is_err());

        let mut high_shed = synthetic();
        high_shed.phases[2] = phase(1.2, [1, 2, 20], 400); // one high-tier shed
        assert!(verdict(&high_shed).unwrap_err().contains("1 high"));

        let mut unanchored = synthetic();
        unanchored.phases[0].offered_hz = 130.0; // "0.8x" offers more than "1.2x"
        assert!(verdict(&unanchored).unwrap_err().contains("offered"));

        let mut restless = synthetic();
        restless.phases[0] = phase(0.8, [0, 0, 6], 100); // the baseline shed 6%
        assert!(verdict(&restless).unwrap_err().contains("0.8x"));

        let mut idle = synthetic();
        idle.phases[2] = phase(1.2, [0, 0, 0], 400); // not an overload
        assert!(verdict(&idle).is_err());

        let mut blowup = synthetic();
        blowup.phases[2].metrics.tiers[Priority::High.index()].p99_us = 2_000_000;
        assert!(verdict(&blowup).unwrap_err().contains("p99"));
    }
}
