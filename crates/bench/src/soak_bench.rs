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
use pim_serve::{AdmissionPolicy, Priority, SloConfig};

use crate::check::check_soak;
use crate::emit::{ledger_json, write_json_artifact, BenchHost};

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

    /// Renders `BENCH_soak.json`.
    pub fn to_json(&self) -> String {
        let serve = soak_serve_config();
        let AdmissionPolicy::SloAware(slo) = serve.admission else {
            unreachable!("soak serve config is SLO-aware");
        };
        let SloConfig {
            shed_wait_us,
            tenant_quota,
        } = slo;
        let mut json = format!(
            concat!(
                "{{\n",
                "  \"host\": {{\"simd\": \"{simd}\", \"threads\": {threads}}},\n",
                "  \"model\": \"caps-soak-micro\",\n",
                "  \"tenants\": {tenants},\n",
                "  \"sweeps\": {sweeps},\n",
                "  \"scheduler\": {{\"max_batch\": {mb}, \"max_wait_us\": {mw}, ",
                "\"queue_capacity\": {qc}, \"workers\": {wk}, ",
                "\"admission\": \"slo_aware\", ",
                "\"shed_wait_us\": [{s0}, {s1}, {s2}], \"tenant_quota\": {tq}}},\n",
                "  \"capacity\": {{\"hz\": {chz:.2}, \"requests\": {creq}, ",
                "\"queue_bound\": {pq}, \"overdrive\": {od}, ",
                "\"method\": \"completions/s of one phase paced at overdrive x the requests/s of ",
                "one sprint (the phase's stream and side-thread harvester offered as a burst ",
                "against a bounded queue, QueueFull retried), taken once before the first ",
                "phase\"}},\n",
                "  \"requests_per_phase\": {rpp},\n",
                "  \"total_requests\": {total},\n",
                "  \"high_p99_floor_us\": {floor},\n",
                "  \"phases\": [\n",
            ),
            simd = self.host.simd,
            threads = self.host.threads,
            tenants = TENANTS,
            sweeps = self.sweeps,
            mb = serve.max_batch,
            mw = serve.max_wait.as_micros(),
            qc = serve.queue_capacity,
            wk = serve.workers,
            s0 = shed_wait_us[0],
            s1 = shed_wait_us[1],
            s2 = shed_wait_us[2],
            tq = tenant_quota,
            chz = self.capacity_hz,
            od = OVERDRIVE,
            creq = self.capacity_requests,
            pq = PROBE_QUEUE,
            rpp = self.requests_per_phase,
            total = self.requests_per_phase * self.phases.len(),
            floor = HIGH_P99_FLOOR_US,
        );
        let phases: Vec<String> = MULTIPLIERS
            .iter()
            .zip(&self.phases)
            .map(|(multiplier, p)| {
                let tiers: Vec<String> = p
                    .metrics
                    .tiers
                    .iter()
                    .map(|t| {
                        format!(
                            "       {{\"priority\": \"{}\", \"requests\": {}, \"shed\": {}, \
                             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
                            t.priority.label(),
                            t.requests,
                            t.shed,
                            t.p50_us,
                            t.p95_us,
                            t.p99_us,
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "    {{\"multiplier\": {:.1}, \"offered_hz\": {:.2}, ",
                        "\"achieved_hz\": {:.2},\n     \"ledger\": {},\n",
                        "     \"server\": {{\"requests\": {}, \"failed_requests\": {}, ",
                        "\"rejected_full\": {}, \"rejected_quota\": {}}},\n",
                        "     \"tiers\": [\n{}\n     ]}}",
                    ),
                    multiplier,
                    p.offered_hz,
                    p.achieved_hz,
                    ledger_json(&p.counts),
                    p.metrics.requests,
                    p.metrics.failed_requests,
                    p.metrics.rejected_full,
                    p.metrics.rejected_quota,
                    tiers.join(",\n"),
                )
            })
            .collect();
        json.push_str(&phases.join(",\n"));
        json.push_str("\n  ]\n}\n");
        json
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
        write_json_artifact("BENCH_soak.json", &self.to_json(), check_soak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{metrics, tier};
    use capsnet_workloads::drive::Ledger;

    fn phase(multiplier: f64, shed: [u64; 3], high_p99: u64) -> SoakPhaseReport {
        let completed = 100 - shed.iter().sum::<u64>();
        let tiers = [
            tier(Priority::High, 20, shed[0], high_p99),
            tier(Priority::Normal, 50 - shed[1], shed[1], 40),
            tier(Priority::Low, completed - 20 - (50 - shed[1]), shed[2], 50),
        ];
        let metrics = metrics(completed, 0, tiers);
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
        check_soak(&crate::jsonlite::parse(&result.to_json()).unwrap())
    }

    #[test]
    fn soak_json_schema_is_stable() {
        let result = synthetic();
        assert_eq!(verdict(&result), Ok(()));
        let v = crate::jsonlite::parse(&result.to_json()).unwrap();
        let overload = &v.get("phases").and_then(|x| x.as_array()).unwrap()[2];
        let shed = overload.get("ledger").unwrap().get("shed").unwrap();
        assert_eq!(shed.as_array().unwrap()[2].as_f64(), Some(20.0));
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
