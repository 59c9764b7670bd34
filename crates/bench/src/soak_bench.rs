//! `soak_bench` — the scheduler scale-out soak and its CI gates
//! (`bench_results/BENCH_soak.json`).
//!
//! Drives three open-loop Poisson phases at **0.8x / 1.0x / 1.2x** of the
//! capacity the micro soak model sustains — measured immediately before
//! each phase (the phase's own driver configuration, saturated — see
//! [`capsnet_workloads::soak::saturated_hz`]), because this shared host's
//! speed shifts by up to 1.4x within seconds and a reading taken three
//! phases earlier can make "1.2x" a rate the server keeps up with — over
//! hundreds of tenants, the scheduler running SLO-aware admission
//! ([`pim_serve::AdmissionPolicy::SloAware`]). Three invariants are
//! enforced by [`crate::check::check_soak`] on the record, from its raw
//! fields, before it is written — so the binary doubles as the
//! p99-under-overload regression gate in CI:
//!
//! 1. **zero dropped tickets** — every phase's submissions reconcile
//!    exactly against completions + sheds + rejections, cross-checked
//!    against the server's own metrics;
//! 2. **high-priority p99 stays bounded at 1.2x** — within 10x of its
//!    0.8x value (or an absolute 100 ms floor, whichever is larger);
//! 3. **overload sheds best-effort first** — at 1.2x the low tier sheds
//!    and the high tier does not, up to [`HIGH_SHED_PER_LOW_SHED`]: a
//!    host stall of tens of milliseconds inflates the server's
//!    service-time estimate for a few batches, and the admission layer
//!    then rightly sheds the handful of high-tier arrivals that land
//!    inside them (measured: 4 high against 8 399 low in 1 run of 20).
//!    The strict "never the high tier" is held where there is no host to
//!    stall: `soak::tests::simulated_overload_sheds_low_not_high`.

use capsnet::ExactMath;
use capsnet_workloads::soak::{
    run_soak_phase, saturated_hz, soak_registry, soak_serve_config, SoakConfig, SoakPhaseReport,
    CAPACITY_SPRINTS, PROBE_QUEUE,
};
use pim_serve::{AdmissionPolicy, Priority, SloConfig};

use crate::check::check_soak;
use crate::emit::{ledger_json, write_json_artifact, BenchHost};

/// Phase rates as multiples of the measured capacity.
pub const MULTIPLIERS: [f64; 3] = [0.8, 1.0, 1.2];

/// Tenants issuing soak traffic (tiers split 20/50/30 by
/// [`capsnet_workloads::soak::tier_for_tenant`]).
pub const TENANTS: usize = 300;

/// High-tier sheds the 1.2x phase may show per low-tier shed (1%).
pub const HIGH_SHED_PER_LOW_SHED: f64 = 0.01;

/// Ceiling, microseconds, the high tier's 1.2x p99 may never exceed even
/// when 10x its 0.8x p99 is smaller.
pub const HIGH_P99_FLOOR_US: u64 = 100_000;

/// Everything `BENCH_soak.json` records.
pub struct SoakBenchResult {
    /// Measurement host.
    pub host: BenchHost,
    /// Requests per capacity sprint.
    pub capacity_requests: usize,
    /// Requests offered per phase.
    pub requests_per_phase: usize,
    /// One report per entry of [`MULTIPLIERS`], same order.
    pub phases: Vec<SoakPhaseReport>,
}

/// Runs the three open-loop phases, each behind its own capacity probe;
/// the gates are applied when the record is written. `requests_per_phase` scales the
/// run: ~340k for the committed ≥1M-request artifact, tens of thousands
/// for the CI leg.
pub fn run_soak_bench(requests_per_phase: usize) -> SoakBenchResult {
    assert!(requests_per_phase > 0);
    let registry = soak_registry(0x50AC);
    let serve = soak_serve_config();
    let probe = requests_per_phase.clamp(2_000, 100_000);
    println!(
        "soak_bench: {TENANTS} tenants, {requests_per_phase} requests/phase, capacity = upper \
         quartile of {CAPACITY_SPRINTS} saturating sprints of {probe} requests before each phase"
    );

    let phases: Vec<SoakPhaseReport> = MULTIPLIERS
        .iter()
        .enumerate()
        .map(|(i, &multiplier)| {
            let seed = 0x50AC0 + i as u64;
            let capacity_hz = saturated_hz(&registry, &ExactMath, serve, probe, TENANTS, seed);
            let report = run_soak_phase(
                &registry,
                &ExactMath,
                &SoakConfig {
                    tenants: TENANTS,
                    requests: requests_per_phase,
                    rate_hz: capacity_hz * multiplier,
                    seed,
                    serve,
                },
            );
            let c = &report.counts;
            println!(
                "  {multiplier:.1}x of {capacity_hz:.0}: offered {:.0} req/s, achieved {:.0} req/s, \
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
        })
        .collect();

    SoakBenchResult {
        host: BenchHost::detect(),
        capacity_requests: probe,
        requests_per_phase,
        phases,
    }
}

impl SoakBenchResult {
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
                "  \"scheduler\": {{\"max_batch\": {mb}, \"max_wait_us\": {mw}, ",
                "\"queue_capacity\": {qc}, \"workers\": {wk}, ",
                "\"admission\": \"slo_aware\", ",
                "\"shed_wait_us\": [{s0}, {s1}, {s2}], \"tenant_quota\": {tq}}},\n",
                "  \"capacity\": {{\"sprints\": {sprints}, ",
                "\"requests_per_sprint\": {creq}, \"queue_bound\": {pq}, ",
                "\"method\": \"upper-quartile requests/s of the sprints: a phase's request stream ",
                "and side-thread harvester, offered as a burst against a bounded queue ",
                "with QueueFull retried, taken immediately before each phase\"}},\n",
                "  \"requests_per_phase\": {rpp},\n",
                "  \"total_requests\": {total},\n",
                "  \"high_p99_floor_us\": {floor},\n",
                "  \"phases\": [\n",
            ),
            simd = self.host.simd,
            threads = self.host.threads,
            tenants = TENANTS,
            mb = serve.max_batch,
            mw = serve.max_wait.as_micros(),
            qc = serve.queue_capacity,
            wk = serve.workers,
            s0 = shed_wait_us[0],
            s1 = shed_wait_us[1],
            s2 = shed_wait_us[2],
            tq = tenant_quota,
            sprints = CAPACITY_SPRINTS,
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
                        "    {{\"multiplier\": {:.1}, \"capacity_hz\": {:.2}, \"offered_hz\": {:.2}, ",
                        "\"achieved_hz\": {:.2},\n     \"ledger\": {},\n",
                        "     \"server\": {{\"requests\": {}, \"failed_requests\": {}, ",
                        "\"rejected_full\": {}, \"rejected_quota\": {}}},\n",
                        "     \"tiers\": [\n{}\n     ]}}",
                    ),
                    multiplier,
                    p.offered_hz / multiplier,
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
    /// a 1.2x phase that shed the wrong tiers, or a high-tier p99 that
    /// blew up under overload.
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
            capacity_requests: 100,
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
    fn gates_catch_violations() {
        let mut dropped = synthetic();
        dropped.phases[1].counts.completed -= 1; // one vanished ticket
        assert!(verdict(&dropped).is_err());

        let mut unmetered = synthetic();
        unmetered.phases[1].metrics.requests -= 1; // server saw one fewer
        assert!(verdict(&unmetered).is_err());

        let mut high_shed = synthetic();
        high_shed.phases[2].counts.shed = [1, 2, 19];
        high_shed.phases[2].metrics.tiers[Priority::High.index()].shed = 1;
        high_shed.phases[2].metrics.tiers[Priority::Low.index()].shed = 19;
        assert!(verdict(&high_shed).unwrap_err().contains("1 high"));

        let mut idle = synthetic();
        idle.phases[2] = phase(1.2, [0, 0, 0], 400); // not an overload
        assert!(verdict(&idle).is_err());

        let mut blowup = synthetic();
        blowup.phases[2].metrics.tiers[Priority::High.index()].p99_us = 2_000_000;
        assert!(verdict(&blowup).unwrap_err().contains("p99"));
    }
}
