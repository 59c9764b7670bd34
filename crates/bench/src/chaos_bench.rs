//! `chaos_bench` — the deterministic chaos soak and its CI gates
//! (`bench_results/BENCH_chaos.json`).
//!
//! Runs the same open-loop Poisson traffic twice through a replica pool
//! of the micro soak model: once fault-free (the baseline), once under a
//! seeded [`capsnet_workloads::chaos::FaultPlan`] — scripted worker
//! panics, a scripted stall longer than the pool's `replica_timeout`
//! (the reply-drop path) and a mid-traffic operator quarantine. Five
//! invariants are asserted in-process, so the binary doubles as the
//! fault-tolerance regression gate in CI:
//!
//! 1. **zero dropped tickets under fire** — both phases' submissions
//!    reconcile exactly: every ticket resolves exactly once, typed;
//! 2. **every scripted fault fired** — the plan's panics and stalls all
//!    landed inside the traffic window;
//! 3. **restart accounting** — the pool restarted exactly one replica
//!    life per injected panic;
//! 4. **the fleet recovers** — every replica (killed ones included)
//!    serves a fresh request after the traffic drains;
//! 5. **clean-replica tail latency holds** — high-tier p99 on replicas
//!    no fault landed on stays within 10x the fault-free baseline (or an
//!    absolute 100 ms floor).

use std::time::Duration;

use capsnet::ExactMath;
use capsnet_workloads::chaos::{
    chaos_fault_config, run_chaos_phase, ChaosConfig, ChaosPhaseReport, FaultAction, FaultPlan,
};
use capsnet_workloads::soak::{saturated_hz, soak_registry, soak_serve_config};

use crate::check::check_chaos;
use crate::emit::{ledger_value, write_json_artifact, BenchHost};
use crate::jsonlite::{Object, Value};

/// Replicas in the chaos pool.
pub const REPLICAS: usize = 4;

/// Tenants issuing chaos traffic (tiers split 20/50/30).
pub const TENANTS: usize = 200;

/// Scripted worker panics in the plan.
const PANICS: usize = 2;

/// Scripted stalls in the plan.
const STALLS: usize = 1;

/// Scripted stall duration — longer than the pool's 50 ms
/// `replica_timeout`, so the stalled request is abandoned typed and its
/// late reply lands with nobody waiting (the reply-drop path).
pub const STALL: Duration = Duration::from_millis(150);

/// Offered rate as a fraction of the *measured pool throughput*: below
/// saturation, so the chaos dent — not steady-state overload — dominates
/// the tail, and the Poisson pacing stays honest (arrivals are never
/// systematically behind schedule).
const RATE_FRACTION: f64 = 0.6;

/// Ceiling, microseconds, the clean-replica high-tier p99 may never
/// exceed even when 10x the baseline is smaller.
pub const HIGH_P99_FLOOR_US: u64 = 100_000;

/// Everything `BENCH_chaos.json` records.
pub struct ChaosBenchResult {
    /// Measurement host.
    pub host: BenchHost,
    /// Saturated single-server capacity (upper bound; drives the
    /// calibration burst hard enough to saturate the pool).
    pub capacity_hz: f64,
    /// Pool throughput measured by the fault-free calibration burst —
    /// what replicas + router + harvester sustain *together* on this
    /// host's cores. The offered rate anchors here.
    pub pool_hz: f64,
    /// Requests offered per phase.
    pub requests_per_phase: usize,
    /// The seeded schedule the chaos phase ran under.
    pub plan: FaultPlan,
    /// Fault-free phase.
    pub baseline: ChaosPhaseReport,
    /// Same traffic under the plan.
    pub chaos: ChaosPhaseReport,
}

/// Runs the capacity probe, the fault-free baseline phase (its own gates
/// and the p99 anchor) and the same traffic under the seeded plan; the
/// gates are applied when the record is written. `requests_per_phase`
/// scales the run: ~120k for the committed >=100k-request artifact, a few
/// thousand for quick checks.
pub fn run_chaos_bench(requests_per_phase: usize) -> ChaosBenchResult {
    assert!(requests_per_phase > 0);
    let serve = soak_serve_config();
    let registry = soak_registry(0xC405);
    let probe = requests_per_phase.clamp(2_000, 20_000);
    let capacity_hz = saturated_hz(&registry, &ExactMath, serve, probe, TENANTS, 0xC4A);

    // Calibrate the *pool*: a fault-free burst offered far above
    // capacity measures what replicas + router + harvester sustain
    // together on this host's cores (on a small machine the replicas
    // timeshare, so per-replica capacity times the replica count is
    // unattainable). The real phases offer a fraction of this, keeping
    // the Poisson pacing honest instead of degenerating into a burst.
    let mut cfg = ChaosConfig {
        replicas: REPLICAS,
        tenants: TENANTS,
        requests: probe,
        rate_hz: capacity_hz * REPLICAS as f64,
        seed: 0xC4A0_0001,
        deadline: Duration::from_millis(400),
        serve,
        fault: chaos_fault_config(),
    };
    let calibration = run_chaos_phase(&ExactMath, &cfg, &FaultPlan::none());
    let pool_hz = calibration.achieved_hz.max(1_000.0);
    cfg.requests = requests_per_phase;
    cfg.rate_hz = pool_hz * RATE_FRACTION;
    println!(
        "chaos_bench: capacity {capacity_hz:.0} req/s/replica (saturated, {probe} requests), \
         pool sustains {pool_hz:.0} req/s, {REPLICAS} replicas, offered {:.0} req/s, \
         {requests_per_phase} requests/phase",
        cfg.rate_hz
    );

    let baseline = run_chaos_phase(&ExactMath, &cfg, &FaultPlan::none());
    print_phase("baseline", &baseline);
    let plan = FaultPlan::seeded(
        cfg.seed,
        PANICS,
        STALLS,
        STALL,
        REPLICAS,
        requests_per_phase,
    );
    println!(
        "  plan: {} panics + {} stalls armed at arrivals {:?}, quarantine {:?}",
        plan.panics(),
        plan.stalls(),
        plan.points.iter().map(|p| p.at_arrival).collect::<Vec<_>>(),
        plan.quarantine,
    );
    let chaos = run_chaos_phase(&ExactMath, &cfg, &plan);
    print_phase("chaos", &chaos);

    ChaosBenchResult {
        host: BenchHost::detect(),
        capacity_hz,
        pool_hz,
        requests_per_phase,
        plan,
        baseline,
        chaos,
    }
}

fn print_phase(name: &str, p: &ChaosPhaseReport) {
    let c = &p.counts;
    println!(
        "  {name}: offered {:.0} req/s, achieved {:.0} req/s, completed {} shed {} \
         forward-failed {} timeouts {} deadline {} shut down {}  \
         restarts {} quarantines {} probes {}  clean high p99 {:?} us",
        p.offered_hz,
        p.achieved_hz,
        c.completed,
        c.shed_total(),
        c.failed_forward,
        c.replica_timeout,
        c.deadline_exceeded,
        c.rejected_shutdown,
        p.set.restarts,
        p.set.quarantines,
        p.set.probes,
        p.clean_high_p99_us,
    );
}

impl ChaosBenchResult {
    /// The `BENCH_chaos.json` record.
    pub fn to_value(&self) -> Value {
        let fault = chaos_fault_config();
        let supervision = Object::new()
            .with(
                "replica_timeout_ms",
                fault.replica_timeout.map_or(0, |t| t.as_millis()),
            )
            .with("breaker_threshold", fault.breaker_threshold)
            .with("probe_cooldown_ms", fault.probe_cooldown.as_millis())
            .with("max_restarts", fault.max_restarts);
        let points = self.plan.points.iter().map(|p| {
            let action = match p.action {
                FaultAction::Panic => "panic",
                FaultAction::Stall(_) => "stall",
            };
            Object::new()
                .with("at_arrival", p.at_arrival)
                .with("action", action)
        });
        let plan = Object::new()
            .with("panics", self.plan.panics())
            .with("stalls", self.plan.stalls())
            .with("stall_ms", STALL.as_millis())
            .with("points", points.collect::<Vec<_>>());
        Object::new()
            .with("host", &self.host)
            .with("model", "caps-soak-micro")
            .with("replicas", REPLICAS)
            .with("tenants", TENANTS)
            .with("capacity_hz", self.capacity_hz)
            .with("pool_hz", self.pool_hz)
            .with("requests_per_phase", self.requests_per_phase)
            .with("high_p99_floor_us", HIGH_P99_FLOOR_US)
            .with("supervision", supervision)
            .with("plan", plan)
            .with(
                "phases",
                vec![
                    phase_value("baseline", &self.baseline),
                    phase_value("chaos", &self.chaos),
                ],
            )
            .into()
    }

    /// Writes `BENCH_chaos.json`.
    ///
    /// # Panics
    ///
    /// Panics (before writing) when a gate fails: a phase that does not
    /// reconcile exactly, a scripted fault that did not fire, a restart
    /// ledger that disagrees with the panics, a replica that never came
    /// back, or a clean-replica high-tier p99 that blew up (or no clean
    /// replica left to read it from).
    pub fn report_and_write(&self) {
        write_json_artifact("BENCH_chaos.json", &self.to_value(), check_chaos);
    }
}

fn phase_value(name: &str, p: &ChaosPhaseReport) -> Object {
    Object::new()
        .with("name", name)
        .with("offered_hz", p.offered_hz)
        .with("achieved_hz", p.achieved_hz)
        .with("ledger", ledger_value(&p.counts))
        .with("injected_panics", p.injected_panics)
        .with("injected_stalls", p.injected_stalls)
        .with("restarts", p.set.restarts)
        .with("restarts_per_replica", p.set.restarts_per_replica.clone())
        .with("quarantines", p.set.quarantines)
        .with("probes", p.set.probes)
        .with("deadline_misses", p.set.deadline_misses)
        .with("tainted", p.tainted.clone())
        .with("serving_at_end", p.serving_at_end.clone())
        .with("clean_high_p99_us", p.clean_high_p99_us.unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet_workloads::chaos::FaultPoint;
    use capsnet_workloads::drive::Ledger;
    use pim_serve::{HealthState, ReplicaSetReport};

    fn synthetic_phase(faulty: bool) -> ChaosPhaseReport {
        let (panics, stalls) = if faulty { (2, 1) } else { (0, 0) };
        let restarts_per_replica = if faulty { vec![1, 1, 0, 0] } else { vec![0; 4] };
        ChaosPhaseReport {
            counts: Ledger {
                submitted: 1_000,
                completed: 980,
                shed: [0, 2, 8],
                rejected_full: 0,
                rejected_quota: 2,
                rejected_shutdown: 1,
                failed_forward: if faulty { 2 } else { 0 },
                deadline_exceeded: if faulty { 2 } else { 3 },
                replica_timeout: if faulty { 3 } else { 4 },
                other_failed: 0,
            },
            set: ReplicaSetReport {
                per_replica: Vec::new(),
                requests: 980,
                cache_hits: 0,
                samples: 980,
                batches: 980,
                failed_requests: 2,
                failed_batches: 1,
                rejected_full: 0,
                rejected_quota: 2,
                shed: 10,
                swaps: 0,
                restarts: if faulty { 2 } else { 0 },
                restarts_per_replica,
                health: vec![HealthState::Healthy; 4],
                quarantines: u64::from(faulty),
                probes: u64::from(faulty) * 3,
                failovers: 0,
                deadline_misses: 2,
                p50_us: 400,
                p95_us: 900,
                p99_us: 1_200,
            },
            injected_panics: panics,
            injected_stalls: stalls,
            tainted: if faulty {
                vec![true, true, true, false]
            } else {
                vec![false; 4]
            },
            serving_at_end: vec![true; 4],
            clean_high_p99_us: Some(if faulty { 9_000 } else { 1_200 }),
            offered_hz: 50_000.0,
            achieved_hz: 49_000.0,
        }
    }

    fn synthetic() -> ChaosBenchResult {
        ChaosBenchResult {
            host: BenchHost {
                simd: "scalar",
                threads: 2,
            },
            capacity_hz: 20_000.0,
            pool_hz: 15_000.0,
            requests_per_phase: 1_000,
            plan: FaultPlan {
                points: vec![
                    FaultPoint {
                        at_arrival: 150,
                        action: FaultAction::Panic,
                    },
                    FaultPoint {
                        at_arrival: 300,
                        action: FaultAction::Stall(STALL),
                    },
                    FaultPoint {
                        at_arrival: 500,
                        action: FaultAction::Panic,
                    },
                ],
                quarantine: None,
            },
            baseline: synthetic_phase(false),
            chaos: synthetic_phase(true),
        }
    }

    fn verdict(result: &ChaosBenchResult) -> crate::check::Verdict {
        check_chaos(&result.to_value())
    }

    #[test]
    fn chaos_json_schema_is_stable() {
        let result = synthetic();
        assert_eq!(verdict(&result), Ok(()));
        let v = result.to_value();
        let chaos = &v.get("phases").and_then(|x| x.as_array()).unwrap()[1];
        let ledger = chaos.get("ledger").unwrap();
        assert_eq!(ledger.get("failed_forward").unwrap().as_f64(), Some(2.0));
        // A CI-size chaos run passes the gates but is no committed record.
        let why = crate::check::check_committed("BENCH_chaos.json", &v).unwrap_err();
        assert!(why.contains("requests_per_phase 1000"), "{why}");
    }

    #[test]
    fn gates_catch_violations() {
        let mut dropped = synthetic();
        dropped.chaos.counts.completed -= 1; // one vanished ticket
        assert!(verdict(&dropped).is_err());

        let mut missed = synthetic();
        missed.chaos.injected_stalls = 0;
        assert!(verdict(&missed).unwrap_err().contains("did not fire"));

        let mut unaccounted = synthetic();
        unaccounted.chaos.set.restarts = 1;
        assert!(verdict(&unaccounted).unwrap_err().contains("restart"));

        let mut down = synthetic();
        down.chaos.serving_at_end[2] = false;
        assert!(verdict(&down).unwrap_err().contains("serving"));

        let mut blown = synthetic();
        blown.chaos.clean_high_p99_us = Some(2_000_000);
        assert!(verdict(&blown).unwrap_err().contains("p99"));
        blown.chaos.clean_high_p99_us = None; // every replica tainted
        assert!(verdict(&blown).unwrap_err().contains("p99"));
    }
}
