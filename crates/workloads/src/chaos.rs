//! Deterministic chaos schedules for the fault-tolerant replica pool.
//!
//! The serving layer claims (crates/serve) that replica panics, stalls and
//! quarantines never drop or hang a ticket: every submission resolves
//! exactly once, typed. This module turns that claim into a repeatable
//! experiment:
//!
//! * [`FaultPlan`] — a **seeded** schedule of faults, every one pinned to
//!   an *arrival index* of the Poisson schedule: panics, stalls (long
//!   enough past the pool's `replica_timeout` that the caller abandons the
//!   reply — the reply-drop path) and an optional operator quarantine.
//!   Same seed, same plan, every run.
//! * [`ChaosBackend`] — the injection hook: wraps any [`MathBackend`];
//!   [`ChaosBackend::arm`] makes the next `exp` call (every CapsNet
//!   forward routes through `exp`) panic or stall. The driver's
//!   `at_arrival` hook arms each fault when its arrival comes due, and the
//!   post-window probe of every replica guarantees a backend call follows
//!   every arming — so each scripted fault fires exactly once, whatever
//!   the phase shed or timed out in between.
//! * [`run_chaos_phase`] — an open-loop Poisson phase (the soak's
//!   [`crate::drive`] configuration) into a [`pim_serve::ReplicaSet`] with
//!   deadlines on every request, every ticket harvested, and every
//!   submission accounted into one [`Ledger`] — the zero-dropped-tickets
//!   reconciliation under fire. After traffic it verifies each replica
//!   still serves ([`ChaosPhaseReport::serving_at_end`]).
//!
//! `pim-bench`'s `chaos_bench` runs a fault-free baseline phase, re-runs
//! the same traffic under a seeded plan and gates on reconciliation,
//! restart accounting, and clean-replica tail latency
//! (`bench_results/BENCH_chaos.json`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use capsnet::{CapsNet, MathBackend};
use pim_serve::{
    FaultToleranceConfig, Priority, ReplicaSet, ReplicaSetConfig, ReplicaSetHandle,
    ReplicaSetReport, Request, RoutingPolicy, ServeConfig, ServeError,
};
use pim_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{drive, Arrivals, Backpressure, Drive, Ledger};
use crate::soak::{image_pool, phase_arrivals, soak_spec, tiered_request};

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the calling worker thread (a poisoned forward).
    Panic,
    /// Block the calling worker for the duration (a stalled accelerator).
    /// Past the pool's `replica_timeout` this is also the reply-drop
    /// path: the caller abandons the reply slot and the late completion
    /// lands with nobody waiting.
    Stall(Duration),
}

/// A fault pinned to an arrival of the Poisson schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Arrival index at which the fault is armed; the next backend call
    /// anywhere in the fleet takes it.
    pub at_arrival: usize,
    /// What happens there.
    pub action: FaultAction,
}

/// An operator quarantine injected mid-traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Arrival index (into the Poisson schedule) at which to quarantine.
    pub at_arrival: usize,
    /// Replica to quarantine (the watchdog re-admits it after cooldown).
    pub replica: usize,
}

/// A deterministic fault schedule — a pure function of its seed and the
/// phase size it was scaled to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Arrival-indexed faults, strictly ascending by `at_arrival`.
    pub points: Vec<FaultPoint>,
    /// Optional mid-traffic operator quarantine.
    pub quarantine: Option<QuarantineEvent>,
}

impl FaultPlan {
    /// The fault-free plan (baseline phases).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Seeds a plan with `panics` panic points and `stalls` stall points
    /// (each stalling `stall` long), all armed between 10% and 55% of
    /// `requests` — mid-traffic, with enough of the phase left to watch
    /// the fleet recover — plus one quarantine at ~35% of `requests` on a
    /// seeded replica.
    ///
    /// # Panics
    ///
    /// Panics when `requests` is too small to place the points or
    /// `replicas` is zero.
    pub fn seeded(
        seed: u64,
        panics: usize,
        stalls: usize,
        stall: Duration,
        replicas: usize,
        requests: usize,
    ) -> FaultPlan {
        let lo = requests / 10;
        let hi = requests * 55 / 100;
        let wanted = panics + stalls;
        assert!(replicas > 0, "replicas must be >= 1");
        assert!(
            hi.saturating_sub(lo) >= wanted * 2,
            "{requests} requests too few for {wanted} fault points"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let mut at: Vec<usize> = Vec::with_capacity(wanted);
        while at.len() < wanted {
            let candidate = rng.gen_range(lo..hi);
            if !at.contains(&candidate) {
                at.push(candidate);
            }
        }
        // The first `panics` draws panic, the rest stall; sorting by
        // arrival afterwards keeps the draw order (and thus the plan) a
        // pure function of the seed.
        let mut points: Vec<FaultPoint> = at
            .iter()
            .enumerate()
            .map(|(i, &at_arrival)| FaultPoint {
                at_arrival,
                action: if i < panics {
                    FaultAction::Panic
                } else {
                    FaultAction::Stall(stall)
                },
            })
            .collect();
        points.sort_by_key(|p| p.at_arrival);
        FaultPlan {
            points,
            quarantine: Some(QuarantineEvent {
                at_arrival: requests * 35 / 100,
                replica: rng.gen_range(0..replicas),
            }),
        }
    }

    /// Scripted panics in the plan.
    pub fn panics(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.action == FaultAction::Panic)
            .count()
    }

    /// Scripted stalls in the plan.
    pub fn stalls(&self) -> usize {
        self.points.len() - self.panics()
    }
}

/// The fault-injection hook: delegates to `inner`, except that each
/// [`ChaosBackend::arm`]ed fault is taken by exactly one later `exp` call.
/// The backend is shared by every replica's workers, so *which* replica
/// draws a fault depends on scheduling — the plan pins *when* in the
/// workload faults happen, and the gates ([`Ledger::reconciles`], restart
/// accounting, serving-at-end) hold regardless of where they land.
pub struct ChaosBackend<'a, B: ?Sized> {
    inner: &'a B,
    armed: Mutex<VecDeque<FaultAction>>,
    /// `armed.len()`, readable without the lock: the fault-free `exp`
    /// path costs one atomic load.
    pending: AtomicU64,
    fired_panics: AtomicU64,
    fired_stalls: AtomicU64,
}

impl<'a, B: MathBackend + ?Sized> ChaosBackend<'a, B> {
    /// Wraps `inner` with nothing armed.
    pub fn new(inner: &'a B) -> Self {
        ChaosBackend {
            inner,
            armed: Mutex::new(VecDeque::new()),
            pending: AtomicU64::new(0),
            fired_panics: AtomicU64::new(0),
            fired_stalls: AtomicU64::new(0),
        }
    }

    /// Arms one fault: the next `exp` call, on whichever worker makes it,
    /// takes it.
    pub fn arm(&self, action: FaultAction) {
        let mut armed = self.armed.lock().expect("no fault fires under the lock");
        armed.push_back(action);
        self.pending.store(armed.len() as u64, Ordering::Release);
    }

    /// Panic points that actually fired.
    fn fired_panics(&self) -> u64 {
        self.fired_panics.load(Ordering::Relaxed)
    }

    /// Stall points that actually fired.
    fn fired_stalls(&self) -> u64 {
        self.fired_stalls.load(Ordering::Relaxed)
    }

    /// Pops one armed fault, if any: the lock hands each to one caller.
    fn take_armed(&self) -> Option<FaultAction> {
        let mut armed = self.armed.lock().expect("no fault fires under the lock");
        let action = armed.pop_front();
        self.pending.store(armed.len() as u64, Ordering::Release);
        action
    }
}

impl<B: MathBackend + ?Sized> MathBackend for ChaosBackend<'_, B> {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn exp(&self, x: f32) -> f32 {
        if self.pending.load(Ordering::Acquire) != 0 {
            match self.take_armed() {
                Some(FaultAction::Panic) => {
                    self.fired_panics.fetch_add(1, Ordering::Relaxed);
                    panic!("chaos: scripted panic");
                }
                Some(FaultAction::Stall(d)) => {
                    self.fired_stalls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                }
                None => {}
            }
        }
        self.inner.exp(x)
    }

    fn inv_sqrt(&self, x: f32) -> f32 {
        self.inner.inv_sqrt(x)
    }

    fn div(&self, a: f32, b: f32) -> f32 {
        self.inner.div(a, b)
    }
}

/// One chaos phase: the traffic it offers and the pool it offers it to.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Replicas in the pool.
    pub replicas: usize,
    /// Tenants issuing requests (tiers assigned by
    /// [`crate::soak`]'s `tier_for_tenant`).
    pub tenants: usize,
    /// Requests in the phase.
    pub requests: usize,
    /// Offered arrival rate, requests per second (pool-wide).
    pub rate_hz: f64,
    /// Arrival-stream / model seed.
    pub seed: u64,
    /// End-to-end deadline carried by every request — the bound that
    /// keeps every harvested wait finite even under scripted stalls.
    pub deadline: Duration,
    /// Per-replica scheduler configuration.
    pub serve: ServeConfig,
    /// Supervision knobs (timeout, breaker, watchdog, restart budget).
    pub fault: FaultToleranceConfig,
}

/// The supervision configuration chaos phases run under: a stall is
/// abandoned (and metered against the breaker) after 50 ms, quarantined
/// replicas are probed back within tens of milliseconds, and the restart
/// budget comfortably covers every scripted panic.
pub fn chaos_fault_config() -> FaultToleranceConfig {
    FaultToleranceConfig {
        replica_timeout: Some(Duration::from_millis(50)),
        breaker_threshold: 3,
        probe_cooldown: Duration::from_millis(25),
        watchdog_interval: Duration::from_millis(5),
        max_restarts: 8,
    }
}

/// Outcome of one chaos phase.
#[derive(Debug, Clone)]
pub struct ChaosPhaseReport {
    /// Submission accounting (the reconciliation gate).
    pub counts: Ledger,
    /// The pool's own report (restarts, quarantines, probes, per-replica
    /// metrics).
    pub set: ReplicaSetReport,
    /// Panic points that fired during the phase.
    pub injected_panics: u64,
    /// Stall points that fired during the phase.
    pub injected_stalls: u64,
    /// Per replica: `true` when a fault landed on it (a restart, or a
    /// caller-observed stall timeout). Clean replicas anchor the
    /// tail-latency gate.
    pub tainted: Vec<bool>,
    /// Per replica: `true` when it answered a fresh request after the
    /// traffic window (killed replicas must be back up).
    pub serving_at_end: Vec<bool>,
    /// Server-side high-tier p99 (queue + service), microseconds, over
    /// clean replicas — the worst per-replica high-tier p99 among
    /// replicas no fault landed on. Measured by each replica's own
    /// metrics window, so a stall on one replica cannot skew another's
    /// samples. `None` when every replica was tainted or no high-tier
    /// request completed on a clean one.
    pub clean_high_p99_us: Option<u64>,
    /// Offered arrival rate, requests per second.
    pub offered_hz: f64,
    /// Completed requests per second over the traffic window.
    pub achieved_hz: f64,
}

/// After the traffic window, proves `replica` is serving: bounded retry
/// of a deadline-carrying probe request until one completes. Transient
/// typed failures (a replica mid-restart, a draining quarantine) are
/// retried; a replica that cannot serve within `patience` returns false.
fn serves_fresh_request(
    pool: &ReplicaSetHandle<'_>,
    replica: usize,
    image: &Tensor,
    deadline: Duration,
    patience: Duration,
) -> bool {
    let give_up = Instant::now() + patience;
    while Instant::now() < give_up {
        if let Ok(ticket) = pool.submit_to(
            replica,
            Request::new(0, 0, image.clone()).with_deadline(deadline),
        ) {
            if ticket.wait().is_ok() {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Runs one open-loop chaos phase: Poisson arrivals paced in real time
/// into a replica pool served through a [`ChaosBackend`] that the driver's
/// `at_arrival` hook arms per `plan`, every accepted ticket harvested on
/// the side thread (deadlines bound every wait), every submission
/// accounted into the [`Ledger`], and every replica health-checked after
/// the traffic drains.
pub fn run_chaos_phase<B: MathBackend + Sync + ?Sized>(
    inner: &B,
    cfg: &ChaosConfig,
    plan: &FaultPlan,
) -> ChaosPhaseReport {
    let net = CapsNet::seeded(&soak_spec(), cfg.seed ^ 0xC405).expect("chaos spec is valid");
    let backend = ChaosBackend::new(inner);
    let arrivals = phase_arrivals(cfg.rate_hz, cfg.requests, cfg.tenants, cfg.seed);
    let images = image_pool(cfg.seed ^ 0xC4A05);

    let pool_cfg = ReplicaSetConfig {
        replicas: cfg.replicas,
        policy: RoutingPolicy::LeastQueued,
        serve: cfg.serve,
        fault: cfg.fault,
        cache: None,
    };
    let set = ReplicaSet::from_net("chaos", &net, &backend, pool_cfg).expect("chaos pool config");

    let mut tainted = vec![false; cfg.replicas];
    let mut serving_at_end = vec![false; cfg.replicas];
    let (driven, set_report) = set.run(|pool| {
        let mut points = plan.points.iter().peekable();
        // Latency is NOT measured on the harvest side: the harvester
        // drains tickets sequentially, so a stalled ticket
        // head-of-line-blocks it and a caller-side clock would charge the
        // delay to innocent replicas; the per-tier gate reads each
        // replica's own server-side metrics window instead.
        let driven = drive(
            pool,
            &arrivals,
            Drive {
                arrivals: Arrivals::Paced,
                backpressure: Backpressure::Tally,
            },
            |_, arrival| tiered_request(&images, arrival).with_deadline(cfg.deadline),
            |i, pool: &ReplicaSetHandle<'_>| {
                if let Some(q) = plan.quarantine.filter(|q| q.at_arrival == i) {
                    pool.quarantine(q.replica % cfg.replicas);
                }
                while let Some(point) = points.next_if(|p| p.at_arrival <= i) {
                    backend.arm(point.action);
                }
            },
        );

        // A replica is tainted when a fault landed on it: a panic
        // restarted it, or a caller abandoned it at the stall timeout.
        // (The scripted stall always outlives `replica_timeout`, so the
        // stalled replica is always caught.) The operator quarantine is
        // *not* a taint — it serves nothing while out of rotation.
        for (r, taint) in tainted.iter_mut().enumerate() {
            *taint = pool.restarts(r) > 0;
        }
        for failure in &driven.failures {
            if matches!(
                failure.error,
                ServeError::Forward(_) | ServeError::ReplicaTimeout { .. }
            ) {
                tainted[failure.replica] = true;
            }
        }

        // Killed replicas must be back up and serving. These probes are
        // also the backend calls that take any fault still armed.
        for (r, serving) in serving_at_end.iter_mut().enumerate() {
            *serving =
                serves_fresh_request(pool, r, &images[0], cfg.deadline, Duration::from_secs(10));
        }
        driven
    });
    let counts = driven.ledger;
    let elapsed_s = driven.submit_s;

    let achieved_hz = if elapsed_s > 0.0 {
        counts.completed as f64 / elapsed_s
    } else {
        0.0
    };
    // The tail-latency gate anchors on server-side evidence: the worst
    // high-tier p99 among clean replicas, each measured by its own
    // metrics window. (A restarted replica's window spans all its lives,
    // killed batch included, but a restarted replica is tainted by
    // definition and never anchors the gate.)
    let clean_high_p99 = set_report
        .per_replica
        .iter()
        .zip(&tainted)
        .filter(|(_, &t)| !t)
        .filter_map(|(m, _)| {
            m.tiers
                .iter()
                .find(|t| t.priority == Priority::High)
                .filter(|t| t.requests > 0)
                .map(|t| t.p99_us)
        })
        .max();
    ChaosPhaseReport {
        counts,
        set: set_report,
        injected_panics: backend.fired_panics(),
        injected_stalls: backend.fired_stalls(),
        tainted,
        serving_at_end,
        clean_high_p99_us: clean_high_p99,
        offered_hz: cfg.rate_hz,
        achieved_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::soak_serve_config;
    use capsnet::ExactMath;

    fn small_cfg() -> ChaosConfig {
        ChaosConfig {
            replicas: 2,
            tenants: 20,
            requests: 1_500,
            rate_hz: 30_000.0,
            seed: 0xC405_0001,
            deadline: Duration::from_millis(400),
            serve: soak_serve_config(),
            fault: chaos_fault_config(),
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_ordered() {
        let a = FaultPlan::seeded(7, 2, 1, Duration::from_millis(100), 4, 10_000);
        let b = FaultPlan::seeded(7, 2, 1, Duration::from_millis(100), 4, 10_000);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(
            a,
            FaultPlan::seeded(8, 2, 1, Duration::from_millis(100), 4, 10_000)
        );
        assert_eq!(a.panics(), 2);
        assert_eq!(a.stalls(), 1);
        for w in a.points.windows(2) {
            assert!(w[0].at_arrival < w[1].at_arrival, "strictly ascending");
        }
        for p in &a.points {
            assert!(p.at_arrival >= 1_000 && p.at_arrival < 5_500, "{p:?}");
        }
        let q = a.quarantine.expect("seeded plans quarantine");
        assert_eq!(q.at_arrival, 3_500);
        assert!(q.replica < 4);
    }

    #[test]
    fn counts_reconcile_exactly() {
        let counts = Ledger {
            submitted: 20,
            completed: 10,
            shed: [0, 0, 2],
            rejected_full: 1,
            rejected_quota: 1,
            rejected_shutdown: 2,
            failed_forward: 2,
            deadline_exceeded: 1,
            replica_timeout: 1,
            other_failed: 0,
        };
        assert!(counts.reconciles());
        let dropped = Ledger {
            completed: 9,
            ..counts
        };
        assert!(!dropped.reconciles());
    }

    #[test]
    fn chaos_backend_fires_each_point_exactly_once() {
        let backend = ChaosBackend::new(&ExactMath);
        backend.exp(0.5);
        assert_eq!(backend.fired_stalls(), 0, "nothing armed, nothing fires");
        backend.arm(FaultAction::Stall(Duration::from_micros(50)));
        backend.arm(FaultAction::Stall(Duration::from_micros(50)));
        for _ in 0..20 {
            backend.exp(0.5);
        }
        assert_eq!(backend.fired_stalls(), 2);
        backend.arm(FaultAction::Panic);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.exp(0.5)));
        assert!(caught.is_err(), "the armed panic takes the next call");
        assert_eq!(backend.fired_panics(), 1);
        backend.exp(0.5); // and only that one
        assert_eq!((backend.fired_panics(), backend.fired_stalls()), (1, 2));
    }

    /// End-to-end mini chaos: a fault-free baseline, then the same traffic
    /// under one panic, one stall and one quarantine — which still
    /// reconciles exactly, fires every scripted fault, restarts every
    /// killed replica, and serves from every replica afterwards.
    #[test]
    fn mini_chaos_phase_reconciles_and_recovers() {
        let cfg = small_cfg();
        let baseline = run_chaos_phase(&ExactMath, &cfg, &FaultPlan::none());
        assert!(
            baseline.counts.reconciles(),
            "baseline dropped tickets: {:?}",
            baseline.counts
        );
        assert_eq!(baseline.injected_panics + baseline.injected_stalls, 0);
        assert_eq!(baseline.set.restarts, 0);
        assert!(baseline.serving_at_end.iter().all(|&s| s));

        let plan = FaultPlan::seeded(
            cfg.seed,
            1,
            1,
            Duration::from_millis(80),
            cfg.replicas,
            cfg.requests,
        );
        let chaos = run_chaos_phase(&ExactMath, &cfg, &plan);
        assert!(
            chaos.counts.reconciles(),
            "chaos dropped tickets: {:?}",
            chaos.counts
        );
        assert_eq!(chaos.injected_panics, 1, "the scripted panic must fire");
        assert_eq!(chaos.injected_stalls, 1, "the scripted stall must fire");
        assert_eq!(
            chaos.set.restarts, chaos.injected_panics,
            "every panic restarts exactly one replica life"
        );
        assert!(
            chaos.serving_at_end.iter().all(|&s| s),
            "every replica must serve after the storm: {:?}",
            chaos.serving_at_end
        );
        assert!(chaos.set.quarantines >= 1, "the operator quarantine");
        assert_eq!(chaos.tainted.len(), cfg.replicas);
    }
}
