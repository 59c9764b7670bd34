//! The replica pool: N thread-isolated serving replicas sharing **one**
//! mapped artifact, behind pluggable request routing and a supervising
//! fault-tolerance layer.
//!
//! The PIM paper's premise is that the CapsNet's multi-hundred-MB weights
//! should stay *resident near memory* instead of being re-streamed per
//! consumer; the serving-tier analogue is that N replicas of a model must
//! not hold N owned copies of the weights. A [`ReplicaSet`] therefore runs
//! N **independent** replicas — each with its own [`ModelRegistry`], its
//! own scheduler (queue, admission, metrics) and workers. They share one
//! [`pim_store::MappedModel`], whose single mapping backs every replica's
//! weight tensors (one physical copy via the page cache), and, when the
//! pool is cached, one response cache: a forward any replica ran is a hit
//! on all of them. The cache is keyed by version, and the pool's
//! registries draw their versions from one counter, so a version names one
//! network on every replica.
//!
//! A replica is a supervised shell around the same scheduler a bare
//! [`crate::Server`] runs. [`ReplicaSetHandle::submit`] picks a replica and
//! enqueues straight into its scheduler on the caller's thread, through the
//! same admission / cache / queue path as [`crate::ServerHandle::submit`].
//! Each replica's **mailbox** carries control traffic only — hot swaps and
//! watchdog probes — to the replica's control thread.
//! It is the one seam a process transport would implement when a replica
//! becomes a real process.
//!
//! Traffic is routed across replicas by a [`RoutingPolicy`]:
//!
//! * [`RoutingPolicy::RoundRobin`] — uniform rotation;
//! * [`RoutingPolicy::LeastQueued`] — the replica with the fewest
//!   outstanding (submitted, unresolved) requests.
//!
//! All policies skip replicas that are out of rotation — drained by a
//! rolling rollout (see [`crate::rollout`]) or quarantined by the health
//! layer — falling back to *any* replica when the whole fleet is out (a
//! drained replica still serves correctly, it is just mid-swap).
//!
//! # Fault tolerance
//!
//! Each replica carries a health state machine,
//! [`HealthState`]: `Healthy → Degraded → Quarantined → Dead`. Ticket
//! failures and timeouts feed a consecutive-failure circuit breaker
//! ([`FaultToleranceConfig::breaker_threshold`]); tripping it quarantines
//! the replica, taking it out of routing rotation. A supervisor watchdog
//! probes quarantined replicas after a cooldown and re-admits responders
//! on probation (one strike from re-quarantine until a success heals
//! them).
//!
//! A replica whose worker panics is restarted in place. The panicking
//! batch fails typed, the dying worker wakes the replica's control thread
//! through its mailbox, and a new *life* — fresh workers and a cold
//! service-time estimate — takes over the **same** scheduler: requests
//! queued meanwhile are served by it, and the replica's metrics span every
//! life. The pool's response cache survives: an entry is a response a
//! forward returned, which a later panic cannot make wrong. The registry
//! survives too; on the artifact path its networks borrow the one shared
//! mapping, so the restart serves the *current* version (rollout
//! monotonicity holds) without copying any weights. After
//! [`FaultToleranceConfig::max_restarts`] restarts the replica is `Dead`:
//! its scheduler closes, queued requests fail typed, and later submits
//! get [`SubmitError::ShuttingDown`].
//!
//! Requests may carry an end-to-end deadline
//! ([`crate::Request::with_deadline`]); every ticket wait is bounded by
//! it, resolving [`ServeError::DeadlineExceeded`] instead of hanging.
//! Independently, [`FaultToleranceConfig::replica_timeout`] bounds each
//! *attempt* — a stalled replica yields [`ServeError::ReplicaTimeout`],
//! which feeds its breaker.

use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use capsnet::{CapsNet, MathBackend};
use pim_cache::CacheConfig;
use pim_store::MappedModel;

use crate::config::ServeConfig;
use crate::error::{ServeError, SubmitError};
use crate::histogram::LatencyHistogram;
use crate::metrics::{MetricsReport, PERCENTILES};
use crate::registry::{load, ModelHandle, ModelRegistry};
use crate::server::{
    worker_loop, Request, Response, Scheduler, ServeCache, ServedModel, Slot, Ticket,
};

/// How a [`ReplicaSet`] spreads submissions across its replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Uniform rotation over the replicas.
    #[default]
    RoundRobin,
    /// The replica with the fewest outstanding requests.
    LeastQueued,
}

/// Fault-tolerance knobs: per-attempt stall bounds, the circuit breaker,
/// the watchdog's probe cadence, and the restart budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultToleranceConfig {
    /// Per-attempt bound on how long a ticket wait may block on one
    /// replica before it is declared stalled
    /// ([`ServeError::ReplicaTimeout`]). `None` (the default) keeps the
    /// pre-fault-tolerance behavior: waits are unbounded except by a
    /// request's own deadline.
    pub replica_timeout: Option<Duration>,
    /// Consecutive failures on one replica that trip its circuit breaker
    /// (quarantining it). A success resets the count.
    pub breaker_threshold: u32,
    /// How long a quarantined replica sits out before the watchdog probes
    /// it for re-admission.
    pub probe_cooldown: Duration,
    /// The watchdog's scan interval.
    pub watchdog_interval: Duration,
    /// Panicked-replica restarts before the replica is declared
    /// [`HealthState::Dead`] for the rest of the window.
    pub max_restarts: u32,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            replica_timeout: None,
            breaker_threshold: 3,
            probe_cooldown: Duration::from_millis(50),
            watchdog_interval: Duration::from_millis(5),
            max_restarts: 4,
        }
    }
}

impl FaultToleranceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero breaker threshold,
    /// watchdog interval, or replica timeout.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.breaker_threshold == 0 {
            return Err(ServeError::InvalidConfig(
                "breaker_threshold must be >= 1".into(),
            ));
        }
        if self.watchdog_interval.is_zero() {
            return Err(ServeError::InvalidConfig(
                "watchdog_interval must be > 0".into(),
            ));
        }
        if self.replica_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ServeError::InvalidConfig(
                "replica_timeout must be > 0 when set".into(),
            ));
        }
        Ok(())
    }
}

/// Replica-pool knobs: fleet size, routing policy, fault tolerance, and
/// the per-replica scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSetConfig {
    /// Number of serving replicas.
    pub replicas: usize,
    /// Request routing policy.
    pub policy: RoutingPolicy,
    /// Scheduler knobs of **each** replica (every replica runs its own
    /// queue and workers).
    pub serve: ServeConfig,
    /// Fault-tolerance knobs (timeouts, breaker, watchdog, restarts).
    pub fault: FaultToleranceConfig,
    /// The pool's content-addressed response cache. `Some` builds one
    /// [`ServeCache`] per [`ReplicaSet::run`] window that every replica
    /// submits through and fills — [`CacheConfig::byte_budget`] is the
    /// pool's budget, not a replica's — and that survives panic restarts.
    /// `None` (the default) serves uncached.
    pub cache: Option<CacheConfig>,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            replicas: 2,
            policy: RoutingPolicy::RoundRobin,
            serve: ServeConfig::default(),
            fault: FaultToleranceConfig::default(),
            cache: None,
        }
    }
}

impl ReplicaSetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when `replicas` is zero or the
    /// per-replica scheduler / fault-tolerance config is invalid.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.replicas == 0 {
            return Err(ServeError::InvalidConfig("replicas must be >= 1".into()));
        }
        if let Some(cache) = &self.cache {
            cache
                .validate()
                .map_err(|e| ServeError::InvalidConfig(format!("cache: {e}")))?;
        }
        self.fault.validate()?;
        self.serve.validate()
    }
}

// ── replica health ──────────────────────────────────────────────────────

/// A replica's health as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// At least one recent failure, below the breaker threshold; still in
    /// routing rotation.
    Degraded,
    /// Circuit breaker tripped: out of rotation until a watchdog probe
    /// re-admits it.
    Quarantined,
    /// Serving thread gone for good (restart budget exhausted); every job
    /// fails typed.
    Dead,
}

impl HealthState {
    fn code(self) -> usize {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Quarantined => 2,
            HealthState::Dead => 3,
        }
    }

    fn from_code(code: usize) -> Self {
        match code {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::Quarantined,
            _ => HealthState::Dead,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// One replica's health ledger and load: the state machine, the counters
/// the final [`ReplicaSetReport`] surfaces, and the outstanding-request
/// count `LeastQueued` routes on. Lock-free — submitters, ticket waits,
/// the watchdog and the replica's own supervisor touch it concurrently,
/// and tickets hold it past the window.
#[derive(Debug)]
struct ReplicaHealth {
    /// The replica's index in the pool.
    replica: usize,
    /// The pool's per-attempt stall bound, which its tickets wait under.
    replica_timeout: Option<Duration>,
    /// Time zero for the quarantine timestamps below.
    epoch: Instant,
    breaker_threshold: u32,
    /// [`HealthState`] code. `SeqCst`: state transitions order against
    /// the routing reads that depend on them.
    state: AtomicUsize,
    consecutive_failures: AtomicU32,
    /// When the current quarantine was (re-)stamped, µs since `epoch`.
    quarantined_at_us: AtomicU64,
    /// Requests submitted through the pool and not yet resolved: reserved
    /// before the submission, released when its ticket drops.
    outstanding: AtomicUsize,
    restarts: AtomicU32,
    quarantines: AtomicU32,
    probes: AtomicU32,
}

impl ReplicaHealth {
    fn new(replica: usize, fault: &FaultToleranceConfig) -> Self {
        ReplicaHealth {
            replica,
            replica_timeout: fault.replica_timeout,
            epoch: Instant::now(),
            breaker_threshold: fault.breaker_threshold,
            state: AtomicUsize::new(HealthState::Healthy.code()),
            consecutive_failures: AtomicU32::new(0),
            quarantined_at_us: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            restarts: AtomicU32::new(0),
            quarantines: AtomicU32::new(0),
            probes: AtomicU32::new(0),
        }
    }

    fn state(&self) -> HealthState {
        HealthState::from_code(self.state.load(Ordering::SeqCst))
    }

    /// `true` while routing should consider this replica.
    fn is_routable(&self) -> bool {
        matches!(self.state(), HealthState::Healthy | HealthState::Degraded)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A served request succeeded: the failure streak ends and any
    /// non-dead state heals back to `Healthy` (a probationary replica
    /// earns its way back in with one success).
    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        let _ = self
            .state
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                (s != HealthState::Dead.code()).then(|| HealthState::Healthy.code())
            });
    }

    /// A served request failed or timed out: extend the streak; trip the
    /// breaker at the threshold, else degrade.
    fn record_failure(&self) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.breaker_threshold {
            self.trip_breaker();
        } else {
            let _ = self.state.compare_exchange(
                HealthState::Healthy.code(),
                HealthState::Degraded.code(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }

    fn trip_breaker(&self) {
        self.quarantined_at_us
            .store(self.now_us(), Ordering::Relaxed);
        let entered = self
            .state
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                (s != HealthState::Dead.code() && s != HealthState::Quarantined.code())
                    .then(|| HealthState::Quarantined.code())
            });
        if entered.is_ok() {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Operator-initiated quarantine: trip the breaker regardless of the
    /// current streak.
    fn force_quarantine(&self) {
        self.consecutive_failures
            .store(self.breaker_threshold, Ordering::Relaxed);
        self.trip_breaker();
    }

    /// Probe succeeded: back into rotation on probation — one failure away
    /// from re-quarantine until a success heals it.
    fn readmit(&self) {
        self.consecutive_failures
            .store(self.breaker_threshold.saturating_sub(1), Ordering::Relaxed);
        let _ = self.state.compare_exchange(
            HealthState::Quarantined.code(),
            HealthState::Degraded.code(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Probe failed: restart the cooldown clock.
    fn stamp_quarantine(&self) {
        self.quarantined_at_us
            .store(self.now_us(), Ordering::Relaxed);
    }

    fn since_quarantine_us(&self) -> u64 {
        self.now_us()
            .saturating_sub(self.quarantined_at_us.load(Ordering::Relaxed))
    }

    /// A worker panicked (the replica may yet respawn).
    fn note_dead(&self) {
        self.state.store(HealthState::Dead.code(), Ordering::SeqCst);
    }

    /// A fresh life is serving: clean slate.
    fn on_respawn(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.state
            .store(HealthState::Healthy.code(), Ordering::SeqCst);
    }
}

/// One reserved outstanding slot on a replica, released on drop — when a
/// rejected submission unwinds, or when the request's ticket is dropped.
#[derive(Debug)]
struct Reservation(Arc<ReplicaHealth>);

impl Drop for Reservation {
    fn drop(&mut self) {
        self.0.outstanding.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a pool [`Ticket`] carries back to its replica: the reservation it
/// releases on drop, the breaker its outcome feeds, and the pool's
/// deadline-miss counter.
#[derive(Debug)]
pub(crate) struct PoolLink {
    reservation: Reservation,
    deadline_misses: Arc<AtomicU64>,
}

impl PoolLink {
    pub(crate) fn replica(&self) -> usize {
        self.reservation.0.replica
    }

    pub(crate) fn replica_timeout(&self) -> Option<Duration> {
        self.reservation.0.replica_timeout
    }

    /// Feeds a resolved outcome to the replica's breaker: successes heal,
    /// failures count against it.
    pub(crate) fn settle(&self, outcome: &Result<Response, ServeError>) {
        match outcome {
            Ok(_) => self.reservation.0.record_success(),
            Err(_) => self.reservation.0.record_failure(),
        }
    }

    /// The stall bound fired first: a strike against the replica.
    pub(crate) fn stalled(&self, waited_us: u64) -> ServeError {
        self.reservation.0.record_failure();
        ServeError::ReplicaTimeout {
            replica: self.replica(),
            waited_us,
        }
    }

    /// The request's own deadline fired first: counted, never held
    /// against the replica.
    pub(crate) fn missed_deadline(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }
}

// ── supervisor ──────────────────────────────────────────────────────────

/// The replica-pool supervisor. Construct with
/// [`ReplicaSet::from_artifact`] (or [`ReplicaSet::from_net`] for
/// in-memory tests), then open a serving window with [`ReplicaSet::run`].
pub struct ReplicaSet<'a, B: MathBackend + Sync + ?Sized> {
    backend: &'a B,
    cfg: ReplicaSetConfig,
    registries: Vec<ModelRegistry>,
}

impl<'a, B: MathBackend + Sync + ?Sized> ReplicaSet<'a, B> {
    /// Builds a pool whose replicas all serve the model in `artifact`.
    ///
    /// The artifact is **not** re-opened per replica: every registry's
    /// network is built from the one [`MappedModel`], so all replicas'
    /// weight tensors are windows into a single mapping — the pool holds
    /// one physical copy of the eligible weights no matter how many
    /// replicas serve them. This is also what makes replica *restart*
    /// cheap: a respawned life re-opens nothing, it serves the same
    /// registry (and therefore the same mapping) at its current version.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for bad knobs, [`ServeError::Load`]
    /// when the artifact does not rebuild into a network.
    pub fn from_shared(
        name: impl Into<String>,
        artifact: &MappedModel,
        backend: &'a B,
        cfg: ReplicaSetConfig,
    ) -> Result<Self, ServeError> {
        Self::build(name, backend, cfg, || {
            load(artifact.path(), || artifact.capsnet())
        })
    }

    /// [`ReplicaSet::from_shared`] from a path: opens (and fully verifies)
    /// the artifact **once**, then shares the mapping across all replicas.
    ///
    /// # Errors
    ///
    /// See [`ReplicaSet::from_shared`]; additionally any store error from
    /// opening the artifact.
    pub fn from_artifact(
        name: impl Into<String>,
        path: &Path,
        backend: &'a B,
        cfg: ReplicaSetConfig,
    ) -> Result<Self, ServeError> {
        let artifact = load(path, || MappedModel::open(path))?;
        Self::from_shared(name, &artifact, backend, cfg)
    }

    /// Builds a pool from an in-memory network (cloned per replica — cheap
    /// when the network's weights are shared-storage views, a deep copy
    /// otherwise). Mostly for tests; production pools should map an
    /// artifact.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for bad knobs.
    pub fn from_net(
        name: impl Into<String>,
        net: &CapsNet,
        backend: &'a B,
        cfg: ReplicaSetConfig,
    ) -> Result<Self, ServeError> {
        Self::build(name, backend, cfg, || Ok(net.clone()))
    }

    /// One registry per replica, each serving a network from `net`, all
    /// drawing versions from one counter.
    fn build(
        name: impl Into<String>,
        backend: &'a B,
        cfg: ReplicaSetConfig,
        mut net: impl FnMut() -> Result<CapsNet, ServeError>,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let name = name.into();
        let versions = Arc::new(AtomicU64::new(1));
        let registries = (0..cfg.replicas)
            .map(|_| {
                let mut registry = ModelRegistry::new();
                registry.register_on(ServedModel::new(name.clone(), net()?), &versions);
                Ok(registry)
            })
            .collect::<Result<_, ServeError>>()?;
        Ok(ReplicaSet {
            backend,
            cfg,
            registries,
        })
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.cfg.replicas
    }

    /// The pool configuration.
    pub fn config(&self) -> &ReplicaSetConfig {
        &self.cfg
    }

    /// A replica's registry (read-only observability; swaps inside a
    /// window must go through [`ReplicaSetHandle`] so the replica's
    /// forming reservation is drained first).
    pub fn registry(&self, replica: usize) -> Option<&ModelRegistry> {
        self.registries.get(replica)
    }

    /// Opens a serving window: creates each replica's scheduler and the
    /// pool's response cache, spawns one supervisor thread per replica
    /// (running the replica's lives and serving its mailbox) plus the
    /// health watchdog, hands `f` a [`ReplicaSetHandle`] that routes
    /// submissions across the fleet, and on return shuts every replica
    /// down (queues drained, zero tickets dropped). Returns `f`'s result
    /// plus the pool's [`ReplicaSetReport`].
    pub fn run<R>(&self, f: impl FnOnce(&ReplicaSetHandle<'_>) -> R) -> (R, ReplicaSetReport) {
        let fault = self.cfg.fault;
        let models = self.registries[0].len();
        let pool = PoolShared {
            replicas: self
                .registries
                .iter()
                .enumerate()
                .map(|(i, registry)| Replica::new(i, registry, &self.cfg))
                .collect(),
            cache: self.cfg.cache.map(|cfg| ServeCache::new(cfg, models)),
            deadline_misses: Arc::new(AtomicU64::new(0)),
            rr: AtomicUsize::new(0),
        };
        let pool = &pool;
        // Dropping `stop` (the window closing) wakes the watchdog at once.
        let (stop, stopped) = mpsc::channel::<()>();
        let result = std::thread::scope(|scope| {
            for replica in &pool.replicas {
                let cache = pool.cache.as_ref();
                scope.spawn(move || replica_main(replica, self.backend, cache, &self.cfg));
            }
            scope.spawn(move || watchdog_loop(pool, &stopped, &fault));
            // Stop the watchdog and close the mailboxes on *every* exit
            // from `f` — including an unwind. Without this, a panic inside
            // the closure would leave the replica threads blocked in their
            // mailboxes and the scope would deadlock joining them instead
            // of propagating the panic.
            struct CloseOnDrop<'m, 'a> {
                pool: &'m PoolShared<'a>,
                _stop: mpsc::Sender<()>,
            }
            impl Drop for CloseOnDrop<'_, '_> {
                fn drop(&mut self) {
                    for replica in &self.pool.replicas {
                        replica.mailbox.close();
                    }
                }
            }
            let _closer = CloseOnDrop { pool, _stop: stop };
            f(&ReplicaSetHandle {
                pool,
                policy: self.cfg.policy,
            })
        });
        (result, ReplicaSetReport::collect(pool))
    }
}

/// One replica as its supervisor, its control thread and the pool handle
/// see it.
struct Replica<'a> {
    /// Created once per window, so queued requests and metrics outlive a
    /// life.
    sched: Scheduler<'a>,
    mailbox: Mailbox,
    health: Arc<ReplicaHealth>,
    /// Out of routing rotation (mid-rollout or decommissioned).
    draining: AtomicBool,
}

impl<'a> Replica<'a> {
    fn new(index: usize, registry: &'a ModelRegistry, cfg: &ReplicaSetConfig) -> Self {
        Replica {
            sched: Scheduler::new(registry, cfg.serve),
            mailbox: Mailbox::new(),
            health: Arc::new(ReplicaHealth::new(index, &cfg.fault)),
            draining: AtomicBool::new(false),
        }
    }
}

/// One replica's supervisor and control thread: runs lives until the
/// window closes or the restart budget is spent. A life is the configured
/// workers over the replica's scheduler, filling the pool's `cache`; this
/// thread serves the mailbox meanwhile. A worker's panic fails its
/// batch typed, retires the life's other workers and wakes this thread
/// through the mailbox; the scope then re-raises the panic, which the
/// `catch_unwind` below turns into a restart. Whatever is still queued —
/// requests in the scheduler, jobs in the mailbox — waits for the next
/// life.
fn replica_main<B: MathBackend + Sync + ?Sized>(
    replica: &Replica<'_>,
    backend: &B,
    cache: Option<&ServeCache>,
    cfg: &ReplicaSetConfig,
) {
    let on_death = || {
        replica.sched.retire();
        replica.mailbox.wound();
    };
    let mut lives: u32 = 0;
    loop {
        lives += 1;
        let life = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for _ in 0..cfg.serve.workers {
                    scope.spawn(|| worker_loop(&replica.sched, backend, cache, &on_death));
                }
                if serve_mailbox(replica) {
                    replica.sched.close();
                }
            });
        }));
        if life.is_ok() {
            return;
        }
        replica.health.note_dead();
        if lives > cfg.fault.max_restarts {
            // Restart budget spent: permanent death. Everything still
            // queued fails typed; later submits are rejected.
            replica.sched.close_and_fail();
            replica.mailbox.close_and_fail();
            return;
        }
        // The next life starts as a restarted process would: a healed
        // mailbox and a cold service-time estimate.
        replica.sched.begin_life();
        replica.mailbox.heal();
        replica.health.on_respawn();
    }
}

/// Serves control jobs until the mailbox closes (`true`: shut the life
/// down) or a worker of the life dies (`false`).
fn serve_mailbox(replica: &Replica<'_>) -> bool {
    loop {
        match replica.mailbox.pop() {
            Mail::Job(job) => job.run(&replica.sched),
            Mail::Closed => return true,
            Mail::Wounded => return false,
        }
    }
}

/// The supervisor watchdog: every `watchdog_interval` it probes
/// quarantined replicas past their cooldown and re-admits the ones that
/// answer. Probes go through the ordinary mailbox, so a responding probe
/// proves the replica's control thread (not just the health flag) is
/// live. Returns as soon as the window closes (`stop` disconnects).
fn watchdog_loop(pool: &PoolShared<'_>, stop: &mpsc::Receiver<()>, fault: &FaultToleranceConfig) {
    let cooldown_us = fault.probe_cooldown.as_micros() as u64;
    let probe_bound = fault.replica_timeout.unwrap_or(fault.probe_cooldown);
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(fault.watchdog_interval) {
        for replica in &pool.replicas {
            let health = &replica.health;
            if health.state() != HealthState::Quarantined
                || health.since_quarantine_us() < cooldown_us
            {
                continue;
            }
            health.probes.fetch_add(1, Ordering::Relaxed);
            let reply = Slot::new(None);
            if !replica.mailbox.push(Job::Probe {
                reply: Arc::clone(&reply),
            }) {
                continue;
            }
            match reply.take_until(Instant::now() + probe_bound) {
                Some(Ok(_)) => health.readmit(),
                // No answer (stalled / mid-restart) or a typed failure:
                // stay quarantined, restart the cooldown clock.
                _ => health.stamp_quarantine(),
            }
        }
    }
}

// ── supervisor ⇄ replica transport ──────────────────────────────────────

/// The reply to a control job that answers with a model version.
type VersionReply = Arc<Slot<Result<u64, ServeError>>>;

/// A control message to one replica's control thread.
enum Job {
    /// Drained hot swap of the replica's model slot 0, under version `at`
    /// when the registry takes it ([`ModelRegistry::install`]).
    Swap {
        net: Box<CapsNet>,
        at: Option<u64>,
        reply: VersionReply,
    },
    /// Watchdog liveness probe; answered with the replica's current model
    /// version.
    Probe { reply: VersionReply },
}

impl Job {
    /// Runs the job against the replica's scheduler.
    fn run(self, sched: &Scheduler<'_>) {
        match self {
            Job::Swap { net, at, reply } => reply.put(
                sched
                    .swap_model(0, *net, at)
                    .map_err(|e| ServeError::Load(e.to_string())),
            ),
            Job::Probe { reply } => {
                reply.put(Ok(sched.models.current(0).map_or(0, |m| m.version())));
            }
        }
    }

    /// Resolves the job's reply typed: no replica life will ever run it.
    fn fail(self) {
        let (Job::Swap { reply, .. } | Job::Probe { reply }) = self;
        reply.put(Err(ServeError::Load("replica serving thread died".into())));
    }
}

/// What [`Mailbox::pop`] hands the control thread.
enum Mail {
    /// The next job.
    Job(Job),
    /// Closed and drained: the life shuts down.
    Closed,
    /// A worker of the current life died: the life ends.
    Wounded,
}

/// A replica's mailbox state (plain data, valid at every point).
#[derive(Default)]
struct MailState {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Raised by a dying worker, cleared when the next life starts.
    wounded: bool,
}

/// A replica's mailbox: FIFO control jobs plus the closed flag, and the
/// wounded flag through which a dying worker wakes the control thread.
/// Poison-tolerant.
struct Mailbox {
    queue: Mutex<MailState>,
    ready: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queue: Mutex::new(MailState::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MailState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a job; `false` when the mailbox is closed — in which case
    /// the job's reply is failed **typed** before returning (a push during
    /// shutdown is rejected, never silently dropped).
    fn push(&self, job: Job) -> bool {
        let mut guard = self.lock();
        if guard.closed {
            drop(guard);
            job.fail();
            return false;
        }
        guard.jobs.push_back(job);
        drop(guard);
        self.ready.notify_all();
        true
    }

    /// Closes the mailbox for new pushes. Jobs already queued stay for the
    /// replica to drain and answer (the normal-shutdown path).
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Closes the mailbox **and** fails every queued job typed — the
    /// permanent-death path, where no replica life will ever drain them.
    fn close_and_fail(&self) {
        let drained: VecDeque<Job> = {
            let mut guard = self.lock();
            guard.closed = true;
            std::mem::take(&mut guard.jobs)
        };
        self.ready.notify_all();
        for job in drained {
            job.fail();
        }
    }

    /// A worker is dying: wake the control thread to end the life.
    fn wound(&self) {
        self.lock().wounded = true;
        self.ready.notify_all();
    }

    /// A new life starts serving.
    fn heal(&self) {
        self.lock().wounded = false;
    }

    /// Blocks for the control thread's next event. A wound comes first —
    /// the life ends before anything else runs on it, and queued jobs wait
    /// for the next life — then jobs in order, then `Closed` once closed
    /// and drained.
    fn pop(&self) -> Mail {
        let mut guard = self.lock();
        loop {
            if guard.wounded {
                return Mail::Wounded;
            }
            if let Some(job) = guard.jobs.pop_front() {
                return Mail::Job(job);
            }
            if guard.closed {
                return Mail::Closed;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// State shared between the pool handle and the replica threads.
struct PoolShared<'a> {
    replicas: Vec<Replica<'a>>,
    /// The pool's one response cache, built per window.
    cache: Option<ServeCache>,
    /// Requests whose end-to-end deadline elapsed (shared with tickets,
    /// which may outlive the handle's borrow).
    deadline_misses: Arc<AtomicU64>,
    rr: AtomicUsize,
}

// ── the pool handle ─────────────────────────────────────────────────────

/// Submission/supervision handle passed to the [`ReplicaSet::run`]
/// closure. `Sync`: the closure may fan submissions out over its own
/// scoped threads.
pub struct ReplicaSetHandle<'p> {
    pool: &'p PoolShared<'p>,
    policy: RoutingPolicy,
}

/// A pool's ticket: the one [`Ticket`] type, carrying its replica.
pub type ReplicaTicket = Ticket;

impl ReplicaSetHandle<'_> {
    /// Number of replicas in the pool.
    pub fn replicas(&self) -> usize {
        self.pool.replicas.len()
    }

    /// Outstanding requests on one replica: submitted (or mid-submission —
    /// routing reserves the slot before admission) and unresolved.
    pub fn outstanding(&self, replica: usize) -> usize {
        self.pool.replicas[replica]
            .health
            .outstanding
            .load(Ordering::Relaxed)
    }

    /// How many times `replica` has been restarted after a worker panic.
    pub fn restarts(&self, replica: usize) -> u32 {
        self.pool.replicas[replica]
            .health
            .restarts
            .load(Ordering::Relaxed)
    }

    /// The window's [`ReplicaSetReport`] so far, while every replica keeps
    /// serving: per-replica reports plus window-wide percentiles merged
    /// from their histograms. Each replica's metrics lock is taken in
    /// turn, and nothing else; counts only grow between snapshots.
    pub fn snapshot(&self) -> ReplicaSetReport {
        ReplicaSetReport::collect(self.pool)
    }

    /// The current model version a replica serves.
    pub fn version(&self, replica: usize) -> u64 {
        self.serving(replica).version()
    }

    /// Routes a request to a replica per the pool's [`RoutingPolicy`] and
    /// admits it there, on the caller's thread.
    ///
    /// # Errors
    ///
    /// The chosen replica's typed [`SubmitError`] — backpressure is per
    /// replica, so `QueueFull` names the queue that pushed back.
    pub fn submit(&self, request: Request) -> Result<ReplicaTicket, SubmitError> {
        let reservation = self.pick_and_reserve();
        self.submit_reserved(request, reservation, self.pool.cache.as_ref())
    }

    /// Submits to a specific replica, bypassing the routing policy (used
    /// by rollout canaries to target a drained replica).
    ///
    /// # Errors
    ///
    /// The replica's typed [`SubmitError`].
    pub fn submit_to(
        &self,
        replica: usize,
        request: Request,
    ) -> Result<ReplicaTicket, SubmitError> {
        self.submit_reserved(request, self.reserve(replica), self.pool.cache.as_ref())
    }

    /// [`Self::submit_to`] past the response cache, neither probing nor
    /// filling it: a rollout canary must run a forward on its replica.
    pub(crate) fn submit_uncached(
        &self,
        replica: usize,
        request: Request,
    ) -> Result<ReplicaTicket, SubmitError> {
        self.submit_reserved(request, self.reserve(replica), None)
    }

    /// Reserves one outstanding slot on `replica` **before** admission.
    /// Reservation-first is what makes `LeastQueued` routing sound under
    /// concurrency: a submitter's pick is visible to every other submitter
    /// immediately — otherwise a burst of concurrent submitters all read
    /// the same stale counts and herd onto one replica. The reservation
    /// releases the slot on drop, so a rejected submission never leaks it.
    fn reserve(&self, replica: usize) -> Reservation {
        let health = &self.pool.replicas[replica].health;
        health.outstanding.fetch_add(1, Ordering::Relaxed);
        Reservation(Arc::clone(health))
    }

    /// The submit path proper: admission into the reserved replica's
    /// scheduler, in front of `cache`. Blocks on nothing but that
    /// scheduler's lock; any early return drops the reservation.
    fn submit_reserved(
        &self,
        request: Request,
        reservation: Reservation,
        cache: Option<&ServeCache>,
    ) -> Result<Ticket, SubmitError> {
        let replica = &self.pool.replicas[reservation.0.replica];
        let ticket = replica.sched.submit(request, cache)?;
        Ok(ticket.pooled(PoolLink {
            reservation,
            deadline_misses: Arc::clone(&self.pool.deadline_misses),
        }))
    }

    /// Picks a replica per the pool's [`RoutingPolicy`] and reserves its
    /// outstanding slot. Out-of-rotation replicas are skipped; if the
    /// whole fleet is out the policy's first pick stands (a draining
    /// replica still serves correctly — it is only *preferably* avoided —
    /// and a dead one rejects typed).
    ///
    /// For [`RoutingPolicy::LeastQueued`] the pick and the reservation
    /// must be one atomic step: read all counts, then `compare_exchange`
    /// the argmin from the exact count observed. A failed CAS means some
    /// concurrent submitter landed on that replica first — re-read and
    /// re-pick. The committed invariant is that the chosen replica's count
    /// was `<=` every other's at commit time, so concurrent bursts spread
    /// instead of herding.
    fn pick_and_reserve(&self) -> Reservation {
        let n = self.replicas();
        let in_rotation = |i: &usize| self.in_rotation(*i);
        let replica = match self.policy {
            RoutingPolicy::RoundRobin => {
                let next = || self.pool.rr.fetch_add(1, Ordering::Relaxed) % n;
                (0..n)
                    .map(|_| next())
                    .find(in_rotation)
                    .unwrap_or_else(next)
            }
            RoutingPolicy::LeastQueued => loop {
                let load = |i: usize| {
                    let health = &self.pool.replicas[i].health;
                    (health.outstanding.load(Ordering::Relaxed), i)
                };
                let (count, replica) = (0..n)
                    .filter(in_rotation)
                    .map(load)
                    .min()
                    .unwrap_or_else(|| (0..n).map(load).min().expect("replicas >= 1")); // LINT-ALLOW(R2): pool construction rejects zero replicas
                let health = &self.pool.replicas[replica].health;
                if health
                    .outstanding
                    .compare_exchange(count, count + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return Reservation(Arc::clone(health));
                }
            },
        };
        self.reserve(replica)
    }

    /// Trips `replica`'s circuit breaker: out of routing rotation until a
    /// watchdog probe re-admits it (soft quarantine — the replica keeps
    /// serving what it already admitted, and direct [`Self::submit_to`]
    /// still reaches it). For the irreversible variant see
    /// [`Self::decommission`].
    pub fn quarantine(&self, replica: usize) {
        self.pool.replicas[replica].health.force_quarantine();
    }

    /// Permanently decommissions a replica mid-window: takes it out of
    /// routing rotation **and** closes its scheduler and mailbox, so every
    /// later submit and swap is rejected as shutting down. The replica
    /// drains its admitted queue and exits normally; its metrics still
    /// appear in the final report. There is no way back within the
    /// window.
    // LINT-ALLOW(R6): the fault-injection hook `rollout_faults::failed_reverts_are_recorded_not_silently_dropped` needs.
    pub fn decommission(&self, replica: usize) {
        self.set_draining(replica, true);
        let replica = &self.pool.replicas[replica];
        replica.sched.close();
        replica.mailbox.close();
    }

    /// Atomically hot-swaps one replica to `net`: the replica's control
    /// thread drains the forming reservation first, then swaps. Returns the
    /// replica's new version: the pool's next number, so no other network
    /// in the pool carries it. An artifact's network is
    /// [`MappedModel::capsnet`], a window into its mapping.
    ///
    /// Prefer [`crate::rollout`]'s rolling rollout for fleet-wide version
    /// changes — it sequences drains and canaries; this is the single-
    /// replica primitive underneath it (the rollback path restores a
    /// replica's previous network this way).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the replica is shut down.
    pub fn swap_replica_net(&self, replica: usize, net: CapsNet) -> Result<u64, ServeError> {
        self.install(replica, net, None)
    }

    /// [`Self::swap_replica_net`] under version `at` when the replica's
    /// registry takes it ([`ModelRegistry::install`]): how a rollout puts
    /// one network on every replica under one number.
    pub(crate) fn install(
        &self,
        replica: usize,
        net: CapsNet,
        at: Option<u64>,
    ) -> Result<u64, ServeError> {
        let reply = Slot::new(None);
        let job = Job::Swap {
            net: Box::new(net),
            at,
            reply: Arc::clone(&reply),
        };
        if !self.pool.replicas[replica].mailbox.push(job) {
            return Err(ServeError::InvalidConfig("pool is shutting down".into()));
        }
        let version = reply.take()?;
        // Replicas serve different versions mid-rollout: only those below
        // the oldest one still served anywhere in the pool are orphans.
        if let Some(cache) = &self.pool.cache {
            let oldest = (0..self.replicas()).map(|r| self.version(r)).min();
            cache.retire_below(0, oldest.unwrap_or(version));
        }
        Ok(version)
    }

    /// The model handle replica `replica` currently serves.
    fn serving(&self, replica: usize) -> Arc<ModelHandle> {
        self.pool.replicas[replica]
            .sched
            .models
            .current(0)
            // LINT-ALLOW(R2): slot 0 is created for every replica at pool construction
            .expect("every replica registry holds slot 0")
    }

    /// A clone of the network replica `replica` currently serves (cheap —
    /// reference-count bumps — when the weights are shared-storage views).
    pub(crate) fn current_net(&self, replica: usize) -> CapsNet {
        self.serving(replica).net().clone()
    }

    /// Takes a replica out of (or returns it to) routing rotation.
    pub(crate) fn set_draining(&self, replica: usize, draining: bool) {
        self.pool.replicas[replica]
            .draining
            .store(draining, Ordering::Relaxed);
    }

    /// Routing eligibility: not draining (rollout) and routable
    /// (health — quarantined/dead replicas are skipped).
    fn in_rotation(&self, replica: usize) -> bool {
        let replica = &self.pool.replicas[replica];
        !replica.draining.load(Ordering::Relaxed) && replica.health.is_routable()
    }
}

// ── aggregated metrics ──────────────────────────────────────────────────

/// Cross-replica metrics for one [`ReplicaSet::run`] window: the
/// per-replica [`MetricsReport`]s plus fleet-wide sums and the
/// fault-tolerance ledger.
#[derive(Debug, Clone)]
pub struct ReplicaSetReport {
    /// Each replica's serve-window report, in replica order. A replica's
    /// scheduler — and so its metrics recorder — spans the whole window:
    /// a restarted replica reports the work of every life, a permanently
    /// dead one what it served before dying.
    pub per_replica: Vec<MetricsReport>,
    /// Completed requests across the fleet.
    pub requests: u64,
    /// Completed samples across the fleet.
    pub samples: u64,
    /// Dispatched batches across the fleet.
    pub batches: u64,
    /// Response-cache fast-path completions across the fleet (disjoint
    /// from `requests` — a hit never dispatched).
    pub cache_hits: u64,
    /// Failed requests across the fleet.
    pub failed_requests: u64,
    /// Failed batches across the fleet.
    pub failed_batches: u64,
    /// `QueueFull` rejects across the fleet.
    pub rejected_full: u64,
    /// Tenant-quota rejects across the fleet.
    pub rejected_quota: u64,
    /// SLO sheds across the fleet (all tiers).
    pub shed: u64,
    /// Hot swaps across the fleet (every rollout step counts one per
    /// touched replica).
    pub swaps: u64,
    /// Panic restarts per replica, in replica order.
    pub restarts_per_replica: Vec<u32>,
    /// Each replica's final [`HealthState`], in replica order.
    pub health: Vec<HealthState>,
    /// Total panic restarts across the fleet.
    pub restarts: u64,
    /// Circuit-breaker trips (quarantine entries) across the fleet.
    pub quarantines: u64,
    /// Watchdog re-admission probes sent.
    pub probes: u64,
    /// Always 0: the pool does not resubmit a failed request to another
    /// replica. Kept because the benchmark's pinned API surface reads it
    /// (`replica.failovers`).
    pub failovers: u64,
    /// Requests whose end-to-end deadline elapsed before a response.
    pub deadline_misses: u64,
    /// Window-wide median latency of completed requests, µs, from the
    /// replicas' merged histograms (not an average of their medians);
    /// bucketed as [`MetricsReport::p50_us`].
    pub p50_us: u64,
    /// Window-wide 95th-percentile latency, µs (as [`Self::p50_us`]).
    pub p95_us: u64,
    /// Window-wide 99th-percentile latency, µs (as [`Self::p50_us`]).
    pub p99_us: u64,
}

impl ReplicaSetReport {
    fn collect(pool: &PoolShared<'_>) -> Self {
        let mut window = LatencyHistogram::new();
        let per_replica: Vec<MetricsReport> = pool
            .replicas
            .iter()
            .map(|r| r.sched.report_into(&mut window))
            .collect();
        let [p50_us, p95_us, p99_us] = window.quantiles(PERCENTILES);
        let sum = |f: fn(&MetricsReport) -> u64| per_replica.iter().map(f).sum();
        let healths = || pool.replicas.iter().map(|r| &*r.health);
        let count = |f: fn(&ReplicaHealth) -> &AtomicU32| {
            healths()
                .map(|h| u64::from(f(h).load(Ordering::Relaxed)))
                .sum()
        };
        ReplicaSetReport {
            requests: sum(|r| r.requests),
            cache_hits: sum(|r| r.cache_hits),
            samples: sum(|r| r.samples),
            batches: sum(|r| r.batches),
            failed_requests: sum(|r| r.failed_requests),
            failed_batches: sum(|r| r.failed_batches),
            rejected_full: sum(|r| r.rejected_full),
            rejected_quota: sum(|r| r.rejected_quota),
            shed: sum(|r| r.shed_total()),
            swaps: sum(|r| r.swaps),
            per_replica,
            restarts_per_replica: healths()
                .map(|h| h.restarts.load(Ordering::Relaxed))
                .collect(),
            health: healths().map(|h| h.state()).collect(),
            restarts: count(|h| &h.restarts),
            quarantines: count(|h| &h.quarantines),
            probes: count(|h| &h.probes),
            failovers: 0,
            deadline_misses: pool.deadline_misses.load(Ordering::Relaxed),
            p50_us,
            p95_us,
            p99_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_job() -> (Job, VersionReply) {
        let reply = Slot::new(None);
        let job = Job::Probe {
            reply: Arc::clone(&reply),
        };
        (job, reply)
    }

    #[test]
    fn a_swap_orphans_only_versions_no_replica_serves() {
        use crate::server::CachedResponse;
        use capsnet::{CapsNetSpec, ExactMath};

        let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 1).unwrap();
        let entry = CachedResponse {
            predictions: vec![0],
            class_norms_sq: vec![0.0; 3],
        };
        let cfg = ReplicaSetConfig {
            replicas: 2,
            // Ten entries fit, so every later fill evicts one.
            cache: Some(CacheConfig {
                byte_budget: 10 * pim_cache::CacheValue::cost_bytes(&entry),
                shards: 1,
            }),
            ..ReplicaSetConfig::default()
        };
        let set = ReplicaSet::from_net("m", &net, &ExactMath, cfg).unwrap();
        set.run(|h| {
            let cache = h.pool.cache.as_ref().unwrap();
            let fill = |version: u64, digests: std::ops::Range<u64>| {
                for d in digests {
                    assert!(cache.insert(0, version, d, entry.clone()));
                }
            };
            fill(1, 0..10);
            // Mid-rollout: replica 0 serves (and looks up) the new version,
            // replica 1 still serves v1, whose fills evict by CLOCK, not as
            // orphans.
            let new = h.swap_replica_net(0, net.clone()).unwrap();
            assert!(cache.get(0, new, 0).is_none());
            fill(1, 10..20);
            assert_eq!(cache.report().orphan_evictions, 0);
            // Once no replica serves v1, its entries are orphans.
            h.swap_replica_net(1, net.clone()).unwrap();
            fill(new, 0..5);
            assert!(cache.report().orphan_evictions > 0);
        });
    }

    #[test]
    fn push_after_close_fails_typed_instead_of_dropping() {
        let mailbox = Mailbox::new();
        mailbox.close();
        let (job, reply) = probe_job();
        assert!(!mailbox.push(job));
        // The reply resolved typed — a bounded take returns it at once.
        let verdict = reply
            .take_until(Instant::now())
            .expect("push-after-close must resolve the reply");
        assert!(matches!(verdict, Err(ServeError::Load(_))));
    }

    #[test]
    fn close_and_fail_resolves_every_queued_job() {
        let mailbox = Mailbox::new();
        let replies: Vec<_> = (0..3)
            .map(|_| {
                let (job, reply) = probe_job();
                assert!(mailbox.push(job));
                reply
            })
            .collect();
        mailbox.close_and_fail();
        for reply in replies {
            let verdict = reply
                .take_until(Instant::now())
                .expect("close_and_fail must resolve every queued reply");
            assert!(matches!(verdict, Err(ServeError::Load(_))));
        }
        // And the mailbox is closed for business.
        let (job, _reply) = probe_job();
        assert!(!mailbox.push(job));
    }

    #[test]
    fn pop_reports_a_wound_before_jobs_then_closes() {
        let mailbox = Mailbox::new();
        let (job, _reply) = probe_job();
        assert!(mailbox.push(job));
        // A dying worker ends the life before the queued job runs on it…
        mailbox.wound();
        assert!(matches!(mailbox.pop(), Mail::Wounded));
        assert!(matches!(mailbox.pop(), Mail::Wounded), "until healed");
        // …and the next life gets the job, then the close.
        mailbox.heal();
        assert!(matches!(mailbox.pop(), Mail::Job(_)));
        mailbox.close();
        assert!(matches!(mailbox.pop(), Mail::Closed));
    }

    #[test]
    fn poisoned_reply_slot_still_resolves_typed() {
        let (job, reply) = probe_job();
        // Poison the slot's mutex: a holder panics mid-critical-section.
        let hostage = Arc::clone(&reply);
        std::thread::spawn(move || {
            let _guard = hostage.value.lock().unwrap();
            panic!("poison the reply slot");
        })
        .join()
        .unwrap_err();
        assert!(reply.value.is_poisoned());
        // The failure path still resolves the reply, and the waiter still
        // reads it — typed error, no cascade.
        job.fail();
        assert!(matches!(reply.take(), Err(ServeError::Load(_))));
    }

    #[test]
    fn poisoned_mailbox_still_pushes_and_pops() {
        let mailbox = Mailbox::new();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = mailbox.queue.lock().unwrap();
                    panic!("poison the mailbox");
                })
                .join()
                .unwrap_err();
        });
        assert!(mailbox.queue.is_poisoned());
        let (job, _reply) = probe_job();
        assert!(mailbox.push(job));
        assert!(matches!(mailbox.pop(), Mail::Job(_)));
    }

    #[test]
    fn health_state_machine_trips_probates_and_heals() {
        let fault = FaultToleranceConfig {
            breaker_threshold: 3,
            ..FaultToleranceConfig::default()
        };
        let health = ReplicaHealth::new(0, &fault);
        assert_eq!(health.state(), HealthState::Healthy);
        assert!(health.is_routable());

        health.record_failure();
        assert_eq!(health.state(), HealthState::Degraded);
        assert!(health.is_routable());
        health.record_failure();
        health.record_failure();
        assert_eq!(health.state(), HealthState::Quarantined);
        assert!(!health.is_routable());
        assert_eq!(health.quarantines.load(Ordering::Relaxed), 1);

        // Probation: one failure re-trips, one success heals.
        health.readmit();
        assert_eq!(health.state(), HealthState::Degraded);
        health.record_failure();
        assert_eq!(health.state(), HealthState::Quarantined);
        assert_eq!(health.quarantines.load(Ordering::Relaxed), 2);
        health.readmit();
        health.record_success();
        assert_eq!(health.state(), HealthState::Healthy);

        // Death wins over success; only a respawn resurrects.
        health.note_dead();
        health.record_success();
        assert_eq!(health.state(), HealthState::Dead);
        assert!(!health.is_routable());
        health.on_respawn();
        assert_eq!(health.state(), HealthState::Healthy);
        assert_eq!(health.restarts.load(Ordering::Relaxed), 1);
    }
}
