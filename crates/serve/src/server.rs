//! The batched inference server: bounded queue with SLO-aware admission,
//! priority-tiered latency-aware coalescing, scoped worker threads,
//! ticket-based responses. Its [`Scheduler`] is also what every replica of
//! a [`crate::ReplicaSet`] runs: one request lifecycle for both.

use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use capsnet::{CapsNet, ForwardArena, MathBackend};
use pim_cache::{hash, CacheValue, ResponseCache};
use pim_tensor::Tensor;

use crate::admission::{self, AdmissionVerdict, Priority, TIERS};
use crate::config::ServeConfig;
use crate::error::{ServeError, SubmitError};
use crate::histogram::LatencyHistogram;
use crate::metrics::{MetricsRecorder, MetricsReport};
use crate::registry::{ModelHandle, ModelRegistry};
use crate::replica::PoolLink;

/// A registered model: a name plus the network that serves it. Only
/// requests naming the same model coalesce into a batch.
#[derive(Debug, Clone)]
pub struct ServedModel {
    name: String,
    net: CapsNet,
}

impl ServedModel {
    /// Registers `net` under `name`.
    ///
    /// Models served here should route **per sample**
    /// (`batch_shared_routing = false`): batch-shared coefficients couple
    /// samples, so coalescing would change results. The server still
    /// accepts batch-shared models but refuses to coalesce across requests
    /// for them (each dispatch holds exactly one request).
    pub fn new(name: impl Into<String>, net: CapsNet) -> Self {
        ServedModel {
            name: name.into(),
            net,
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The served network.
    pub fn net(&self) -> &CapsNet {
        &self.net
    }

    /// Decomposes into `(name, net)` (registry registration).
    pub(crate) fn into_parts(self) -> (String, CapsNet) {
        (self.name, self.net)
    }
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant tag (per-`(tenant, model, priority)` FIFO dispatch order is
    /// preserved; also the unit of the admission layer's fairness quota).
    pub tenant: usize,
    /// Index into the server's registered models.
    pub model: usize,
    /// Input images, `[n, C, H, W]` with `n >= 1` samples matching the
    /// model's geometry.
    pub images: Tensor,
    /// Priority tier: higher tiers dispatch first and are shed last under
    /// overload (see [`crate::admission`]).
    pub priority: Priority,
    /// End-to-end deadline, if any: waits on this request's ticket are
    /// bounded by it, resolving with [`ServeError::DeadlineExceeded`]
    /// instead of blocking past the caller's budget. The batch itself is
    /// not cancelled — the deadline bounds the *caller's wait*, not the
    /// replica's work.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A [`Priority::Normal`] request.
    pub fn new(tenant: usize, model: usize, images: Tensor) -> Self {
        Request {
            tenant,
            model,
            images,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Builder: sets the priority tier.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder: gives the request an end-to-end deadline of `budget` from
    /// now. Waits on its ticket resolve with
    /// [`ServeError::DeadlineExceeded`] once the deadline elapses.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }
}

/// The payload the response cache stores per `(model, version, digest)`
/// key: exactly the content-addressed part of a [`Response`]. Batch
/// placement and timing fields are per-completion metadata, not content,
/// so they are reconstructed at hit time.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResponse {
    /// Predicted class per sample.
    pub predictions: Vec<usize>,
    /// Squared class-capsule norms, `[n, H]` row-major — bit-exact as the
    /// forward produced them.
    pub class_norms_sq: Vec<f32>,
}

impl CacheValue for CachedResponse {
    fn cost_bytes(&self) -> usize {
        self.predictions.len() * std::mem::size_of::<usize>()
            + self.class_norms_sq.len() * std::mem::size_of::<f32>()
            + std::mem::size_of::<Self>()
    }
}

/// The response cache type the serve tier plugs in front of admission.
pub type ServeCache = ResponseCache<CachedResponse>;

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Predicted class per sample of the request.
    pub predictions: Vec<usize>,
    /// Version of the model that served this request's batch (bumped by
    /// every [`ServerHandle::swap_model`]; 1 before any swap).
    pub model_version: u64,
    /// Squared class-capsule norms, `[n, H]` row-major.
    pub class_norms_sq: Vec<f32>,
    /// Samples in the dispatched batch this request rode in.
    pub batch_samples: usize,
    /// Dispatch sequence number of that batch (global, formation order).
    pub batch_seq: u64,
    /// This request's sample offset within the batch.
    pub batch_offset: usize,
    /// Time spent queued before dispatch, microseconds.
    pub queue_us: u64,
    /// Time from dispatch to completion, microseconds.
    pub service_us: u64,
}

/// A one-shot completion slot: a [`Ticket`]'s outcome, or the reply to a
/// replica control job. Poison-tolerant throughout: the state is a plain
/// `Option`, valid at every point, so a peer that panics while holding the
/// lock must not cascade into its waiters.
#[derive(Debug)]
pub(crate) struct Slot<T> {
    pub(crate) value: Mutex<Option<T>>,
    ready: Condvar,
}

/// What a [`Ticket`] resolves with.
type ResponseSlot = Slot<Result<Response, ServeError>>;

impl<T> Slot<T> {
    /// A slot already holding `value` (`None`: not yet fulfilled).
    pub(crate) fn new(value: Option<T>) -> Arc<Self> {
        Arc::new(Slot {
            value: Mutex::new(value),
            ready: Condvar::new(),
        })
    }

    /// Fulfills the slot and wakes its waiter.
    pub(crate) fn put(&self, value: T) {
        *self.value.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        self.ready.notify_all();
    }

    /// Blocks until the slot is fulfilled, then takes the value.
    pub(crate) fn take(&self) -> T {
        let mut value = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = value.take() {
                return v;
            }
            value = self
                .ready
                .wait(value)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`Slot::take`] bounded by `deadline`: `None` once it passes with the
    /// slot unfulfilled (a value arriving later is simply never taken).
    pub(crate) fn take_until(&self, deadline: Instant) -> Option<T> {
        let mut value = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(v) = value.take() {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            value = self
                .ready
                .wait_timeout(value, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Handle to one admitted request; [`Ticket::wait`] blocks until the
/// request's batch completes. Every admitted request is fulfilled, even
/// under shutdown (the workers drain the queue before exiting) and across
/// a pool replica's restart (its queue outlives the life that admitted
/// it). Fully owned: it may outlive the window that issued it.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
    /// The request's end-to-end deadline: bounds every wait.
    deadline: Option<Instant>,
    /// Set when a replica pool issued the ticket.
    pool: Option<PoolLink>,
}

impl Ticket {
    /// A replica pool's ticket: waits feed the replica's circuit breaker
    /// and are bounded by its stall timeout, and dropping the ticket
    /// releases the replica's outstanding slot.
    pub(crate) fn pooled(self, link: PoolLink) -> Ticket {
        Ticket {
            pool: Some(link),
            ..self
        }
    }

    /// The replica serving this request (0 on a bare [`Server`]).
    pub fn replica(&self) -> usize {
        self.pool.as_ref().map_or(0, PoolLink::replica)
    }

    /// Blocks until the response (or the batch's error) is available —
    /// bounded by the request's deadline and, on a pool ticket, the pool's
    /// [`crate::FaultToleranceConfig::replica_timeout`], whichever is
    /// sooner (unbounded when neither is set). On a pool ticket the
    /// outcome feeds the replica's circuit breaker: successes heal,
    /// failures and stall timeouts count against it. A deadline miss does
    /// **not** — it is the caller's budget, not the replica's fault.
    ///
    /// # Errors
    ///
    /// [`ServeError::Forward`] when inference failed for the dispatched
    /// batch; [`ServeError::DeadlineExceeded`] when the request's deadline
    /// elapsed first; [`ServeError::ReplicaTimeout`] when the per-attempt
    /// stall bound elapsed first.
    pub fn wait(self) -> Result<Response, ServeError> {
        let stall = self.pool.as_ref().and_then(PoolLink::replica_timeout);
        let outcome = if self.deadline.is_none() && stall.is_none() {
            self.slot.take()
        } else {
            let started = Instant::now();
            let bound = self.deadline.into_iter().chain(stall.map(|t| started + t));
            match bound.min().and_then(|b| self.slot.take_until(b)) {
                Some(outcome) => outcome,
                None => return Err(self.abandon(started)),
            }
        };
        if let Some(pool) = &self.pool {
            pool.settle(&outcome);
        }
        outcome
    }

    /// The wait bound fired before the outcome: a deadline miss, or (only
    /// on a pool ticket) a stall timeout.
    fn abandon(&self, started: Instant) -> ServeError {
        let waited_us = duration_us(started.elapsed());
        let missed = self.deadline.is_some_and(|d| Instant::now() >= d);
        match &self.pool {
            Some(pool) if !missed => pool.stalled(waited_us),
            pool => {
                if let Some(pool) = pool {
                    pool.missed_deadline();
                }
                ServeError::DeadlineExceeded { waited_us }
            }
        }
    }

    /// Non-blocking probe: a clone of the response if the batch already
    /// completed. Does **not** consume the result — a later
    /// [`Ticket::wait`] still returns it.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        self.slot
            .value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// An admitted, not-yet-dispatched request.
#[derive(Debug)]
struct Pending {
    tenant: usize,
    model: usize,
    priority: Priority,
    images: Tensor,
    samples: usize,
    enqueued_at: Instant,
    slot: Arc<ResponseSlot>,
    /// Input-content digest, computed once at submit when a response cache
    /// is attached (the lookup that missed); `run_batch` fills the cache
    /// under this key so the hash is never recomputed.
    digest: Option<u64>,
}

/// Scheduler state behind the queue mutex.
#[derive(Debug)]
struct SchedState {
    /// One FIFO queue per priority tier, indexed by [`Priority::index`].
    /// Workers always pick from the highest non-empty dispatchable tier,
    /// so a tier's queue delay depends only on backlog at its tier and
    /// above.
    queues: [VecDeque<Pending>; TIERS],
    /// Queued samples per tier (`tier_samples[t]` matches `queues[t]`).
    tier_samples: [usize; TIERS],
    /// Queued samples per tenant (the admission layer's fairness-quota
    /// input). Entries are removed when they reach zero.
    tenant_queued: HashMap<usize, usize>,
    /// No more admissions; workers drain the queue and exit.
    closed: bool,
    /// The life serving this scheduler is ending (one of its workers
    /// died): workers exit as soon as nothing is dispatchable, leaving the
    /// queue to the next life's workers. Pool replicas only.
    retiring: bool,
    next_batch_seq: u64,
    /// Per-model count of batches currently being *formed*. While one
    /// worker holds a forming batch for model `m` open across a coalescing
    /// wait, other workers must not start a later model-`m` batch: it
    /// would close first, take the lower `batch_seq`, and invert the
    /// per-`(tenant, model, priority)` FIFO guarantee.
    forming: Vec<u32>,
}

impl SchedState {
    /// Total queued (admitted, not yet taken into a forming batch) samples.
    fn queued_samples(&self) -> usize {
        self.tier_samples.iter().sum()
    }

    /// Removes `queues[tier][idx]`, keeping every counter consistent.
    fn take(&mut self, tier: usize, idx: usize) -> Pending {
        // LINT-ALLOW(R2): callers pass an index they just found in this queue
        let p = self.queues[tier].remove(idx).expect("index in bounds");
        self.tier_samples[tier] -= p.samples;
        let count = self
            .tenant_queued
            .get_mut(&p.tenant)
            // LINT-ALLOW(R2): every queued Pending incremented this map on admit
            .expect("queued tenants are counted");
        *count -= p.samples;
        if *count == 0 {
            self.tenant_queued.remove(&p.tenant);
        }
        p
    }
}

/// One serve window's scheduler: admission, the priority queues, batch
/// formation, the service-time estimate and the window's metrics. A bare
/// [`Server`] owns one for the length of [`Server::run`]; a replica pool
/// owns one per replica for the whole window, so queued requests and
/// metrics outlive a replica's restarts. The workers over it — and the
/// response cache they fill — belong to whoever spawned them.
pub(crate) struct Scheduler<'a> {
    pub(crate) models: &'a ModelRegistry,
    cfg: ServeConfig,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    metrics: Mutex<MetricsRecorder>,
    /// EWMA of per-sample service time, nanoseconds; 0 = cold. Feeds the
    /// admission layer's queue-delay prediction.
    est_ns_per_sample: AtomicU64,
}

/// The batched inference server. Construct with [`Server::new`], then open
/// a serve window with [`Server::run`].
pub struct Server<'a, B: MathBackend + Sync + ?Sized> {
    models: &'a ModelRegistry,
    backend: &'a B,
    cfg: ServeConfig,
    cache: Option<Arc<ServeCache>>,
}

impl<'a, B: MathBackend + Sync + ?Sized> Server<'a, B> {
    /// Creates a server over a model registry. The registry stays shared:
    /// its contents can be hot-swapped mid-window through
    /// [`ServerHandle::swap_model`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoModels`] for an empty registry or
    /// [`ServeError::InvalidConfig`] for bad knobs.
    pub fn new(
        models: &'a ModelRegistry,
        backend: &'a B,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        if models.is_empty() {
            return Err(ServeError::NoModels);
        }
        cfg.validate()?;
        Ok(Server {
            models,
            backend,
            cfg,
            cache: None,
        })
    }

    /// Builder: attaches a content-addressed response cache. Every submit
    /// then hashes the request tensor's bytes (zero-copy) and consults the
    /// cache before admission — a hit is fulfilled immediately as a typed
    /// fast-path completion ([`MetricsReport::cache_hits`]), bypassing the
    /// queue, the admission policy, and the workers entirely. The cache is
    /// shared: servers of one logical service may hold clones of the same
    /// `Arc`.
    ///
    /// # Panics
    ///
    /// Panics when the cache was sized for fewer models than the registry
    /// holds (its per-model state is indexed by registry slot).
    pub fn with_cache(mut self, cache: Arc<ServeCache>) -> Self {
        assert!(
            cache.models() >= self.models.len(),
            "cache sized for {} models, registry has {}",
            cache.models(),
            self.models.len()
        );
        self.cache = Some(cache);
        self
    }

    /// Opens a serve window: spawns the configured workers on a
    /// `std::thread::scope`, hands `f` a [`ServerHandle`] to submit
    /// requests through, and on return from `f` shuts down — no new
    /// admissions, queued requests drained, workers joined. Returns `f`'s
    /// result plus the window's [`MetricsReport`].
    ///
    /// A worker that dies of a panic fails its batch and every queued
    /// request typed and closes the window (there is no supervisor to
    /// restart it); the panic re-raises once `f` returns.
    pub fn run<R>(&self, f: impl FnOnce(&ServerHandle<'_, 'a, B>) -> R) -> (R, MetricsReport) {
        let sched = Scheduler::new(self.models, self.cfg);
        let cache = self.cache.as_deref();
        let fail_queue = || sched.close_and_fail();
        let result = std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| worker_loop(&sched, self.backend, cache, &fail_queue));
            }
            // Close the window on *every* exit from `f`, including an
            // unwind: otherwise a panicking closure would leave the
            // workers parked on the queue condvar and the scope would
            // deadlock joining them instead of propagating the panic.
            struct CloseOnDrop<'s, 'a>(&'s Scheduler<'a>);
            impl Drop for CloseOnDrop<'_, '_> {
                fn drop(&mut self) {
                    self.0.close();
                }
            }
            let _closer = CloseOnDrop(&sched);
            f(&ServerHandle {
                sched: &sched,
                cache,
                backend: PhantomData,
            })
        });
        (result, sched.report())
    }
}

/// Submission handle passed to the [`Server::run`] closure; `Sync`, so the
/// closure may fan submissions out over its own scoped threads.
pub struct ServerHandle<'s, 'a, B: MathBackend + Sync + ?Sized> {
    sched: &'s Scheduler<'a>,
    cache: Option<&'s ServeCache>,
    /// The backend the window's workers run; the handle never calls it.
    backend: PhantomData<&'a B>,
}

impl<B: MathBackend + Sync + ?Sized> ServerHandle<'_, '_, B> {
    /// Admits a request to the bounded queue, subject to the configured
    /// [`crate::AdmissionPolicy`].
    ///
    /// Note on the bound: `queue_capacity` limits **waiting** samples only.
    /// Samples a worker has already taken into a *forming* batch (up to
    /// `workers × max_batch`) have left the queue and no longer count
    /// against it, so total admitted-but-unserved samples can transiently
    /// exceed `queue_capacity` by that much.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SubmitError`] — queue full (backpressure), SLO
    /// shed, tenant over quota, unknown model, geometry mismatch, or
    /// shutdown — without ever blocking or panicking.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.sched.submit(request, self.cache)
    }

    /// The window's metrics so far, while the workers keep serving: the
    /// same report [`Server::run`] returns at the end, taken under the
    /// metrics lock alone. Counts only grow between snapshots. A batch is
    /// recorded just after its tickets resolve, so a snapshot taken as a
    /// wait returns may not count that request yet.
    pub fn snapshot(&self) -> MetricsReport {
        self.sched.report()
    }

    /// Samples currently queued (admitted, not yet dispatched).
    pub fn queued_samples(&self) -> usize {
        self.sched
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queued_samples()
    }

    /// Atomically hot-swaps model slot `model` to `net`, returning the new
    /// version.
    ///
    /// Sequencing, built on the scheduler's per-model **forming
    /// reservation**:
    ///
    /// 1. take the scheduler lock and wait until no worker holds a forming
    ///    batch for `model` (in-flight batches past formation keep serving
    ///    the old version via their `Arc` — they drain naturally and their
    ///    tickets are unaffected);
    /// 2. swap the registry slot (version bump) while still holding the
    ///    scheduler lock, so no batch can form between drain and swap;
    /// 3. release and wake everyone: every batch formed from here on
    ///    dispatches on the new epoch.
    ///
    /// Combined with batch-formation order this makes response
    /// `model_version`s non-decreasing along `(batch_seq, batch_offset)`
    /// order. The new network should keep the input geometry: queued
    /// requests were validated against the old spec, and a geometry change
    /// fails those batches (tickets resolve with [`ServeError::Forward`] —
    /// still never dropped).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] for an out-of-range slot.
    pub fn swap_model(&self, model: usize, net: CapsNet) -> Result<u64, SubmitError> {
        let version = self.sched.swap_model(model, net, None)?;
        // Every batch formed from here on dispatches on `version`, so the
        // cached responses of older versions are orphans.
        if let Some(cache) = self.cache {
            cache.retire_below(model, version);
        }
        Ok(version)
    }

    /// [`ServerHandle::swap_model`] from an artifact on disk: loads and
    /// verifies the artifact (zero-copy mmap where possible) **outside**
    /// the scheduler lock, then performs the drained swap. Artifacts must
    /// only ever be replaced via `pim-store`'s atomic temp+rename writer —
    /// never rewritten in place under a reader.
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] when the artifact cannot be loaded or the slot
    /// is out of range.
    pub fn swap_from_path(&self, model: usize, path: &std::path::Path) -> Result<u64, ServeError> {
        self.swap_model(model, crate::registry::load_path(path)?)
            .map_err(|e| ServeError::Load(e.to_string()))
    }
}

impl<'a> Scheduler<'a> {
    pub(crate) fn new(models: &'a ModelRegistry, cfg: ServeConfig) -> Self {
        Scheduler {
            models,
            cfg,
            state: Mutex::new(SchedState {
                queues: std::array::from_fn(|_| VecDeque::new()),
                tier_samples: [0; TIERS],
                tenant_queued: HashMap::new(),
                closed: false,
                retiring: false,
                next_batch_seq: 0,
                forming: vec![0; models.len()],
            }),
            work_ready: Condvar::new(),
            metrics: Mutex::new(MetricsRecorder::new(cfg.max_batch)),
            est_ns_per_sample: AtomicU64::new(0),
        }
    }

    /// [`ServerHandle::submit`] in front of `cache`: the one admission
    /// path of a bare server and of every pool replica.
    pub(crate) fn submit(
        &self,
        request: Request,
        cache: Option<&ServeCache>,
    ) -> Result<Ticket, SubmitError> {
        let model = self.models.current(request.model).ok_or({
            SubmitError::UnknownModel {
                model: request.model,
                registered: self.models.len(),
            }
        })?;
        let spec = model.net().spec();
        let dims = request.images.shape().dims();
        let geometry_ok = dims.len() == 4
            && dims[1] == spec.input_channels
            && dims[2] == spec.input_hw.0
            && dims[3] == spec.input_hw.1;
        if !geometry_ok || dims[0] == 0 || dims[0] > self.cfg.max_batch {
            return Err(SubmitError::ShapeMismatch {
                expected: format!(
                    "[1..={}, {}, {}, {}]",
                    self.cfg.max_batch, spec.input_channels, spec.input_hw.0, spec.input_hw.1
                ),
                actual: dims.to_vec(),
            });
        }
        let samples = dims[0];
        let deadline = request.deadline;

        // Content-addressed fast path: hash the request tensor's bytes
        // zero-copy and consult the cache *before admission*. A hit never
        // touches the scheduler lock, cannot be queued, shed, or rejected,
        // and resolves its ticket immediately with the bit-exact payload a
        // fresh dispatch on this version would produce. The version comes
        // from the handle resolved above, so a post-swap submit can only
        // hit post-swap fills — invalidation by version, for free.
        let digest = cache.map(|_| hash::hash_f32(request.images.as_slice()));
        if let (Some(cache), Some(digest)) = (cache, digest) {
            if let Some(cached) = cache.get(request.model, model.version(), digest) {
                let slot = Slot::new(Some(Ok(Response {
                    predictions: cached.predictions,
                    model_version: model.version(),
                    class_norms_sq: cached.class_norms_sq,
                    batch_samples: samples,
                    // A hit rode no batch: placement and timing are
                    // reported as zero, not inherited from the fill.
                    batch_seq: 0,
                    batch_offset: 0,
                    queue_us: 0,
                    service_us: 0,
                })));
                self.metrics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record_cache_hit(request.priority);
                return Ok(Ticket {
                    slot,
                    deadline,
                    pool: None,
                });
            }
        }

        let slot = Slot::new(None);
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.closed {
                return Err(SubmitError::ShuttingDown);
            }
            let tier = request.priority.index();
            // A request waits behind the backlog at its tier and above
            // (workers always serve higher tiers first).
            let backlog: usize = st.tier_samples[..=tier].iter().sum();
            let predicted_wait_us = admission::predicted_wait_us(
                backlog,
                self.est_ns_per_sample.load(Ordering::Relaxed),
                self.cfg.workers,
            );
            let tenant_queued = st.tenant_queued.get(&request.tenant).copied().unwrap_or(0);
            match admission::decide(
                &self.cfg.admission,
                self.cfg.queue_capacity,
                st.queued_samples(),
                samples,
                tenant_queued,
                predicted_wait_us,
                request.priority,
            ) {
                AdmissionVerdict::Admit => {}
                AdmissionVerdict::Full => {
                    let queued = st.queued_samples();
                    drop(st);
                    self.metrics
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .record_reject_full();
                    return Err(SubmitError::QueueFull {
                        capacity: self.cfg.queue_capacity,
                        queued,
                        requested: samples,
                    });
                }
                AdmissionVerdict::Quota { quota } => {
                    drop(st);
                    self.metrics
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .record_reject_quota();
                    return Err(SubmitError::TenantQuotaExceeded {
                        tenant: request.tenant,
                        queued: tenant_queued,
                        quota,
                        requested: samples,
                    });
                }
                AdmissionVerdict::Shed { limit_us } => {
                    drop(st);
                    self.metrics
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .record_shed(request.priority);
                    return Err(SubmitError::Shed {
                        tenant: request.tenant,
                        priority: request.priority,
                        predicted_wait_us,
                        limit_us,
                    });
                }
            }
            st.tier_samples[tier] += samples;
            *st.tenant_queued.entry(request.tenant).or_insert(0) += samples;
            st.queues[tier].push_back(Pending {
                tenant: request.tenant,
                model: request.model,
                priority: request.priority,
                images: request.images,
                samples,
                enqueued_at: Instant::now(),
                slot: Arc::clone(&slot),
                digest,
            });
        }
        self.work_ready.notify_all();
        Ok(Ticket {
            slot,
            deadline,
            pool: None,
        })
    }

    /// [`ServerHandle::swap_model`], under version `at` when the registry
    /// takes it ([`ModelRegistry::install`]).
    pub(crate) fn swap_model(
        &self,
        model: usize,
        net: CapsNet,
        at: Option<u64>,
    ) -> Result<u64, SubmitError> {
        if model >= self.models.len() {
            return Err(SubmitError::UnknownModel {
                model,
                registered: self.models.len(),
            });
        }
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.forming[model] > 0 {
            st = self
                .work_ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let version = self
            .models
            .install(model, net, at)
            // LINT-ALLOW(R2): the bounds check at fn entry makes this infallible
            .expect("index checked above");
        drop(st);
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_swap();
        self.work_ready.notify_all();
        Ok(version)
    }

    /// Stops admitting (later submits get [`SubmitError::ShuttingDown`]);
    /// the workers drain the queue and exit.
    pub(crate) fn close(&self) {
        // Tolerate a poisoned lock: this may run mid-unwind.
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.work_ready.notify_all();
    }

    /// [`Scheduler::close`] for a scheduler no worker will serve again:
    /// every queued request fails typed instead of waiting forever.
    pub(crate) fn close_and_fail(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        let mut failed = 0usize;
        for tier in 0..TIERS {
            while !st.queues[tier].is_empty() {
                let p = st.take(tier, 0);
                failed += 1;
                p.slot
                    .put(Err(ServeError::Forward("serving worker panicked".into())));
            }
        }
        drop(st);
        if failed > 0 {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_failed_batch(failed);
        }
        self.work_ready.notify_all();
    }

    /// Ends the current life: its workers exit once nothing is
    /// dispatchable, while admission goes on and the queue waits for the
    /// next life's workers.
    pub(crate) fn retire(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retiring = true;
        self.work_ready.notify_all();
    }

    /// Starts a life: clears [`Scheduler::retire`] and restarts the
    /// service-time estimate cold, as a restarted process would. Called
    /// while no worker runs.
    pub(crate) fn begin_life(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retiring = false;
        self.est_ns_per_sample.store(0, Ordering::Relaxed);
    }

    /// The window's metrics so far, over every life.
    pub(crate) fn report(&self) -> MetricsReport {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .report()
    }

    /// [`Scheduler::report`], adding the window's latency samples to
    /// `window` under the same lock, so a pool's merged percentiles cover
    /// exactly the requests its per-replica reports count.
    pub(crate) fn report_into(&self, window: &mut LatencyHistogram) -> MetricsReport {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        metrics.merge_latencies_into(window);
        metrics.report()
    }

    /// Blocks until a batch can be formed; `None` means closed-and-drained
    /// (or the life retired).
    fn form_batch(&self) -> Option<(Vec<Pending>, u64, Arc<ModelHandle>)> {
        let cfg = &self.cfg;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Wait for a dispatchable request (or closed + drained): scan tiers
        // in priority order, and within a tier pick the oldest request of a
        // model no other worker is currently forming a batch for. Skipping
        // models with an open batch keeps per-(tenant, model, priority)
        // dispatch order intact: that open batch must close (and take its
        // batch_seq) before a later same-model batch may form.
        let first = loop {
            let pick = {
                let state = &*st;
                Priority::ALL.iter().find_map(|p| {
                    let tier = p.index();
                    state.queues[tier]
                        .iter()
                        .position(|r| state.forming[r.model] == 0)
                        .map(|i| (tier, i))
                })
            };
            if let Some((tier, i)) = pick {
                break st.take(tier, i);
            }
            if st.retiring || (st.closed && st.queues.iter().all(|q| q.is_empty())) {
                return None;
            }
            st = self
                .work_ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        };
        let model = first.model;
        st.forming[model] += 1;
        // Resolve the model handle *while holding the scheduler lock*: a
        // hot-swap also runs under this lock (after draining the forming
        // reservation), so every batch observes exactly one version, and
        // versions are monotone in batch-formation order.
        let handle = self
            .models
            .current(model)
            // LINT-ALLOW(R2): submit rejects unknown models; slots are append-only
            .expect("validated at submit; registry slots are append-only");
        let coalescable = handle.coalescable();
        let deadline = first.enqueued_at + cfg.max_wait;
        let mut samples = first.samples;
        let mut batch = vec![first];

        while coalescable && samples < cfg.max_batch {
            if sweep_coalesce(&mut st, model, cfg.max_batch, &mut samples, &mut batch) {
                samples = cfg.max_batch; // close the batch
            }
            if samples >= cfg.max_batch || st.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .work_ready
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() {
                // One last sweep below the loop condition, then dispatch.
                sweep_coalesce(&mut st, model, cfg.max_batch, &mut samples, &mut batch);
                break;
            }
        }
        let batch_seq = st.next_batch_seq;
        st.next_batch_seq += 1;
        st.forming[model] -= 1;
        drop(st);
        // Another worker may be waiting for queued work this one skipped over,
        // for this model's forming reservation to clear, or a swap may be
        // draining that reservation.
        self.work_ready.notify_all();
        Some((batch, batch_seq, handle))
    }
}

/// One worker: form a batch under the latency budget, run it, fulfill its
/// tickets; exit once the scheduler closed *and* the queue drained (or its
/// life retired). Fills `cache`, when given, with every response.
///
/// A worker dying of a panic (a panicking backend) has already failed the
/// batch it held typed; `on_death` decides what becomes of everything
/// still queued — a bare server fails it, a pool replica hands it to its
/// next life.
pub(crate) fn worker_loop<B: MathBackend + Sync + ?Sized>(
    sched: &Scheduler<'_>,
    backend: &B,
    cache: Option<&ServeCache>,
    on_death: &(dyn Fn() + Sync),
) {
    struct DeathGuard<'f>(&'f (dyn Fn() + Sync));
    impl Drop for DeathGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                (self.0)();
            }
        }
    }
    let _guard = DeathGuard(on_death);
    let mut arena = ForwardArena::new();
    while let Some((batch, batch_seq, handle)) = sched.form_batch() {
        run_batch(sched, backend, cache, batch, batch_seq, &handle, &mut arena);
    }
}

/// One coalescing sweep: takes fitting same-model requests in FIFO order,
/// scanning tiers in priority order. Within each tier it stops at the
/// first same-model request that does not fit — taking a later one instead
/// would reorder a tenant's stream — and returns `true` in that case so
/// the caller can close the batch (a full companion is already waiting).
fn sweep_coalesce(
    st: &mut SchedState,
    model: usize,
    max_batch: usize,
    samples: &mut usize,
    batch: &mut Vec<Pending>,
) -> bool {
    for tier in 0..TIERS {
        let mut idx = 0;
        while idx < st.queues[tier].len() && *samples < max_batch {
            if st.queues[tier][idx].model != model {
                idx += 1;
                continue;
            }
            if *samples + st.queues[tier][idx].samples > max_batch {
                return true;
            }
            let p = st.take(tier, idx);
            *samples += p.samples;
            batch.push(p);
        }
        if *samples >= max_batch {
            break;
        }
    }
    false
}

/// Runs one formed batch and fulfills its tickets.
fn run_batch<B: MathBackend + Sync + ?Sized>(
    sched: &Scheduler<'_>,
    backend: &B,
    cache: Option<&ServeCache>,
    batch: Vec<Pending>,
    batch_seq: u64,
    handle: &ModelHandle,
    arena: &mut ForwardArena,
) {
    let dispatched_at = Instant::now();
    let model_index = batch[0].model;
    let spec = handle.net().spec();
    let batch_samples: usize = batch.iter().map(|p| p.samples).sum();

    let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if batch.len() == 1 {
            // A lone request's tensor is already batch-shaped: zero-copy.
            forward_batch(backend, handle, &batch[0].images, arena)
        } else {
            let mut assembly = Vec::with_capacity(batch_samples * spec.input_pixels());
            for p in &batch {
                assembly.extend_from_slice(p.images.as_slice());
            }
            let dims = [
                batch_samples,
                spec.input_channels,
                spec.input_hw.0,
                spec.input_hw.1,
            ];
            Tensor::from_vec(assembly, &dims)
                .map_err(|e| ServeError::Forward(e.to_string()))
                .and_then(|images| forward_batch(backend, handle, &images, arena))
        }
    }));
    let outcome = match forward {
        Ok(outcome) => outcome,
        Err(payload) => {
            // A panicking forward must not take the batch's tickets down
            // with it: resolve every rider with a typed error first, then
            // let the panic continue — the worker dies and its death guard
            // decides the queue's fate (under a replica pool the
            // supervisor restarts the replica).
            let failed_requests = batch.len();
            for p in batch {
                p.slot
                    .put(Err(ServeError::Forward("forward pass panicked".into())));
            }
            sched
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_failed_batch(failed_requests);
            std::panic::resume_unwind(payload);
        }
    };

    match outcome {
        Ok((predictions, norms, h)) => {
            // One completion timestamp for the whole batch: the batch *is*
            // the unit of service, so every rider reports the same service
            // time. (Regression: `dispatched_at.elapsed()` per request
            // inside this loop inflated later tickets' service time with
            // the cost of fulfilling earlier ones.)
            let service_us = duration_us(dispatched_at.elapsed());
            // Feed the admission layer's queue-delay estimator *before*
            // fulfilling any ticket: a client that has seen its response
            // must be able to rely on the estimator being at least as
            // fresh (the SLO tests warm the estimator this way). The
            // read-modify-write is intentionally unsynchronized across
            // workers: a lost update is one skipped EWMA step on an
            // estimate, not an accounting error.
            let observed_ns = service_us.saturating_mul(1_000) / batch_samples.max(1) as u64;
            let old = sched.est_ns_per_sample.load(Ordering::Relaxed);
            sched
                .est_ns_per_sample
                .store(admission::ewma_ns(old, observed_ns), Ordering::Relaxed);
            let mut offset = 0usize;
            let mut latencies = Vec::with_capacity(batch.len());
            for p in batch {
                let queue_us = duration_us(dispatched_at.saturating_duration_since(p.enqueued_at));
                latencies.push((p.priority, queue_us + service_us));
                let response = Response {
                    predictions: predictions[offset..offset + p.samples].to_vec(),
                    model_version: handle.version(),
                    class_norms_sq: norms[offset * h..(offset + p.samples) * h].to_vec(),
                    batch_samples,
                    batch_seq,
                    batch_offset: offset,
                    queue_us,
                    service_us,
                };
                // Fill the cache under the batch's own epoch: after a
                // hot-swap, an in-flight batch on the old Arc fills the
                // old version, which current-version lookups can never
                // match — stale fills are orphans from birth.
                if let (Some(cache), Some(digest)) = (cache, p.digest) {
                    cache.insert(
                        model_index,
                        handle.version(),
                        digest,
                        CachedResponse {
                            predictions: response.predictions.clone(),
                            class_norms_sq: response.class_norms_sq.clone(),
                        },
                    );
                }
                offset += p.samples;
                p.slot.put(Ok(response));
            }
            sched
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_batch(model_index, handle.version(), batch_samples, &latencies);
        }
        Err(e) => {
            // Failed batches resolve every ticket with the error AND leave
            // a metrics trace: `failed_requests`/`failed_batches` is the
            // signal a rollout canary (or an operator) watches. The
            // successful-work counters stay untouched.
            let failed_requests = batch.len();
            for p in batch {
                p.slot.put(Err(e.clone()));
            }
            sched
                .metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_failed_batch(failed_requests);
        }
    }
}

/// Runs the batch through the worker's warm arena. Returns
/// `(predictions, class_norms_sq, h_caps)`.
fn forward_batch<B: MathBackend + Sync + ?Sized>(
    backend: &B,
    handle: &ModelHandle,
    images: &Tensor,
    arena: &mut ForwardArena,
) -> Result<(Vec<usize>, Vec<f32>, usize), ServeError> {
    let view = handle
        .net()
        .forward_with(images, backend, arena)
        .map_err(|e| ServeError::Forward(e.to_string()))?;
    let h = view.class_norms_sq().len() / view.batch().max(1);
    Ok((view.predictions(), view.class_norms_sq().to_vec(), h))
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::{CapsNetSpec, ExactMath};
    use std::sync::OnceLock;

    fn tiny_model() -> &'static ServedModel {
        static MODEL: OnceLock<ServedModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let mut spec = CapsNetSpec::tiny_for_tests();
            spec.batch_shared_routing = false;
            ServedModel::new("tiny", CapsNet::seeded(&spec, 42).unwrap())
        })
    }

    fn images(n: usize, seed: u64) -> Tensor {
        Tensor::uniform(&[n, 1, 12, 12], 0.0, 1.0, seed)
    }

    fn server_cfg() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            workers: 1,
            admission: crate::AdmissionPolicy::QueueBound,
        }
    }

    #[test]
    fn responses_match_serial_forward_bitwise() {
        let models = [tiny_model().clone()];
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, server_cfg()).unwrap();
        let (responses, metrics) = server.run(|h| {
            let tickets: Vec<Ticket> = (0..12)
                .map(|i| {
                    h.submit(Request::new(i % 3, 0, images(1 + i % 2, i as u64)))
                        .unwrap()
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<Response>>()
        });
        assert_eq!(responses.len(), 12);
        assert_eq!(metrics.requests, 12);
        for (i, r) in responses.iter().enumerate() {
            let imgs = images(1 + i % 2, i as u64);
            let serial = tiny_model().net().forward(&imgs, &ExactMath).unwrap();
            assert_eq!(r.predictions, serial.predictions(), "request {i}");
            assert_eq!(
                r.class_norms_sq.len(),
                serial.class_norms_sq.as_slice().len()
            );
            for (a, b) in r
                .class_norms_sq
                .iter()
                .zip(serial.class_norms_sq.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i} not bitwise equal");
            }
            assert!(r.batch_samples >= 1 && r.batch_samples <= 8);
        }
    }

    /// The one execution path shards the capsule layer across cores on a
    /// multi-core host; a default-config server must still answer a full
    /// batch bit for bit like per-request `CapsNet::forward`.
    #[test]
    fn default_config_full_batch_matches_per_request_forward() {
        // Big enough that `plan_threads` really shards both the projection
        // (over L) and the routing (over samples) when the host has ≥ 2
        // threads; on one thread the same gate runs serially.
        let mut spec = CapsNetSpec::tiny_for_tests();
        spec.primary_channels = 64;
        spec.cl_dim = 8;
        spec.h_caps = 10;
        spec.ch_dim = 16;
        spec.batch_shared_routing = false;
        let net = CapsNet::seeded(&spec, 7).unwrap();
        let models = ModelRegistry::from_models([ServedModel::new("wide", net.clone())]);
        let cfg = ServeConfig::default();
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let (responses, metrics) = server.run(|h| {
            let tickets: Vec<Ticket> = (0..cfg.max_batch as u64)
                .map(|i| h.submit(Request::new(0, 0, images(1, i))).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<Response>>()
        });
        assert_eq!(metrics.requests, cfg.max_batch as u64);
        for (i, r) in responses.iter().enumerate() {
            let direct = net.forward(&images(1, i as u64), &ExactMath).unwrap();
            assert_eq!(r.predictions, direct.predictions(), "request {i}");
            for (a, b) in r
                .class_norms_sq
                .iter()
                .zip(direct.class_norms_sq.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i} not bitwise equal");
            }
        }
    }

    #[test]
    fn queue_full_is_a_typed_reject() {
        let models = [tiny_model().clone()];
        let cfg = ServeConfig {
            max_batch: 2,
            queue_capacity: 2,
            max_wait: Duration::from_millis(50),
            ..server_cfg()
        };
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let ((), metrics) = server.run(|h| {
            // Burst far past capacity from a single thread; the queue bound
            // guarantees at least one reject before the worker can drain.
            let mut accepted = Vec::new();
            let mut rejected = 0usize;
            for i in 0..64 {
                match h.submit(Request::new(0, 0, images(1, i))) {
                    Ok(t) => accepted.push(t),
                    Err(SubmitError::QueueFull { capacity, .. }) => {
                        assert_eq!(capacity, 2);
                        rejected += 1;
                    }
                    Err(e) => panic!("unexpected reject {e}"),
                }
            }
            assert!(rejected > 0, "burst should overflow the bounded queue");
            // Every admitted request still completes.
            for t in accepted {
                t.wait().unwrap();
            }
        });
        assert!(metrics.rejected_full > 0);
    }

    #[test]
    fn bad_submissions_are_rejected() {
        let models = [tiny_model().clone()];
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, server_cfg()).unwrap();
        server.run(|h| {
            let bad_model = h.submit(Request::new(0, 7, images(1, 1)));
            assert!(matches!(
                bad_model,
                Err(SubmitError::UnknownModel { model: 7, .. })
            ));
            let bad_shape = h.submit(Request::new(0, 0, Tensor::zeros(&[1, 1, 10, 10])));
            assert!(matches!(bad_shape, Err(SubmitError::ShapeMismatch { .. })));
            let empty = h.submit(Request::new(0, 0, Tensor::zeros(&[0, 1, 12, 12])));
            assert!(matches!(empty, Err(SubmitError::ShapeMismatch { .. })));
            let oversize = h.submit(Request::new(0, 0, images(9, 2))); // max_batch is 8
            assert!(matches!(oversize, Err(SubmitError::ShapeMismatch { .. })));
        });
    }

    #[test]
    fn batch_shared_models_never_coalesce() {
        // A batch-shared model couples samples; the server must dispatch
        // one request per batch so results still match per-request forward.
        let spec = CapsNetSpec::tiny_for_tests(); // batch_shared = true
        assert!(spec.batch_shared_routing);
        let shared_net = CapsNet::seeded(&spec, 5).unwrap();
        let models = [ServedModel::new("shared", shared_net.clone())];
        let cfg = ServeConfig {
            max_wait: Duration::from_millis(20),
            ..server_cfg()
        };
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let (responses, metrics) = server.run(|h| {
            let tickets: Vec<Ticket> = (0..6)
                .map(|i| h.submit(Request::new(0, 0, images(2, 100 + i))).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(metrics.batches, 6, "one batch per request");
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.batch_samples, 2);
            let serial = shared_net
                .forward(&images(2, 100 + i as u64), &ExactMath)
                .unwrap();
            for (a, b) in r
                .class_norms_sq
                .iter()
                .zip(serial.class_norms_sq.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn multi_model_requests_only_coalesce_within_model() {
        let mut spec_b = CapsNetSpec::tiny_for_tests();
        spec_b.batch_shared_routing = false;
        spec_b.h_caps = 4;
        let models = [
            tiny_model().clone(),
            ServedModel::new("four-class", CapsNet::seeded(&spec_b, 7).unwrap()),
        ];
        let cfg = ServeConfig {
            max_wait: Duration::from_millis(10),
            ..server_cfg()
        };
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let (responses, _) = server.run(|h| {
            let tickets: Vec<Ticket> = (0..10)
                .map(|i| {
                    h.submit(Request::new(i, i % 2, images(1, i as u64)))
                        .unwrap()
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        // Model 0 has 3 classes, model 1 has 4: norms length identifies the
        // model each response came from.
        for (i, r) in responses.iter().enumerate() {
            let expected_h = if i % 2 == 0 { 3 } else { 4 };
            assert_eq!(r.class_norms_sq.len(), expected_h, "request {i}");
        }
    }

    #[test]
    fn drains_queue_on_shutdown() {
        let models = [tiny_model().clone()];
        let cfg = ServeConfig {
            max_wait: Duration::from_millis(200),
            ..server_cfg()
        };
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        // Submit and immediately leave the closure: shutdown must still
        // fulfill every admitted ticket (workers drain before exiting).
        let (tickets, _) = server.run(|h| {
            (0..5)
                .map(|i| h.submit(Request::new(0, 0, images(1, i))).unwrap())
                .collect::<Vec<Ticket>>()
        });
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn coalescing_fills_batches_under_load() {
        let models = [tiny_model().clone()];
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(100),
            ..server_cfg()
        };
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let ((), metrics) = server.run(|h| {
            let tickets: Vec<Ticket> = (0..16)
                .map(|i| h.submit(Request::new(0, 0, images(1, i))).unwrap())
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
        });
        // 16 single-sample requests, batch cap 4: at least one full batch
        // must have formed (the first may dispatch early with fewer).
        assert!(metrics.batches >= 4);
        assert!(
            metrics.batch_occupancy[4] >= 1,
            "occupancy: {:?}",
            metrics.batch_occupancy
        );
        assert!(metrics.mean_occupancy() > 1.0);
        assert_eq!(metrics.samples, 16);
        assert!(metrics.samples_per_s() > 0.0);
    }

    #[test]
    fn fifo_holds_with_two_workers_and_blocking_coalesce() {
        // Regression: with two workers, worker A pops R1 (1 sample) and
        // waits out max_wait for companions while worker B pops R2
        // (2 samples, instantly full at max_batch = 2). Without the
        // per-model forming reservation B closed first and took the lower
        // batch_seq, inverting tenant 0's dispatch order.
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let cfg = ServeConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(5),
            workers: 2,
            ..server_cfg()
        };
        for round in 0..20 {
            let server = Server::new(&models, &ExactMath, cfg).unwrap();
            let ((r1, r2), _) = server.run(|h| {
                let t1 = h.submit(Request::new(0, 0, images(1, round))).unwrap();
                let t2 = h
                    .submit(Request::new(0, 0, images(2, round + 100)))
                    .unwrap();
                (t1.wait().unwrap(), t2.wait().unwrap())
            });
            assert!(
                (r1.batch_seq, r1.batch_offset) < (r2.batch_seq, r2.batch_offset),
                "round {round}: R1 dispatched at {:?}, R2 at {:?}",
                (r1.batch_seq, r1.batch_offset),
                (r2.batch_seq, r2.batch_offset)
            );
        }
    }

    #[test]
    fn all_requests_in_one_batch_report_identical_service_time() {
        // Regression: service_us was computed per request *inside* the
        // fulfillment loop, so later tickets of one batch reported service
        // time inflated by the fulfillment of earlier tickets.
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(500),
            ..server_cfg()
        };
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let (responses, _) = server.run(|h| {
            // Four single-sample requests: the forming batch closes exactly
            // when it reaches max_batch, far inside the 500 ms budget.
            let tickets: Vec<Ticket> = (0..4)
                .map(|i| h.submit(Request::new(i, 0, images(1, i as u64))).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<Response>>()
        });
        assert!(
            responses.iter().all(|r| r.batch_samples == 4),
            "all four requests must ride one batch: {:?}",
            responses
                .iter()
                .map(|r| r.batch_samples)
                .collect::<Vec<_>>()
        );
        let seq = responses[0].batch_seq;
        let service = responses[0].service_us;
        for r in &responses {
            assert_eq!(r.batch_seq, seq);
            assert_eq!(
                r.service_us, service,
                "same batch, same service time (batch is the unit of service)"
            );
        }
    }

    #[test]
    fn failed_batches_are_visible_in_metrics() {
        // A geometry-changing swap fails every request that was admitted
        // (validated against the old spec) but not yet dispatched. Those
        // failures must be counted — the rollout canary relies on it.
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let cfg = ServeConfig {
            max_batch: 2,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            ..server_cfg()
        };
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let ((ok, failed), metrics) = server.run(|h| {
            // Burst far faster than the worker drains (submits are µs,
            // forwards are ms), so most of these are still queued when the
            // swap lands.
            let tickets: Vec<Ticket> = (0..64)
                .map(|i| h.submit(Request::new(0, 0, images(1, i))).unwrap())
                .collect();
            // Swap to a network with a *different input geometry*: queued
            // requests no longer match and their batches fail.
            let mut spec = CapsNetSpec::tiny_for_tests();
            spec.batch_shared_routing = false;
            spec.input_hw = (14, 14);
            h.swap_model(0, CapsNet::seeded(&spec, 9).unwrap()).unwrap();
            let mut ok = 0u64;
            let mut failed = 0u64;
            for t in tickets {
                match t.wait() {
                    Ok(_) => ok += 1,
                    Err(ServeError::Forward(_)) => failed += 1,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            (ok, failed)
        });
        assert_eq!(ok + failed, 64, "zero dropped tickets even on failure");
        assert!(failed > 0, "the swap must have failed some queued batches");
        assert_eq!(metrics.requests, ok, "requests counts completed work only");
        assert_eq!(metrics.failed_requests, failed);
        assert!(metrics.failed_batches > 0);
        assert!(
            metrics.failed_batches <= metrics.failed_requests,
            "a failed batch holds at least one request"
        );
    }

    #[test]
    fn try_wait_does_not_consume_the_result() {
        let models = [tiny_model().clone()];
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, server_cfg()).unwrap();
        server.run(|h| {
            let t = h.submit(Request::new(0, 0, images(1, 1))).unwrap();
            // Poll until complete, then wait() must still return it.
            let polled = loop {
                if let Some(r) = t.try_wait() {
                    break r.unwrap();
                }
                std::thread::yield_now();
            };
            let waited = t.wait().unwrap();
            assert_eq!(polled, waited);
        });
    }

    #[test]
    fn panicking_run_closure_drains_and_propagates() {
        // Regression: the window must close on unwind (drop guard), so a
        // panic in the closure propagates instead of deadlocking the
        // scope on workers parked at the queue condvar — and admitted
        // tickets still get fulfilled by the drain.
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let server = Server::new(&models, &ExactMath, server_cfg()).unwrap();
        let slot_probe = std::sync::Mutex::new(None::<Ticket>);
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let _ = server.run(|h| {
                    let t = h.submit(Request::new(0, 0, images(1, 3))).unwrap();
                    *slot_probe.lock().unwrap() = Some(t);
                    panic!("closure failed");
                });
            })
            .join()
        });
        assert!(outcome.is_err(), "the closure's panic must propagate");
        let ticket = slot_probe.into_inner().unwrap().expect("ticket submitted");
        ticket.wait().expect("admitted work drains even on unwind");
    }

    #[test]
    fn handle_reports_queue_depth_and_rejects_after_close() {
        let models = [tiny_model().clone()];
        let models = ModelRegistry::from_models(models);
        let server = Server::new(&models, &ExactMath, server_cfg()).unwrap();
        server.run(|h| {
            assert_eq!(h.queued_samples(), 0);
        });
        // After run() returns the server is gone; nothing to assert beyond
        // the window — ShuttingDown is covered by the proptest suite, which
        // races submitters against close.
    }

    #[test]
    fn slo_shed_is_typed_and_metered() {
        use crate::{AdmissionPolicy, SloConfig};
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let cfg = ServeConfig {
            max_batch: 2,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            // Low sheds at any positive predicted wait; High/Normal never.
            admission: AdmissionPolicy::SloAware(SloConfig {
                shed_wait_us: [u64::MAX, u64::MAX, 0],
                tenant_quota: 256,
            }),
            ..server_cfg()
        };
        let server = Server::new(&models, &ExactMath, cfg).unwrap();
        let ((), metrics) = server.run(|h| {
            // Warm the service-time estimator: one completed batch seeds
            // the EWMA; while cold, nothing is ever shed.
            h.submit(Request::new(0, 0, images(1, 0)))
                .unwrap()
                .wait()
                .unwrap();
            // Build a backlog far faster than the worker drains (submits
            // are µs, forwards are ms).
            let tickets: Vec<Ticket> = (0..32)
                .map(|i| {
                    h.submit(Request::new(i % 8, 0, images(1, i as u64)))
                        .unwrap()
                })
                .collect();
            let shed = h.submit(Request::new(9, 0, images(1, 99)).with_priority(Priority::Low));
            match shed {
                Err(SubmitError::Shed {
                    tenant,
                    priority,
                    predicted_wait_us,
                    limit_us,
                }) => {
                    assert_eq!(tenant, 9);
                    assert_eq!(priority, Priority::Low);
                    assert_eq!(limit_us, 0);
                    assert!(predicted_wait_us > 0, "warm estimator, queued backlog");
                }
                other => panic!("expected a shed, got {other:?}"),
            }
            // The same instant, a High request sails through: its ceiling
            // is effectively infinite.
            let high = h
                .submit(Request::new(9, 0, images(1, 100)).with_priority(Priority::High))
                .expect("high priority is not shed");
            for t in tickets {
                t.wait().unwrap();
            }
            high.wait().unwrap();
        });
        assert_eq!(metrics.tier(Priority::Low).shed, 1);
        assert_eq!(metrics.shed_total(), 1);
        assert_eq!(metrics.tier(Priority::High).requests, 1);
        assert_eq!(
            metrics.requests + metrics.shed_total(),
            35,
            "every submission resolved exactly once"
        );
    }

    #[test]
    fn tenant_quota_is_typed_and_per_tenant() {
        use crate::{AdmissionPolicy, SloConfig};
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let cfg = ServeConfig {
            max_batch: 2,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            admission: AdmissionPolicy::SloAware(SloConfig {
                shed_wait_us: [u64::MAX; 3],
                tenant_quota: 2,
            }),
            ..server_cfg()
        };
        let gate = GatedMath {
            entered: std::sync::atomic::AtomicBool::new(false),
            release: std::sync::atomic::AtomicBool::new(false),
        };
        let server = Server::new(&models, &gate, cfg).unwrap();
        let ((), metrics) = server.run(|h| {
            use std::sync::atomic::Ordering::SeqCst;
            // Hold the single worker inside its first forward, so nothing
            // leaves the queue while the tenant bursts — whatever the build
            // profile or the host's speed.
            let first = h.submit(Request::new(7, 0, images(1, 100))).unwrap();
            while !gate.entered.load(SeqCst) {
                std::thread::yield_now();
            }
            // The tenant bursts 8 single-sample requests: 2 fill its quota
            // and the other 6 are refused.
            let mut admitted = vec![first];
            let mut over_quota = 0u64;
            for i in 0..8 {
                match h.submit(Request::new(7, 0, images(1, i))) {
                    Ok(t) => admitted.push(t),
                    Err(SubmitError::TenantQuotaExceeded { tenant, quota, .. }) => {
                        assert_eq!(tenant, 7);
                        assert_eq!(quota, 2);
                        over_quota += 1;
                    }
                    Err(e) => panic!("unexpected reject {e}"),
                }
            }
            assert_eq!(over_quota, 6, "the burst must exceed the tenant quota");
            // A different tenant is unaffected — that is the fairness
            // property the quota exists for.
            admitted.push(
                h.submit(Request::new(8, 0, images(1, 50)))
                    .expect("other tenants keep their own quota"),
            );
            gate.release.store(true, SeqCst);
            for t in admitted {
                t.wait().unwrap();
            }
        });
        assert!(metrics.rejected_quota > 0);
        assert_eq!(metrics.rejected_full, 0);
        assert_eq!(metrics.shed_total(), 0);
    }

    /// Blocks the worker inside its current forward until released, so a
    /// test can queue requests while the single worker is provably busy.
    struct GatedMath {
        entered: std::sync::atomic::AtomicBool,
        release: std::sync::atomic::AtomicBool,
    }

    impl MathBackend for GatedMath {
        fn name(&self) -> &'static str {
            "gated-exact"
        }
        fn exp(&self, x: f32) -> f32 {
            use std::sync::atomic::Ordering::SeqCst;
            self.entered.store(true, SeqCst);
            while !self.release.load(SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
            ExactMath.exp(x)
        }
        fn inv_sqrt(&self, x: f32) -> f32 {
            ExactMath.inv_sqrt(x)
        }
        fn div(&self, a: f32, b: f32) -> f32 {
            ExactMath.div(a, b)
        }
    }

    /// A snapshot answers while the only worker is held inside a forward,
    /// and successive snapshots, then the final report, never count less.
    #[test]
    fn snapshots_are_live_and_monotone() {
        use std::sync::atomic::Ordering::SeqCst;
        let models = ModelRegistry::from_models([tiny_model().clone()]);
        let gate = GatedMath {
            entered: std::sync::atomic::AtomicBool::new(false),
            release: std::sync::atomic::AtomicBool::new(false),
        };
        let server = Server::new(&models, &gate, server_cfg()).unwrap();
        let ((held, served), last) = server.run(|h| {
            let first = h.submit(Request::new(0, 0, images(1, 1))).unwrap();
            while !gate.entered.load(SeqCst) {
                std::thread::yield_now();
            }
            let held = h.snapshot();
            gate.release.store(true, SeqCst);
            first.wait().unwrap();
            for i in 0..5 {
                let request = Request::new(1, 0, images(1, 10 + i)).with_priority(Priority::High);
                h.submit(request).unwrap().wait().unwrap();
            }
            (held, h.snapshot())
        });
        assert_eq!(held.requests, 0, "the held forward has not completed");
        // A batch is recorded just after its tickets resolve, so a
        // snapshot may trail the last waits; the final report does not.
        assert!(served.requests <= 6);
        assert_eq!(last.requests, 6);
        assert_eq!(last.tier(Priority::High).requests, 5);
        assert!(last.p50_us <= last.p99_us);
        for (earlier, later) in [(&held, &served), (&served, &last)] {
            assert!(earlier.requests <= later.requests);
            assert!(earlier.samples <= later.samples);
            assert!(earlier.batches <= later.batches);
            assert!(earlier.elapsed_s <= later.elapsed_s);
            for (a, b) in earlier.tiers.iter().zip(&later.tiers) {
                assert!(a.requests <= b.requests);
            }
        }
    }

    #[test]
    fn high_priority_dispatches_before_earlier_low() {
        use std::sync::atomic::Ordering::SeqCst;
        // Non-coalescable model: one request per batch, so batch_seq gives
        // the exact dispatch order.
        let spec = CapsNetSpec::tiny_for_tests(); // batch_shared = true
        let net = CapsNet::seeded(&spec, 5).unwrap();
        let models = ModelRegistry::from_models([ServedModel::new("shared", net)]);
        let cfg = ServeConfig {
            max_wait: Duration::ZERO,
            ..server_cfg()
        };
        let gate = GatedMath {
            entered: std::sync::atomic::AtomicBool::new(false),
            release: std::sync::atomic::AtomicBool::new(false),
        };
        let server = Server::new(&models, &gate, cfg).unwrap();
        let ((low, high), _) = server.run(|h| {
            // r1 occupies the single worker, which the gate holds inside
            // r1's forward until both follow-ups are queued — r2 (Low) then
            // r3 (High), in that arrival order. No timing assumption: the
            // worker cannot reach r2 before r3 exists.
            let r1 = h.submit(Request::new(0, 0, images(8, 1))).unwrap();
            while !gate.entered.load(SeqCst) {
                std::thread::yield_now();
            }
            let r2 = h
                .submit(Request::new(1, 0, images(1, 2)).with_priority(Priority::Low))
                .unwrap();
            let r3 = h
                .submit(Request::new(2, 0, images(1, 3)).with_priority(Priority::High))
                .unwrap();
            gate.release.store(true, SeqCst);
            r1.wait().unwrap();
            (r2.wait().unwrap(), r3.wait().unwrap())
        });
        assert!(
            high.batch_seq < low.batch_seq,
            "High (seq {}) must dispatch before the earlier-arrived Low (seq {})",
            high.batch_seq,
            low.batch_seq
        );
    }
}
