//! A miniature model checker for the workspace's concurrency protocols.
//!
//! Real threads run the model code, but a cooperative scheduler keeps
//! exactly **one** of them runnable at a time and inserts a scheduling
//! decision before every shadow-state operation. Exhaustive mode walks the
//! resulting decision tree depth-first (prefix replay: re-run the model
//! with a prescribed choice prefix, then deviate at the deepest unexplored
//! branch), so every interleaving of shadow operations is executed.
//! Random mode samples schedules from a seeded splitmix64 stream; the same
//! seed always reproduces the same schedule sequence, and any failing
//! schedule is returned as a decision trace that replays verbatim.
//!
//! The shadow world is sequentially consistent — this checks *atomicity
//! and interleaving* bugs (check-then-act races, lost updates, stranded
//! jobs), not weak-memory reordering, which is
//! the right level for the serve-tier protocols modeled in
//! [`models`].

pub mod models;

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

/// Sentinel for "no thread scheduled" (main / done).
const NONE: usize = usize::MAX;

/// Panic payload used to unwind model threads out of an aborted execution.
struct AbortToken;

static QUIET_HOOK: Once = Once::new();

/// Installs a panic hook that silences [`AbortToken`] unwinds (they are
/// control flow, not errors) while delegating everything else.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortToken>().is_none() {
                prev(info);
            }
        }));
    });
}

fn lock_inner(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    // A poisoned scheduler mutex only happens if a model thread panicked
    // while holding it; the state is still consistent enough to abort.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One scheduling decision: how many threads were runnable, which index
/// (into the sorted runnable list) was chosen.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    pub options: usize,
    pub chosen: usize,
}

/// How schedules are chosen beyond the replay prefix.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// First runnable thread (DFS default branch).
    First,
    /// Seeded pseudo-random choice.
    Random { state: u64 },
}

#[derive(Debug)]
struct Inner {
    current: usize,
    /// Sorted list of runnable thread ids (includes the current thread).
    runnable: Vec<usize>,
    /// tid -> mutex id it is waiting on.
    waiting: BTreeMap<usize, usize>,
    /// tid -> condvar id it sleeps on until a notify.
    sleeping: BTreeMap<usize, usize>,
    /// mutex id -> owning tid.
    owners: BTreeMap<usize, usize>,
    finished: usize,
    total: usize,
    started: usize,
    prefix: Vec<usize>,
    decisions: Vec<Decision>,
    /// Thread ids in the order they were scheduled.
    trace: Vec<usize>,
    /// Labeled shadow ops (`t<id> label`), recorded when `record_ops`.
    ops: Vec<String>,
    record_ops: bool,
    failure: Option<String>,
    aborted: bool,
    done: bool,
    steps: usize,
    max_steps: usize,
    mode: Mode,
}

/// The cooperative scheduler shared by all threads of one execution.
pub struct Sched {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Sched {
    fn new(
        total: usize,
        prefix: Vec<usize>,
        mode: Mode,
        max_steps: usize,
        record_ops: bool,
    ) -> Sched {
        Sched {
            inner: Mutex::new(Inner {
                current: NONE,
                runnable: Vec::new(),
                waiting: BTreeMap::new(),
                sleeping: BTreeMap::new(),
                owners: BTreeMap::new(),
                finished: 0,
                total,
                started: 0,
                prefix,
                decisions: Vec::new(),
                trace: Vec::new(),
                ops: Vec::new(),
                record_ops,
                failure: None,
                aborted: false,
                done: false,
                steps: 0,
                max_steps,
                mode,
            }),
            cv: Condvar::new(),
        }
    }

    /// Picks the next thread to run. Caller holds the lock. Sets
    /// `current`; on an empty runnable set flags deadlock (or completion).
    fn pick(&self, inner: &mut Inner) {
        if inner.runnable.is_empty() {
            if inner.finished == inner.total {
                inner.done = true;
                inner.current = NONE;
            } else {
                let mut stuck: Vec<usize> = inner.waiting.keys().copied().collect();
                stuck.extend(inner.sleeping.keys());
                stuck.sort_unstable();
                self.abort_locked(
                    inner,
                    format!("deadlock: threads {stuck:?} blocked with nothing runnable"),
                );
            }
            return;
        }
        let options = inner.runnable.len();
        let idx = if inner.decisions.len() < inner.prefix.len() {
            inner.prefix[inner.decisions.len()].min(options - 1)
        } else {
            match &mut inner.mode {
                Mode::First => 0,
                Mode::Random { state } => (splitmix64(state) % options as u64) as usize,
            }
        };
        inner.decisions.push(Decision {
            options,
            chosen: idx,
        });
        inner.current = inner.runnable[idx];
        inner.trace.push(inner.current);
    }

    fn abort_locked(&self, inner: &mut Inner, msg: String) {
        if inner.failure.is_none() {
            inner.failure = Some(msg);
        }
        inner.aborted = true;
        inner.current = NONE;
        inner.done = true;
    }

    /// Called by each model thread before touching any shadow state.
    fn register(&self, tid: usize) {
        let mut inner = lock_inner(&self.inner);
        let pos = inner.runnable.binary_search(&tid).unwrap_or_else(|p| p);
        inner.runnable.insert(pos, tid);
        inner.started += 1;
        self.cv.notify_all();
        while inner.current != tid && !inner.aborted {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        if inner.aborted {
            drop(inner);
            panic::panic_any(AbortToken);
        }
    }

    /// Main-thread side of startup: waits for all threads to park, then
    /// makes the first scheduling decision.
    fn start(&self) {
        let mut inner = lock_inner(&self.inner);
        while inner.started < inner.total {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        self.pick(&mut inner);
        self.cv.notify_all();
    }

    /// A scheduling point: records the op label, lets the scheduler choose
    /// who proceeds, and returns once this thread is chosen again.
    fn yield_point(&self, tid: usize, label: &str) {
        let mut inner = lock_inner(&self.inner);
        if inner.aborted {
            drop(inner);
            panic::panic_any(AbortToken);
        }
        inner.steps += 1;
        if inner.steps > inner.max_steps {
            let msg = format!("step bound {} exceeded (livelock?)", inner.max_steps);
            self.abort_locked(&mut inner, msg);
            self.cv.notify_all();
            drop(inner);
            panic::panic_any(AbortToken);
        }
        if inner.record_ops {
            inner.ops.push(format!("t{tid}: {label}"));
        }
        self.switch_away(inner, tid);
    }

    /// Lets the scheduler pick who runs next and returns once `tid` is
    /// picked again (unwinding if the execution aborted meanwhile).
    fn switch_away(&self, mut inner: MutexGuard<'_, Inner>, tid: usize) {
        self.pick(&mut inner);
        self.cv.notify_all();
        while inner.current != tid && !inner.aborted {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        if inner.aborted {
            drop(inner);
            panic::panic_any(AbortToken);
        }
    }

    /// Fails the execution with an invariant-violation message and unwinds
    /// the calling thread.
    pub fn fail(&self, tid: usize, msg: impl Into<String>) -> ! {
        let mut inner = lock_inner(&self.inner);
        self.abort_locked(&mut inner, format!("t{tid}: {}", msg.into()));
        self.cv.notify_all();
        drop(inner);
        panic::panic_any(AbortToken);
    }

    /// Marks the calling thread finished and hands the CPU to the next.
    fn finish(&self, tid: usize) {
        let mut inner = lock_inner(&self.inner);
        if inner.aborted {
            return;
        }
        inner.runnable.retain(|&t| t != tid);
        inner.finished += 1;
        self.pick(&mut inner);
        self.cv.notify_all();
    }

    /// Shadow-mutex acquisition: blocks (deschedules) while owned.
    fn acquire(&self, tid: usize, mutex_id: usize, label: &str) {
        self.yield_point(tid, label);
        loop {
            let mut inner = lock_inner(&self.inner);
            if inner.aborted {
                drop(inner);
                panic::panic_any(AbortToken);
            }
            if let std::collections::btree_map::Entry::Vacant(e) = inner.owners.entry(mutex_id) {
                e.insert(tid);
                return;
            }
            // Owned: deschedule until an unlock makes us runnable again.
            inner.runnable.retain(|&t| t != tid);
            inner.waiting.insert(tid, mutex_id);
            self.switch_away(inner, tid);
        }
    }

    /// Shadow-mutex release: wakes all waiters (they race to reacquire
    /// under the scheduler's control). Not itself a scheduling point — the
    /// releaser keeps the CPU until its next shadow op, which is where
    /// freshly-woken waiters become eligible.
    fn release(&self, mutex_id: usize) {
        Self::release_locked(&mut lock_inner(&self.inner), mutex_id);
    }

    fn release_locked(inner: &mut Inner, mutex_id: usize) {
        inner.owners.remove(&mutex_id);
        unblock(&mut inner.waiting, &mut inner.runnable, mutex_id);
    }

    /// Condvar wait, in one step: releases `mutex_id`, deschedules the
    /// caller until a notify on `cv_id` makes it runnable again. A sleeper
    /// nobody notifies leaves nothing runnable: a deadlock.
    fn sleep(&self, tid: usize, cv_id: usize, mutex_id: usize) {
        let mut inner = lock_inner(&self.inner);
        if inner.aborted {
            drop(inner);
            panic::panic_any(AbortToken);
        }
        Self::release_locked(&mut inner, mutex_id);
        inner.runnable.retain(|&t| t != tid);
        inner.sleeping.insert(tid, cv_id);
        self.switch_away(inner, tid);
    }

    /// Makes every sleeper on `cv_id` runnable (they then race to
    /// reacquire their mutex under the scheduler's control).
    fn wake_all(&self, cv_id: usize) {
        let inner = &mut *lock_inner(&self.inner);
        unblock(&mut inner.sleeping, &mut inner.runnable, cv_id);
    }
}

/// Moves every thread that `blocked` maps to `id` (a mutex or a condvar)
/// back into the sorted `runnable` set.
fn unblock(blocked: &mut BTreeMap<usize, usize>, runnable: &mut Vec<usize>, id: usize) {
    blocked.retain(|&t, &mut b| {
        if b == id {
            let pos = runnable.binary_search(&t).unwrap_or_else(|p| p);
            runnable.insert(pos, t);
        }
        b != id
    });
}

// ── shadow primitives ───────────────────────────────────────────────────

static NEXT_MUTEX_ID: AtomicUsize = AtomicUsize::new(0);

/// A mutex whose blocking semantics live in the scheduler. Only one model
/// thread runs at a time, so the inner data needs no real lock — but a
/// real `Mutex` keeps the type `Sync` without unsafe code, and it is never
/// contended (shadow ownership is established first).
pub struct ShadowMutex<T> {
    id: usize,
    label: &'static str,
    data: Mutex<T>,
}

impl<T> ShadowMutex<T> {
    pub fn new(label: &'static str, value: T) -> Self {
        ShadowMutex {
            id: NEXT_MUTEX_ID.fetch_add(1, Ordering::Relaxed),
            label,
            data: Mutex::new(value),
        }
    }

    /// Acquires the shadow mutex (a scheduling point; blocks while owned).
    pub fn lock<'a>(&'a self, sched: &'a Sched, tid: usize) -> ShadowGuard<'a, T> {
        sched.acquire(tid, self.id, &format!("lock({})", self.label));
        let inner = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        ShadowGuard {
            sched,
            mutex: self,
            inner: Some(inner),
        }
    }
}

/// Guard for a [`ShadowMutex`]; releases the shadow ownership on drop.
pub struct ShadowGuard<'a, T> {
    sched: &'a Sched,
    mutex: &'a ShadowMutex<T>,
    inner: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for ShadowGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for ShadowGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for ShadowGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.sched.release(self.mutex.id);
        }
    }
}

/// A condition variable whose blocking lives in the scheduler. There are
/// no spurious wake-ups and no timeouts: a waiter runs again only after a
/// [`ShadowCondvar::notify_all`], so a lost wake-up strands it and the
/// execution fails as a deadlock.
pub struct ShadowCondvar {
    id: usize,
    label: &'static str,
}

impl ShadowCondvar {
    pub fn new(label: &'static str) -> Self {
        ShadowCondvar {
            id: NEXT_MUTEX_ID.fetch_add(1, Ordering::Relaxed),
            label,
        }
    }

    /// Releases `guard`'s mutex and sleeps until a notify, then reacquires
    /// the mutex (scheduling points before the wait and at the relock).
    pub fn wait<'a, T>(&self, mut guard: ShadowGuard<'a, T>, tid: usize) -> ShadowGuard<'a, T> {
        let (sched, mutex) = (guard.sched, guard.mutex);
        sched.yield_point(tid, &format!("wait({})", self.label));
        // The shadow ownership goes in `sleep`, atomically with the
        // descheduling; the guard's drop must not release it again.
        guard.inner.take();
        drop(guard);
        sched.sleep(tid, self.id, mutex.id);
        mutex.lock(sched, tid)
    }

    /// Makes every thread sleeping on this condvar runnable (a scheduling
    /// point).
    pub fn notify_all(&self, sched: &Sched, tid: usize) {
        sched.yield_point(tid, &format!("notify_all({})", self.label));
        sched.wake_all(self.id);
    }
}

/// A shadow atomic integer: every operation is a scheduling point.
pub struct ShadowAtomic {
    label: &'static str,
    v: AtomicI64,
}

impl ShadowAtomic {
    pub fn new(label: &'static str, value: i64) -> Self {
        ShadowAtomic {
            label,
            v: AtomicI64::new(value),
        }
    }

    pub fn load(&self, sched: &Sched, tid: usize) -> i64 {
        sched.yield_point(tid, &format!("load({})", self.label));
        self.v.load(Ordering::SeqCst)
    }

    pub fn store(&self, sched: &Sched, tid: usize, value: i64) {
        sched.yield_point(tid, &format!("store({}, {value})", self.label));
        self.v.store(value, Ordering::SeqCst);
    }

    pub fn fetch_add(&self, sched: &Sched, tid: usize, delta: i64) -> i64 {
        sched.yield_point(tid, &format!("fetch_add({}, {delta})", self.label));
        self.v.fetch_add(delta, Ordering::SeqCst)
    }

    pub fn compare_exchange(
        &self,
        sched: &Sched,
        tid: usize,
        expected: i64,
        new: i64,
    ) -> Result<i64, i64> {
        sched.yield_point(tid, &format!("cas({}, {expected}->{new})", self.label));
        self.v
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }
}

// ── exploration driver ──────────────────────────────────────────────────

/// Thread body: dispatched by thread id against the shared state.
pub type Body<S> = Arc<dyn Fn(usize, &Sched, &S) + Send + Sync>;
/// Final invariant over the quiesced state.
pub type FinalCheck<S> = Arc<dyn Fn(&S) -> Result<(), String> + Send + Sync>;

/// A model: per-execution state `S`, thread count, a body dispatched by
/// thread id, and a final invariant over the quiesced state.
pub struct Model<S> {
    pub name: &'static str,
    pub threads: usize,
    pub make: Arc<dyn Fn() -> Arc<S> + Send + Sync>,
    pub body: Body<S>,
    pub check_final: FinalCheck<S>,
}

impl<S> Clone for Model<S> {
    fn clone(&self) -> Self {
        Model {
            name: self.name,
            threads: self.threads,
            make: Arc::clone(&self.make),
            body: Arc::clone(&self.body),
            check_final: Arc::clone(&self.check_final),
        }
    }
}

/// A failing schedule, replayable via [`replay`].
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub message: String,
    /// Thread ids in scheduling order.
    pub trace: Vec<usize>,
    /// Decision choices (indices into the sorted runnable set) — the
    /// replay prefix.
    pub choices: Vec<usize>,
    /// Labeled shadow ops of the failing execution.
    pub ops: Vec<String>,
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Outcome {
    pub executions: u64,
    /// `true` when the full decision tree was walked (DFS mode only).
    pub exhausted: bool,
    pub failure: Option<Counterexample>,
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Hard cap on executions (safety valve; exhaustive models stay far
    /// below it).
    pub max_executions: u64,
    /// Per-execution shadow-op bound (livelock guard).
    pub max_steps: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_executions: 500_000,
            max_steps: 10_000,
        }
    }
}

struct ExecResult {
    decisions: Vec<Decision>,
    trace: Vec<usize>,
    ops: Vec<String>,
    failure: Option<String>,
}

fn run_once<S: Send + Sync + 'static>(
    model: &Model<S>,
    prefix: Vec<usize>,
    mode: Mode,
    max_steps: usize,
    record_ops: bool,
) -> ExecResult {
    install_quiet_hook();
    let state = (model.make)();
    let sched = Arc::new(Sched::new(
        model.threads,
        prefix,
        mode,
        max_steps,
        record_ops,
    ));
    let mut handles = Vec::with_capacity(model.threads);
    for tid in 0..model.threads {
        let sched = Arc::clone(&sched);
        let state = Arc::clone(&state);
        let body = Arc::clone(&model.body);
        handles.push(std::thread::spawn(move || {
            sched.register(tid);
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(tid, &sched, &state)));
            if let Err(payload) = result {
                if payload.downcast_ref::<AbortToken>().is_none() {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "model thread panicked".to_string());
                    let mut inner = lock_inner(&sched.inner);
                    sched.abort_locked(&mut inner, format!("t{tid} panicked: {msg}"));
                    sched.cv.notify_all();
                    return;
                }
                return;
            }
            sched.finish(tid);
        }));
    }
    sched.start();
    for h in handles {
        let _ = h.join();
    }
    let mut inner = lock_inner(&sched.inner);
    let mut failure = inner.failure.take();
    if failure.is_none() {
        if let Err(msg) = (model.check_final)(&state) {
            failure = Some(format!("final invariant: {msg}"));
        }
    }
    ExecResult {
        decisions: std::mem::take(&mut inner.decisions),
        trace: std::mem::take(&mut inner.trace),
        ops: std::mem::take(&mut inner.ops),
        failure,
    }
}

/// Builds the counterexample for a failing execution, re-running it with
/// op recording to capture the labeled schedule.
fn counterexample<S: Send + Sync + 'static>(
    model: &Model<S>,
    res: &ExecResult,
    max_steps: usize,
) -> Counterexample {
    let choices: Vec<usize> = res.decisions.iter().map(|d| d.chosen).collect();
    let replayed = run_once(model, choices.clone(), Mode::First, max_steps, true);
    Counterexample {
        message: res.failure.clone().unwrap_or_default(),
        trace: res.trace.clone(),
        choices,
        ops: replayed.ops,
    }
}

/// Exhaustively enumerates every interleaving of `model`'s shadow ops.
pub fn explore<S: Send + Sync + 'static>(model: &Model<S>, opts: Options) -> Outcome {
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0u64;
    loop {
        let res = run_once(model, prefix.clone(), Mode::First, opts.max_steps, false);
        executions += 1;
        if res.failure.is_some() {
            let cex = counterexample(model, &res, opts.max_steps);
            return Outcome {
                executions,
                exhausted: false,
                failure: Some(cex),
            };
        }
        // Backtrack to the deepest decision with an unexplored branch.
        let mut decisions = res.decisions;
        let mut advanced = false;
        while let Some(last) = decisions.pop() {
            if last.chosen + 1 < last.options {
                decisions.push(Decision {
                    options: last.options,
                    chosen: last.chosen + 1,
                });
                advanced = true;
                break;
            }
        }
        if !advanced {
            return Outcome {
                executions,
                exhausted: true,
                failure: None,
            };
        }
        prefix = decisions.iter().map(|d| d.chosen).collect();
        if executions >= opts.max_executions {
            return Outcome {
                executions,
                exhausted: false,
                failure: None,
            };
        }
    }
}

/// Samples `iterations` random schedules from a seeded stream. The same
/// `(seed, iterations)` pair always explores the same schedules in the
/// same order.
pub fn sample<S: Send + Sync + 'static>(
    model: &Model<S>,
    seed: u64,
    iterations: u64,
    opts: Options,
) -> Outcome {
    let mut state = seed;
    for n in 0..iterations {
        // Derive an independent per-execution stream so a failure replays
        // from (seed, n) alone.
        let exec_seed = splitmix64(&mut state);
        let res = run_once(
            model,
            Vec::new(),
            Mode::Random { state: exec_seed },
            opts.max_steps,
            false,
        );
        if res.failure.is_some() {
            let cex = counterexample(model, &res, opts.max_steps);
            return Outcome {
                executions: n + 1,
                exhausted: false,
                failure: Some(cex),
            };
        }
    }
    Outcome {
        executions: iterations,
        exhausted: false,
        failure: None,
    }
}

/// Replays a recorded choice prefix, returning the labeled op schedule —
/// deterministic, for counterexample inspection.
pub fn replay<S: Send + Sync + 'static>(model: &Model<S>, choices: &[usize]) -> Vec<String> {
    run_once(model, choices.to_vec(), Mode::First, 10_000, true).ops
}

/// splitmix64: tiny, seedable, statistically solid for schedule sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads increment a plain (non-atomic) shared counter via
    /// load-then-store — the classic lost update. Exhaustive exploration
    /// must find it; the CAS version must pass.
    fn racy_counter(use_cas: bool) -> Model<ShadowAtomic> {
        Model {
            name: "racy-counter",
            threads: 2,
            make: Arc::new(|| Arc::new(ShadowAtomic::new("ctr", 0))),
            body: Arc::new(move |tid, sched, ctr: &ShadowAtomic| {
                if use_cas {
                    loop {
                        let v = ctr.load(sched, tid);
                        if ctr.compare_exchange(sched, tid, v, v + 1).is_ok() {
                            break;
                        }
                    }
                } else {
                    let v = ctr.load(sched, tid);
                    ctr.store(sched, tid, v + 1);
                }
            }),
            check_final: Arc::new(|ctr: &ShadowAtomic| {
                let v = ctr.v.load(Ordering::SeqCst);
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("expected 2 increments, counter = {v}"))
                }
            }),
        }
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let out = explore(&racy_counter(false), Options::default());
        let cex = out.failure.expect("lost update must be found");
        assert!(cex.message.contains("counter = 1"), "{}", cex.message);
        assert!(!cex.ops.is_empty());
        // The counterexample replays deterministically.
        let ops2 = replay(&racy_counter(false), &cex.choices);
        assert_eq!(cex.ops, ops2);
    }

    #[test]
    fn exhaustive_passes_cas_version() {
        let out = explore(&racy_counter(true), Options::default());
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.exhausted);
        assert!(
            out.executions >= 4,
            "trivially few executions: {}",
            out.executions
        );
    }

    #[test]
    fn mutex_version_passes_and_blocks_correctly() {
        let model: Model<ShadowMutex<i64>> = Model {
            name: "mutex-counter",
            threads: 3,
            make: Arc::new(|| Arc::new(ShadowMutex::new("ctr", 0))),
            body: Arc::new(|tid, sched, m: &ShadowMutex<i64>| {
                let mut g = m.lock(sched, tid);
                *g += 1;
            }),
            check_final: Arc::new(|m: &ShadowMutex<i64>| {
                let v = *m.data.lock().unwrap();
                if v == 3 {
                    Ok(())
                } else {
                    Err(format!("expected 3, got {v}"))
                }
            }),
        };
        let out = explore(&model, Options::default());
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.exhausted);
    }

    #[test]
    fn deadlock_is_detected() {
        struct TwoLocks {
            a: ShadowMutex<()>,
            b: ShadowMutex<()>,
        }
        let model: Model<TwoLocks> = Model {
            name: "abba",
            threads: 2,
            make: Arc::new(|| {
                Arc::new(TwoLocks {
                    a: ShadowMutex::new("a", ()),
                    b: ShadowMutex::new("b", ()),
                })
            }),
            body: Arc::new(|tid, sched, s: &TwoLocks| {
                let (first, second) = if tid == 0 { (&s.a, &s.b) } else { (&s.b, &s.a) };
                let _g1 = first.lock(sched, tid);
                let _g2 = second.lock(sched, tid);
            }),
            check_final: Arc::new(|_| Ok(())),
        };
        let out = explore(&model, Options::default());
        let cex = out.failure.expect("AB-BA deadlock must be found");
        assert!(cex.message.contains("deadlock"), "{}", cex.message);
    }

    #[test]
    fn a_wait_nobody_notifies_is_a_deadlock() {
        struct Flag {
            m: ShadowMutex<bool>,
            cv: ShadowCondvar,
        }
        let model = |notify: bool| -> Model<Flag> {
            Model {
                name: "flag",
                threads: 2,
                make: Arc::new(|| {
                    Arc::new(Flag {
                        m: ShadowMutex::new("m", false),
                        cv: ShadowCondvar::new("cv"),
                    })
                }),
                body: Arc::new(move |tid, sched, s: &Flag| {
                    if tid == 0 {
                        let mut g = s.m.lock(sched, tid);
                        while !*g {
                            g = s.cv.wait(g, tid);
                        }
                    } else {
                        *s.m.lock(sched, tid) = true;
                        if notify {
                            s.cv.notify_all(sched, tid);
                        }
                    }
                }),
                check_final: Arc::new(|_| Ok(())),
            }
        };
        let out = explore(&model(true), Options::default());
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.exhausted);
        let out = explore(&model(false), Options::default());
        let cex = out.failure.expect("an unnotified sleeper must be found");
        assert!(
            cex.message.contains("deadlock: threads [0]"),
            "{}",
            cex.message
        );
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        // Same seed: identical outcome (executions until failure).
        let a = sample(&racy_counter(false), 0xfeed, 200, Options::default());
        let b = sample(&racy_counter(false), 0xfeed, 200, Options::default());
        assert_eq!(a.executions, b.executions);
        let (ca, cb) = (a.failure.expect("found"), b.failure.expect("found"));
        assert_eq!(ca.trace, cb.trace);
        assert_eq!(ca.ops, cb.ops);
    }
}
