//! Shadow models of the three serve-tier concurrency protocols, checked
//! exhaustively by [`explore`].
//!
//! Each protocol comes in two variants: the **correct** one mirroring the
//! workspace implementation (must pass every interleaving) and a
//! **broken** one reintroducing the bug the protocol is designed to
//! exclude (must produce a counterexample — the self-test proving the
//! invariant can actually trip).
//!
//! | model     | mirrors                                   | invariant |
//! |-----------|-------------------------------------------|-----------|
//! | `mailbox` | `serve::replica::Mailbox` push/wound/close | every job resolves exactly once |
//! | `reserve` | `serve::replica` `pick_and_reserve` CAS-argmin | counts never negative; overlapping picks spread |
//! | `wake`    | `serve::server` `Scheduler` submit / `form_batch` sleeper count | no lost wake-up: every request is served |

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use super::{explore, Model, Options, Outcome, Sched, ShadowAtomic, ShadowCondvar, ShadowMutex};

/// A model variant: correct (expected to pass) or broken (expected to
/// fail — self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Correct,
    Broken,
}

/// Report for one model run.
pub struct Report {
    pub name: &'static str,
    pub variant: Variant,
    pub outcome: Outcome,
}

impl Report {
    /// A correct variant passes by exhausting the tree without failure; a
    /// broken variant passes by producing a counterexample.
    pub fn ok(&self) -> bool {
        match self.variant {
            Variant::Correct => self.outcome.failure.is_none() && self.outcome.exhausted,
            Variant::Broken => self.outcome.failure.is_some(),
        }
    }
}

fn lock_plain<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ── model 1: mailbox push / wound / close ───────────────────────────────

/// Shadow of `serve::replica::Mailbox`: control jobs plus the closed and
/// wounded flags under one mutex. Jobs are resolved (run or failed)
/// exactly once.
pub struct MailboxState {
    queue: ShadowMutex<Mail>,
    /// Per-job resolution count (plain — written only by the resolving
    /// thread, read after quiescence).
    resolved: [AtomicI64; 2],
}

/// The mailbox's guarded state.
#[derive(Default)]
pub struct Mail {
    jobs: VecDeque<usize>,
    closed: bool,
    wounded: bool,
}

impl MailboxState {
    fn resolve(&self, sched: &Sched, tid: usize, job: usize) {
        let n = self.resolved[job].fetch_add(1, Ordering::SeqCst);
        if n != 0 {
            sched.fail(tid, format!("job {job} resolved twice"));
        }
    }

    /// `close_and_fail` / window-end drain: close, take everything queued
    /// under the lock, resolve it outside.
    fn close_and_drain(&self, sched: &Sched, tid: usize) {
        let mut g = self.queue.lock(sched, tid);
        g.closed = true;
        let drained: Vec<usize> = g.jobs.drain(..).collect();
        drop(g);
        for job in drained {
            self.resolve(sched, tid, job);
        }
    }
}

/// Threads: t0 pushes control jobs 0 and 1 (failing a push-after-close);
/// t1 is a replica worker dying twice (`wound`); t2 is the replica's
/// supervisor and control thread — it pops (a wound before any job),
/// restarts the life once on a wound (`heal`), dies for good on the next
/// one (`close_and_fail`), and otherwise closes and drains at window end.
///
/// `Broken`: push is check-then-act (the closed flag is read in one
/// critical section and the push happens in another, so a close between
/// them strands the job), and the control thread pops a job *before*
/// looking at the wound, so a wound ends the life with that job in hand
/// and never run — the stranding the wound-first order prevents.
pub fn mailbox(variant: Variant) -> Model<MailboxState> {
    let broken = variant == Variant::Broken;
    Model {
        name: "mailbox",
        threads: 3,
        make: Arc::new(|| {
            Arc::new(MailboxState {
                queue: ShadowMutex::new("mailbox", Mail::default()),
                resolved: [AtomicI64::new(0), AtomicI64::new(0)],
            })
        }),
        body: Arc::new(move |tid, sched, s: &MailboxState| match tid {
            0 => {
                // Producer: push jobs 0 and 1.
                for job in 0..2usize {
                    if broken {
                        // BUG: closed checked in a separate critical
                        // section from the push.
                        let closed = s.queue.lock(sched, tid).closed;
                        if closed {
                            s.resolve(sched, tid, job);
                            continue;
                        }
                        s.queue.lock(sched, tid).jobs.push_back(job);
                    } else {
                        // Correct: check-and-push is one critical section.
                        let mut g = s.queue.lock(sched, tid);
                        if g.closed {
                            drop(g);
                            s.resolve(sched, tid, job);
                        } else {
                            g.jobs.push_back(job);
                        }
                    }
                }
            }
            1 => {
                // Dying workers: each raises the wound.
                for _ in 0..2 {
                    s.queue.lock(sched, tid).wounded = true;
                }
            }
            2 => {
                // Supervisor + control loop, restart budget 1.
                let mut restarts = 0;
                for _ in 0..4 {
                    let mut g = s.queue.lock(sched, tid);
                    // BUG (broken): the job is taken before the wound is
                    // looked at.
                    let early = if broken { g.jobs.pop_front() } else { None };
                    if g.wounded {
                        drop(g);
                        if restarts == 1 {
                            s.close_and_drain(sched, tid);
                            return;
                        }
                        restarts += 1;
                        s.queue.lock(sched, tid).wounded = false;
                        continue;
                    }
                    let job = early.or_else(|| g.jobs.pop_front());
                    drop(g);
                    if let Some(job) = job {
                        s.resolve(sched, tid, job);
                    }
                }
                // Window end: close, then drain and run what is queued.
                s.close_and_drain(sched, tid);
            }
            _ => unreachable!(),
        }),
        check_final: Arc::new(|s: &MailboxState| {
            // The resolution count is the ground truth: a stranded job
            // (left queued, or dropped in hand) resolved zero times.
            for (job, r) in s.resolved.iter().enumerate() {
                let n = r.load(Ordering::SeqCst);
                if n != 1 {
                    return Err(format!("job {job} resolved {n} times (want exactly 1)"));
                }
            }
            Ok(())
        }),
    }
}

// ── model 2: pick_and_reserve CAS-argmin vs. concurrent release ─────────

/// Shadow of `serve::replica` least-queued dispatch: per-replica
/// outstanding counters reserved via CAS-argmin, released via fetch_sub.
pub struct ReserveState {
    outstanding: [ShadowAtomic; 2],
    /// Which replica each picker reserved, and whether the reservations
    /// overlapped (both held at once).
    picks: Mutex<Vec<(usize, i64)>>,
    active: AtomicI64,
}

/// Threads: two pickers, each reserving the least-loaded replica (CAS
/// loop over a snapshot argmin) then releasing it.
///
/// Invariants: (a) a release never drives a counter negative — checked at
/// the fetch_sub; (b) when both reservations are simultaneously live, they
/// sit on *different* replicas (the burst-spread property the CAS
/// guarantees with 2 idle replicas and 2 concurrent picks).
///
/// `Broken`: reserve uses load-then-store instead of CAS — two pickers
/// snapshot the same counts, both argmin to replica 0, and the lost update
/// stacks both requests on one replica (and later underflows it).
pub fn reserve(variant: Variant) -> Model<ReserveState> {
    let broken = variant == Variant::Broken;
    Model {
        name: "reserve",
        threads: 2,
        make: Arc::new(|| {
            Arc::new(ReserveState {
                outstanding: [ShadowAtomic::new("out0", 0), ShadowAtomic::new("out1", 0)],
                picks: Mutex::new(Vec::new()),
                active: AtomicI64::new(0),
            })
        }),
        body: Arc::new(move |tid, sched, s: &ReserveState| {
            // Reserve.
            let replica = loop {
                let c0 = s.outstanding[0].load(sched, tid);
                let c1 = s.outstanding[1].load(sched, tid);
                let (r, c) = if c1 < c0 { (1, c1) } else { (0, c0) };
                if broken {
                    // BUG: non-atomic read-modify-write.
                    s.outstanding[r].store(sched, tid, c + 1);
                    break r;
                }
                if s.outstanding[r]
                    .compare_exchange(sched, tid, c, c + 1)
                    .is_ok()
                {
                    break r;
                }
            };
            // Overlap bookkeeping (not part of the modeled protocol: a
            // plain mutex with no scheduling point, so it does not widen
            // the interleaving space).
            {
                let mut picks = lock_plain(&s.picks);
                let now_active = s.active.fetch_add(1, Ordering::SeqCst) + 1;
                if now_active == 2 {
                    let prev = picks.last().map(|&(r, _)| r);
                    if prev == Some(replica) {
                        sched.fail(
                            tid,
                            format!(
                                "burst not spread: both live reservations on replica {replica}"
                            ),
                        );
                    }
                }
                picks.push((replica, now_active));
            }
            // Release (the OutstandingGuard drop path).
            s.active.fetch_add(-1, Ordering::SeqCst);
            let prev = s.outstanding[replica].fetch_add(sched, tid, -1);
            if prev <= 0 {
                sched.fail(
                    tid,
                    format!("outstanding[{replica}] went negative (was {prev} before release)"),
                );
            }
        }),
        check_final: Arc::new(|s: &ReserveState| {
            for (i, c) in s.outstanding.iter().enumerate() {
                let v = c.load_quiesced();
                if v != 0 {
                    return Err(format!(
                        "outstanding[{i}] = {v} after all releases (want 0)"
                    ));
                }
            }
            Ok(())
        }),
    }
}

impl ShadowAtomic {
    /// Post-quiescence read for final-invariant checks (no scheduler).
    fn load_quiesced(&self) -> i64 {
        self.v.load(Ordering::SeqCst)
    }
}

// ── model 3: notify only when a thread sleeps ────────────────────────────

/// Shadow of `serve::server::Scheduler`'s wake rule: the queue and the
/// count of threads sleeping on `work_ready`, under one mutex.
pub struct WakeState {
    state: ShadowMutex<Queue>,
    work_ready: ShadowCondvar,
    /// Requests the worker served (read after quiescence).
    served: AtomicI64,
}

/// The scheduler's guarded state.
#[derive(Default)]
pub struct Queue {
    queued: usize,
    sleepers: usize,
}

/// Requests the submitter sends (and the worker serves).
const WAKE_REQUESTS: usize = 2;

/// Threads: t0 submits `WAKE_REQUESTS` requests, each pushed under the
/// lock, and notifies only when it saw a sleeper; t1 is a worker that
/// takes them one by one, counting itself a sleeper around each wait.
///
/// `Broken`: the submitter reads the sleeper count in one critical section
/// and publishes the request in another, so a worker that checks the
/// queue and falls asleep in between is never notified — the lost wake-up
/// the one-critical-section rule prevents. It surfaces as a deadlock.
pub fn wake(variant: Variant) -> Model<WakeState> {
    let broken = variant == Variant::Broken;
    Model {
        name: "wake",
        threads: 2,
        make: Arc::new(|| {
            Arc::new(WakeState {
                state: ShadowMutex::new("scheduler", Queue::default()),
                work_ready: ShadowCondvar::new("work_ready"),
                served: AtomicI64::new(0),
            })
        }),
        body: Arc::new(move |tid, sched, s: &WakeState| match tid {
            0 => {
                for _ in 0..WAKE_REQUESTS {
                    let wake = if broken {
                        // BUG: the count is read before the request is
                        // published, in a separate critical section.
                        let wake = s.state.lock(sched, tid).sleepers > 0;
                        s.state.lock(sched, tid).queued += 1;
                        wake
                    } else {
                        let mut g = s.state.lock(sched, tid);
                        g.queued += 1;
                        g.sleepers > 0
                    };
                    if wake {
                        s.work_ready.notify_all(sched, tid);
                    }
                }
            }
            1 => {
                for _ in 0..WAKE_REQUESTS {
                    let mut g = s.state.lock(sched, tid);
                    while g.queued == 0 {
                        g.sleepers += 1;
                        g = s.work_ready.wait(g, tid);
                        g.sleepers -= 1;
                    }
                    g.queued -= 1;
                    drop(g);
                    s.served.fetch_add(1, Ordering::SeqCst);
                }
            }
            _ => unreachable!(),
        }),
        check_final: Arc::new(|s: &WakeState| {
            let served = s.served.load(Ordering::SeqCst);
            if served == WAKE_REQUESTS as i64 {
                Ok(())
            } else {
                Err(format!("{served} of {WAKE_REQUESTS} requests served"))
            }
        }),
    }
}

// ── registry ────────────────────────────────────────────────────────────

/// Runs every model in both variants, exhaustively.
pub fn check_all(opts: Options) -> Vec<Report> {
    let mut reports = Vec::new();
    for variant in [Variant::Correct, Variant::Broken] {
        reports.push(Report {
            name: "mailbox",
            variant,
            outcome: explore(&mailbox(variant), opts),
        });
        reports.push(Report {
            name: "reserve",
            variant,
            outcome: explore(&reserve(variant), opts),
        });
        reports.push(Report {
            name: "wake",
            variant,
            outcome: explore(&wake(variant), opts),
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_correct_exhausts_clean() {
        let out = explore(&mailbox(Variant::Correct), Options::default());
        assert!(out.failure.is_none(), "{:#?}", out.failure);
        assert!(
            out.exhausted,
            "tree not exhausted in {} executions",
            out.executions
        );
        assert!(
            out.executions > 50,
            "suspiciously small space: {}",
            out.executions
        );
    }

    #[test]
    fn mailbox_broken_strands_a_job() {
        let out = explore(&mailbox(Variant::Broken), Options::default());
        let cex = out.failure.expect("check-then-act push must strand a job");
        assert!(
            cex.message.contains("resolved 0 times") || cex.message.contains("resolved 2 times"),
            "{}",
            cex.message
        );
        assert!(!cex.ops.is_empty());
    }

    #[test]
    fn reserve_correct_exhausts_clean() {
        let out = explore(&reserve(Variant::Correct), Options::default());
        assert!(out.failure.is_none(), "{:#?}", out.failure);
        assert!(out.exhausted);
    }

    #[test]
    fn reserve_broken_loses_updates() {
        let out = explore(&reserve(Variant::Broken), Options::default());
        let cex = out.failure.expect("load-then-store reserve must fail");
        assert!(
            cex.message.contains("negative")
                || cex.message.contains("burst not spread")
                || cex.message.contains("outstanding"),
            "{}",
            cex.message
        );
    }

    #[test]
    fn wake_correct_exhausts_clean() {
        let out = explore(&wake(Variant::Correct), Options::default());
        assert!(out.failure.is_none(), "{:#?}", out.failure);
        assert!(out.exhausted);
        assert!(
            out.executions > 10,
            "suspiciously small space: {}",
            out.executions
        );
    }

    #[test]
    fn wake_broken_loses_a_wake_up() {
        let out = explore(&wake(Variant::Broken), Options::default());
        let cex = out
            .failure
            .expect("reading the count first must lose a wake-up");
        assert!(
            cex.message.contains("deadlock: threads [1]"),
            "{}",
            cex.message
        );
    }

    #[test]
    fn broken_counterexamples_replay() {
        let out = explore(&reserve(Variant::Broken), Options::default());
        let cex = out.failure.expect("counterexample");
        let ops = super::super::replay(&reserve(Variant::Broken), &cex.choices);
        assert_eq!(ops, cex.ops, "replay must be deterministic");
        let out = explore(&wake(Variant::Broken), Options::default());
        let cex = out.failure.expect("counterexample");
        let ops = super::super::replay(&wake(Variant::Broken), &cex.choices);
        assert_eq!(ops, cex.ops, "replay must be deterministic");
    }
}
