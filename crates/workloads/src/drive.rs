//! The one load driver under every serve-tier gate.
//!
//! A run is a *configuration* ([`Drive`]: arrival process × backpressure
//! policy) applied to a slice of [`Arrival`]s, a content source
//! (`content(i, &arrival) -> Request`) and an [`Endpoint`]; it returns one
//! reconciled [`Ledger`] — every submission lands in exactly one bucket —
//! plus, when asked, the responses. The soak, chaos, rollout,
//! persist and cache gates are configurations of [`drive`]; nothing else in
//! `crates/workloads`, `crates/bench` or the root `tests/` submits to or
//! waits on a serve window.

use std::time::{Duration, Instant};

use capsnet::MathBackend;
use pim_serve::{
    ReplicaSetHandle, Request, Response, ServeError, ServerHandle, SubmitError, Ticket, TIERS,
};

use crate::traffic::Arrival;

/// Where a serve window accepts requests: a bare server or a replica
/// pool, both resolving through one [`Ticket`] type.
pub trait Endpoint {
    /// The handle an accepted submission resolves through.
    type Ticket: Send;

    /// Offers one request.
    ///
    /// # Errors
    ///
    /// The window's typed rejection.
    fn submit(&self, request: Request) -> Result<Self::Ticket, SubmitError>;

    /// Blocks until the ticket resolves.
    ///
    /// # Errors
    ///
    /// The typed failure the ticket resolved with.
    fn wait(ticket: Self::Ticket) -> Result<Response, ServeError>;

    /// The replica serving the ticket (0 for a bare server).
    fn replica(_ticket: &Self::Ticket) -> usize {
        0
    }
}

impl<B: MathBackend + Sync + ?Sized> Endpoint for ServerHandle<'_, '_, B> {
    type Ticket = Ticket;

    fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        ServerHandle::submit(self, request)
    }

    fn wait(ticket: Ticket) -> Result<Response, ServeError> {
        ticket.wait()
    }
}

impl Endpoint for ReplicaSetHandle<'_> {
    type Ticket = Ticket;

    fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        ReplicaSetHandle::submit(self, request)
    }

    fn wait(ticket: Ticket) -> Result<Response, ServeError> {
        ticket.wait()
    }

    fn replica(ticket: &Ticket) -> usize {
        ticket.replica()
    }
}

/// Where every submission of a run ended up. `submitted` counts arrivals
/// offered (a [`Backpressure::Retry`] resubmission is the same arrival);
/// each lands in exactly one other bucket, so [`Ledger::reconciles`]
/// holding means zero tickets were dropped or hung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ledger {
    /// Arrivals offered to the endpoint.
    pub submitted: u64,
    /// Tickets that resolved with a response.
    pub completed: u64,
    /// Tickets failed typed by a failed (or panicked) forward.
    pub failed_forward: u64,
    /// Tickets abandoned at their end-to-end deadline.
    pub deadline_exceeded: u64,
    /// Tickets abandoned at the per-replica stall timeout.
    pub replica_timeout: u64,
    /// Tickets failed with any other typed error.
    pub other_failed: u64,
    /// Submissions shed by SLO admission, per tier
    /// ([`pim_serve::Priority::index`] order).
    pub shed: [u64; TIERS],
    /// Submissions rejected at the queue bound.
    pub rejected_full: u64,
    /// Submissions rejected by the per-tenant fairness quota.
    pub rejected_quota: u64,
    /// Submissions rejected because the window was shutting down.
    pub rejected_shutdown: u64,
}

impl Ledger {
    /// Total shed across tiers.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Tickets that resolved with any typed error.
    pub fn failed(&self) -> u64 {
        self.failed_forward + self.deadline_exceeded + self.replica_timeout + self.other_failed
    }

    /// Books one typed rejection of a `tier` request.
    fn reject(&mut self, tier: usize, why: &SubmitError) {
        match why {
            SubmitError::Shed { .. } => self.shed[tier] += 1,
            SubmitError::QueueFull { .. } => self.rejected_full += 1,
            SubmitError::TenantQuotaExceeded { .. } => self.rejected_quota += 1,
            SubmitError::ShuttingDown => self.rejected_shutdown += 1,
            // An unknown model or a shape mismatch is a bug in the scenario.
            other => panic!("unexpected rejection: {other}"),
        }
    }

    /// The zero-dropped-tickets identity: every submission is accounted
    /// exactly once.
    pub fn reconciles(&self) -> bool {
        self.submitted
            == self.completed
                + self.failed()
                + self.shed_total()
                + self.rejected_full
                + self.rejected_quota
                + self.rejected_shutdown
    }
}

/// How the arrival timestamps are used. [`Arrivals::Burst`] and
/// [`Arrivals::Paced`] tickets are waited on by a side thread fed through
/// a channel, in submit order, so a stalled ticket cannot stop submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Submit everything back to back, ignoring the timestamps.
    Burst,
    /// Submit `n`, wait those `n` out on the caller's thread, repeat — so
    /// a response cache sees a window's inserts before the next window's
    /// repeats. Never more than `n` outstanding.
    Windowed(usize),
    /// Open loop: no arrival is submitted before its `at_us`.
    Paced,
}

/// What a rejected submission does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Yield and resubmit on `QueueFull`; any other rejection is a bug in
    /// the scenario and panics. Every arrival ends up with a ticket.
    Retry,
    /// Every typed rejection lands in the [`Ledger`].
    Tally,
}

/// One driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drive {
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Rejection policy.
    pub backpressure: Backpressure,
    /// Keep successful responses in [`Driven::outcomes`]. Off for long
    /// soaks, which must not retain a million responses.
    pub keep_responses: bool,
}

/// How one accepted ticket resolved.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into the arrival slice.
    pub arrival: usize,
    /// The replica that held the ticket.
    pub replica: usize,
    /// What the ticket resolved with.
    pub result: Result<Response, ServeError>,
}

/// What one [`drive`] call observed.
#[derive(Debug, Clone)]
pub struct Driven {
    /// The reconciled accounting.
    pub ledger: Ledger,
    /// In submit order: every failed ticket, and every successful one
    /// when [`Drive::keep_responses`] is set.
    pub outcomes: Vec<Outcome>,
    /// Wall time from the first to the last submission, seconds.
    pub submit_s: f64,
}

/// Busy-poll/sleep hybrid pacing: sleeps while comfortably ahead of the
/// arrival timestamp, yields the core (to the worker threads) close in.
fn pace_until(start: Instant, at_us: u64) {
    let target = Duration::from_micros(at_us);
    loop {
        let now = start.elapsed();
        if now >= target {
            return;
        }
        let ahead = target - now;
        if ahead > Duration::from_micros(200) {
            std::thread::sleep(ahead - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The completion side of the ledger, filled by whoever waits.
#[derive(Default)]
struct Harvested {
    ledger: Ledger,
    outcomes: Vec<Outcome>,
}

impl Harvested {
    fn record<E: Endpoint>(&mut self, keep: bool, arrival: usize, ticket: E::Ticket) {
        let replica = E::replica(&ticket);
        let result = E::wait(ticket);
        match &result {
            Ok(_) => self.ledger.completed += 1,
            Err(ServeError::Forward(_)) => self.ledger.failed_forward += 1,
            Err(ServeError::DeadlineExceeded { .. }) => self.ledger.deadline_exceeded += 1,
            Err(ServeError::ReplicaTimeout { .. }) => self.ledger.replica_timeout += 1,
            Err(_) => self.ledger.other_failed += 1,
        }
        if keep || result.is_err() {
            self.outcomes.push(Outcome {
                arrival,
                replica,
                result,
            });
        }
    }
}

/// Drives `arrivals` into `endpoint` under `cfg`. `content` builds arrival
/// `i`'s request (again on every [`Backpressure::Retry`] resubmission);
/// `at_arrival(i, endpoint)` runs on the submitting thread once arrival
/// `i` is due and before it is offered, when exactly `i` arrivals have
/// been offered — the seam for operator actions, fault arming and
/// progress signals.
///
/// # Panics
///
/// Panics on a rejection the backpressure policy does not cover (an
/// unknown model, a shape mismatch — scenario bugs).
pub fn drive<E: Endpoint>(
    endpoint: &E,
    arrivals: &[Arrival],
    cfg: Drive,
    mut content: impl FnMut(usize, &Arrival) -> Request,
    mut at_arrival: impl FnMut(usize, &E),
) -> Driven {
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let mut offer = |i: usize, arrival: &Arrival| -> Option<E::Ticket> {
        if cfg.arrivals == Arrivals::Paced {
            pace_until(start, arrival.at_us);
        }
        at_arrival(i, endpoint);
        ledger.submitted += 1;
        loop {
            let request = content(i, arrival);
            let tier = request.priority.index();
            match endpoint.submit(request) {
                Ok(ticket) => return Some(ticket),
                Err(SubmitError::QueueFull { .. }) if cfg.backpressure == Backpressure::Retry => {
                    std::thread::yield_now()
                }
                Err(why) if cfg.backpressure == Backpressure::Tally => {
                    ledger.reject(tier, &why);
                    return None;
                }
                Err(why) => panic!("unexpected rejection of arrival {i}: {why}"),
            }
        }
    };

    let keep = cfg.keep_responses;
    let mut submit_s = 0.0;
    let harvested = match cfg.arrivals {
        Arrivals::Windowed(window) => {
            let mut harvested = Harvested::default();
            let mut next = 0;
            for chunk in arrivals.chunks(window.max(1)) {
                let mut tickets = Vec::with_capacity(chunk.len());
                for arrival in chunk {
                    if let Some(ticket) = offer(next, arrival) {
                        tickets.push((next, ticket));
                    }
                    next += 1;
                }
                for (i, ticket) in tickets {
                    harvested.record::<E>(keep, i, ticket);
                }
            }
            submit_s = start.elapsed().as_secs_f64();
            harvested
        }
        Arrivals::Burst | Arrivals::Paced => std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel::<(usize, E::Ticket)>();
            let harvester = scope.spawn(move || {
                let mut harvested = Harvested::default();
                for (i, ticket) in rx {
                    harvested.record::<E>(keep, i, ticket);
                }
                harvested
            });
            for (i, arrival) in arrivals.iter().enumerate() {
                if let Some(ticket) = offer(i, arrival) {
                    tx.send((i, ticket)).expect("harvester outlives submission");
                }
            }
            submit_s = start.elapsed().as_secs_f64();
            drop(tx);
            harvester.join().expect("harvester thread")
        }),
    };
    Driven {
        ledger: Ledger {
            completed: harvested.ledger.completed,
            failed_forward: harvested.ledger.failed_forward,
            deadline_exceeded: harvested.ledger.deadline_exceeded,
            replica_timeout: harvested.ledger.replica_timeout,
            other_failed: harvested.ledger.other_failed,
            ..ledger
        },
        outcomes: harvested.outcomes,
        submit_s,
    }
}

/// `true` when `response` carries exactly these predictions and the bits
/// of these squared class norms — the one comparison behind every
/// "served bitwise equal to …" gate.
pub fn bitwise_eq(response: &Response, predictions: &[usize], class_norms_sq: &[f32]) -> bool {
    response.predictions == predictions
        && response.class_norms_sq.len() == class_norms_sq.len()
        && response
            .class_norms_sq
            .iter()
            .zip(class_norms_sq)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::{image_pool, phase_arrivals, soak_registry, soak_spec, tiered_request};
    use capsnet::{CapsNet, ExactMath};
    use pim_serve::{AdmissionPolicy, ReplicaSet, ReplicaSetConfig, ServeConfig, Server};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// Accepts everything, answers instantly, and records what the driver
    /// did to it: submission instants and the outstanding-ticket peak.
    #[derive(Default)]
    struct Probe {
        outstanding: Arc<AtomicUsize>,
        peak: AtomicUsize,
        submitted_at: Mutex<Vec<Instant>>,
    }

    impl Endpoint for Probe {
        type Ticket = Arc<AtomicUsize>;

        fn submit(&self, _request: Request) -> Result<Self::Ticket, SubmitError> {
            self.submitted_at.lock().unwrap().push(Instant::now());
            let now = self.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Ok(Arc::clone(&self.outstanding))
        }

        fn wait(ticket: Self::Ticket) -> Result<Response, ServeError> {
            ticket.fetch_sub(1, Ordering::SeqCst);
            Ok(Response {
                predictions: vec![0],
                model_version: 1,
                class_norms_sq: vec![0.0],
                batch_samples: 1,
                batch_seq: 0,
                batch_offset: 0,
                queue_us: 0,
                service_us: 0,
            })
        }
    }

    fn cfg(arrivals: Arrivals, keep_responses: bool) -> Drive {
        Drive {
            arrivals,
            backpressure: Backpressure::Tally,
            keep_responses,
        }
    }

    #[test]
    fn windowed_never_has_more_than_its_window_outstanding() {
        let probe = Probe::default();
        let arrivals = phase_arrivals(1e6, 10, 3, 1);
        let images = image_pool(1);
        let driven = drive(
            &probe,
            &arrivals,
            cfg(Arrivals::Windowed(3), true),
            |_, a| tiered_request(&images, a),
            |_, _| {},
        );
        assert_eq!(probe.peak.load(Ordering::SeqCst), 3);
        assert_eq!(driven.ledger.completed, 10);
        let order: Vec<usize> = driven.outcomes.iter().map(|o| o.arrival).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>(), "submit order");
    }

    #[test]
    fn paced_submits_no_arrival_before_its_timestamp() {
        let probe = Probe::default();
        let arrivals = phase_arrivals(2_000.0, 24, 3, 2);
        let images = image_pool(2);
        let mut hooked = Vec::new();
        let before = Instant::now();
        drive(
            &probe,
            &arrivals,
            cfg(Arrivals::Paced, false),
            |_, a| tiered_request(&images, a),
            |i, _| hooked.push(i),
        );
        let at = probe.submitted_at.lock().unwrap();
        assert_eq!(at.len(), arrivals.len());
        for (arrival, submitted) in arrivals.iter().zip(at.iter()) {
            assert!(*submitted - before >= Duration::from_micros(arrival.at_us));
        }
        assert_eq!(
            hooked,
            (0..24).collect::<Vec<_>>(),
            "one hook call per arrival"
        );
    }

    #[test]
    fn responses_are_not_retained_unless_asked() {
        let probe = Probe::default();
        let arrivals = phase_arrivals(1e6, 200_000, 300, 3);
        let images = image_pool(3);
        let driven = drive(
            &probe,
            &arrivals,
            cfg(Arrivals::Burst, false),
            |_, a| tiered_request(&images, a),
            |_, _| {},
        );
        assert_eq!(driven.ledger.completed, 200_000);
        assert!(driven.ledger.reconciles());
        assert_eq!(driven.outcomes.capacity(), 0, "a long soak keeps nothing");
    }

    /// `Retry` against a queue of one sample delivers every request exactly
    /// once, and the `Endpoint` seam is inert: the same seeded stream
    /// through a bare `Server` and a one-replica `ReplicaSet` yields equal
    /// ledgers and responses bitwise equal to each other and to the serial
    /// forward.
    #[test]
    fn retry_delivers_each_request_once_through_either_endpoint() {
        let serve = ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1,
            workers: 1,
            admission: AdmissionPolicy::QueueBound,
        };
        let net = CapsNet::seeded(&soak_spec(), 0x50AC).unwrap();
        let arrivals = phase_arrivals(1e6, 300, 7, 4);
        let images = image_pool(4);
        let run = Drive {
            arrivals: Arrivals::Burst,
            backpressure: Backpressure::Retry,
            keep_responses: true,
        };

        let registry = soak_registry(0x50AC);
        let server = Server::new(&registry, &ExactMath, serve).unwrap();
        let (bare, metrics) = server.run(|handle| {
            drive(
                handle,
                &arrivals,
                run,
                |_, a| tiered_request(&images, a),
                |_, _| {},
            )
        });
        assert!(
            metrics.rejected_full > 0,
            "the queue of one never pushed back"
        );

        let pool_cfg = ReplicaSetConfig {
            replicas: 1,
            serve,
            ..ReplicaSetConfig::default()
        };
        let set = ReplicaSet::from_net("seam", &net, &ExactMath, pool_cfg).unwrap();
        let (pooled, _) = set.run(|pool| {
            drive(
                pool,
                &arrivals,
                run,
                |_, a| tiered_request(&images, a),
                |_, _| {},
            )
        });

        assert_eq!(bare.ledger, pooled.ledger);
        assert_eq!((bare.ledger.submitted, bare.ledger.completed), (300, 300));
        for (i, (b, p)) in bare.outcomes.iter().zip(&pooled.outcomes).enumerate() {
            assert_eq!((b.arrival, p.arrival), (i, i), "each arrival exactly once");
            let image = tiered_request(&images, &arrivals[i]).images;
            let serial = net.forward(&image, &ExactMath).unwrap();
            for outcome in [b, p] {
                let response = outcome.result.as_ref().unwrap();
                assert!(bitwise_eq(
                    response,
                    &serial.predictions(),
                    serial.class_norms_sq.as_slice()
                ));
            }
        }
    }
}
