//! The one load driver under every serve-tier gate.
//!
//! A run is a *configuration* ([`Drive`]: arrival process × backpressure
//! policy) applied to a slice of [`Arrival`]s, a content source
//! (`content(i, &arrival) -> Request`) and an [`Endpoint`]; it returns one
//! reconciled [`Ledger`] — every submission lands in exactly one bucket —
//! plus the tickets that failed. The soak and chaos gates are
//! configurations of [`drive`]; nothing else in `crates/workloads`,
//! `crates/bench` or the root `tests/` submits to or waits on a serve
//! window.

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

/// How the arrival timestamps are used. Either way, tickets are waited on
/// by a side thread fed through a channel, in submit order, so a stalled
/// ticket cannot stop submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Submit everything back to back, ignoring the timestamps.
    Burst,
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
}

/// An accepted ticket that resolved with a typed error.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The replica that held the ticket.
    pub replica: usize,
    /// What the ticket resolved with.
    pub error: ServeError,
}

/// What one [`drive`] call observed. Successful responses are counted,
/// never kept: a long soak must not retain a million of them.
#[derive(Debug, Clone)]
pub struct Driven {
    /// The reconciled accounting.
    pub ledger: Ledger,
    /// Every failed ticket, in submit order.
    pub failures: Vec<Failure>,
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
    failures: Vec<Failure>,
}

impl Harvested {
    fn record<E: Endpoint>(&mut self, ticket: E::Ticket) {
        let replica = E::replica(&ticket);
        let Err(error) = E::wait(ticket) else {
            self.ledger.completed += 1;
            return;
        };
        match error {
            ServeError::Forward(_) => self.ledger.failed_forward += 1,
            ServeError::DeadlineExceeded { .. } => self.ledger.deadline_exceeded += 1,
            ServeError::ReplicaTimeout { .. } => self.ledger.replica_timeout += 1,
            _ => self.ledger.other_failed += 1,
        }
        self.failures.push(Failure { replica, error });
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

    let (harvested, submit_s) = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<E::Ticket>();
        let harvester = scope.spawn(move || {
            let mut harvested = Harvested::default();
            for ticket in rx {
                harvested.record::<E>(ticket);
            }
            harvested
        });
        for (i, arrival) in arrivals.iter().enumerate() {
            if let Some(ticket) = offer(i, arrival) {
                tx.send(ticket).expect("harvester outlives submission");
            }
        }
        let submit_s = start.elapsed().as_secs_f64();
        drop(tx);
        (harvester.join().expect("harvester thread"), submit_s)
    });
    Driven {
        ledger: Ledger {
            completed: harvested.ledger.completed,
            failed_forward: harvested.ledger.failed_forward,
            deadline_exceeded: harvested.ledger.deadline_exceeded,
            replica_timeout: harvested.ledger.replica_timeout,
            other_failed: harvested.ledger.other_failed,
            ..ledger
        },
        failures: harvested.failures,
        submit_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::{image_pool, phase_arrivals, soak_registry, soak_spec, tiered_request};
    use capsnet::{CapsNet, ExactMath};
    use pim_serve::{AdmissionPolicy, ReplicaSet, ReplicaSetConfig, ServeConfig, Server};
    use pim_tensor::Tensor;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// Accepts everything, answers instantly, and records when the driver
    /// submitted to it.
    #[derive(Default)]
    struct Probe {
        submitted_at: Mutex<Vec<Instant>>,
    }

    impl Endpoint for Probe {
        type Ticket = ();

        fn submit(&self, _request: Request) -> Result<(), SubmitError> {
            self.submitted_at.lock().unwrap().push(Instant::now());
            Ok(())
        }

        fn wait((): ()) -> Result<Response, ServeError> {
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

    fn cfg(arrivals: Arrivals) -> Drive {
        Drive {
            arrivals,
            backpressure: Backpressure::Tally,
        }
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
            cfg(Arrivals::Paced),
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
            cfg(Arrivals::Burst),
            |_, a| tiered_request(&images, a),
            |_, _| {},
        );
        assert_eq!(driven.ledger.completed, 200_000);
        assert!(driven.ledger.reconciles());
        assert_eq!(driven.failures.capacity(), 0, "a long soak keeps nothing");
    }

    /// The responses one [`Recorded`] endpoint saw, each with the index of
    /// the accepted submission it answered.
    type Sink = Arc<Mutex<Vec<(usize, Response)>>>;

    /// An endpoint that keeps every response it hands back to the driver.
    struct Recorded<'e, E> {
        inner: &'e E,
        accepted: AtomicUsize,
        sink: Sink,
    }

    impl<E: Endpoint> Endpoint for Recorded<'_, E> {
        type Ticket = (usize, E::Ticket, Sink);

        fn submit(&self, request: Request) -> Result<Self::Ticket, SubmitError> {
            let ticket = self.inner.submit(request)?;
            let i = self.accepted.fetch_add(1, Ordering::SeqCst);
            Ok((i, ticket, Arc::clone(&self.sink)))
        }

        fn wait((i, ticket, sink): Self::Ticket) -> Result<Response, ServeError> {
            let response = E::wait(ticket)?;
            sink.lock().unwrap().push((i, response.clone()));
            Ok(response)
        }
    }

    /// Drives `arrivals` into `endpoint` under `Retry`, and returns the
    /// ledger and every response in acceptance order, which is arrival
    /// order when each arrival is accepted exactly once.
    fn drive_recorded<E: Endpoint>(
        endpoint: &E,
        arrivals: &[Arrival],
        images: &[Tensor],
    ) -> (Ledger, Vec<(usize, Response)>) {
        let recorded = Recorded {
            inner: endpoint,
            accepted: AtomicUsize::new(0),
            sink: Sink::default(),
        };
        let run = Drive {
            arrivals: Arrivals::Burst,
            backpressure: Backpressure::Retry,
        };
        let driven = drive(
            &recorded,
            arrivals,
            run,
            |_, a| tiered_request(images, a),
            |_, _| {},
        );
        let mut responses = std::mem::take(&mut *recorded.sink.lock().unwrap());
        responses.sort_by_key(|(i, _)| *i);
        (driven.ledger, responses)
    }

    /// `Retry` against a queue of one sample delivers every request exactly
    /// once, and the `Endpoint` seam is inert: the same seeded stream
    /// through a bare `Server` and a one-replica `ReplicaSet` yields equal
    /// ledgers and responses bitwise equal to the serial forward.
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

        let registry = soak_registry(0x50AC);
        let server = Server::new(&registry, &ExactMath, serve).unwrap();
        let ((ledger, bare), metrics) =
            server.run(|handle| drive_recorded(handle, &arrivals, &images));
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
        let ((pool_ledger, pooled), _) = set.run(|pool| drive_recorded(pool, &arrivals, &images));

        assert_eq!(ledger, pool_ledger);
        assert_eq!((ledger.submitted, ledger.completed), (300, 300));
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for responses in [bare, pooled] {
            let order: Vec<usize> = responses.iter().map(|(i, _)| *i).collect();
            assert_eq!(order, (0..300).collect::<Vec<_>>(), "each arrival once");
            for (i, response) in responses {
                let image = tiered_request(&images, &arrivals[i]).images;
                let serial = net.forward(&image, &ExactMath).unwrap();
                assert_eq!(response.predictions, serial.predictions());
                let norms = bits(serial.class_norms_sq.as_slice());
                assert_eq!(bits(&response.class_norms_sq), norms, "arrival {i}");
            }
        }
    }
}
