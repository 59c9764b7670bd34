//! The load driver: one generator thread (the caller's) against one live
//! serve window. A closed-loop saturation phase measures work completed
//! per second; an open-loop paced phase at a frozen rate measures latency
//! from the instant each request was due.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::adapter::{self, Endpoint, Images, Model, Pending, Refused, Reply, WindowReport};
use crate::gen::{poisson_schedule, Content, Rng, Zipf};
use crate::trace::Trace;
use crate::workloads::{PacedContent, Serving, Workload};

/// Where every attempted request ended up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
    pub rejected: u64,
}

impl Tally {
    /// Every attempt is accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.attempted == self.ok + self.failed + self.shed + self.rejected
    }

    pub fn not_ok(&self) -> u64 {
        self.failed + self.shed + self.rejected
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
        self.rejected += other.rejected;
    }
}

/// Per-request numbers only the traced run keeps.
#[derive(Debug, Default)]
pub struct Detail {
    /// Time inside `submit()`, nanoseconds, by whether the cache answered.
    pub submit_ns_hit: Vec<u64>,
    pub submit_ns_miss: Vec<u64>,
    pub queue_us: Vec<u64>,
    pub service_us: Vec<u64>,
    /// `service_us` of requests that rode a full batch.
    pub full_batch_service_us: Vec<u64>,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    /// First submit to last completion.
    pub seconds: f64,
    /// Paced phase: due instant to response ready, nanoseconds, OK
    /// requests only.
    pub latencies_ns: Vec<u64>,
    /// Paced phase: OK requests within the workload's latency limit.
    pub within_limit: u64,
    /// Paced phase: how long after its due instant each submit began.
    pub gen_lag_us: Vec<u64>,
    pub detail: Option<Detail>,
    paced: bool,
}

impl Phase {
    pub fn ok_per_second(&self) -> f64 {
        self.tally.ok as f64 / self.seconds
    }
}

/// A request and its response, kept for the check against a direct forward.
struct Sample {
    images: Images,
    predictions: Vec<usize>,
    class_norms_sq: Vec<f32>,
}

struct InFlight {
    request: u64,
    due: Instant,
    submit_began: Instant,
    submitted: Instant,
    key: Option<usize>,
    sample: Option<Images>,
}

/// About how many requests per phase get spans: every n-th request is
/// spanned, n from the phase's expected request count, so that a traced
/// micro run stays small enough to keep in memory and write out.
const SPANNED_REQUESTS: f64 = 20_000.0;
const SAMPLES_PER_PHASE: usize = 16;
/// The paced generator sleeps until this close to a due instant, then
/// spins on the clock.
const CLOSE_IN: Duration = Duration::from_micros(300);
/// A closed loop also ends once it completed this many requests per second
/// it was given. Only the micro model gets there, for which a phase is then
/// a fixed amount of work. It keeps the number of requests a run serves,
/// and with it the memory the server's per-request records take, from
/// growing with the server's speed: without it a faster server shows a
/// higher `peak_rss_mb`.
const SAT_MAX_RATE_HZ: f64 = 150_000.0;

pub struct Driver<'a> {
    wl: &'a Workload,
    endpoint: &'a Endpoint<'a, 'a, 'a>,
    seed: u64,
    content: Content,
    tenants: usize,
    next_request: u64,
    samples: Vec<Sample>,
    keep_samples: bool,
    /// First response seen per Zipf key; every later one must equal it.
    first_reply: Vec<Option<(Vec<usize>, Vec<f32>)>>,
    mismatches: u64,
    pub total: Tally,
    /// Set to record spans and per-request detail in the phases that follow.
    pub trace: Option<&'a mut Trace>,
}

impl<'a> Driver<'a> {
    pub fn new(wl: &'a Workload, endpoint: &'a Endpoint<'a, 'a, 'a>, seed: u64) -> Self {
        let tenants = match wl.serving {
            Serving::BareCached { tenants, .. } => tenants,
            _ => 1,
        };
        Driver {
            wl,
            endpoint,
            seed,
            content: Content::new(seed, wl.geometry.pixels()),
            tenants,
            next_request: 0,
            samples: Vec::new(),
            keep_samples: true,
            first_reply: Vec::new(),
            mismatches: 0,
            total: Tally::default(),
            trace: None,
        }
    }

    fn fresh_image(&mut self) -> Images {
        adapter::images(&self.wl.geometry, 1, self.content.next_image())
    }

    fn send(
        &mut self,
        due: Instant,
        images: Images,
        key: Option<usize>,
        keep: bool,
        phase: &mut Phase,
    ) -> Option<(Pending, InFlight)> {
        let request = self.next_request;
        self.next_request += 1;
        let tenant = (request % self.tenants as u64) as usize;
        let sample = (keep && self.keep_samples).then(|| images.clone());
        phase.tally.attempted += 1;
        let submit_began = Instant::now();
        let outcome = self.endpoint.submit(tenant, images);
        let submitted = Instant::now();
        match outcome {
            Ok(pending) => Some((
                pending,
                InFlight {
                    request,
                    due,
                    submit_began,
                    submitted,
                    key,
                    sample,
                },
            )),
            Err(Refused::Shed) => {
                phase.tally.shed += 1;
                None
            }
            Err(Refused::Rejected(why)) => {
                if phase.tally.rejected == 0 {
                    eprintln!("{}: request {request} rejected: {why}", self.wl.name);
                }
                phase.tally.rejected += 1;
                None
            }
        }
    }

    fn settle(
        &mut self,
        flight: InFlight,
        outcome: Result<Reply, String>,
        span_stride: u64,
        phase: &mut Phase,
    ) {
        let reply = match outcome {
            Ok(reply) => reply,
            Err(why) => {
                if phase.tally.failed == 0 {
                    eprintln!("{}: request {} failed: {why}", self.wl.name, flight.request);
                }
                phase.tally.failed += 1;
                return;
            }
        };
        phase.tally.ok += 1;
        if phase.paced {
            // From due to the response being ready: the wait to be sent and
            // the time inside `submit()`, then queue and service as the
            // server stamped them (both zero when the cache answered).
            let until_submitted = flight.submitted.saturating_duration_since(flight.due);
            let latency_ns =
                until_submitted.as_nanos() as u64 + (reply.queue_us + reply.service_us) * 1_000;
            if latency_ns <= self.wl.slo_limit_us * 1_000 {
                phase.within_limit += 1;
            }
            phase.latencies_ns.push(latency_ns);
        }
        if let Some(detail) = &mut phase.detail {
            let submit_ns = (flight.submitted - flight.submit_began).as_nanos() as u64;
            if reply.is_cache_hit() {
                detail.submit_ns_hit.push(submit_ns);
            } else {
                detail.submit_ns_miss.push(submit_ns);
                detail.queue_us.push(reply.queue_us);
                detail.service_us.push(reply.service_us);
                if reply.batch_samples == self.wl.max_batch {
                    detail.full_batch_service_us.push(reply.service_us);
                }
            }
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            if flight.request.is_multiple_of(span_stride) {
                let id = Some(flight.request);
                let due = trace.at_us(flight.due);
                let began = trace.at_us(flight.submit_began);
                let queued = trace.at_us(flight.submitted);
                let dispatched = queued + reply.queue_us;
                let done = dispatched + reply.service_us;
                let root = trace.record("driver.request", due, done, None, id);
                trace.record("serve.submit", began, queued, Some(root), id);
                if !reply.is_cache_hit() {
                    trace.record("serve.queue", queued, dispatched, Some(root), id);
                    trace.record("serve.service", dispatched, done, Some(root), id);
                }
            }
        }
        if let Some(key) = flight.key {
            match &self.first_reply[key] {
                Some((predictions, norms)) => {
                    if *predictions != reply.predictions
                        || !bits_equal(norms, &reply.class_norms_sq)
                    {
                        self.mismatches += 1;
                    }
                }
                None => {
                    self.first_reply[key] =
                        Some((reply.predictions.clone(), reply.class_norms_sq.clone()));
                }
            }
        }
        if let Some(images) = flight.sample {
            self.samples.push(Sample {
                images,
                predictions: reply.predictions,
                class_norms_sq: reply.class_norms_sq,
            });
        }
    }

    fn new_phase(&self, paced: bool) -> Phase {
        Phase {
            detail: self.trace.is_some().then(Detail::default),
            paced,
            ..Phase::default()
        }
    }

    fn finish(&mut self, mut phase: Phase, start: Instant) -> Phase {
        phase.seconds = start.elapsed().as_secs_f64();
        self.total.add(&phase.tally);
        phase
    }

    /// One request, waited for: the first response of a fresh window.
    pub fn one(&mut self) {
        let mut phase = self.new_phase(false);
        let start = Instant::now();
        let images = self.fresh_image();
        if let Some((pending, flight)) = self.send(start, images, None, false, &mut phase) {
            self.settle(flight, pending.wait(), 1, &mut phase);
        }
        self.finish(phase, start);
    }

    /// Closed loop: keeps `sat_window` single-sample requests outstanding
    /// for `seconds`, sending the next only as the oldest completes, then
    /// drains. Content never repeats.
    pub fn saturate(&mut self, seconds: f64) -> Phase {
        let mut phase = self.new_phase(false);
        let stride = span_stride(seconds, self.wl.sat_rate_hint_hz);
        let sample_every = Duration::from_secs_f64(seconds / SAMPLES_PER_PHASE as f64);
        let mut in_flight = VecDeque::with_capacity(self.wl.sat_window);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let max_requests = (seconds * SAT_MAX_RATE_HZ) as u64;
        let mut next_sample = start;
        loop {
            let now = Instant::now();
            if now >= deadline || phase.tally.ok >= max_requests {
                break;
            }
            if in_flight.len() < self.wl.sat_window {
                let keep = now >= next_sample;
                if keep {
                    next_sample += sample_every;
                }
                let images = self.fresh_image();
                in_flight.extend(self.send(now, images, None, keep, &mut phase));
            } else if let Some((pending, flight)) = in_flight.pop_front() {
                self.settle(flight, pending.wait(), stride, &mut phase);
            }
        }
        for (pending, flight) in in_flight {
            self.settle(flight, pending.wait(), stride, &mut phase);
        }
        self.finish(phase, start)
    }

    /// Open loop: seeded Poisson arrivals at the workload's frozen rate for
    /// `seconds`. Sleeps to each due instant, submits, and between sends
    /// collects whatever has finished at the head of the line.
    pub fn paced(&mut self, seconds: f64) -> Phase {
        let mut phase = self.new_phase(true);
        let rate = self.wl.paced_rate_hz;
        let stride = span_stride(seconds, rate);
        let schedule = poisson_schedule(self.seed, rate, seconds);
        let keep_every = (schedule.len() / SAMPLES_PER_PHASE).max(1);
        let mut keys = match self.wl.paced_content {
            PacedContent::Distinct => None,
            PacedContent::Zipf { keys, s } => {
                let images: Vec<Vec<f32>> = (0..keys).map(|_| self.content.next_image()).collect();
                self.first_reply = vec![None; keys];
                Some((Zipf::new(keys, s), Rng::stream(self.seed, 3), images))
            }
        };
        phase.gen_lag_us.reserve(schedule.len());
        phase.latencies_ns.reserve(schedule.len());
        let mut in_flight: VecDeque<(Pending, InFlight)> = VecDeque::new();
        let start = Instant::now();
        for (i, due_us) in schedule.iter().enumerate() {
            let due = start + Duration::from_micros(*due_us);
            loop {
                while let Some(outcome) = in_flight.front().and_then(|(p, _)| p.poll()) {
                    let (_, flight) = in_flight.pop_front().expect("front was just polled");
                    self.settle(flight, outcome, stride, &mut phase);
                }
                let ahead = due.saturating_duration_since(Instant::now());
                if ahead <= CLOSE_IN {
                    break;
                }
                std::thread::sleep(ahead - CLOSE_IN / 2);
            }
            // Close in, watch the clock: a yield here would hand the core to
            // a worker thread for a whole time slice and send late.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let (images, key) = match &mut keys {
                None => (self.fresh_image(), None),
                Some((zipf, rng, images)) => {
                    let key = zipf.sample(rng);
                    let pixels = images[key].clone();
                    (adapter::images(&self.wl.geometry, 1, pixels), Some(key))
                }
            };
            let lag = Instant::now().saturating_duration_since(due);
            phase.gen_lag_us.push(lag.as_micros() as u64);
            let keep = i % keep_every == 0;
            in_flight.extend(self.send(due, images, key, keep, &mut phase));
        }
        for (pending, flight) in in_flight {
            self.settle(flight, pending.wait(), stride, &mut phase);
        }
        self.finish(phase, start)
    }

    /// Closed loop with nothing measured, so caches, arenas and the
    /// service-time estimator are warm before the timed phases.
    pub fn warm_up(&mut self, seconds: f64) {
        let trace = self.trace.take();
        self.keep_samples = false;
        self.saturate(seconds);
        self.keep_samples = true;
        self.trace = trace;
    }

    /// Ends the driver's use of the window: compares every kept response
    /// with `CapsNet::forward` on the same image, bit for bit, and hands
    /// back everything a run's correctness rests on.
    pub fn checks(self, net: &Model) -> Checks {
        let unequal = self
            .samples
            .iter()
            .filter(|s| {
                let (predictions, norms) = adapter::reference(net, &s.images);
                predictions != s.predictions || !bits_equal(&norms, &s.class_norms_sq)
            })
            .count();
        Checks {
            total: self.total,
            checked: self.samples.len(),
            unequal,
            repeats_unequal: self.mismatches,
        }
    }
}

/// What makes a run correct, apart from the numbers it reports.
#[derive(Debug, Clone, Copy)]
pub struct Checks {
    /// Every request of the window, warm-up included.
    pub total: Tally,
    /// Sampled responses compared with a direct forward, and how many
    /// differed.
    pub checked: usize,
    pub unequal: usize,
    /// Responses to a repeated key that differed from the first.
    pub repeats_unequal: u64,
}

impl Checks {
    /// Every ticket reconciles, with the driver and with the window's own
    /// report, and every compared response was bitwise equal.
    pub fn pass(&self, report: &WindowReport) -> bool {
        self.total.reconciles()
            && report.completions == self.total.ok
            && report.failed == self.total.failed
            && report.shed == self.total.shed
            && report.rejected == self.total.rejected
            && self.checked > 0
            && self.unequal == 0
            && self.repeats_unequal == 0
    }
}

/// Every how many requests one gets spans, at `rate_hz` for `seconds`.
fn span_stride(seconds: f64, rate_hz: f64) -> u64 {
    ((rate_hz * seconds / SPANNED_REQUESTS).ceil() as u64).max(1)
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_passes_only_when_everything_reconciles_and_is_equal() {
        let total = Tally {
            attempted: 10,
            ok: 8,
            shed: 1,
            rejected: 1,
            failed: 0,
        };
        let report = WindowReport {
            completions: 8,
            shed: 1,
            rejected: 1,
            ..WindowReport::default()
        };
        let good = Checks {
            total,
            checked: 32,
            unequal: 0,
            repeats_unequal: 0,
        };
        assert!(good.pass(&report));
        assert!(!Checks { unequal: 1, ..good }.pass(&report));
        assert!(!Checks {
            repeats_unequal: 1,
            ..good
        }
        .pass(&report));
        assert!(!Checks { checked: 0, ..good }.pass(&report));
        // A ticket the driver lost track of.
        let lost = Tally {
            attempted: 11,
            ..total
        };
        assert!(!Checks {
            total: lost,
            ..good
        }
        .pass(&report));
        // A completion the window did not count.
        let short = WindowReport {
            completions: 7,
            ..report
        };
        assert!(!good.pass(&short));
    }
}
