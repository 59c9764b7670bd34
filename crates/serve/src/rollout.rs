//! Rolling version rollout across a [`crate::ReplicaSet`], with canary
//! health checks and automatic rollback.
//!
//! The rollout state machine walks the fleet one replica at a time:
//!
//! 1. **drain** — take the replica out of routing rotation (new traffic
//!    flows to its siblings; its queued work keeps draining normally);
//! 2. **swap** — hot-swap it to the new network through the replica's own
//!    scheduler (the swap waits out the forming reservation, so in-flight
//!    batches finish on the old version and zero tickets drop);
//! 3. **canary** — run one forward on the swapped replica and compare its
//!    class-norm outputs against the *old* fleet's output on the same
//!    input (canaries bypass the pool's response cache, so each one is a
//!    forward on its replica);
//! 4. **verdict** — within [`RolloutConfig::tolerance`], return the
//!    replica to rotation and move to the next one; beyond it (or if the
//!    canary outright fails — the failed-batch/reject signals the metrics
//!    now carry), **roll back**: restore this replica *and every replica
//!    already updated* to the version they served before the rollout, and
//!    stop.
//!
//! The new network is built from the artifact once and installed on every
//! replica under one version number. Version numbers come from one counter
//! per pool and only ever increase on a replica (a rollback is itself a
//! forward swap to the old *weights*, under a fresh number), so every
//! replica's response stream stays version-monotone in dispatch order, and
//! one number never names two networks.
//!
//! Infrastructure failures (a swap that does not complete, a canary that
//! exhausts its [`RetryBudget`] against a saturated replica) surface as
//! [`RolloutError`], which **carries the partial per-replica report**:
//! every attempted step — including failed swaps and failed reverts — is
//! recorded, so the report never misrepresents what the fleet serves.
//!
//! Artifacts handed to a rollout must come from `pim-store`'s atomic
//! temp+rename writer; rewriting an artifact in place under live readers
//! voids the mapping-safety contract (`pim_store` validates what it can,
//! but only rename-replacement is race-free).

use std::fmt;
use std::time::{Duration, Instant};

use capsnet::CapsNet;
use pim_store::MappedModel;
use pim_tensor::Tensor;

use crate::admission::Priority;
use crate::error::{ServeError, SubmitError};
use crate::registry::load;
use crate::replica::ReplicaSetHandle;
use crate::server::Request;

/// Bounded retry budget for control-plane operations that contend with
/// live traffic (the rollout canary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Maximum admission attempts before giving up with
    /// [`ServeError::Overloaded`].
    pub attempts: u32,
    /// Sleep between attempts (a real sleep, not a spin — the contended
    /// replica needs the core to drain its queue).
    pub backoff: Duration,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            attempts: 200,
            backoff: Duration::from_millis(2),
        }
    }
}

/// Rollout knobs.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Canary input, `[n, C, H, W]` in the served model's geometry.
    pub canary: Tensor,
    /// Maximum allowed relative divergence between the new version's
    /// canary class-norms and the old version's. Zero forces rollback on
    /// any output change; `f32::INFINITY` disables the divergence
    /// comparison — but a canary that fails to *execute* (submit reject,
    /// failed batch, non-finite output) always rolls back, at any
    /// tolerance: a replica that cannot answer its tenants is unhealthy
    /// regardless of how permissive the divergence gate is.
    pub tolerance: f32,
    /// Tenant tag used for canary requests (canaries ride the normal
    /// serving path, so they appear in metrics like any request).
    pub canary_tenant: usize,
    /// Retry budget for canary submissions against a busy replica.
    /// Exhausting it fails the rollout with [`ServeError::Overloaded`]
    /// instead of spinning forever.
    pub canary_retry: RetryBudget,
}

impl RolloutConfig {
    /// A rollout gated at `tolerance` with the given canary input.
    pub fn new(canary: Tensor, tolerance: f32) -> Self {
        RolloutConfig {
            canary,
            tolerance,
            canary_tenant: 0,
            canary_retry: RetryBudget::default(),
        }
    }
}

/// What happened to one replica during a rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaOutcome {
    /// Swapped to the new version and passed its canary.
    Updated,
    /// Swapped, failed its canary, and was restored to the old weights.
    RolledBack,
    /// Restored to the old weights because a *later* replica's canary
    /// failed (the fleet rolls back as a unit).
    RevertedWithFleet,
    /// The swap to the new version failed; the replica still serves its
    /// old weights (`to_version == from_version`).
    SwapFailed,
    /// A rollback/revert swap failed; the replica is **stuck on the new
    /// version** while the rest of the fleet reverted. The rollout's
    /// [`RolloutError`] carries the infrastructure error.
    RevertFailed,
}

/// One replica's rollout step.
#[derive(Debug, Clone)]
pub struct ReplicaRollout {
    /// Replica index.
    pub replica: usize,
    /// Version served before this rollout touched the replica.
    pub from_version: u64,
    /// Version served after the step (the rollback bump included —
    /// versions never move backwards). For failed steps this is the
    /// version the replica is *actually left serving*.
    pub to_version: u64,
    /// Measured canary divergence (`None` when the canary failed before
    /// producing output — submit reject or failed batch).
    pub divergence: Option<f32>,
    /// The step's outcome.
    pub outcome: ReplicaOutcome,
    /// Time the replica spent out of routing rotation, microseconds.
    pub pause_us: u64,
}

/// The full rollout's report.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Per-replica steps, in the order the rollout visited them (fleet
    /// reverts appended at the end).
    pub steps: Vec<ReplicaRollout>,
    /// `true` when a canary failure rolled the fleet back.
    pub rolled_back: bool,
}

impl RolloutReport {
    /// Longest out-of-rotation pause any replica saw, microseconds.
    pub fn max_pause_us(&self) -> u64 {
        self.steps.iter().map(|s| s.pause_us).max().unwrap_or(0)
    }

    /// Replicas left serving the new version. A replica's *last* step is
    /// its final state: an `Updated` step superseded by a
    /// `RevertedWithFleet` step does not count, while a `RevertFailed`
    /// step leaves the replica on the new version and does.
    pub fn updated(&self) -> usize {
        let mut last: std::collections::BTreeMap<usize, ReplicaOutcome> =
            std::collections::BTreeMap::new();
        for s in &self.steps {
            last.insert(s.replica, s.outcome);
        }
        last.values()
            .filter(|o| matches!(o, ReplicaOutcome::Updated | ReplicaOutcome::RevertFailed))
            .count()
    }

    /// Fleet-revert swaps that failed (replicas stuck on the new version
    /// after a rollback). Nonzero only on the [`RolloutError`] path.
    fn failed_reverts(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.outcome == ReplicaOutcome::RevertFailed)
            .count()
    }
}

/// A rollout interrupted by an infrastructure failure. Unlike a canary
/// rollback (which is the mechanism *working*), this means the fleet may
/// be in a mixed state — `report` records exactly which replicas were
/// updated, reverted, or left stuck, so the caller can see what the fleet
/// actually serves.
#[derive(Debug, Clone)]
pub struct RolloutError {
    /// The first infrastructure failure the rollout hit.
    pub error: ServeError,
    /// Partial per-replica state at the time of failure, failed steps
    /// included.
    pub report: RolloutReport,
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rollout failed: {} ({} steps recorded, {} failed reverts)",
            self.error,
            self.report.steps.len(),
            self.report.failed_reverts()
        )
    }
}

impl std::error::Error for RolloutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Maximum relative element divergence between two class-norm vectors;
/// infinite when the shapes disagree (a geometry change is maximal
/// divergence by definition).
fn max_rel_divergence(new: &[f32], old: &[f32]) -> f32 {
    if new.len() != old.len() {
        return f32::INFINITY;
    }
    new.iter()
        .zip(old)
        .map(|(&a, &b)| {
            // Any non-finite canary element is maximal divergence: NaN
            // would otherwise slip through every comparison (NaN fails
            // `==`, and `f32::max` discards NaN operands), promoting a
            // NaN-serving model — the exact corruption the canary exists
            // to catch.
            if !a.is_finite() || !b.is_finite() {
                return f32::INFINITY;
            }
            let diff = (a - b).abs();
            if diff == 0.0 {
                0.0
            } else {
                diff / (b.abs() + 1e-9)
            }
        })
        .fold(0.0f32, f32::max)
}

impl ReplicaSetHandle<'_> {
    /// Canary forward on one replica: submits through the normal serving
    /// path (so it batches, meters and fails exactly like user traffic)
    /// and returns the class norms. Canaries ride [`Priority::High`] —
    /// the control plane must not be shed behind best-effort load.
    ///
    /// Per-replica backpressure (queue full) and admission throttling
    /// (shed, tenant quota) are retried under `cfg.canary_retry` with a
    /// sleeping backoff. (Regression: this used to be an unbounded
    /// `yield_now` loop, which pegged a core and could spin forever
    /// against a saturated replica — the exact soak scenario.)
    /// The canary never consults the response cache: every replica the
    /// rollout visits runs the canary forward itself.
    fn canary_forward(&self, replica: usize, cfg: &RolloutConfig) -> Result<Vec<f32>, ServeError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        let ticket = loop {
            attempts += 1;
            let request = Request::new(cfg.canary_tenant, 0, cfg.canary.clone())
                .with_priority(Priority::High);
            match self.submit_uncached(replica, request) {
                Ok(t) => break t,
                Err(
                    SubmitError::QueueFull { .. }
                    | SubmitError::Shed { .. }
                    | SubmitError::TenantQuotaExceeded { .. },
                ) => {
                    if attempts >= cfg.canary_retry.attempts {
                        return Err(ServeError::Overloaded {
                            attempts,
                            waited_us: us_since(started),
                        });
                    }
                    std::thread::sleep(cfg.canary_retry.backoff);
                }
                Err(e) => return Err(ServeError::Forward(format!("canary rejected: {e}"))),
            }
        };
        Ok(ticket.wait()?.class_norms_sq)
    }

    /// Performs a **rolling rollout** of the fleet to `new`.
    ///
    /// See the [module docs](crate::rollout) for the state machine. On a
    /// canary failure the fleet is restored to its pre-rollout weights and
    /// the report says [`RolloutReport::rolled_back`]; traffic keeps
    /// flowing throughout (at most one replica is ever out of rotation).
    ///
    /// # Errors
    ///
    /// [`RolloutError`] only for *infrastructure* failures — the baseline
    /// canary not serving (e.g. [`ServeError::Overloaded`] after the
    /// retry budget), the new artifact not rebuilding (no replica is
    /// touched then), a swap failing, or a rollback swap failing. A
    /// failing canary on the new version is not an error; it is the
    /// rollback path. The error's `report` records every step that was
    /// attempted, failed reverts included.
    pub fn rolling_rollout(
        &self,
        new: &MappedModel,
        cfg: &RolloutConfig,
    ) -> Result<RolloutReport, RolloutError> {
        self.rolling_rollout_observed(new, cfg, |_| {})
    }

    /// [`ReplicaSetHandle::rolling_rollout`] with a step observer:
    /// `observe` is called after each per-replica step is decided (fleet
    /// reverts included), in order. Useful for live rollout dashboards —
    /// and for fault-injection tests that need to act mid-rollout.
    // LINT-ALLOW(R6): the fault-injection hook `rollout_faults::failed_reverts_are_recorded_not_silently_dropped` needs.
    pub fn rolling_rollout_observed(
        &self,
        new: &MappedModel,
        cfg: &RolloutConfig,
        mut observe: impl FnMut(&ReplicaRollout),
    ) -> Result<RolloutReport, RolloutError> {
        // The old fleet's reference output, taken from replica 0.
        //
        // ASSUMPTION: the whole fleet serves *identical weights* before
        // the rollout starts — true for pools built via
        // `ReplicaSet::from_shared`/`from_artifact`/`from_net` and kept
        // true by every complete rollout (success or full rollback). If
        // replicas had diverged (e.g. a prior `RolloutError` left a
        // replica stuck), replica 0's output is not a valid baseline for
        // its siblings and the canary verdicts would be meaningless;
        // resolve the mixed state first.
        let untouched = |error| RolloutError {
            error,
            report: RolloutReport {
                steps: Vec::new(),
                rolled_back: false,
            },
        };
        let baseline = self.canary_forward(0, cfg).map_err(untouched)?;
        let new_net = load(new.path(), || new.capsnet()).map_err(untouched)?;
        // The version the new network carries on every replica: the pool's
        // next number, taken by the first install.
        let mut rollout_version = None;

        let mut steps: Vec<ReplicaRollout> = Vec::with_capacity(self.replicas());
        // Old networks of successfully-updated replicas, kept for a
        // potential fleet rollback (cheap clones: shared-storage weights
        // are reference-counted views).
        let mut updated: Vec<(usize, CapsNet)> = Vec::new();

        for replica in 0..self.replicas() {
            let old_net = self.current_net(replica);
            let from_version = self.version(replica);
            let paused_at = Instant::now();
            self.set_draining(replica, true);

            // The step's outcome plus the infrastructure error (if any)
            // that produced it. Every path yields a recorded step — a
            // failed swap must not vanish from the report.
            let (step, infra) = (|| {
                let new_version = match self.install(replica, new_net.clone(), rollout_version) {
                    Ok(v) => {
                        rollout_version.get_or_insert(v);
                        v
                    }
                    Err(e) => {
                        // Swap failed: the replica still serves its old
                        // weights. Record it, then let the caller revert
                        // the fleet.
                        return (
                            ReplicaRollout {
                                replica,
                                from_version,
                                to_version: from_version,
                                divergence: None,
                                outcome: ReplicaOutcome::SwapFailed,
                                pause_us: us_since(paused_at),
                            },
                            Some(e),
                        );
                    }
                };
                let (divergence, healthy) = match self.canary_forward(replica, cfg) {
                    Ok(norms) => {
                        let d = max_rel_divergence(&norms, &baseline);
                        // Non-finite divergence (shape change, NaN/∞
                        // output) is unhealthy at ANY tolerance —
                        // `∞ <= ∞` must not count as a pass.
                        (Some(d), d.is_finite() && d <= cfg.tolerance)
                    }
                    // The canary itself failed (geometry reject, failed
                    // batch, retry budget): maximal divergence, no
                    // measurement.
                    Err(_) => (None, false),
                };
                if healthy {
                    return (
                        ReplicaRollout {
                            replica,
                            from_version,
                            to_version: new_version,
                            divergence,
                            outcome: ReplicaOutcome::Updated,
                            pause_us: us_since(paused_at),
                        },
                        None,
                    );
                }
                match self.swap_replica_net(replica, old_net.clone()) {
                    Ok(to_version) => (
                        ReplicaRollout {
                            replica,
                            from_version,
                            to_version,
                            divergence,
                            outcome: ReplicaOutcome::RolledBack,
                            pause_us: us_since(paused_at),
                        },
                        None,
                    ),
                    Err(e) => (
                        // The rollback swap failed: the replica is stuck
                        // on the new version it just failed the canary
                        // on. Record the truth rather than aborting.
                        ReplicaRollout {
                            replica,
                            from_version,
                            to_version: new_version,
                            divergence,
                            outcome: ReplicaOutcome::RevertFailed,
                            pause_us: us_since(paused_at),
                        },
                        Some(e),
                    ),
                }
            })();
            self.set_draining(replica, false);
            let outcome = step.outcome;
            observe(&step);
            steps.push(step);

            if outcome == ReplicaOutcome::Updated {
                updated.push((replica, old_net));
                continue;
            }
            // Canary rollback or infrastructure failure: restore every
            // already-updated replica, recording each attempt.
            let revert_err = self.revert_fleet(&mut updated, &mut steps, &mut observe);
            let report = RolloutReport {
                steps,
                rolled_back: true,
            };
            return match infra.or(revert_err) {
                Some(error) => Err(RolloutError { error, report }),
                None => Ok(report),
            };
        }
        Ok(RolloutReport {
            steps,
            rolled_back: false,
        })
    }

    /// Fleet rollback: restores every already-updated replica to its
    /// pre-rollout weights (a forward swap — versions keep increasing).
    /// Never aborts midway: a failed revert is recorded as a
    /// [`ReplicaOutcome::RevertFailed`] step (the replica stays on the
    /// new version) and the walk continues, so the report always covers
    /// the whole fleet. Returns the first revert error, if any.
    fn revert_fleet(
        &self,
        updated: &mut Vec<(usize, CapsNet)>,
        steps: &mut Vec<ReplicaRollout>,
        observe: &mut impl FnMut(&ReplicaRollout),
    ) -> Option<ServeError> {
        let mut first_err = None;
        while let Some((j, old)) = updated.pop() {
            let paused_at = Instant::now();
            self.set_draining(j, true);
            let revert = self.swap_replica_net(j, old);
            self.set_draining(j, false);
            // The version this replica was left on by its Updated step.
            let new_version = steps
                .iter()
                .find(|s| s.replica == j)
                .map(|s| s.to_version)
                .unwrap_or(0);
            let step = match revert {
                Ok(to_version) => ReplicaRollout {
                    replica: j,
                    from_version: new_version,
                    to_version,
                    divergence: None,
                    outcome: ReplicaOutcome::RevertedWithFleet,
                    pause_us: us_since(paused_at),
                },
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    ReplicaRollout {
                        replica: j,
                        from_version: new_version,
                        to_version: new_version,
                        divergence: None,
                        outcome: ReplicaOutcome::RevertFailed,
                        pause_us: us_since(paused_at),
                    }
                }
            };
            observe(&step);
            steps.push(step);
        }
        first_err
    }
}

fn us_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(replica: usize, outcome: ReplicaOutcome, to_version: u64) -> ReplicaRollout {
        ReplicaRollout {
            replica,
            from_version: 1,
            to_version,
            divergence: Some(0.0),
            outcome,
            pause_us: 1,
        }
    }

    #[test]
    fn updated_counts_final_state_not_intermediate_steps() {
        // Replicas 0 and 1 update, replica 2 trips the canary, the fleet
        // reverts: nobody is left on the new version.
        let report = RolloutReport {
            steps: vec![
                step(0, ReplicaOutcome::Updated, 2),
                step(1, ReplicaOutcome::Updated, 2),
                step(2, ReplicaOutcome::RolledBack, 3),
                step(1, ReplicaOutcome::RevertedWithFleet, 3),
                step(0, ReplicaOutcome::RevertedWithFleet, 3),
            ],
            rolled_back: true,
        };
        assert_eq!(report.updated(), 0, "reverted replicas must not count");
        assert_eq!(report.failed_reverts(), 0);

        let clean = RolloutReport {
            steps: vec![
                step(0, ReplicaOutcome::Updated, 2),
                step(1, ReplicaOutcome::Updated, 2),
            ],
            rolled_back: false,
        };
        assert_eq!(clean.updated(), 2);
    }

    #[test]
    fn failed_reverts_count_as_still_updated() {
        // Replica 1's revert failed: it is stuck serving the new version
        // and the report must say so.
        let report = RolloutReport {
            steps: vec![
                step(0, ReplicaOutcome::Updated, 2),
                step(1, ReplicaOutcome::Updated, 2),
                step(2, ReplicaOutcome::SwapFailed, 1),
                step(1, ReplicaOutcome::RevertFailed, 2),
                step(0, ReplicaOutcome::RevertedWithFleet, 3),
            ],
            rolled_back: true,
        };
        assert_eq!(report.failed_reverts(), 1);
        assert_eq!(report.updated(), 1, "a stuck replica still serves v2");
        let err = RolloutError {
            error: ServeError::Load("x".into()),
            report,
        };
        assert!(err.to_string().contains("1 failed reverts"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn divergence_metric() {
        assert_eq!(max_rel_divergence(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(max_rel_divergence(&[1.0], &[1.0, 2.0]).is_infinite());
        let d = max_rel_divergence(&[1.1, 2.0], &[1.0, 2.0]);
        assert!((d - 0.1).abs() < 1e-5, "{d}");
        // Exact-zero elements don't explode the ratio.
        assert_eq!(max_rel_divergence(&[0.0], &[0.0]), 0.0);
        // Non-finite canary output is maximal divergence, never a pass:
        // NaN slips through == and f32::max, so it is guarded explicitly.
        assert!(max_rel_divergence(&[f32::NAN, 1.0], &[1.0, 1.0]).is_infinite());
        assert!(max_rel_divergence(&[1.0], &[f32::NAN]).is_infinite());
        assert!(max_rel_divergence(&[f32::INFINITY], &[1.0]).is_infinite());
    }
}
