//! `replica_scale` — the replicated-serving gate:
//!
//! 1. saves the 280 MB-class streaming model as one vault-aligned
//!    artifact and builds a four-replica pool on it, every replica
//!    wrapping the **same** mapping;
//! 2. accounts where the fleet's weight bytes live (shared mapping,
//!    counted once, versus per-replica owned copies — the latter must be
//!    negligible);
//! 3. runs the `rolling_rollout` workload scenario on the streaming model
//!    (Poisson traffic, healthy rollout, poisoned rollout with canary
//!    rollback): zero dropped tickets, per-replica version monotonicity,
//!    bitwise attribution, rollback exercised;
//! 4. emits `bench_results/BENCH_replica.json` — after `check_replica`
//!    has accepted it.
//!
//! Used as the CI rollout gate: any violated invariant aborts the run
//! before anything is written.

use pim_bench::replica_bench::run_replica_bench;

fn main() {
    let dir = std::env::temp_dir().join(format!("pim_bench_replica_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let result = run_replica_bench(&dir);
    result.report_and_write();

    std::fs::remove_dir_all(&dir).expect("cleanup temp dir");
}
