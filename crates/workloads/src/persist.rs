//! The `persist_roundtrip` scenario: save a model artifact, map it back
//! (zero-copy), serve it through `pim-serve`, and prove the served
//! responses are **bit-identical** to the in-memory network's.
//!
//! This is the workload behind `BENCH_store.json` and the end-to-end test
//! of the persistence tier: the same model the serving bench streams
//! (`traffic::streaming_spec`, caps weights ≫ LLC) flows through
//! `ModelWriter → MappedModel → ModelRegistry → Server` with its weights
//! borrowed straight from the page cache.

use std::path::Path;
use std::time::Instant;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_serve::{ModelRegistry, Request, ServeConfig, Server};
use pim_store::{Layout, MappedModel, ModelWriter, StoreError};

use crate::drive::{bitwise_eq, drive, Arrivals, Backpressure, Drive};
use crate::traffic::{request_images, Arrival};

/// What one [`persist_roundtrip`] run measured.
#[derive(Debug, Clone)]
pub struct PersistReport {
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
    /// Wall time of the cold save, seconds.
    pub save_s: f64,
    /// Wall time of `MappedModel::open` + network rebuild, seconds
    /// (includes full checksum verification).
    pub map_s: f64,
    /// Whether the load was a true mmap (false after the owned fallback).
    pub mapped: bool,
    /// Requests served off the mapped weights.
    pub served_requests: usize,
    /// `true` when every served response was bit-identical to the
    /// in-memory network's per-request forward.
    pub bitwise_identical: bool,
}

/// Saves `net` to `path` (vault-aligned layout), maps it back, serves
/// `requests` single-sample requests off the mapped weights through a
/// `pim-serve` window, and cross-checks every response bitwise against
/// the original in-memory network.
///
/// # Errors
///
/// Propagates [`StoreError`] from the save/load steps.
pub fn persist_roundtrip(
    net: &CapsNet,
    path: &Path,
    requests: usize,
) -> Result<PersistReport, StoreError> {
    let t0 = Instant::now();
    let report = ModelWriter::vault_aligned().save(net, path)?;
    let save_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mapped = MappedModel::open(path)?;
    let loaded = mapped.capsnet()?;
    let map_s = t0.elapsed().as_secs_f64();
    debug_assert!(matches!(mapped.layout(), Layout::VaultAligned { .. }));

    let spec = net.spec().clone();
    let registry =
        ModelRegistry::from_models([pim_serve::ServedModel::new(spec.name.clone(), loaded)]);
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait: std::time::Duration::from_micros(500),
        queue_capacity: 256,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    };
    let server = Server::new(&registry, &ExactMath, cfg)
        .map_err(|e| StoreError::Corrupt(format!("serve setup: {e}")))?;
    let arrivals: Vec<Arrival> = (0..requests)
        .map(|i| Arrival {
            at_us: 0,
            tenant: i % 4,
            model: 0,
            samples: 1,
            image_seed: 0xC0FFEE ^ i as u64,
        })
        .collect();
    let (driven, _metrics) = server.run(|handle| {
        drive(
            handle,
            &arrivals,
            Drive {
                arrivals: Arrivals::Burst,
                backpressure: Backpressure::Retry,
                keep_responses: true,
            },
            |_, a| Request::new(a.tenant, 0, request_images(&spec, 1, a.image_seed)),
            |_, _| {},
        )
    });
    let bitwise_identical = driven.ledger.completed as usize == requests
        && driven.outcomes.iter().all(|o| {
            let serial = net
                .forward(
                    &request_images(&spec, 1, arrivals[o.arrival].image_seed),
                    &ExactMath,
                )
                .expect("serial forward");
            o.result.as_ref().is_ok_and(|response| {
                bitwise_eq(
                    response,
                    &serial.predictions(),
                    serial.class_norms_sq.as_slice(),
                )
            })
        });

    Ok(PersistReport {
        artifact_bytes: report.bytes,
        save_s,
        map_s,
        mapped: mapped.is_mapped(),
        served_requests: requests,
        bitwise_identical,
    })
}

/// A small-but-real spec for scenario tests (the bench uses
/// [`crate::traffic::streaming_spec`] instead — 280 MB of caps weights).
pub fn tiny_persist_spec() -> CapsNetSpec {
    let mut spec = CapsNetSpec::tiny_for_tests();
    spec.name = "tiny-persist".into();
    spec.batch_shared_routing = false;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_roundtrip_serves_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("pim_workloads_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.pimcaps");
        let net = CapsNet::seeded(&tiny_persist_spec(), 77).unwrap();
        let report = persist_roundtrip(&net, &path, 12).unwrap();
        assert!(report.bitwise_identical, "{report:?}");
        assert_eq!(report.served_requests, 12);
        assert!(report.artifact_bytes > 0);
        assert!(report.save_s >= 0.0 && report.map_s >= 0.0);
        #[cfg(unix)]
        assert!(report.mapped);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
