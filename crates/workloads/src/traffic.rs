//! Deterministic open-loop request traffic for the serving layer.
//!
//! PIM-inference papers (and the ROADMAP's "serve heavy traffic" north
//! star) evaluate accelerators under sustained request streams, not
//! single-shot calls. This module generates such streams reproducibly:
//! Poisson-process arrivals (exponential inter-arrival gaps drawn from the
//! vendored `rand` by inverse CDF), multi-tenant tags, a model index per
//! request over multiple Table 1 network shapes, and seeded request
//! images — the whole stream is a pure function of its [`TrafficConfig`].

use capsnet::{CapsNetSpec, RoutingAlgorithm};
use pim_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an open-loop arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Mean arrival rate, requests per second.
    pub rate_hz: f64,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Tenants issuing requests (tags cycle uniformly at random).
    pub tenants: usize,
    /// Registered models requests may target.
    pub models: usize,
    /// Upper bound on samples per request (each request carries
    /// `1..=max_samples` samples, uniformly).
    pub max_samples: usize,
    /// Master seed; two configs differing only in seed produce different
    /// but individually reproducible streams.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            rate_hz: 2_000.0,
            requests: 256,
            tenants: 4,
            models: 1,
            max_samples: 2,
            seed: 0xCAB5,
        }
    }
}

/// One request arrival in an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival offset from stream start, microseconds.
    pub at_us: u64,
    /// Issuing tenant.
    pub tenant: usize,
    /// Target model index.
    pub model: usize,
    /// Samples this request carries.
    pub samples: usize,
    /// Seed for the request's image content.
    pub image_seed: u64,
}

impl TrafficConfig {
    /// Generates the arrival schedule: monotone timestamps with exponential
    /// gaps of mean `1/rate_hz`, uniformly tagged tenants/models/sizes.
    ///
    /// # Panics
    ///
    /// Panics when a count field is zero or the rate is not positive.
    pub fn arrivals(&self) -> Vec<Arrival> {
        assert!(self.rate_hz > 0.0, "rate_hz must be positive");
        assert!(self.tenants > 0, "tenants must be >= 1");
        assert!(self.models > 0, "models must be >= 1");
        assert!(self.max_samples > 0, "max_samples must be >= 1");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0af1_c4a1);
        let mut t_us = 0.0f64;
        (0..self.requests)
            .map(|i| {
                // Inverse-CDF exponential gap; 1 - u keeps ln's argument in
                // (0, 1].
                let u: f64 = rng.gen();
                t_us += -(1.0 - u).ln() / self.rate_hz * 1e6;
                Arrival {
                    at_us: t_us as u64,
                    tenant: rng.gen_range(0..self.tenants),
                    model: rng.gen_range(0..self.models),
                    samples: rng.gen_range(1..=self.max_samples),
                    image_seed: self.seed ^ (0x9e37 + i as u64),
                }
            })
            .collect()
    }
}

/// Seeded request images matching `spec`'s input geometry.
pub fn request_images(spec: &CapsNetSpec, samples: usize, seed: u64) -> Tensor {
    Tensor::uniform(
        &[
            samples,
            spec.input_channels,
            spec.input_hw.0,
            spec.input_hw.1,
        ],
        0.0,
        1.0,
        seed,
    )
}

/// The serving-bench network: a functional CapsNet whose capsule-layer
/// transformation matrix (`[L, C_L, H·C_H]` ≈ 292 MB) **exceeds the
/// last-level cache**, so serving it one request at a time re-streams the
/// weights from DRAM per request while a coalesced batch streams them once
/// — the CPU-side analogue of the internal-bandwidth saturation argument
/// the paper makes for batching the routing procedure (§2/§4).
///
/// Geometry: the 12×12 functional front-end of the Table 1 harness with
/// wide (64-dim) low-level capsules and the EN3 class count, routed per
/// sample so batched outputs stay bit-identical to per-request calls.
pub fn streaming_spec() -> CapsNetSpec {
    CapsNetSpec {
        name: "Caps-Serve-Stream".into(),
        input_channels: 1,
        input_hw: (12, 12),
        conv1_channels: 16,
        conv1_kernel: 5,
        conv1_stride: 1,
        primary_channels: 128,
        cl_dim: 64,
        primary_kernel: 3,
        primary_stride: 2,
        h_caps: 62,
        ch_dim: 16,
        routing_iterations: 3,
        routing: RoutingAlgorithm::Dynamic,
        decoder_dims: vec![16, 144],
        routing_sharpness: 1.0,
        batch_shared_routing: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_monotone() {
        let cfg = TrafficConfig::default();
        let a = cfg.arrivals();
        let b = cfg.arrivals();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.requests);
        for w in a.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(a, other.arrivals());
    }

    #[test]
    fn mean_rate_is_close_to_configured() {
        let cfg = TrafficConfig {
            rate_hz: 10_000.0,
            requests: 4000,
            ..TrafficConfig::default()
        };
        let a = cfg.arrivals();
        let span_s = a.last().unwrap().at_us as f64 * 1e-6;
        let rate = cfg.requests as f64 / span_s;
        assert!(
            (rate - cfg.rate_hz).abs() / cfg.rate_hz < 0.1,
            "observed rate {rate}"
        );
    }

    #[test]
    fn tags_cover_their_ranges() {
        let cfg = TrafficConfig {
            requests: 512,
            tenants: 3,
            models: 2,
            max_samples: 2,
            ..TrafficConfig::default()
        };
        let a = cfg.arrivals();
        for arr in &a {
            assert!(arr.tenant < 3 && arr.model < 2);
            assert!(arr.samples >= 1 && arr.samples <= 2);
        }
        for tenant in 0..3 {
            assert!(a.iter().any(|x| x.tenant == tenant));
        }
        for model in 0..2 {
            assert!(a.iter().any(|x| x.model == model));
        }
        assert!(a.iter().any(|x| x.samples == 2));
    }

    #[test]
    fn request_images_match_geometry_and_seed() {
        let spec = CapsNetSpec::tiny_for_tests();
        let a = request_images(&spec, 3, 9);
        assert_eq!(a.shape().dims(), &[3, 1, 12, 12]);
        assert_eq!(a, request_images(&spec, 3, 9));
        assert_ne!(a, request_images(&spec, 3, 10));
    }

    #[test]
    fn streaming_spec_is_valid_and_weightbound() {
        let spec = streaming_spec();
        spec.validate().unwrap();
        assert!(!spec.batch_shared_routing, "must route per sample");
        // The capsule-layer weight must dwarf any plausible LLC.
        let weight_bytes = spec.l_caps().unwrap() * spec.cl_dim * spec.h_caps * spec.ch_dim * 4;
        assert!(
            weight_bytes > 200 << 20,
            "caps weight only {} MB",
            weight_bytes >> 20
        );
    }
}
