//! Zipf-skewed multi-tenant traffic over the streaming model — the
//! response-cache evaluation workload.
//!
//! Production inference traffic is not uniform: a small set of inputs
//! (popular images, canned prompts, health-check payloads) dominates, and
//! that popularity skew is what makes a content-addressed response cache
//! pay for itself. This module draws request *content* from a Zipf
//! distribution over a finite key catalog: rank `r` (0-based) is sampled
//! with probability `∝ 1/(r+1)^s`, and every draw of the same `(model,
//! rank)` maps to the same image seed — hence a bit-identical request
//! tensor and a guaranteed cache-key collision. Arrival *times* remain the
//! Poisson process of [`crate::traffic`]; only the content distribution
//! changes. The whole stream is a pure function of its [`ZipfConfig`].

use crate::traffic::Arrival;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a Zipf-skewed open-loop arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfConfig {
    /// Mean arrival rate, requests per second.
    pub rate_hz: f64,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Tenants issuing requests (tags cycle uniformly at random).
    pub tenants: usize,
    /// Registered models requests may target (each model has its own
    /// independent key catalog).
    pub models: usize,
    /// Distinct content keys per model — the catalog the Zipf ranks index.
    pub keys: usize,
    /// Zipf exponent `s` (`0.0` degenerates to uniform; `≈1.0` is the
    /// classic web-traffic skew the cache gate measures at).
    pub skew: f64,
    /// Samples per request. Fixed (not drawn) so two requests for the same
    /// rank carry bit-identical tensors of identical geometry.
    pub samples: usize,
    /// Master seed; two configs differing only in seed produce different
    /// but individually reproducible streams.
    pub seed: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            rate_hz: 2_000.0,
            requests: 256,
            tenants: 4,
            models: 1,
            keys: 64,
            skew: 1.0,
            samples: 1,
            seed: 0x21BF,
        }
    }
}

/// The image seed shared by every request for `(model, rank)` under
/// `seed`: the determinism that turns rank popularity into cache hits.
/// SplitMix64-style finalizer so nearby ranks land on far-apart seeds.
fn key_seed(seed: u64, model: usize, rank: usize) -> u64 {
    let mut z = seed
        ^ (model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (rank as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Normalized Zipf CDF over `keys` ranks at exponent `skew`.
fn zipf_cdf(keys: usize, skew: f64) -> Vec<f64> {
    let mut cdf: Vec<f64> = Vec::with_capacity(keys);
    let mut acc = 0.0f64;
    for rank in 0..keys {
        acc += 1.0 / ((rank + 1) as f64).powf(skew);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

impl ZipfConfig {
    /// Generates the arrival schedule: Poisson timestamps, uniform tenant
    /// and model tags, and Zipf-ranked content — the returned
    /// [`Arrival::image_seed`] repeats exactly when the drawn `(model,
    /// rank)` repeats.
    ///
    /// # Panics
    ///
    /// Panics when a count field is zero, the rate is not positive, or the
    /// skew is negative.
    pub fn arrivals(&self) -> Vec<Arrival> {
        assert!(self.rate_hz > 0.0, "rate_hz must be positive");
        assert!(self.tenants > 0, "tenants must be >= 1");
        assert!(self.models > 0, "models must be >= 1");
        assert!(self.keys > 0, "keys must be >= 1");
        assert!(self.samples > 0, "samples must be >= 1");
        assert!(self.skew >= 0.0, "skew must be non-negative");
        let cdf = zipf_cdf(self.keys, self.skew);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x21bf_5eed);
        let mut t_us = 0.0f64;
        (0..self.requests)
            .map(|_| {
                // Inverse-CDF exponential gap; 1 - u keeps ln's argument in
                // (0, 1].
                let u: f64 = rng.gen();
                t_us += -(1.0 - u).ln() / self.rate_hz * 1e6;
                let model = rng.gen_range(0..self.models);
                let v: f64 = rng.gen();
                let rank = cdf.partition_point(|&c| c < v).min(self.keys - 1);
                Arrival {
                    at_us: t_us as u64,
                    tenant: rng.gen_range(0..self.tenants),
                    model,
                    samples: self.samples,
                    image_seed: key_seed(self.seed, model, rank),
                }
            })
            .collect()
    }
}

/// Distinct content keys — `(model, image_seed)` pairs — in a stream. On
/// a cold cache large enough to hold the catalog, `arrivals.len() -
/// distinct_content(&arrivals)` is exactly the achievable hit count.
pub fn distinct_content(arrivals: &[Arrival]) -> usize {
    let mut seen: Vec<(usize, u64)> = arrivals.iter().map(|a| (a.model, a.image_seed)).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::request_images;
    use capsnet::CapsNetSpec;

    #[test]
    fn arrivals_are_deterministic_and_monotone() {
        let cfg = ZipfConfig::default();
        let a = cfg.arrivals();
        let b = cfg.arrivals();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.requests);
        for w in a.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
        for arr in &a {
            assert!(arr.tenant < cfg.tenants && arr.model < cfg.models);
            assert_eq!(arr.samples, cfg.samples);
        }
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(a, other.arrivals());
    }

    #[test]
    fn skew_concentrates_content() {
        let base = ZipfConfig {
            requests: 1024,
            keys: 256,
            ..ZipfConfig::default()
        };
        let uniform = ZipfConfig { skew: 0.0, ..base };
        let skewed = ZipfConfig { skew: 1.5, ..base };
        let d_uniform = distinct_content(&uniform.arrivals());
        let d_skewed = distinct_content(&skewed.arrivals());
        // Heavier skew ⇒ far fewer distinct keys ⇒ far more repeats.
        assert!(
            d_skewed * 2 < d_uniform,
            "skewed {d_skewed} vs uniform {d_uniform}"
        );
        // At s = 1.5 over 256 keys the head dominates: most requests must
        // be repeats (the property the cache gate banks on).
        assert!(
            d_skewed * 4 < base.requests,
            "only {} repeats in {}",
            base.requests - d_skewed,
            base.requests
        );
    }

    #[test]
    fn repeated_ranks_carry_bit_identical_images() {
        let cfg = ZipfConfig {
            requests: 128,
            keys: 4, // tiny catalog forces repeats
            ..ZipfConfig::default()
        };
        let arrivals = cfg.arrivals();
        let spec = CapsNetSpec::tiny_for_tests();
        let first = &arrivals[0];
        let twin = arrivals[1..]
            .iter()
            .find(|a| a.image_seed == first.image_seed)
            .expect("a 4-key catalog repeats within 128 draws");
        assert_eq!(
            request_images(&spec, first.samples, first.image_seed),
            request_images(&spec, twin.samples, twin.image_seed),
            "same rank must reproduce the same tensor bits"
        );
    }

    #[test]
    fn key_seeds_separate_models_and_ranks() {
        let mut seeds = Vec::new();
        for model in 0..3 {
            for rank in 0..64 {
                seeds.push(key_seed(7, model, rank));
            }
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "key_seed collided");
    }
}
