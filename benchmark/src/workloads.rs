//! The four workloads: what is served, how it is served, and the load. All
//! literals are the benchmark's own — a change to the repo's spec helpers
//! or bench harnesses must not change the load.

/// A CapsNet geometry. Every model has one input channel, stride-1 conv1,
/// dynamic routing at sharpness 1.0, and routes per sample (so requests
/// coalesce into batches without influencing each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub name: &'static str,
    pub input_hw: usize,
    pub conv1_channels: usize,
    pub conv1_kernel: usize,
    pub primary_channels: usize,
    pub cl_dim: usize,
    pub primary_kernel: usize,
    pub primary_stride: usize,
    pub h_caps: usize,
    pub ch_dim: usize,
    pub routing_iterations: usize,
    pub decoder_dims: &'static [usize],
}

impl Geometry {
    pub fn pixels(&self) -> usize {
        self.input_hw * self.input_hw
    }
}

/// How the model is put behind `submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// Seeded in memory, served by a bare `Server`.
    Bare,
    /// Seeded, saved with `pim-store`, mapped back, served by a bare
    /// `Server` — the only workload whose set-up does real work.
    BareFromStore,
    /// Bare `Server` behind a response cache holding about
    /// `cache_entries` responses, with SLO-aware admission and requests
    /// spread over `tenants` tenants in 20/50/30 high/normal/low tiers.
    /// Every run then serves the same saturation traffic through a
    /// one-replica `ReplicaSet` with a cache of the same size, where only
    /// the outcome is gated: the pool's rate does not repeat on two cores
    /// (README.md).
    BareCached {
        tenants: usize,
        cache_entries: usize,
    },
}

/// What the paced phase sends. The saturation phase always sends content
/// that never repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacedContent {
    Distinct,
    /// Zipf(`s`) over `keys` fixed images, so most requests repeat.
    Zipf {
        keys: usize,
        s: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub geometry: Geometry,
    pub serving: Serving,
    pub max_batch: usize,
    /// `None` keeps `ServeConfig::default()`'s coalescing wait.
    pub max_wait_us: Option<u64>,
    /// Requests the closed loop keeps outstanding.
    pub sat_window: usize,
    /// Roughly the saturation rate of the calibration run; only spaces
    /// out the spans a traced saturation phase keeps.
    pub sat_rate_hint_hz: f64,
    /// Open-loop arrival rate, frozen at about a third of the saturation
    /// rate of the calibration run (README.md); never derived at run time,
    /// so a faster server is not simply offered more.
    pub paced_rate_hz: f64,
    /// Latency limit of `paced_slo_share`, frozen at 3-5 times the paced
    /// median of a slow spell of the calibration host (README.md).
    pub slo_limit_us: u64,
    pub paced_content: PacedContent,
}

/// Seed of every model's weights (the load seed is `--seed`).
pub const MODEL_SEED: u64 = 0xCA95;

const FRONT_12X12: Geometry = Geometry {
    name: "Caps-Serve-Stream",
    input_hw: 12,
    conv1_channels: 16,
    conv1_kernel: 5,
    primary_channels: 128,
    cl_dim: 64,
    primary_kernel: 3,
    primary_stride: 2,
    h_caps: 62,
    ch_dim: 16,
    routing_iterations: 3,
    decoder_dims: &[16, 144],
};

pub const WORKLOADS: [Workload; 4] = [
    // U-hat projection streams a 279 MB weight matrix from DRAM (most of
    // forward time); the only real set-up.
    Workload {
        name: "stream",
        geometry: FRONT_12X12,
        serving: Serving::BareFromStore,
        max_batch: 16,
        max_wait_us: None,
        sat_window: 32,
        sat_rate_hint_hz: 50.0,
        paced_rate_hz: 16.0,
        slo_limit_us: 250_000,
        paced_content: PacedContent::Distinct,
    },
    // 9 routing iterations over 62 classes with narrow capsules: routing
    // dominates forward time, as in the paper's Fig 4.
    Workload {
        name: "rp_heavy",
        geometry: Geometry {
            name: "Caps-RP-Heavy",
            cl_dim: 8,
            routing_iterations: 9,
            ..FRONT_12X12
        },
        serving: Serving::Bare,
        max_batch: 16,
        max_wait_us: None,
        sat_window: 32,
        sat_rate_hint_hz: 120.0,
        paced_rate_hz: 40.0,
        slo_limit_us: 80_000,
        paced_content: PacedContent::Distinct,
    },
    // CapsNet-MNIST geometry: the primary-caps convolution dominates and
    // routing is ~1%, so capsule-layer changes must not move it.
    Workload {
        name: "mnist",
        geometry: Geometry {
            name: "CapsNet-MNIST",
            input_hw: 28,
            conv1_channels: 256,
            conv1_kernel: 9,
            primary_channels: 32,
            cl_dim: 8,
            primary_kernel: 9,
            primary_stride: 2,
            h_caps: 10,
            ch_dim: 16,
            routing_iterations: 3,
            decoder_dims: &[512, 1024, 784],
        },
        serving: Serving::Bare,
        max_batch: 8,
        max_wait_us: None,
        sat_window: 16,
        sat_rate_hint_hz: 40.0,
        paced_rate_hz: 12.0,
        slo_limit_us: 140_000,
        paced_content: PacedContent::Distinct,
    },
    // A ~1 us model, so digest, cache, admission, queue, mailbox, ticket and
    // metrics code do all the work; sat misses the cache, paced mostly hits
    // it, a one-replica pool answers the same traffic.
    Workload {
        name: "micro_pool",
        geometry: Geometry {
            name: "caps-soak-micro",
            input_hw: 6,
            conv1_channels: 4,
            conv1_kernel: 3,
            primary_channels: 4,
            cl_dim: 4,
            primary_kernel: 3,
            primary_stride: 2,
            h_caps: 2,
            ch_dim: 4,
            routing_iterations: 1,
            decoder_dims: &[8, 36],
        },
        serving: Serving::BareCached {
            tenants: 200,
            cache_entries: 1024,
        },
        max_batch: 8,
        max_wait_us: Some(200),
        sat_window: 256,
        sat_rate_hint_hz: 220_000.0,
        paced_rate_hz: 30_000.0,
        slo_limit_us: 1_000,
        paced_content: PacedContent::Zipf { keys: 4096, s: 1.0 },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_windows_fit_the_default_queue() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.sat_window >= 2 * w.max_batch);
            // ServeConfig::default().queue_capacity: a full window must
            // never be refused.
            assert!(w.sat_window <= 256);
        }
    }
}
