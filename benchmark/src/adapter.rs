//! Every call the benchmark makes into the repo. The rest of the crate
//! sees plain numbers, `Vec<f32>`s and the small types defined here, so a
//! later change to the repo's API is absorbed in this one file. The public
//! items used are listed in README.md ("Pinned API surface").

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use capsnet::layers::{Activation, CapsLayer, Conv2dLayer, PrimaryCapsLayer};
use capsnet::{
    dynamic_routing_with, CapsNet, CapsNetSpec, ExactMath, ForwardArena, NetworkCensus,
    RoutingAlgorithm, RoutingScratch, RpEquation,
};
use gpu_sim::{GpuSpec, GpuTimingModel};
use pim_cache::CacheValue;
use pim_serve::{
    AdmissionPolicy, CacheConfig, CachedResponse, ModelRegistry, Priority, ReplicaSet,
    ReplicaSetConfig, ReplicaSetHandle, ReplicaTicket, Request, Response, ServeCache, ServeConfig,
    ServeError, ServedModel, Server, ServerHandle, SloConfig, SubmitError, Ticket,
};
use pim_store::{MappedModel, ModelWriter};
use pim_tensor::{im2col_into, matmul_into, Conv2dScratch, Conv2dSpec, Tensor};

use crate::trace::{SpanId, Trace};
use crate::workloads::{Geometry, Serving, Workload};

pub use capsnet::CapsNet as Model;
pub use pim_tensor::Tensor as Images;

// ── host ────────────────────────────────────────────────────────────────

/// Cores the repo's kernels will plan for.
pub fn cores() -> usize {
    pim_tensor::par::available_threads()
}

/// The SIMD level the repo's kernels dispatch to on this host.
pub fn simd_level() -> &'static str {
    pim_tensor::simd::active_level().name()
}

// ── models ──────────────────────────────────────────────────────────────

fn spec_of(g: &Geometry) -> CapsNetSpec {
    CapsNetSpec {
        name: g.name.into(),
        input_channels: 1,
        input_hw: (g.input_hw, g.input_hw),
        conv1_channels: g.conv1_channels,
        conv1_kernel: g.conv1_kernel,
        conv1_stride: 1,
        primary_channels: g.primary_channels,
        cl_dim: g.cl_dim,
        primary_kernel: g.primary_kernel,
        primary_stride: g.primary_stride,
        h_caps: g.h_caps,
        ch_dim: g.ch_dim,
        routing_iterations: g.routing_iterations,
        routing: RoutingAlgorithm::Dynamic,
        decoder_dims: g.decoder_dims.to_vec(),
        routing_sharpness: 1.0,
        batch_shared_routing: false,
    }
}

/// Low-level capsule count of a geometry, or why it is invalid.
pub fn l_caps(g: &Geometry) -> Result<usize, String> {
    let spec = spec_of(g);
    spec.validate().map_err(|e| e.to_string())?;
    spec.l_caps().map_err(|e| e.to_string())
}

pub fn build_model(g: &Geometry, seed: u64) -> Model {
    CapsNet::seeded(&spec_of(g), seed).expect("workload geometries are valid")
}

/// Saves `net` as a vault-aligned artifact; returns the bytes written.
pub fn save_model(net: &Model, path: &Path) -> u64 {
    ModelWriter::vault_aligned()
        .save(net, path)
        .expect("artifact saves into the benchmark's out directory")
        .bytes
}

/// Maps the artifact back and builds a network over the mapping.
pub fn load_mapped(path: &Path) -> Model {
    let mapped = MappedModel::open(path).expect("artifact just saved opens");
    assert!(mapped.is_mapped(), "artifact must be served from a mapping");
    mapped.capsnet().expect("artifact rebuilds into a network")
}

pub fn images(g: &Geometry, samples: usize, pixels: Vec<f32>) -> Images {
    Tensor::from_vec(pixels, &[samples, 1, g.input_hw, g.input_hw])
        .expect("pixel count matches the geometry")
}

/// The digest the response cache keys a request by.
#[cfg(test)]
pub fn digest(pixels: &[f32]) -> u64 {
    pim_store::hash::hash_f32(pixels)
}

/// `CapsNet::forward` on its own: the reference a served response must
/// equal bit for bit.
pub fn reference(net: &Model, images: &Images) -> (Vec<usize>, Vec<f32>) {
    let out = net
        .forward(images, &ExactMath)
        .expect("reference forward on a valid image");
    (out.predictions(), out.class_norms_sq.as_slice().to_vec())
}

// ── serving ─────────────────────────────────────────────────────────────

/// What the driver keeps of a response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub predictions: Vec<usize>,
    pub class_norms_sq: Vec<f32>,
    pub batch_samples: usize,
    pub queue_us: u64,
    pub service_us: u64,
}

impl Reply {
    /// A response the cache answered rode no batch: both times are zero.
    pub fn is_cache_hit(&self) -> bool {
        self.queue_us == 0 && self.service_us == 0
    }
}

fn reply(r: Result<Response, ServeError>) -> Result<Reply, String> {
    r.map(|r| Reply {
        predictions: r.predictions,
        class_norms_sq: r.class_norms_sq,
        batch_samples: r.batch_samples,
        queue_us: r.queue_us,
        service_us: r.service_us,
    })
    .map_err(|e| e.to_string())
}

/// Why `submit` refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refused {
    Shed,
    Rejected(String),
}

pub enum Endpoint<'h, 's, 'a> {
    Bare(&'h ServerHandle<'s, 'a, ExactMath>),
    Pool(&'h ReplicaSetHandle<'s>),
}

pub enum Pending {
    Bare(Ticket),
    Pool(ReplicaTicket),
}

/// The 20/50/30 tenant-to-tier map of the cached workload (the others
/// send everything as tenant 0, which is a high-tier tenant on its own).
fn tier_of(tenant: usize) -> Priority {
    match tenant % 10 {
        0 | 1 => Priority::High,
        2..=6 => Priority::Normal,
        _ => Priority::Low,
    }
}

impl Endpoint<'_, '_, '_> {
    pub fn submit(&self, tenant: usize, images: Images) -> Result<Pending, Refused> {
        let request = Request::new(tenant, 0, images).with_priority(tier_of(tenant));
        let outcome = match self {
            Endpoint::Bare(h) => h.submit(request).map(Pending::Bare),
            Endpoint::Pool(h) => h.submit(request).map(Pending::Pool),
        };
        outcome.map_err(|e| match e {
            SubmitError::Shed { .. } => Refused::Shed,
            other => Refused::Rejected(other.to_string()),
        })
    }
}

impl Pending {
    /// The outcome if the request has finished; does not block.
    pub fn poll(&self) -> Option<Result<Reply, String>> {
        match self {
            Pending::Bare(t) => t.try_wait(),
            Pending::Pool(t) => t.try_wait(),
        }
        .map(reply)
    }

    pub fn wait(self) -> Result<Reply, String> {
        reply(match self {
            Pending::Bare(t) => t.wait(),
            Pending::Pool(t) => t.wait(),
        })
    }
}

/// The serve window's own account of itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowReport {
    /// Requests answered, by a batch or by the cache.
    pub completions: u64,
    pub batches: u64,
    pub batch_occupancy_mean: f64,
    pub shed: u64,
    pub rejected: u64,
    pub failed: u64,
    pub restarts: u64,
    pub failovers: u64,
    pub quarantines: u64,
    /// From the closure returning to `run()` returning: queue drain, worker
    /// join and the metrics report.
    pub report_ms: f64,
}

/// A response cache the driver owns, so it can read its counters.
pub struct DriverCache(Arc<ServeCache>);

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub bloom_negatives: u64,
    pub insertions: u64,
    pub evictions: u64,
}

fn cache_config(g: &Geometry, entries: usize) -> CacheConfig {
    let entry = CachedResponse {
        predictions: vec![0],
        class_norms_sq: vec![0.0; g.h_caps],
    };
    CacheConfig {
        byte_budget: entries * entry.cost_bytes(),
        ..CacheConfig::default()
    }
}

impl DriverCache {
    pub fn new(g: &Geometry, entries: usize) -> Self {
        DriverCache(Arc::new(ServeCache::new(cache_config(g, entries), 1)))
    }

    pub fn counts(&self) -> CacheCounts {
        let r = self.0.report();
        CacheCounts {
            hits: r.hits,
            misses: r.misses,
            bloom_negatives: r.bloom_negatives,
            insertions: r.insertions,
            evictions: r.evictions,
        }
    }
}

/// The scheduler configuration a workload is served under:
/// `ServeConfig::default()` (one worker, `BatchExecution::Auto`) with the
/// workload's batch size and coalescing wait. The cached workload adds
/// SLO-aware admission over priority tiers, with the shed ceilings, the
/// tenant quota and the queue bound out of reach. The decision runs on
/// every request but never refuses one: this host stalls for up to 150 ms,
/// a stall inside a batch multiplies the service-time estimate by a
/// thousand, and with `SloConfig::default()` and the default queue bound
/// nine of twelve runs then shed or rejected 3 to 8519 of their 2.4 M
/// requests (README.md), which would be counted as failures of the program.
fn serve_config(wl: &Workload) -> ServeConfig {
    let mut cfg = ServeConfig {
        max_batch: wl.max_batch,
        workers: 1,
        ..ServeConfig::default()
    };
    if let Some(us) = wl.max_wait_us {
        cfg.max_wait = Duration::from_micros(us);
    }
    if matches!(wl.serving, Serving::BareCached { .. }) {
        cfg.queue_capacity = 1 << 16;
        cfg.admission = AdmissionPolicy::SloAware(SloConfig {
            shed_wait_us: [60_000_000; 3],
            tenant_quota: cfg.queue_capacity,
        });
    }
    cfg
}

/// Opens a bare `Server` window over `net` as the workload configures it
/// (in front of `cache`, when given), runs `f` against it with the network
/// being served, and closes it.
pub fn serve<R>(
    wl: &Workload,
    net: Model,
    cache: Option<&DriverCache>,
    f: impl FnOnce(&Endpoint<'_, '_, '_>, &Model) -> R,
) -> (R, WindowReport) {
    let registry = ModelRegistry::from_models([ServedModel::new(wl.geometry.name, net)]);
    let served = registry.current(0).expect("the model just registered");
    let mut server =
        Server::new(&registry, &ExactMath, serve_config(wl)).expect("serve configuration is valid");
    if let Some(cache) = cache {
        server = server.with_cache(Arc::clone(&cache.0));
    }
    let ((out, returned), m) =
        server.run(|h| (f(&Endpoint::Bare(h), served.net()), Instant::now()));
    let report = WindowReport {
        completions: m.completions(),
        batches: m.batches,
        batch_occupancy_mean: m.mean_occupancy(),
        shed: m.shed_total(),
        rejected: m.rejected_full + m.rejected_quota,
        failed: m.failed_requests,
        report_ms: returned.elapsed().as_secs_f64() * 1e3,
        ..WindowReport::default()
    };
    (out, report)
}

/// The same scheduler configuration behind a one-replica `ReplicaSet`
/// whose replica keeps a response cache of `cache_entries` of its own.
pub fn serve_pool<R>(
    wl: &Workload,
    net: &Model,
    cache_entries: usize,
    f: impl FnOnce(&Endpoint<'_, '_, '_>) -> R,
) -> (R, WindowReport) {
    let cfg = ReplicaSetConfig {
        replicas: 1,
        serve: serve_config(wl),
        cache: Some(cache_config(&wl.geometry, cache_entries)),
        ..ReplicaSetConfig::default()
    };
    let pool = ReplicaSet::from_net(wl.geometry.name, net, &ExactMath, cfg)
        .expect("pool configuration is valid");
    let ((out, returned), r) = pool.run(|h| (f(&Endpoint::Pool(h)), Instant::now()));
    let report = WindowReport {
        completions: r.requests + r.cache_hits,
        batches: r.batches,
        batch_occupancy_mean: r.per_replica[0].mean_occupancy(),
        shed: r.shed,
        rejected: r.rejected_full + r.rejected_quota,
        failed: r.failed_requests,
        restarts: r.restarts,
        failovers: r.failovers,
        quarantines: r.quarantines,
        report_ms: returned.elapsed().as_secs_f64() * 1e3,
    };
    (out, report)
}

// ── layer probes (traced run only) ──────────────────────────────────────

/// The encoder's layers rebuilt from the seeds `CapsNet::seeded` derives,
/// so each layer's public entry point can be timed on its own. Outputs are
/// checked bitwise against the real network's.
pub struct LayerStack {
    conv1: Conv2dLayer,
    primary: PrimaryCapsLayer,
    caps: CapsLayer,
    primary_spec: Conv2dSpec,
    conv1_out: Tensor,
    conv1_scratch: Conv2dScratch,
    primary_conv: Tensor,
    primary_scratch: Conv2dScratch,
    primary_caps: Tensor,
    u_hat: Tensor,
    gather: Vec<f32>,
    routing: RoutingScratch,
    cols: Tensor,
    gemm: Vec<f32>,
}

impl LayerStack {
    pub fn seeded(g: &Geometry, seed: u64) -> Self {
        let l = l_caps(g).expect("workload geometries are valid");
        LayerStack {
            conv1: Conv2dLayer::seeded(
                1,
                g.conv1_channels,
                g.conv1_kernel,
                1,
                Activation::Relu,
                seed,
            ),
            primary: PrimaryCapsLayer::seeded(
                g.conv1_channels,
                g.primary_channels,
                g.cl_dim,
                g.primary_kernel,
                g.primary_stride,
                seed.wrapping_add(1),
            ),
            caps: CapsLayer::seeded(
                l,
                g.cl_dim,
                g.h_caps,
                g.ch_dim,
                RoutingAlgorithm::Dynamic,
                g.routing_iterations,
                1.0,
                seed.wrapping_add(2),
            ),
            primary_spec: Conv2dSpec::new(g.primary_kernel, g.primary_stride, 0),
            conv1_out: Tensor::zeros(&[0]),
            conv1_scratch: Conv2dScratch::default(),
            primary_conv: Tensor::zeros(&[0]),
            primary_scratch: Conv2dScratch::default(),
            primary_caps: Tensor::zeros(&[0]),
            u_hat: Tensor::zeros(&[0]),
            gather: Vec::new(),
            routing: RoutingScratch::new(),
            cols: Tensor::zeros(&[0]),
            gemm: Vec::new(),
        }
    }

    /// One encoder pass, layer by layer, each call a child span of one
    /// `capsnet.forward` span. Returns the class capsules `[B, H, C_H]`.
    pub fn forward(&mut self, images: &Images, trace: &mut Trace) -> Vec<f32> {
        trace.span("capsnet.forward", None, |trace, parent| {
            let p = Some(parent);
            trace.span("capsnet.conv1", p, |_, _| {
                self.conv1
                    .forward_into(images, &mut self.conv1_out, &mut self.conv1_scratch)
                    .expect("conv1 accepts the workload's images");
            });
            trace.span("capsnet.primary", p, |_, _| {
                self.primary
                    .forward_into(
                        &self.conv1_out,
                        &ExactMath,
                        &mut self.primary_caps,
                        &mut self.primary_conv,
                        &mut self.primary_scratch,
                    )
                    .expect("primary caps accept conv1's output");
            });
            trace.span("capsnet.uhat", p, |_, _| {
                self.caps
                    .prediction_vectors_into(
                        &self.primary_caps,
                        &ExactMath,
                        &mut self.u_hat,
                        &mut self.gather,
                    )
                    .expect("caps layer accepts the primary capsules");
            });
            self.route("capsnet.routing", self.caps.iterations(), p, trace)
        })
    }

    /// Routes the û of the last [`Self::forward`] at `iterations`.
    pub fn route(
        &mut self,
        span: &'static str,
        iterations: usize,
        parent: Option<SpanId>,
        trace: &mut Trace,
    ) -> Vec<f32> {
        trace.span(span, parent, |_, _| {
            dynamic_routing_with(
                &self.u_hat,
                iterations,
                false,
                &ExactMath,
                &mut self.routing,
            )
            .expect("routing accepts û")
            .v
            .into_vec()
        })
    }

    /// im2col and the GEMMs of the primary-caps convolution on the conv1
    /// output of the last [`Self::forward`], as the convolution issues
    /// them: one unfold, then one `[pixels, C·k·k] × [C·k·k, out]` product
    /// per sample. Returns the multiply-adds of the GEMMs.
    pub fn primary_conv_kernels(&mut self, trace: &mut Trace) -> u64 {
        trace.span("tensor.im2col", None, |_, _| {
            im2col_into(&self.conv1_out, self.primary_spec, &mut self.cols)
                .expect("primary kernel fits conv1's output");
        });
        let dims = self.cols.shape().dims().to_vec();
        let (b, pixels, ckk) = (dims[0], dims[1], dims[2]);
        // The layer keeps its GEMM-ready transpose private; any
        // `[C·k·k, out]` operand costs the same, so the `[out, C·k·k]`
        // weight is read under that shape where it lies.
        let weight = self.primary.conv().weight().as_slice();
        let out_c = weight.len() / ckk;
        self.gemm.clear();
        self.gemm.resize(pixels * out_c, 0.0);
        trace.span("tensor.gemm", None, |_, _| {
            let cols = self.cols.as_slice();
            for bi in 0..b {
                matmul_into(
                    &cols[bi * pixels * ckk..(bi + 1) * pixels * ckk],
                    weight,
                    &mut self.gemm,
                    pixels,
                    ckk,
                    out_c,
                );
            }
        });
        (b * pixels * ckk * out_c) as u64
    }
}

/// The real network's arena forward, timed as one span. Returns the class
/// capsules for the bitwise check against [`LayerStack::forward`].
pub fn forward_arena(
    net: &Model,
    images: &Images,
    arena: &mut Arena,
    span: &'static str,
    trace: &mut Trace,
) -> Vec<f32> {
    trace.span(span, None, |_, _| {
        net.forward_with(images, &ExactMath, &mut arena.0)
            .expect("forward on a valid image")
            .class_capsules()
            .to_vec()
    })
}

#[derive(Default)]
pub struct Arena(ForwardArena);

/// Bytes the census says Eq 1 (û) and the routing iterations move at
/// `batch`, and the routing-procedure share of inference time `gpu-sim`
/// predicts for the paper's P100. Computed from tensor sizes, not measured.
pub struct CensusView {
    pub uhat_bytes: u64,
    pub routing_bytes: u64,
    pub gpu_rp_share: f64,
}

pub fn census(g: &Geometry, batch: usize) -> CensusView {
    let census =
        NetworkCensus::from_spec(&spec_of(g), batch).expect("workload geometries are valid");
    let rp = &census.rp;
    let per_iteration: u64 = [
        RpEquation::Eq2,
        RpEquation::Eq3,
        RpEquation::Eq4,
        RpEquation::Eq5,
    ]
    .iter()
    .map(|&eq| rp.equation(eq).traffic_bytes())
    .sum();
    CensusView {
        uhat_bytes: rp.equation(RpEquation::Eq1).traffic_bytes(),
        routing_bytes: per_iteration * rp.iterations as u64,
        gpu_rp_share: GpuTimingModel::new(GpuSpec::p100())
            .network_times(&census)
            .rp_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Content;
    use crate::workloads::WORKLOADS;
    use std::collections::HashSet;

    #[test]
    fn spec_literals_validate() {
        for w in &WORKLOADS {
            let l = l_caps(&w.geometry).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let expected = if w.name == "micro_pool" { 4 } else { 1152 };
            assert_eq!(l, expected, "{}", w.name);
        }
    }

    #[test]
    fn distinct_content_never_repeats_a_digest() {
        // 36 pixels: the micro model's image, the smallest.
        let mut content = Content::new(3, 36);
        let mut seen = HashSet::new();
        for _ in 0..200_000 {
            assert!(seen.insert(digest(&content.next_image())));
        }
    }

    #[test]
    fn rebuilt_layers_match_the_network_bitwise() {
        let g = &WORKLOADS[3].geometry;
        let net = build_model(g, 11);
        let mut stack = LayerStack::seeded(g, 11);
        let mut content = Content::new(1, g.pixels());
        let pixels: Vec<f32> = (0..3).flat_map(|_| content.next_image()).collect();
        let batch = images(g, 3, pixels);
        let mut trace = Trace::new();
        let rebuilt = stack.forward(&batch, &mut trace);
        let mut arena = Arena::default();
        let real = forward_arena(&net, &batch, &mut arena, "capsnet.forward_with", &mut trace);
        assert_eq!(rebuilt.len(), 3 * g.h_caps * g.ch_dim);
        assert!(crate::driver::bits_equal(&rebuilt, &real));
        let own = trace.self_times_us();
        assert_eq!(own.len(), trace.spans().len());
    }
}
