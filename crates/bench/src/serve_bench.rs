//! The `pim-serve` throughput measurement: batched scheduling vs
//! single-request-at-a-time serial forwarding on the same open-loop
//! traffic, with a bitwise correctness cross-check. Shared by the
//! `serve_throughput` bench binary and the `suite_summary` artifact writer.

use std::time::{Duration, Instant};

use capsnet::{CapsNet, ExactMath};
use capsnet_workloads::traffic::{request_images, streaming_spec, Arrival, TrafficConfig};
use pim_serve::{ModelRegistry, Request, ServeConfig, ServedModel, Server, Ticket};

use crate::emit::{histogram_json, write_json_artifact, BenchHost};

/// Everything one serve-throughput run measured.
pub struct ServeBenchResult {
    /// Requests driven through both paths.
    pub requests: usize,
    /// Samples those requests carried.
    pub samples: usize,
    /// Serial path: samples per second (per-request `CapsNet::forward`).
    pub serial_sps: f64,
    /// Batched path: samples per second through the server.
    pub batched_sps: f64,
    /// `batched_sps / serial_sps`.
    pub speedup: f64,
    /// `true` when every batched response was bit-identical to the serial
    /// forward of the same request.
    pub bitwise_equal: bool,
    /// Median / p95 / p99 total request latency in the batched run, µs.
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Mean samples per dispatched batch.
    pub mean_occupancy: f64,
    /// Dispatched batches.
    pub batches: u64,
    /// `occupancy[s]` = batches holding `s` samples.
    pub occupancy: Vec<u64>,
    /// The scheduler configuration used.
    pub cfg: ServeConfig,
    /// Caps-layer weight footprint of the served model, bytes.
    pub caps_weight_bytes: usize,
    /// The measurement host (SIMD path + threads) the numbers came from.
    pub host: BenchHost,
}

/// The scheduler configuration the bench exercises. Spelled out field by
/// field — the recorded `BENCH_serve.json` numbers are only comparable
/// across PRs if these knobs stay pinned, independent of whatever
/// `ServeConfig::default()` evolves into.
pub fn bench_serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        workers: 1,
        admission: pim_serve::AdmissionPolicy::QueueBound,
    }
}

/// One matched serial+batched measurement pass.
struct Pass {
    serial_s: f64,
    batched_s: f64,
    bitwise_equal: bool,
    metrics: pim_serve::MetricsReport,
}

/// Runs the measurement.
///
/// The served model is [`streaming_spec`]: its capsule-layer weights
/// (~292 MB) exceed the last-level cache, so the serial path re-streams
/// them from DRAM per request while coalesced batches stream them once —
/// the regime the paper's batching argument is about. `requests` trades
/// bench runtime against measurement stability (each serial request costs
/// tens of milliseconds).
///
/// The host is shared, so DRAM bandwidth fluctuates between runs; the
/// bench therefore runs [`PASSES`] matched serial+batched pairs and
/// records the pass with the **median** speedup. Bitwise equality must
/// hold on every pass.
pub fn run_serve_bench(requests: usize) -> ServeBenchResult {
    /// Matched measurement pairs per invocation (median recorded).
    const PASSES: usize = 3;

    let spec = streaming_spec();
    let net = CapsNet::seeded(&spec, 42).expect("streaming spec is valid");
    let caps_weight_bytes = spec.l_caps().expect("valid")
        * spec.cl_dim
        * spec.h_caps
        * spec.ch_dim
        * std::mem::size_of::<f32>();
    let traffic = TrafficConfig {
        rate_hz: 50_000.0, // far above service capacity: an open-loop burst
        requests,
        tenants: 4,
        models: 1,
        // One image per request — the online-inference case batching is
        // for. Multi-sample requests amortize the weight streaming inside
        // the serial baseline too, which only narrows the gap.
        max_samples: 1,
        seed: 0x5EE5,
    };
    let arrivals = traffic.arrivals();
    let samples: usize = arrivals.iter().map(|a| a.samples).sum();
    let cfg = bench_serve_config();

    // Warm both paths (first call sizes every buffer).
    let warm = request_images(&spec, 1, 0);
    let _ = net.forward(&warm, &ExactMath).expect("warm-up");
    let registry = ModelRegistry::from_models([ServedModel::new(spec.name.clone(), net)]);

    let mut passes: Vec<Pass> = (0..PASSES)
        .map(|_| measure_pass(&registry, &spec, &arrivals, cfg))
        .collect();
    let bitwise_equal = passes.iter().all(|p| p.bitwise_equal);
    passes.sort_by(|a, b| {
        let sa = a.serial_s / a.batched_s;
        let sb = b.serial_s / b.batched_s;
        sa.total_cmp(&sb)
    });
    let median = passes.into_iter().nth(PASSES / 2).expect("PASSES > 0");

    let serial_sps = samples as f64 / median.serial_s;
    let batched_sps = samples as f64 / median.batched_s;
    ServeBenchResult {
        requests,
        samples,
        serial_sps,
        batched_sps,
        speedup: batched_sps / serial_sps,
        bitwise_equal,
        p50_us: median.metrics.p50_us,
        p95_us: median.metrics.p95_us,
        p99_us: median.metrics.p99_us,
        mean_occupancy: median.metrics.mean_occupancy(),
        batches: median.metrics.batches,
        occupancy: median.metrics.batch_occupancy,
        cfg,
        caps_weight_bytes,
        host: BenchHost::detect(),
    }
}

/// Times one serial sweep and one batched sweep over the same arrivals,
/// checking the batched outputs bitwise against the serial ones.
fn measure_pass(
    registry: &ModelRegistry,
    spec: &capsnet::CapsNetSpec,
    arrivals: &[Arrival],
    cfg: ServeConfig,
) -> Pass {
    let handle = registry.current(0).expect("bench registry has model 0");
    let net = handle.net();

    // Serial: one `forward` call per request, in arrival order.
    let t0 = Instant::now();
    let serial_outputs: Vec<Vec<f32>> = arrivals
        .iter()
        .map(|a| {
            let images = request_images(spec, a.samples, a.image_seed);
            net.forward(&images, &ExactMath)
                .expect("serial forward")
                .class_norms_sq
                .as_slice()
                .to_vec()
        })
        .collect();
    let serial_s = t0.elapsed().as_secs_f64();

    // Batched: the same stream through the server.
    let server = Server::new(registry, &ExactMath, cfg).expect("valid serve config");
    let t0 = Instant::now();
    let (responses, metrics) = server.run(|handle| {
        let tickets: Vec<Ticket> = arrivals
            .iter()
            .map(|a: &Arrival| {
                let images = request_images(spec, a.samples, a.image_seed);
                // The burst rate outruns the service rate, so the bounded
                // queue will push back; spin-resubmit keeps the stream
                // open-loop while honoring backpressure.
                loop {
                    match handle.submit(Request::new(a.tenant, 0, images.clone())) {
                        Ok(t) => break t,
                        Err(pim_serve::SubmitError::QueueFull { .. }) => {
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("unexpected reject: {e}"),
                    }
                }
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("batched inference"))
            .collect::<Vec<_>>()
    });
    let batched_s = t0.elapsed().as_secs_f64();

    let bitwise_equal = responses.iter().zip(&serial_outputs).all(|(r, s)| {
        r.class_norms_sq.len() == s.len()
            && r.class_norms_sq
                .iter()
                .zip(s)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    Pass {
        serial_s,
        batched_s,
        bitwise_equal,
        metrics,
    }
}

impl ServeBenchResult {
    /// Renders `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let spec = streaming_spec();
        format!(
            concat!(
                "{{\n",
                "  \"host\": {{\"simd\": \"{simd}\", \"threads\": {threads}}},\n",
                "  \"model\": {{\"name\": \"{name}\", \"l_caps\": {l}, \"cl_dim\": {cl}, ",
                "\"h_caps\": {h}, \"ch_dim\": {ch}, \"caps_weight_mb\": {wmb:.1}}},\n",
                "  \"scheduler\": {{\"max_batch\": {mb}, \"max_wait_us\": {mw}, ",
                "\"queue_capacity\": {qc}, \"workers\": {wk}}},\n",
                "  \"traffic\": {{\"requests\": {req}, \"samples\": {smp}, \"tenants\": 4}},\n",
                "  \"serial\": {{\"samples_per_s\": {ssps:.2}}},\n",
                "  \"batched\": {{\"samples_per_s\": {bsps:.2}, \"p50_us\": {p50}, ",
                "\"p95_us\": {p95}, \"p99_us\": {p99}, \"batches\": {bat}, ",
                "\"mean_occupancy\": {occ:.2}, \"occupancy_histogram\": {hist}}},\n",
                "  \"speedup_batched_vs_serial\": {spd:.4},\n",
                "  \"outputs_bitwise_equal\": {eq}\n",
                "}}\n",
            ),
            simd = self.host.simd,
            threads = self.host.threads,
            name = spec.name,
            l = spec.l_caps().expect("valid"),
            cl = spec.cl_dim,
            h = spec.h_caps,
            ch = spec.ch_dim,
            wmb = self.caps_weight_bytes as f64 / (1 << 20) as f64,
            mb = self.cfg.max_batch,
            mw = self.cfg.max_wait.as_micros(),
            qc = self.cfg.queue_capacity,
            wk = self.cfg.workers,
            req = self.requests,
            smp = self.samples,
            ssps = self.serial_sps,
            bsps = self.batched_sps,
            p50 = self.p50_us,
            p95 = self.p95_us,
            p99 = self.p99_us,
            bat = self.batches,
            occ = self.mean_occupancy,
            hist = histogram_json(&self.occupancy),
            spd = self.speedup,
            eq = self.bitwise_equal,
        )
    }

    /// Prints the human-readable summary and writes `BENCH_serve.json`.
    pub fn report_and_write(&self) {
        println!(
            "serve_throughput: {} requests / {} samples, caps weights {:.0} MB",
            self.requests,
            self.samples,
            self.caps_weight_bytes as f64 / (1 << 20) as f64
        );
        println!(
            "  serial   {:>8.1} samples/s (per-request CapsNet::forward)",
            self.serial_sps
        );
        println!(
            "  batched  {:>8.1} samples/s (max_batch {}, max_wait {:?}, mean occupancy {:.1})",
            self.batched_sps, self.cfg.max_batch, self.cfg.max_wait, self.mean_occupancy
        );
        println!(
            "  speedup  {:>8.2}x   latency p50/p95/p99 {}/{}/{} us   bitwise_equal {}",
            self.speedup, self.p50_us, self.p95_us, self.p99_us, self.bitwise_equal
        );
        write_json_artifact("BENCH_serve.json", &self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_json_schema_is_stable() {
        // A synthetic result exercises the JSON shape without running the
        // (expensive) measurement.
        let result = ServeBenchResult {
            requests: 4,
            samples: 6,
            serial_sps: 10.0,
            batched_sps: 25.0,
            speedup: 2.5,
            bitwise_equal: true,
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            mean_occupancy: 3.0,
            batches: 2,
            occupancy: vec![0, 1, 0, 0, 1],
            cfg: bench_serve_config(),
            caps_weight_bytes: 292 << 20,
            host: BenchHost {
                simd: "avx2+fma",
                threads: 4,
            },
        };
        let v = crate::jsonlite::parse(&result.to_json()).unwrap();
        let h = v.get("host").expect("host object");
        assert_eq!(h.get("simd").unwrap().as_str(), Some("avx2+fma"));
        assert_eq!(h.get("threads").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            v.get("speedup_batched_vs_serial").unwrap().as_f64(),
            Some(2.5)
        );
        assert_eq!(
            v.get("outputs_bitwise_equal").unwrap().as_bool(),
            Some(true)
        );
        let batched = v.get("batched").unwrap();
        assert_eq!(batched.get("p99_us").unwrap().as_f64(), Some(300.0));
        assert_eq!(
            batched
                .get("occupancy_histogram")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            5
        );
        assert!(v.get("model").unwrap().get("caps_weight_mb").is_some());
    }
}
