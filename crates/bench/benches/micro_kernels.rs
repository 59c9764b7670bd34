//! Criterion micro-benchmarks: wall-clock performance of the library's hot
//! paths (exact vs approximate special functions, routing, GEMM, the
//! convolutions, û, address mapping, the phase-level HMC engine).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use capsnet::routing::dynamic_routing_with;
use capsnet::{ApproxMath, ExactMath, MathBackend, RoutingScratch};
use hmc_sim::{AddressMapping, DefaultMapping, HmcConfig, PhaseEngine, PimMapping};
use pim_approx::{fast_div, fast_exp, fast_inv_sqrt};
use pim_capsnet::distribution::Dimension;
use pim_capsnet::intra::{build_rp_phases, AddressingMode};
use pim_tensor::{
    conv2d_pretransposed_into, matmul_into, uhat_project, Conv2dScratch, Conv2dSpec, Tensor,
    UhatWeights,
};

fn bench_special_funcs(c: &mut Criterion) {
    let mut g = c.benchmark_group("special_funcs");
    let xs: Vec<f32> = (1..1000).map(|i| i as f32 * 0.013).collect();
    g.bench_function("exp_exact", |b| {
        b.iter(|| xs.iter().map(|&x| black_box((-x).exp())).sum::<f32>())
    });
    g.bench_function("exp_fast", |b| {
        b.iter(|| xs.iter().map(|&x| black_box(fast_exp(-x))).sum::<f32>())
    });
    g.bench_function("inv_sqrt_exact", |b| {
        b.iter(|| xs.iter().map(|&x| black_box(1.0 / x.sqrt())).sum::<f32>())
    });
    g.bench_function("inv_sqrt_fast", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| black_box(fast_inv_sqrt(x, 1)))
                .sum::<f32>()
        })
    });
    g.bench_function("div_exact", |b| {
        b.iter(|| xs.iter().map(|&x| black_box(1.7 / x)).sum::<f32>())
    });
    g.bench_function("div_fast", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| black_box(fast_div(1.7, x, 1)))
                .sum::<f32>()
        })
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    let u_hat = Tensor::uniform(&[8, 128, 10, 16], -0.5, 0.5, 1);
    let exact = ExactMath;
    let approx = ApproxMath::with_recovery();
    // Every row is the serial reference, `dynamic_routing_with`; all but
    // `dynamic_exact_arena` start from a fresh scratch. The sharded layer
    // path is timed end to end by the benchmark's `capsnet.routing_ms`.
    let fresh = || RoutingScratch::new();
    // Monomorphized: the backend type is statically known, special
    // functions inline into the RP loop.
    g.bench_function("dynamic_exact", |b| {
        b.iter(|| dynamic_routing_with(black_box(&u_hat), 3, true, &exact, &mut fresh()).unwrap())
    });
    g.bench_function("dynamic_approx", |b| {
        b.iter(|| dynamic_routing_with(black_box(&u_hat), 3, true, &approx, &mut fresh()).unwrap())
    });
    // Boxed: the seed-style `&dyn MathBackend` path — every exp/div/inv_sqrt
    // is a virtual call. Kept benched so the monomorphization win stays
    // visible over time.
    let dyn_exact: &dyn MathBackend = &exact;
    let dyn_approx: &dyn MathBackend = &approx;
    g.bench_function("dynamic_exact_boxed", |b| {
        b.iter(|| {
            dynamic_routing_with(black_box(&u_hat), 3, true, dyn_exact, &mut fresh()).unwrap()
        })
    });
    g.bench_function("dynamic_approx_boxed", |b| {
        b.iter(|| {
            dynamic_routing_with(black_box(&u_hat), 3, true, dyn_approx, &mut fresh()).unwrap()
        })
    });
    // Arena: monomorphized plus a warm reused scratch — the zero-allocation
    // steady state of the forward engine.
    let mut scratch = RoutingScratch::new();
    g.bench_function("dynamic_exact_arena", |b| {
        b.iter(|| dynamic_routing_with(black_box(&u_hat), 3, true, &exact, &mut scratch).unwrap())
    });
    // Per-sample coefficients, on one thread.
    g.bench_function("dynamic_exact_per_sample", |b| {
        b.iter(|| dynamic_routing_with(black_box(&u_hat), 3, false, &exact, &mut fresh()).unwrap())
    });
    // The benchmark's per-sample routing at `max_batch`, one thread, warm
    // scratch; each û is built on first run, so a filter that skips the
    // row allocates nothing. `rp_heavy`: 73 MB of û past the last-level
    // cache, routed sample by sample, so each sample's 4.6 MB stays
    // resident across its nine iterations: the row times instruction
    // issue in the per-row work, not DRAM (before rows were blocked, one
    // pinned core spent 292–317 ns on a row at L = 144, whose û fits in
    // L2, and 333–374 ns at L = 1152). `mnist`: ten classes, where fixed
    // per-row costs weigh most.
    let per_sample_rows = [
        ("dynamic_exact_per_sample_rp_heavy", [16, 1152, 62, 16], 9),
        ("dynamic_exact_per_sample_mnist", [8, 1152, 10, 16], 3),
    ];
    g.sample_size(10);
    for (id, dims, iterations) in per_sample_rows {
        let mut built: Option<(Tensor, RoutingScratch)> = None;
        g.bench_function(id, |b| {
            let (u_hat, scratch) = built.get_or_insert_with(|| {
                (Tensor::uniform(&dims, -0.5, 0.5, 2), RoutingScratch::new())
            });
            b.iter(|| {
                dynamic_routing_with(black_box(&*u_hat), iterations, false, &exact, scratch)
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// The median ns/iter of the row `id` if it was just measured — nothing
/// is in `--test` mode or when the filter skipped it. Drains every result
/// so far, so a row skipped by the filter never reports an earlier group's
/// time.
fn measured_ns(c: &mut Criterion, id: &str) -> Option<f64> {
    c.take_results()
        .into_iter()
        .find(|r| r.id == id)
        .map(|r| r.ns_per_iter)
}

/// The GEMM at the serve benchmark's convolution shapes (`m` = batch ×
/// output pixels, `k` = `C·k·k`, `n` = output channels), at `max_batch` and
/// at batch 1. These rows are plain `[m, k]` × `[k, n]` products from an
/// explicit matrix; the forward's convolutions read the image instead and
/// are the `conv/` rows. Rows run as [`pim_tensor::par::plan_threads`] shards them;
/// on a multi-core host the table is printed again from a child pinned to
/// one core by `taskset` (the thread count is cached from the affinity
/// mask at first use), which is the pair the shared `PAR_MIN_WORK` is
/// derived from. These are plain `[m, n]` products, which shard between
/// rows; inside a convolution a batch-1 product is one sample and shards
/// between column strips instead, so the `stream` batch-1 row (`m` = 9:
/// two short row blocks, of five and four rows) reads worse here than there.
fn bench_gemm(c: &mut Criterion) {
    let threads = pim_tensor::par::available_threads();
    println!(
        "gemm rows: GFLOP/s = 2·m·k·n / time (simd: {}, threads: {threads})",
        pim_tensor::simd::active_level().name()
    );
    let mut measured = false;
    for (shape, m, k, n) in [
        ("mnist_primary_b8", 288usize, 20_736usize, 256usize),
        ("mnist_primary_b1", 36, 20_736, 256),
        ("mnist_conv1_b8", 3_200, 81, 256),
        ("mnist_conv1_b1", 400, 81, 256),
        ("stream_primary_b16", 144, 144, 8_192),
        ("stream_primary_b1", 9, 144, 8_192),
        ("rp_heavy_primary_b16", 144, 144, 1_024),
        ("rp_heavy_primary_b1", 9, 144, 1_024),
        ("rp_heavy_conv1_b16", 1_024, 25, 16),
        ("rp_heavy_conv1_b1", 64, 25, 16),
        ("micro_pool_conv1_b8", 128, 9, 4),
        ("micro_pool_conv1_b1", 16, 9, 4),
    ] {
        // ReLU-sparse rows, as conv1 hands them to the primary convolution.
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, 2)
            .map(|x| x.max(0.0))
            .into_vec();
        let b_ = Tensor::uniform(&[k, n], -1.0, 1.0, 3).into_vec();
        let mut out = vec![0.0f32; m * n];
        let mut g = c.benchmark_group("gemm");
        g.sample_size(10);
        g.bench_function(shape, |bch| {
            bch.iter(|| matmul_into(black_box(&a), black_box(&b_), &mut out, m, k, n))
        });
        g.finish();
        let Some(ns) = measured_ns(c, &format!("gemm/{shape}")) else {
            continue;
        };
        measured = true;
        let flops = 2.0 * (m * k * n) as f64;
        println!(
            "gemm/{shape}: {:.3} ms, {:.1} GFLOP/s",
            ns / 1e6,
            flops / ns
        );
    }
    if measured && threads > 1 {
        let pinned = std::env::current_exe().and_then(|exe| {
            std::process::Command::new("taskset")
                .args(["-c", "0"])
                .arg(exe)
                .args(["--bench", "gemm/"])
                .status()
        });
        if !pinned.is_ok_and(|status| status.success()) {
            println!("gemm rows on one thread: `taskset -c 0` could not run this bench");
        }
    }
}

/// `conv2d_pretransposed_into`, what the forward runs for Conv and
/// PrimaryCaps: one GEMM whose rows are read from the input feature map in
/// place. GFLOP/s counts the same `2·m·k·n` as the `gemm/` rows.
fn bench_conv(c: &mut Criterion) {
    println!(
        "conv rows: GFLOP/s = 2·(B·oh·ow)·(C·k·k)·out_c / time (simd: {}, threads: {})",
        pim_tensor::simd::active_level().name(),
        pim_tensor::par::available_threads()
    );
    // (name, [B, C, H, W], kernel, stride, out_c)
    for (shape, dims, kernel, stride, out_c) in [
        (
            "mnist_primary_b8",
            [8usize, 256, 20, 20],
            9usize,
            2usize,
            256usize,
        ),
        ("mnist_primary_b1", [1, 256, 20, 20], 9, 2, 256),
        ("mnist_conv1_b8", [8, 1, 28, 28], 9, 1, 256),
        ("stream_primary_b16", [16, 16, 8, 8], 3, 2, 8_192),
        ("stream_primary_b1", [1, 16, 8, 8], 3, 2, 8_192),
    ] {
        let spec = Conv2dSpec::new(kernel, stride, 0);
        let ckk = dims[1] * kernel * kernel;
        // ReLU-sparse, as conv1 hands its map to the primary convolution.
        let input = Tensor::uniform(&dims, -1.0, 1.0, 2).map(|x| x.max(0.0));
        let weight_t = Tensor::uniform(&[ckk, out_c], -1.0, 1.0, 3);
        let bias = Tensor::uniform(&[out_c], -0.1, 0.1, 4);
        let (mut out, mut scratch) = (Tensor::zeros(&[0]), Conv2dScratch::default());
        let mut g = c.benchmark_group("conv");
        g.sample_size(10);
        g.bench_function(shape, |bch| {
            bch.iter(|| {
                conv2d_pretransposed_into(
                    black_box(&input),
                    &weight_t,
                    Some(&bias),
                    spec,
                    &mut out,
                    &mut scratch,
                )
                .unwrap()
            })
        });
        g.finish();
        let Some(ns) = measured_ns(c, &format!("conv/{shape}")) else {
            continue;
        };
        let pixels = out.len() / out_c;
        let flops = 2.0 * (pixels * ckk * out_c) as f64;
        println!(
            "conv/{shape}: {:.3} ms, {:.1} GFLOP/s",
            ns / 1e6,
            flops / ns
        );
    }
}

/// The û projection (Eq 1) at the two serve-benchmark shapes, so a
/// profile can set the kernel beside the host's streaming rate. GB/s is
/// **computed** from tensor sizes (`W` + `u` + `û`, each moved once), not
/// measured by a counter.
fn bench_uhat_project(c: &mut Criterion) {
    println!(
        "uhat_project rows: GFLOP/s = 2·B·L·C_L·N / time; GB/s = computed bytes (W + u + û, f32) / time \
         (simd: {}, threads: {})",
        pim_tensor::simd::active_level().name(),
        pim_tensor::par::available_threads()
    );
    // (name, L, C_L, N = H·C_H)
    for (shape, l, cl, n) in [
        ("stream", 1152usize, 64usize, 992usize),
        ("rp_heavy", 1152, 8, 992),
    ] {
        let w = Tensor::uniform(&[l, cl, n], -0.5, 0.5, 4).into_vec();
        for b in [1usize, 16] {
            let u = Tensor::uniform(&[b, l, cl], -1.0, 1.0, 5).into_vec();
            let mut out = vec![0.0f32; b * l * n];
            let mut g = c.benchmark_group("uhat_project");
            g.sample_size(10);
            let id = format!("{shape}_b{b}");
            g.bench_function(&id, |bch| {
                bch.iter(|| {
                    uhat_project(black_box(&u), UhatWeights::F32(&w), &mut out, (b, l, cl, n))
                })
            });
            g.finish();
            let Some(ns) = measured_ns(c, &format!("uhat_project/{id}")) else {
                continue;
            };
            let flops = 2.0 * (b * l * cl * n) as f64;
            let bytes = 4.0 * (w.len() + u.len() + out.len()) as f64;
            println!(
                "uhat_project/{id}: {:.2} ms, {:.1} GFLOP/s, {:.1} GB/s (computed)",
                ns / 1e6,
                flops / ns,
                bytes / ns
            );
        }
    }
}

fn bench_addressing(c: &mut Criterion) {
    let mut g = c.benchmark_group("addressing");
    let cfg = HmcConfig::gen3();
    let default = DefaultMapping::new(&cfg);
    let pim = PimMapping::new(&cfg, 64);
    g.bench_function("default_locate", |b| {
        b.iter(|| {
            (0..1000u64)
                .map(|i| black_box(default.locate(i * 16)).bank)
                .sum::<usize>()
        })
    });
    g.bench_function("pim_locate", |b| {
        b.iter(|| {
            (0..1000u64)
                .map(|i| black_box(pim.locate(i * 16)).bank)
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_phase_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("hmc_engine");
    g.sample_size(20);
    let cfg = HmcConfig::gen3();
    let engine = PhaseEngine::new(cfg.clone());
    let rp = capsnet::RpCensus::new(100, 1152, 10, 8, 16, 3);
    let plan = build_rp_phases(&rp, &cfg, Dimension::B, AddressingMode::Pim, true);
    g.bench_function("run_mn1_rp", |b| {
        b.iter(|| engine.run(black_box(&plan.phases)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_special_funcs,
    bench_routing,
    bench_gemm,
    bench_conv,
    bench_uhat_project,
    bench_addressing,
    bench_phase_engine
);
criterion_main!(benches);
