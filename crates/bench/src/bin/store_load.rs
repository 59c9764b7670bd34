//! `store_load` — measures the model-persistence tier on the 280 MB
//! streaming model and emits `bench_results/BENCH_store.json`.
//!
//! Steps, all on `capsnet_workloads::traffic::streaming_spec()`:
//!
//! 1. `rebuild_rng` — construct the network from seeded RNG (what every
//!    process start paid before `pim-store` existed);
//! 2. `save_cold`  — write the vault-aligned artifact (temp dir);
//! 3. `load_owned` — `MappedModel::read` + rebuild (full read + verify
//!    into an owned image);
//! 4. `load_mmap`  — `MappedModel::open` + rebuild (verify + zero-copy
//!    views);
//! 5. a forward of the mapped network, compared bit for bit with the
//!    in-memory network's on the same images;
//! 6. `quant_artifacts` — the same model saved as int8 and fp16
//!    (`QuantSpec::weights`), timing quantize+save and mmap-open+rebuild
//!    and recording the on-disk shrink.
//!
//! The headline number is `speedup_mmap_vs_rebuild`, and the record's one
//! claim nothing else makes: mmap ≥ 10× rebuild. The record is checked
//! (`check_store`: every step timed, mapped, bitwise) before it is
//! written; the 10× bar depends on the disk and CPU, so only a committed
//! record is held to it (`check_committed`, run by the golden test).

use std::time::Instant;

use capsnet::{CapsNet, ExactMath};
use capsnet_workloads::traffic::{request_images, streaming_spec};
use pim_bench::check::check_store;
use pim_bench::emit::{write_json_artifact, BenchHost};
use pim_bench::jsonlite::Object;
use pim_store::{MappedModel, ModelWriter, QuantSpec};
use pim_tensor::QuantDType;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let spec = streaming_spec();
    let caps_weight_bytes = (spec.l_caps().expect("valid spec")
        * spec.cl_dim
        * spec.h_caps
        * spec.ch_dim
        * std::mem::size_of::<f32>()) as u64;
    println!(
        "[store_load] model {} (caps weights {} MB)",
        spec.name,
        caps_weight_bytes >> 20
    );

    let t = Instant::now();
    let net = CapsNet::seeded(&spec, 42).expect("streaming spec is valid");
    let rebuild_ms = ms(t);
    println!("[store_load] rebuild_rng {rebuild_ms:.0} ms");

    let dir = std::env::temp_dir().join(format!("pim_bench_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("streaming.pimcaps");

    let t = Instant::now();
    let report = ModelWriter::vault_aligned()
        .save(&net, &path)
        .expect("save streaming model");
    let save_ms = ms(t);
    println!(
        "[store_load] save_cold {save_ms:.0} ms ({} MB, {} partitions)",
        report.bytes >> 20,
        report.partitions
    );

    let t = Instant::now();
    let owned = MappedModel::read(&path)
        .and_then(|model| model.capsnet())
        .expect("owned load");
    let owned_ms = ms(t);
    drop(owned);
    println!("[store_load] load_owned {owned_ms:.0} ms");

    let t = Instant::now();
    let mapped = MappedModel::open(&path).expect("mmap load");
    let loaded = mapped.capsnet().expect("rebuild from mapping");
    let mmap_ms = ms(t);
    let was_mapped = mapped.is_mapped();
    println!("[store_load] load_mmap {mmap_ms:.0} ms (mapped: {was_mapped})");

    let images = request_images(&spec, 4, 0xC0FFEE);
    let want = net.forward(&images, &ExactMath).expect("in-memory forward");
    let got = loaded.forward(&images, &ExactMath).expect("mapped forward");
    drop(loaded);
    let bits = |norms: &[f32]| norms.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let bitwise_identical = got.predictions() == want.predictions()
        && bits(got.class_norms_sq.as_slice()) == bits(want.class_norms_sq.as_slice());
    println!("[store_load] forward off the mapping bitwise_identical: {bitwise_identical}");

    // Quantized variants of the same artifact (tentpole companions).
    let mut quant_artifacts = Vec::new();
    for (dtype, label) in [(QuantDType::I8, "int8"), (QuantDType::F16, "fp16")] {
        let qpath = dir.join(format!("streaming_{label}.pimcaps"));
        let t = Instant::now();
        let qreport = ModelWriter::vault_aligned()
            .with_quant(QuantSpec::weights(dtype))
            .save(&net, &qpath)
            .expect("save quantized model");
        let qsave_ms = ms(t);
        let t = Instant::now();
        let qmapped = MappedModel::open(&qpath).expect("mmap quantized");
        let qloaded = qmapped.capsnet().expect("rebuild quantized");
        let qload_ms = ms(t);
        drop(qloaded);
        println!(
            "[store_load] {label}: save {qsave_ms:.0} ms, load_mmap {qload_ms:.0} ms, {} MB ({}x smaller)",
            qreport.bytes >> 20,
            report.bytes / qreport.bytes.max(1)
        );
        quant_artifacts.push(
            Object::new()
                .with("dtype", label)
                .with("artifact_bytes", qreport.bytes)
                .with("save_ms", qsave_ms)
                .with("load_mmap_ms", qload_ms),
        );
    }

    let speedup = rebuild_ms / mmap_ms;
    println!("[store_load] speedup mmap vs rebuild: {speedup:.1}x");

    let step = |name: &str, ms: f64| Object::new().with("name", name).with("ms", ms);
    let model = Object::new()
        .with("name", spec.name.as_str())
        .with("artifact_bytes", report.bytes)
        .with("caps_weight_bytes", caps_weight_bytes);
    let record = Object::new()
        .with("host", &BenchHost::detect())
        .with("model", model)
        .with(
            "measurements",
            vec![
                step("rebuild_rng", rebuild_ms),
                step("save_cold", save_ms),
                step("load_owned", owned_ms),
                step("load_mmap", mmap_ms),
            ],
        )
        .with("quant_artifacts", quant_artifacts)
        .with("speedup_mmap_vs_rebuild", speedup)
        .with("mapped", was_mapped)
        .with("bitwise_identical", bitwise_identical);
    write_json_artifact("BENCH_store.json", &record.into(), check_store);

    std::fs::remove_dir_all(&dir).expect("cleanup temp dir");
}
