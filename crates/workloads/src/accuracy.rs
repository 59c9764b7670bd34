//! The Table 5 accuracy harness: Origin vs "w/o Accuracy Recovery" vs
//! "w/ Accuracy Recovery".
//!
//! Construction (a substitution for the paper's trained models and real
//! datasets, which are not redistributable):
//!
//! 1. build the benchmark's scaled functional CapsNet with seeded weights;
//! 2. generate a synthetic image set and let the *exact-math* network label
//!    it (teacher labels — the network is its own Bayes-optimal classifier
//!    on this task);
//! 3. inject label noise calibrated so the exact network's accuracy equals
//!    the benchmark's reported Origin accuracy;
//! 4. re-evaluate the same network with the approximate backends. Any
//!    accuracy difference is caused purely by the §5.2.2 approximations
//!    perturbing routing — the quantity Table 5 reports.

use capsnet::{ApproxMath, CapsNet, ExactMath, ForwardArena, MathBackend};
use pim_tensor::par::{map_sharded, plan_threads};
use pim_tensor::Tensor;

use crate::suite::Benchmark;
use crate::synth::{inject_label_noise, SynthConfig};

/// Result of one benchmark's accuracy experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResult {
    /// Exact-math accuracy (calibrated to the paper's Origin column).
    pub origin: f64,
    /// Approximate math without recovery.
    pub without_recovery: f64,
    /// Approximate math with recovery.
    pub with_recovery: f64,
}

impl AccuracyResult {
    /// Accuracy loss without recovery (positive = loss).
    pub fn loss_without(&self) -> f64 {
        self.origin - self.without_recovery
    }

    /// Accuracy loss with recovery.
    pub fn loss_with(&self) -> f64 {
        self.origin - self.with_recovery
    }
}

/// The Table 5 experiment runner.
#[derive(Debug, Clone)]
pub struct AccuracyExperiment {
    net: CapsNet,
    images: Tensor,
    labels: Vec<usize>,
    batch: usize,
}

impl AccuracyExperiment {
    /// Builds the experiment for a benchmark with `samples` images.
    ///
    /// Generated images are teacher-labeled and then filtered to the
    /// samples the teacher classifies with a margin (top-1 vs top-2 norm
    /// gap) — mimicking the confident decision boundaries of the trained
    /// networks the paper measured. Random-weight networks without this
    /// filter put most samples on a knife edge, where any perturbation
    /// flips predictions and the Table 5 deltas are pure noise.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark's functional spec fails to build — all
    /// Table 1 entries are covered by tests.
    pub fn new(benchmark: &Benchmark, samples: usize, seed: u64) -> Self {
        // Margins are measured pre-squash: the squash saturates ‖v‖ toward
        // 1 so v-space gaps look tiny even for robust decisions; inverting
        // `‖v‖ = n/(1+n)` recovers the unsaturated score `n = ‖s‖²` whose
        // relative gap governs flip-resistance.
        const MARGIN: f32 = 0.015; // relative top-1/top-2 pre-squash gap
        let spec = benchmark.functional_spec();
        let net = CapsNet::seeded(&spec, seed).expect("functional spec is valid");
        // Over-generate, keep the confidently classified subset.
        let synth = SynthConfig {
            classes: spec.h_caps,
            channels: spec.input_channels,
            hw: spec.input_hw,
            noise: 0.35,
            seed: seed ^ 0xabcd_ef01,
        }
        .generate(samples * 2);

        let total = synth.labels.len();
        let batch = 25.min(total.max(1));
        let px: usize = synth.images.shape().dims()[1..].iter().product();
        let mut kept_data: Vec<f32> = Vec::with_capacity(samples * px);
        let mut labels = Vec::with_capacity(samples);
        'outer: for chunk in batch_ranges(total, batch) {
            let imgs = slice_images(&synth.images, chunk.clone());
            let out = net
                .forward(&imgs, &ExactMath)
                .expect("forward on generated images");
            let norms = out.class_norms_sq.as_slice();
            let h = spec.h_caps;
            for (local, global) in chunk.enumerate() {
                let row = &norms[local * h..(local + 1) * h];
                let mut top1 = f32::MIN;
                let mut top2 = f32::MIN;
                let mut arg = 0usize;
                for (j, &norm_sq) in row.iter().enumerate() {
                    // Invert the squash: pre-squash score ‖s‖².
                    let x = norm_sq.max(0.0).sqrt().min(0.999_999);
                    let v = x / (1.0 - x);
                    if v > top1 {
                        top2 = top1;
                        top1 = v;
                        arg = j;
                    } else if v > top2 {
                        top2 = v;
                    }
                }
                if top1 > 0.0 && (top1 - top2) / top1 >= MARGIN {
                    let src = &synth.images.as_slice()[global * px..(global + 1) * px];
                    kept_data.extend_from_slice(src);
                    labels.push(arg);
                    if labels.len() == samples {
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            !labels.is_empty(),
            "no confident samples found for {}",
            benchmark.name
        );
        let n = labels.len();
        let dims = synth.images.shape().dims();
        let images = Tensor::from_vec(kept_data, &[n, dims[1], dims[2], dims[3]])
            .expect("kept data matches shape");
        // Batch-shared routing couples predictions to batch composition, so
        // re-label on the *final* sample set with the same batching the
        // evaluation uses — the exact backend then scores exactly
        // (1 − label noise).
        let batch = batch.min(n);
        let mut labels = Vec::with_capacity(n);
        for chunk in batch_ranges(n, batch) {
            let imgs = slice_images(&images, chunk);
            let out = net
                .forward(&imgs, &ExactMath)
                .expect("forward on kept images");
            labels.extend(out.predictions());
        }
        // Calibrate to the reported Origin accuracy via label noise.
        inject_label_noise(
            &mut labels,
            spec.h_caps,
            1.0 - benchmark.origin_accuracy,
            seed ^ 0x5151_5151,
        );
        AccuracyExperiment {
            net,
            images,
            labels,
            batch,
        }
    }

    /// Accuracy of the network under a math backend against the calibrated
    /// labels.
    ///
    /// Generic over the backend, so the concrete backends used by
    /// [`Self::run`] monomorphize the whole forward path; `&dyn
    /// MathBackend` callers pass the object directly
    /// (`B = dyn MathBackend + Sync`).
    ///
    /// Evaluation batches are independent (routing only couples samples
    /// *within* a batch), so they shard across cores via the same
    /// work-size heuristics as the threaded matmul; each worker reuses one
    /// [`ForwardArena`] across its batches. Results are bit-identical to a
    /// serial evaluation.
    pub fn accuracy<B: MathBackend + Sync + ?Sized>(&self, backend: &B) -> f64 {
        self.accuracy_of(&self.net, backend)
    }

    /// Evaluates an *external* network — e.g. a quantized reload of the
    /// experiment's own network — against the calibrated labels, batched
    /// and sharded exactly like [`Self::accuracy`].
    pub fn accuracy_of<B: MathBackend + Sync + ?Sized>(&self, net: &CapsNet, backend: &B) -> f64 {
        let n = self.labels.len();
        let chunks: Vec<std::ops::Range<usize>> = batch_ranges(n, self.batch).collect();
        let threads = plan_threads(chunks.len(), self.forward_cost_per_batch());
        let correct: usize = map_sharded(chunks.len(), threads, |group| {
            let mut arena = ForwardArena::new();
            let mut preds = Vec::new();
            chunks[group]
                .iter()
                .map(|chunk| {
                    self.correct_in_chunk(net, chunk.clone(), backend, &mut arena, &mut preds)
                })
                .sum::<usize>()
        })
        .into_iter()
        .sum();
        correct as f64 / n as f64
    }

    /// Per-sample comparison of `other` against the experiment's own f32
    /// network under exact math: returns the fraction of samples whose
    /// top-1 prediction matches, and the max |Δ| over squared class
    /// norms. The raw material of the quantization accuracy gate.
    pub fn agreement_with(&self, other: &CapsNet) -> (f64, f32) {
        let n = self.labels.len();
        let mut matching = 0usize;
        let mut max_div = 0.0f32;
        for chunk in batch_ranges(n, self.batch) {
            let imgs = slice_images(&self.images, chunk);
            let a = self.net.forward(&imgs, &ExactMath).expect("f32 forward");
            let b = other.forward(&imgs, &ExactMath).expect("other forward");
            matching += a
                .predictions()
                .iter()
                .zip(b.predictions())
                .filter(|(x, y)| **x == *y)
                .count();
            for (x, y) in a
                .class_norms_sq
                .as_slice()
                .iter()
                .zip(b.class_norms_sq.as_slice())
            {
                max_div = max_div.max((x - y).abs());
            }
        }
        (matching as f64 / n as f64, max_div)
    }

    /// The experiment's own (f32, exact-math) network.
    pub fn net(&self) -> &CapsNet {
        &self.net
    }

    /// Number of (margin-filtered) harness samples.
    pub fn samples(&self) -> usize {
        self.labels.len()
    }

    /// Correct predictions within one evaluation batch (arena-backed
    /// forward, allocation-free when warm).
    fn correct_in_chunk<B: MathBackend + ?Sized>(
        &self,
        net: &CapsNet,
        chunk: std::ops::Range<usize>,
        backend: &B,
        arena: &mut ForwardArena,
        preds: &mut Vec<usize>,
    ) -> usize {
        let imgs = slice_images(&self.images, chunk.clone());
        let view = net
            .forward_with(&imgs, backend, arena)
            .expect("forward on generated images");
        view.predictions_into(preds);
        preds
            .iter()
            .zip(chunk)
            .filter(|(&pred, idx)| pred == self.labels[*idx])
            .count()
    }

    /// Rough multiply-add cost of one evaluation batch (the Eq 1 GEMM
    /// dominates), used to decide whether sharding batches across threads
    /// is worth it.
    fn forward_cost_per_batch(&self) -> usize {
        let spec = self.net.spec();
        let l = spec.l_caps().unwrap_or(1);
        self.batch * l * spec.cl_dim * spec.h_caps * spec.ch_dim
    }

    /// Runs the full Table 5 row.
    pub fn run(&self) -> AccuracyResult {
        AccuracyResult {
            origin: self.accuracy(&ExactMath),
            without_recovery: self.accuracy(&ApproxMath::without_recovery()),
            with_recovery: self.accuracy(&ApproxMath::with_recovery()),
        }
    }
}

fn batch_ranges(n: usize, batch: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n.div_ceil(batch)).map(move |i| i * batch..((i + 1) * batch).min(n))
}

fn slice_images(images: &Tensor, range: std::ops::Range<usize>) -> Tensor {
    let dims = images.shape().dims();
    let px: usize = dims[1..].iter().product();
    let data = images.as_slice()[range.start * px..range.end * px].to_vec();
    let mut shape = dims.to_vec();
    shape[0] = range.len();
    Tensor::from_vec(data, &shape).expect("slice preserves volume")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::benchmarks;

    #[test]
    fn origin_accuracy_calibrates_to_benchmark() {
        let b = &benchmarks()[0]; // Caps-MN1, origin 0.9975
        let exp = AccuracyExperiment::new(b, 120, 11);
        let r = exp.run();
        // Origin should sit near the reported value (label-noise sampling
        // error at n=120 allows a few percent).
        assert!(
            (r.origin - b.origin_accuracy).abs() < 0.05,
            "origin {} vs target {}",
            r.origin,
            b.origin_accuracy
        );
    }

    #[test]
    fn approximation_losses_are_small() {
        let b = &benchmarks()[9]; // Caps-SV1
        let exp = AccuracyExperiment::new(b, 100, 5);
        let r = exp.run();
        // The approximations shouldn't devastate accuracy (paper: ≤ ~1.6%).
        assert!(r.loss_without() < 0.10, "loss {}", r.loss_without());
        assert!(r.loss_with() <= r.loss_without() + 0.03);
    }

    #[test]
    fn deterministic_runs() {
        let b = &benchmarks()[0];
        let a = AccuracyExperiment::new(b, 60, 3).run();
        let c = AccuracyExperiment::new(b, 60, 3).run();
        assert_eq!(a, c);
    }

    #[test]
    fn generic_and_boxed_accuracy_agree_exactly() {
        // The monomorphized path, the dyn-dispatch path, and (on multicore
        // hosts) the batch-parallel evaluation must all score identically.
        let b = &benchmarks()[0];
        let exp = AccuracyExperiment::new(b, 40, 9);
        let generic = exp.accuracy(&ExactMath);
        let boxed = exp.accuracy(&ExactMath as &(dyn MathBackend + Sync));
        assert_eq!(generic, boxed);
    }

    /// Exact scalar math through the default (scalar) slice kernels — the
    /// bitwise reference for the SIMD path `ExactMath` dispatches to.
    struct ScalarRef;

    impl MathBackend for ScalarRef {
        fn exp(&self, x: f32) -> f32 {
            x.exp()
        }
        fn inv_sqrt(&self, x: f32) -> f32 {
            1.0 / x.sqrt()
        }
        fn div(&self, a: f32, b: f32) -> f32 {
            a / b
        }
        fn sqrt(&self, x: f32) -> f32 {
            x.sqrt()
        }
        fn name(&self) -> &'static str {
            "scalar-ref"
        }
    }

    #[test]
    fn simd_path_is_classification_identical_on_accuracy_harness() {
        // The vectorized-kernel contract on the harness itself: the SIMD
        // path may drift ≤1e-5 in routing outputs but must not flip a
        // single classification versus the scalar reference — checked
        // per sample on harness-style generated images, then on the
        // aggregate harness score.
        let b = &benchmarks()[0];
        let spec = b.functional_spec();
        let net = CapsNet::seeded(&spec, 17).expect("functional spec is valid");
        let synth = crate::synth::SynthConfig {
            classes: spec.h_caps,
            channels: spec.input_channels,
            hw: spec.input_hw,
            noise: 0.35,
            seed: 0xfeed,
        }
        .generate(75);
        for chunk in batch_ranges(synth.labels.len(), 25) {
            let imgs = slice_images(&synth.images, chunk.clone());
            let simd_preds = net.forward(&imgs, &ExactMath).unwrap().predictions();
            let scalar_preds = net.forward(&imgs, &ScalarRef).unwrap().predictions();
            assert_eq!(
                simd_preds, scalar_preds,
                "SIMD kernels flipped a classification in batch {chunk:?}"
            );
        }

        let exp = AccuracyExperiment::new(b, 80, 17);
        assert_eq!(exp.accuracy(&ExactMath), exp.accuracy(&ScalarRef));
    }

    #[test]
    fn batch_ranges_cover_everything() {
        let ranges: Vec<_> = batch_ranges(10, 3).collect();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges[3], 9..10);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn slice_images_extracts_rows() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[4, 1, 2, 3]).unwrap();
        let s = slice_images(&t, 1..3);
        assert_eq!(s.shape().dims(), &[2, 1, 2, 3]);
        assert_eq!(s.as_slice()[0], 6.0);
    }
}
