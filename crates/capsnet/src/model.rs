//! The assembled CapsNet model: the encoder of Fig 2 (Conv1 → PrimaryCaps
//! → Caps layer with routing). Predictions are argmax ‖v_j‖, so inference
//! never runs Fig 2's FC decoder and the model holds no decoder weights;
//! [`CapsNetSpec::decoder_dims`] still sizes it for the op census.
//!
//! There is one forward path: [`CapsNet::forward_with`] threads a
//! [`ForwardArena`] through every layer, so steady-state inference touches
//! no heap buffer after the first (warm-up) call at a given batch size,
//! while the capsule layer shards its projection over the `L` capsules and
//! its routing over independent samples. [`CapsNet::forward`] is the same
//! pass on a temporary arena, copied out into owned tensors.

use pim_tensor::{Conv2dScratch, Tensor};

use crate::backend::MathBackend;
use crate::config::CapsNetSpec;
use crate::error::CapsNetError;
use crate::layers::{Activation, CapsLayer, Conv2dLayer, PrimaryCapsLayer};
use crate::routing::RoutingArena;
use crate::weights::{WeightRef, WeightView};

/// Everything the encoder produces for a batch.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// High-level (class) capsules, `[B, H, C_H]`.
    pub class_capsules: Tensor,
    /// Squared norms of the class capsules, `[B, H]` — the classification
    /// scores (argmax equals argmax of the norms).
    pub class_norms_sq: Tensor,
    /// Final routing coefficients (see
    /// [`crate::routing::RoutingOutput::coefficients`]).
    pub routing_coefficients: Tensor,
}

impl ForwardOutput {
    /// Predicted class per sample: argmax of capsule norm.
    pub fn predictions(&self) -> Vec<usize> {
        let dims = self.class_norms_sq.shape().dims();
        argmax_rows(self.class_norms_sq.as_slice(), dims[0], dims[1])
    }
}

/// Squared capsule norms: `v` is `[B, H, C_H]`, `out` receives `[B, H]`.
fn norms_sq_into(v: &[f32], b: usize, h: usize, ch: usize, out: &mut [f32]) {
    for bi in 0..b {
        for j in 0..h {
            out[bi * h + j] = v[(bi * h + j) * ch..(bi * h + j + 1) * ch]
                .iter()
                .map(|&x| x * x)
                .sum();
        }
    }
}

/// Row-wise argmax of a `[B, H]` score matrix.
fn argmax_rows(data: &[f32], b: usize, h: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(b);
    argmax_rows_into(data, b, h, &mut out);
    out
}

/// [`argmax_rows`] into a caller-owned buffer (cleared first).
fn argmax_rows_into(data: &[f32], b: usize, h: usize, out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..b).map(|bi| {
        let row = &data[bi * h..(bi + 1) * h];
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }));
}

/// Reusable buffers for [`CapsNet::forward_with`]: every intermediate the
/// encoder materializes, including the routing scratch.
///
/// Keep one per thread (arenas are cheap when cold and grow to the largest
/// problem seen). All buffers are resized in place, so after the first
/// call at a given geometry, forward passes allocate no buffer.
///
/// Both convolutions read their input feature map in place (no im2col
/// matrix; the conv scratch stays empty for CapsNet's unpadded layers), so
/// the largest buffers are the feature maps and `û`, each held once.
#[derive(Debug, Clone, Default)]
pub struct ForwardArena {
    conv1_out: Tensor,
    primary_conv: Tensor,
    primary_caps: Tensor,
    u_hat: Tensor,
    conv_scratch: Conv2dScratch,
    routing: RoutingArena,
    norms: Vec<f32>,
}

impl ForwardArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap capacity the arena holds — constant once the arena
    /// has seen its largest batch.
    pub fn capacity_bytes(&self) -> usize {
        let tensors = self.conv1_out.capacity()
            + self.primary_conv.capacity()
            + self.primary_caps.capacity()
            + self.u_hat.capacity()
            + self.norms.capacity();
        tensors * std::mem::size_of::<f32>()
            + self.conv_scratch.capacity_bytes()
            + self.routing.capacity_bytes()
    }
}

/// Borrowed view of one [`CapsNet::forward_with`] result — all slices point
/// into the [`ForwardArena`], so reading costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct ForwardView<'a> {
    class_capsules: &'a [f32],
    class_norms_sq: &'a [f32],
    routing_coefficients: &'a [f32],
    batch: usize,
    h_caps: usize,
    ch_dim: usize,
    coeff_dims: [usize; 3],
    coeff_rank: usize,
}

impl ForwardView<'_> {
    /// High-level (class) capsules, `[B, H, C_H]` row-major.
    pub fn class_capsules(&self) -> &[f32] {
        self.class_capsules
    }

    /// Squared norms of the class capsules, `[B, H]` row-major.
    pub fn class_norms_sq(&self) -> &[f32] {
        self.class_norms_sq
    }

    /// The routing coefficients' dimensions: `[L, H]` batch-shared
    /// dynamic, `[B, L, H]` otherwise.
    fn coefficient_dims(&self) -> &[usize] {
        &self.coeff_dims[..self.coeff_rank]
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Predicted class per sample: argmax of capsule norm.
    pub fn predictions(&self) -> Vec<usize> {
        argmax_rows(self.class_norms_sq, self.batch, self.h_caps)
    }

    /// [`Self::predictions`] into a caller-owned buffer (cleared first), for
    /// allocation-free steady-state readout.
    pub fn predictions_into(&self, out: &mut Vec<usize>) {
        argmax_rows_into(self.class_norms_sq, self.batch, self.h_caps, out);
    }

    /// Materializes an owned [`ForwardOutput`] from this view.
    fn to_owned_output(self) -> Result<ForwardOutput, CapsNetError> {
        Ok(ForwardOutput {
            class_capsules: Tensor::from_vec(
                self.class_capsules.to_vec(),
                &[self.batch, self.h_caps, self.ch_dim],
            )?,
            class_norms_sq: Tensor::from_vec(
                self.class_norms_sq.to_vec(),
                &[self.batch, self.h_caps],
            )?,
            routing_coefficients: Tensor::from_vec(
                self.routing_coefficients.to_vec(),
                self.coefficient_dims(),
            )?,
        })
    }
}

/// Provides named weight tensors for [`CapsNet::from_views`].
///
/// A source may hand out **owned** tensors (e.g. freshly read from disk)
/// or **shared** zero-copy views ([`Tensor::from_shared`] windows into an
/// mmapped artifact) — the network runs bit-identically off either, since
/// every forward path reads weights through `as_slice`.
///
/// The canonical names are the ones [`CapsNet::named_weights`] emits:
/// `conv1.weight`, `conv1.bias`, `primary.weight`, `primary.bias` and
/// `caps.weight`.
pub trait WeightSource {
    /// `true` when the source can produce `name` (optional tensors like
    /// biases are only requested when present).
    fn contains(&self, name: &str) -> bool;

    /// The tensor stored under `name`; `dims` is the shape the model
    /// needs ([`CapsNet::from_views`] rejects any other, so sources need
    /// not check). Sources holding quantized storage dequantize here (this
    /// is the path for small tensors — conv kernels and biases — where an
    /// `f32` copy is cheap).
    ///
    /// # Errors
    ///
    /// Implementations return an error for unknown names.
    fn tensor(&mut self, name: &str, dims: &[usize]) -> Result<Tensor, CapsNetError>;

    /// The weight stored under `name` as a typed [`WeightView`] — the path
    /// the large streamed weight (`caps.weight`) loads
    /// through, so quantized artifacts reach the fused kernels without an
    /// `f32` materialization. The default wraps [`WeightSource::tensor`],
    /// keeping plain `f32` sources source-compatible.
    ///
    /// # Errors
    ///
    /// Same contract as [`WeightSource::tensor`].
    fn weight(&mut self, name: &str, dims: &[usize]) -> Result<WeightView, CapsNetError> {
        self.tensor(name, dims).map(WeightView::F32)
    }
}

/// A `BTreeMap` of tensors is a valid weight source (used by tests and by
/// in-memory weight transfers).
impl WeightSource for std::collections::BTreeMap<String, Tensor> {
    fn contains(&self, name: &str) -> bool {
        self.contains_key(name)
    }

    fn tensor(&mut self, name: &str, _dims: &[usize]) -> Result<Tensor, CapsNetError> {
        self.get(name)
            .cloned()
            .ok_or_else(|| CapsNetError::InvalidSpec(format!("missing weight {name:?}")))
    }
}

/// A [`WeightSource`] whose every tensor is checked against the shape the
/// model asked for — the one shape check [`CapsNet::from_views`] applies to
/// any source.
struct Checked<'s, S: ?Sized>(&'s mut S);

impl<S: WeightSource + ?Sized> Checked<'_, S> {
    fn contains(&self, name: &str) -> bool {
        self.0.contains(name)
    }

    fn tensor(&mut self, name: &str, dims: &[usize]) -> Result<Tensor, CapsNetError> {
        let t = self.0.tensor(name, dims)?;
        check_shape(name, t.shape().dims(), dims)?;
        Ok(t)
    }

    fn weight(&mut self, name: &str, dims: &[usize]) -> Result<WeightView, CapsNetError> {
        let view = self.0.weight(name, dims)?;
        check_shape(name, view.dims(), dims)?;
        Ok(view)
    }
}

fn check_shape(name: &str, got: &[usize], dims: &[usize]) -> Result<(), CapsNetError> {
    if got != dims {
        return Err(CapsNetError::InvalidSpec(format!(
            "weight {name:?} has shape {got:?}, model needs {dims:?}"
        )));
    }
    Ok(())
}

/// How a network's weight bytes are stored — see
/// [`CapsNet::weight_storage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightStorageCensus {
    /// Bytes held as zero-copy shared views (one physical copy across all
    /// holders of the same backing buffer).
    pub shared_bytes: usize,
    /// Bytes materialized in this network's own allocations.
    pub owned_bytes: usize,
    /// Total weight tensors.
    pub tensors: usize,
    /// Weight tensors with shared storage.
    pub shared_tensors: usize,
}

/// A complete CapsNet with deterministic seeded weights.
#[derive(Debug, Clone)]
pub struct CapsNet {
    spec: CapsNetSpec,
    conv1: Conv2dLayer,
    primary: PrimaryCapsLayer,
    caps: CapsLayer,
}

impl CapsNet {
    /// Builds a network from a spec with weights seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] if the spec fails validation.
    pub fn seeded(spec: &CapsNetSpec, seed: u64) -> Result<Self, CapsNetError> {
        spec.validate()?;
        let conv1 = Conv2dLayer::seeded(
            spec.input_channels,
            spec.conv1_channels,
            spec.conv1_kernel,
            spec.conv1_stride,
            Activation::Relu,
            seed,
        );
        let primary = PrimaryCapsLayer::seeded(
            spec.conv1_channels,
            spec.primary_channels,
            spec.cl_dim,
            spec.primary_kernel,
            spec.primary_stride,
            seed.wrapping_add(1),
        );
        let caps = CapsLayer::seeded(
            spec.l_caps()?,
            spec.cl_dim,
            spec.h_caps,
            spec.ch_dim,
            spec.routing,
            spec.routing_iterations,
            spec.routing_sharpness,
            seed.wrapping_add(2),
        )
        .with_batch_shared(spec.batch_shared_routing);
        Ok(CapsNet {
            spec: spec.clone(),
            conv1,
            primary,
            caps,
        })
    }

    /// Builds a network from a spec and a [`WeightSource`] instead of RNG —
    /// the model-loading path. When the source hands out shared
    /// ([`Tensor::from_shared`]) views, the network's weights borrow the
    /// source's backing buffer with zero copies; forward passes are
    /// bit-identical to a network owning the same weight values.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] if the spec fails validation,
    /// when a source tensor's shape is not the one the spec needs, and
    /// propagates source errors (missing tensors).
    pub fn from_views<S: WeightSource + ?Sized>(
        spec: &CapsNetSpec,
        source: &mut S,
    ) -> Result<Self, CapsNetError> {
        spec.validate()?;
        let source = &mut Checked(source);
        let k1 = spec.conv1_kernel;
        let conv1_w = source.tensor(
            "conv1.weight",
            &[spec.conv1_channels, spec.input_channels, k1, k1],
        )?;
        let conv1_b = if source.contains("conv1.bias") {
            Some(source.tensor("conv1.bias", &[spec.conv1_channels])?)
        } else {
            None
        };
        let conv1 =
            Conv2dLayer::from_weights(conv1_w, conv1_b, spec.conv1_stride, Activation::Relu)?;

        let pc_out = spec.primary_channels * spec.cl_dim;
        let kp = spec.primary_kernel;
        let primary_w = source.tensor("primary.weight", &[pc_out, spec.conv1_channels, kp, kp])?;
        let primary_b = if source.contains("primary.bias") {
            Some(source.tensor("primary.bias", &[pc_out])?)
        } else {
            None
        };
        let primary_conv = Conv2dLayer::from_weights(
            primary_w,
            primary_b,
            spec.primary_stride,
            Activation::Linear,
        )?;
        let primary =
            PrimaryCapsLayer::from_conv(primary_conv, spec.primary_channels, spec.cl_dim)?;

        let l = spec.l_caps()?;
        let caps_w = source.weight("caps.weight", &[l, spec.cl_dim, spec.h_caps * spec.ch_dim])?;
        let caps = CapsLayer::from_weight_view(
            caps_w,
            l,
            spec.cl_dim,
            spec.h_caps,
            spec.ch_dim,
            spec.routing,
            spec.routing_iterations,
        )?
        .with_batch_shared(spec.batch_shared_routing);

        Ok(CapsNet {
            spec: spec.clone(),
            conv1,
            primary,
            caps,
        })
    }

    /// Every weight with its canonical name, in a fixed order (the order
    /// model writers persist them in). Names round-trip through
    /// [`CapsNet::from_views`]. Conv kernels and biases are always dense
    /// [`WeightRef::F32`]; the capsule matrix is [`WeightRef::Quant`] when
    /// the network was loaded from a quantized artifact.
    pub fn named_weights(&self) -> Vec<(String, WeightRef<'_>)> {
        let mut out: Vec<(String, WeightRef<'_>)> =
            vec![("conv1.weight".into(), WeightRef::F32(self.conv1.weight()))];
        if let Some(b) = self.conv1.bias() {
            out.push(("conv1.bias".into(), WeightRef::F32(b)));
        }
        out.push((
            "primary.weight".into(),
            WeightRef::F32(self.primary.conv().weight()),
        ));
        if let Some(b) = self.primary.conv().bias() {
            out.push(("primary.bias".into(), WeightRef::F32(b)));
        }
        out.push(("caps.weight".into(), self.caps.weight().as_ref()));
        out
    }

    /// The network's specification.
    pub fn spec(&self) -> &CapsNetSpec {
        &self.spec
    }

    /// Partitions the network's weight bytes by storage kind: **shared**
    /// (zero-copy windows into an external buffer, e.g. a `pim-store`
    /// mapping — one physical copy however many networks hold them) versus
    /// **owned** (materialized per network).
    ///
    /// This is the accounting behind replicated serving's memory claim: a
    /// replica pool built off one mapped artifact should report
    /// `owned_bytes` near zero, because cloning a shared-backed network
    /// only bumps reference counts ([`pim_tensor::Tensor`] clones of
    /// shared storage are `Arc` clones, never byte copies).
    pub fn weight_storage(&self) -> WeightStorageCensus {
        let mut census = WeightStorageCensus::default();
        for (_, t) in self.named_weights() {
            census.tensors += 1;
            if t.is_shared() {
                census.shared_tensors += 1;
                census.shared_bytes += t.size_bytes();
            } else {
                census.owned_bytes += t.size_bytes();
            }
        }
        census
    }

    /// Encoder forward pass: images `[B, C, H, W]` → class capsules, as
    /// owned tensors. This is [`Self::forward_with`] on a temporary arena —
    /// callers running more than one pass should keep an arena instead.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InputMismatch`] for wrong image geometry and
    /// propagates tensor errors.
    pub fn forward<B: MathBackend + ?Sized>(
        &self,
        images: &Tensor,
        backend: &B,
    ) -> Result<ForwardOutput, CapsNetError> {
        self.forward_with(images, backend, &mut ForwardArena::new())?
            .to_owned_output()
    }

    /// Arena-backed encoder forward pass: every intermediate lives in
    /// `arena`, so a warm arena makes the whole pass free of buffer
    /// allocation.
    ///
    /// Generic over the backend (concrete types monomorphize the routing
    /// hot loop; `&dyn MathBackend` still works). The capsule layer shards
    /// across cores when the work amortizes the spawns — results are
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InputMismatch`] for wrong image geometry and
    /// propagates tensor errors.
    pub fn forward_with<'a, B: MathBackend + ?Sized>(
        &self,
        images: &Tensor,
        backend: &B,
        arena: &'a mut ForwardArena,
    ) -> Result<ForwardView<'a>, CapsNetError> {
        self.validate_images(images)?;
        self.conv1
            .forward_into(images, &mut arena.conv1_out, &mut arena.conv_scratch)?;
        self.primary.forward_into(
            &arena.conv1_out,
            backend,
            &mut arena.primary_caps,
            &mut arena.primary_conv,
            &mut arena.conv_scratch,
        )?;
        self.caps.forward_into(
            &arena.primary_caps,
            backend,
            &mut arena.u_hat,
            &mut arena.routing,
        )?;

        let b = images.shape().dims()[0];
        let (h, ch) = (self.spec.h_caps, self.spec.ch_dim);
        arena.norms.clear();
        arena.norms.resize(b * h, 0.0);
        norms_sq_into(arena.routing.v(), b, h, ch, &mut arena.norms);

        let l = self.caps.l_caps();
        let (coeff_dims, coeff_rank) = if self.caps.shared_coefficients() {
            ([l, h, 0], 2)
        } else {
            ([b, l, h], 3)
        };
        Ok(ForwardView {
            class_capsules: arena.routing.v(),
            class_norms_sq: &arena.norms,
            routing_coefficients: arena.routing.coefficients(),
            batch: b,
            h_caps: h,
            ch_dim: ch,
            coeff_dims,
            coeff_rank,
        })
    }

    fn validate_images(&self, images: &Tensor) -> Result<(), CapsNetError> {
        let dims = images.shape().dims();
        if dims.len() != 4
            || dims[1] != self.spec.input_channels
            || dims[2] != self.spec.input_hw.0
            || dims[3] != self.spec.input_hw.1
        {
            return Err(CapsNetError::InputMismatch {
                expected: format!(
                    "[B, {}, {}, {}]",
                    self.spec.input_channels, self.spec.input_hw.0, self.spec.input_hw.1
                ),
                actual: dims.to_vec(),
            });
        }
        Ok(())
    }

    /// Margin loss (Sabour et al. Eq 4): per-sample sum over classes of
    /// `T_k·max(0, 0.9−‖v‖)² + 0.5·(1−T_k)·max(0, ‖v‖−0.1)²`.
    ///
    /// # Errors
    ///
    /// Requires one label per sample.
    // LINT-ALLOW(R6): the training loss of ROADMAP item 12; it moves into `capsnet::train` when that lands.
    pub fn margin_loss(
        &self,
        output: &ForwardOutput,
        labels: &[usize],
    ) -> Result<f32, CapsNetError> {
        let dims = output.class_norms_sq.shape().dims();
        let (b, h) = (dims[0], dims[1]);
        if labels.len() != b {
            return Err(CapsNetError::InputMismatch {
                expected: format!("{b} labels"),
                actual: vec![labels.len()],
            });
        }
        let norms = output.class_norms_sq.as_slice();
        let mut total = 0.0f32;
        for (bi, &label) in labels.iter().enumerate() {
            for j in 0..h {
                let norm = norms[bi * h + j].max(0.0).sqrt();
                if j == label {
                    let d = (0.9 - norm).max(0.0);
                    total += d * d;
                } else {
                    let d = (norm - 0.1).max(0.0);
                    total += 0.5 * d * d;
                }
            }
        }
        Ok(total / b as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproxMath, ExactMath};
    use crate::config::RoutingAlgorithm;

    fn tiny_net() -> CapsNet {
        CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 99).unwrap()
    }

    fn tiny_images(b: usize, seed: u64) -> Tensor {
        let spec = CapsNetSpec::tiny_for_tests();
        Tensor::uniform(&[b, 1, spec.input_hw.0, spec.input_hw.1], 0.0, 1.0, seed)
    }

    #[test]
    fn forward_shapes() {
        let net = tiny_net();
        let out = net.forward(&tiny_images(3, 1), &ExactMath).unwrap();
        assert_eq!(out.class_capsules.shape().dims(), &[3, 3, 6]);
        assert_eq!(out.class_norms_sq.shape().dims(), &[3, 3]);
        assert_eq!(out.predictions().len(), 3);
    }

    #[test]
    fn rejects_wrong_geometry() {
        let net = tiny_net();
        let bad = Tensor::zeros(&[2, 1, 10, 10]);
        assert!(net.forward(&bad, &ExactMath).is_err());
    }

    #[test]
    fn margin_loss_prefers_correct_labels() {
        let net = tiny_net();
        let out = net.forward(&tiny_images(1, 3), &ExactMath).unwrap();
        let pred = out.predictions()[0];
        let wrong = (pred + 1) % 3;
        let loss_right = net.margin_loss(&out, &[pred]).unwrap();
        let loss_wrong = net.margin_loss(&out, &[wrong]).unwrap();
        assert!(loss_right < loss_wrong, "loss {loss_right} vs {loss_wrong}");
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = tiny_net().forward(&tiny_images(2, 4), &ExactMath).unwrap();
        let b = tiny_net().forward(&tiny_images(2, 4), &ExactMath).unwrap();
        assert_eq!(a.class_capsules, b.class_capsules);
    }

    #[test]
    fn approx_backend_rarely_changes_predictions() {
        let net = tiny_net();
        let images = tiny_images(16, 5);
        let exact = net.forward(&images, &ExactMath).unwrap().predictions();
        let approx = net
            .forward(&images, &ApproxMath::with_recovery())
            .unwrap()
            .predictions();
        let agree = exact.iter().zip(&approx).filter(|(a, b)| a == b).count();
        assert!(agree >= 14, "only {agree}/16 predictions agree");
    }

    #[test]
    fn from_views_roundtrips_named_weights_bit_identically() {
        let net = tiny_net();
        // Collect the weights into a map source (owned clones)…
        let mut source: std::collections::BTreeMap<String, Tensor> = net
            .named_weights()
            .into_iter()
            .map(|(name, t)| (name, t.expect_f32().clone()))
            .collect();
        assert!(source.contains_key("caps.weight"));
        assert!(!source.keys().any(|name| name.starts_with("decoder.")));
        // …and rebuild. Forward must be bit-identical.
        let rebuilt = CapsNet::from_views(net.spec(), &mut source).unwrap();
        let images = tiny_images(3, 5);
        let a = net.forward(&images, &ExactMath).unwrap();
        let b = rebuilt.forward(&images, &ExactMath).unwrap();
        for (x, y) in a
            .class_capsules
            .as_slice()
            .iter()
            .zip(b.class_capsules.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a
            .class_norms_sq
            .as_slice()
            .iter()
            .zip(b.class_norms_sq.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn from_views_rejects_missing_and_misshapen_weights() {
        let net = tiny_net();
        let weights: Vec<(String, Tensor)> = net
            .named_weights()
            .into_iter()
            .map(|(n, t)| (n, t.expect_f32().clone()))
            .collect();

        let mut missing: std::collections::BTreeMap<String, Tensor> = weights
            .iter()
            .filter(|(n, _)| n != "caps.weight")
            .cloned()
            .collect();
        assert!(CapsNet::from_views(net.spec(), &mut missing).is_err());

        let mut misshapen: std::collections::BTreeMap<String, Tensor> =
            weights.into_iter().collect();
        misshapen.insert("caps.weight".into(), Tensor::zeros(&[1, 2, 3]));
        assert!(CapsNet::from_views(net.spec(), &mut misshapen).is_err());
    }

    #[test]
    fn from_views_runs_off_shared_storage() {
        use pim_tensor::TensorBuf;
        use std::sync::Arc;

        let net = tiny_net();
        // Pack every weight into one flat buffer, then serve shared
        // (zero-copy) windows of it — the in-memory analogue of mmap.
        struct Packed {
            buf: Arc<dyn TensorBuf>,
            index: std::collections::BTreeMap<String, (usize, Vec<usize>)>,
        }
        impl WeightSource for Packed {
            fn contains(&self, name: &str) -> bool {
                self.index.contains_key(name)
            }
            fn tensor(&mut self, name: &str, dims: &[usize]) -> Result<Tensor, CapsNetError> {
                let (offset, stored) = self
                    .index
                    .get(name)
                    .ok_or_else(|| CapsNetError::InvalidSpec(format!("missing {name:?}")))?;
                assert_eq!(stored, dims, "{name}");
                Tensor::from_shared(Arc::clone(&self.buf), *offset, dims)
                    .map_err(CapsNetError::from)
            }
        }
        let mut flat = Vec::new();
        let mut index = std::collections::BTreeMap::new();
        for (name, t) in net.named_weights() {
            index.insert(name, (flat.len(), t.dims().to_vec()));
            flat.extend_from_slice(t.expect_f32().as_slice());
        }
        let mut source = Packed {
            buf: Arc::new(flat),
            index,
        };
        let shared_net = CapsNet::from_views(net.spec(), &mut source).unwrap();
        // The big caps weight really is a borrowed view…
        assert!(shared_net.caps.weight().is_shared());
        // …and forward is bit-identical to the owning network.
        let images = tiny_images(2, 8);
        let a = net.forward(&images, &ExactMath).unwrap();
        let b = shared_net.forward(&images, &ExactMath).unwrap();
        for (x, y) in a
            .class_capsules
            .as_slice()
            .iter()
            .zip(b.class_capsules.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn weight_storage_census_and_cheap_shared_clone() {
        use pim_tensor::TensorBuf;
        use std::sync::Arc;

        // A seeded network owns everything.
        let net = tiny_net();
        let owned = net.weight_storage();
        assert_eq!(owned.shared_bytes, 0);
        assert_eq!(owned.shared_tensors, 0);
        assert_eq!(owned.tensors, net.named_weights().len());
        let total_bytes: usize = net
            .named_weights()
            .iter()
            .map(|(_, t)| t.size_bytes())
            .sum();
        assert_eq!(owned.owned_bytes, total_bytes);

        // A shared-backed network (every weight a window into one buffer)
        // reports everything shared…
        let mut flat = Vec::new();
        let mut index: std::collections::BTreeMap<String, (usize, Vec<usize>)> =
            std::collections::BTreeMap::new();
        for (name, t) in net.named_weights() {
            index.insert(name, (flat.len(), t.dims().to_vec()));
            flat.extend_from_slice(t.expect_f32().as_slice());
        }
        struct Packed {
            buf: Arc<dyn TensorBuf>,
            index: std::collections::BTreeMap<String, (usize, Vec<usize>)>,
        }
        impl WeightSource for Packed {
            fn contains(&self, name: &str) -> bool {
                self.index.contains_key(name)
            }
            fn tensor(&mut self, name: &str, dims: &[usize]) -> Result<Tensor, CapsNetError> {
                let (offset, _) = self.index.get(name).expect("packed source complete");
                Tensor::from_shared(Arc::clone(&self.buf), *offset, dims)
                    .map_err(CapsNetError::from)
            }
        }
        let mut source = Packed {
            buf: Arc::new(flat),
            index,
        };
        let shared_net = CapsNet::from_views(net.spec(), &mut source).unwrap();
        let shared = shared_net.weight_storage();
        assert_eq!(shared.owned_bytes, 0);
        assert_eq!(shared.shared_bytes, total_bytes);
        assert_eq!(shared.shared_tensors, shared.tensors);

        // …and cloning it (the per-replica operation) copies no weight
        // bytes: the clone's views alias the original's backing buffer.
        let replica = shared_net.clone();
        assert_eq!(replica.weight_storage().owned_bytes, 0);
        assert_eq!(
            replica.caps.weight().as_slice().as_ptr(),
            shared_net.caps.weight().as_slice().as_ptr(),
            "clone must alias, not copy, shared weights"
        );
    }

    #[test]
    fn em_variant_runs_end_to_end() {
        let mut spec = CapsNetSpec::tiny_for_tests();
        spec.routing = RoutingAlgorithm::Em;
        let net = CapsNet::seeded(&spec, 7).unwrap();
        let out = net.forward(&tiny_images(2, 6), &ExactMath).unwrap();
        assert_eq!(out.class_capsules.shape().dims(), &[2, 3, 6]);
    }
}
