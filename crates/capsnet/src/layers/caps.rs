//! The final Caps layer: per-pair prediction vectors (`û = u·W`, paper Eq 1)
//! followed by the routing procedure.

use pim_tensor::{uhat_project, Tensor, UhatWeights};

use crate::backend::MathBackend;
use crate::config::RoutingAlgorithm;
use crate::error::CapsNetError;
use crate::routing::{Procedure, RoutingArena, RoutingOutput};
use crate::weights::{WeightRef, WeightView};

/// The Caps layer connecting `L` low-level capsules (dimension `C_L`) to
/// `H` high-level capsules (dimension `C_H`) via routing.
#[derive(Debug, Clone)]
pub struct CapsLayer {
    /// Weights stored as `[L, C_L, H*C_H]` for per-capsule GEMM — dense
    /// `f32` or quantized bytes dequantized on the fly.
    weight: WeightView,
    l_caps: usize,
    cl_dim: usize,
    h_caps: usize,
    ch_dim: usize,
    routing: RoutingAlgorithm,
    iterations: usize,
    batch_shared: bool,
}

impl CapsLayer {
    /// Creates the layer with seeded weights; `sharpness` scales the
    /// weight magnitude (and therefore the agreement logits — see
    /// [`crate::CapsNetSpec::routing_sharpness`]).
    #[allow(clippy::too_many_arguments)] // mirrors the spec fields 1:1
    pub fn seeded(
        l_caps: usize,
        cl_dim: usize,
        h_caps: usize,
        ch_dim: usize,
        routing: RoutingAlgorithm,
        iterations: usize,
        sharpness: f32,
        seed: u64,
    ) -> Self {
        let std = sharpness * (1.0 / cl_dim as f32).sqrt();
        CapsLayer {
            weight: WeightView::F32(Tensor::randn(&[l_caps, cl_dim, h_caps * ch_dim], std, seed)),
            l_caps,
            cl_dim,
            h_caps,
            ch_dim,
            routing,
            iterations,
            batch_shared: true,
        }
    }

    /// Creates the layer from an explicit weight tensor (the
    /// weight-loading path). The weight layout is `[L, C_L, H·C_H]`, the
    /// same per-capsule GEMM layout [`Self::seeded`] produces.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] when the weight shape does not
    /// match the capsule geometry.
    pub fn from_weights(
        weight: Tensor,
        l_caps: usize,
        cl_dim: usize,
        h_caps: usize,
        ch_dim: usize,
        routing: RoutingAlgorithm,
        iterations: usize,
    ) -> Result<Self, CapsNetError> {
        Self::from_weight_view(
            WeightView::F32(weight),
            l_caps,
            cl_dim,
            h_caps,
            ch_dim,
            routing,
            iterations,
        )
    }

    /// [`Self::from_weights`] over a typed [`WeightView`] — the path
    /// quantized artifacts load through. Quantized weights stay in byte
    /// form; the prediction-vector kernel dequantizes them on the fly.
    ///
    /// # Errors
    ///
    /// Returns [`CapsNetError::InvalidSpec`] when the weight shape does not
    /// match the capsule geometry.
    pub fn from_weight_view(
        weight: WeightView,
        l_caps: usize,
        cl_dim: usize,
        h_caps: usize,
        ch_dim: usize,
        routing: RoutingAlgorithm,
        iterations: usize,
    ) -> Result<Self, CapsNetError> {
        let dims = weight.dims();
        if dims != [l_caps, cl_dim, h_caps * ch_dim] {
            return Err(CapsNetError::InvalidSpec(format!(
                "caps weight must be [{l_caps}, {cl_dim}, {}], got {dims:?}",
                h_caps * ch_dim
            )));
        }
        Ok(CapsLayer {
            weight,
            l_caps,
            cl_dim,
            h_caps,
            ch_dim,
            routing,
            iterations,
            batch_shared: true,
        })
    }

    /// The transformation weight `[L, C_L, H·C_H]` (paper Eq 1's `W_ij`,
    /// flattened per low-level capsule).
    pub fn weight(&self) -> &WeightView {
        &self.weight
    }

    /// Switches between batch-shared (paper) and per-sample (Sabour et al.)
    /// routing coefficients.
    pub fn with_batch_shared(mut self, batch_shared: bool) -> Self {
        self.batch_shared = batch_shared;
        self
    }

    /// Number of low-level capsules.
    pub fn l_caps(&self) -> usize {
        self.l_caps
    }

    /// Number of high-level capsules.
    pub fn h_caps(&self) -> usize {
        self.h_caps
    }

    /// Routing iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Computes the prediction vectors `û_{j|i} = u_i · W_{ij}` (Eq 1) for a
    /// batch: `[B, L, C_L] -> [B, L, H, C_H]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input does not match the layer.
    fn prediction_vectors<B: MathBackend + ?Sized>(
        &self,
        u: &Tensor,
        backend: &B,
    ) -> Result<Tensor, CapsNetError> {
        let mut out = Tensor::zeros(&[0]);
        self.prediction_vectors_into(u, backend, &mut out, &mut Vec::new())?;
        Ok(out)
    }

    /// Computes the prediction vectors `û` (Eq 1) into `out`
    /// (resized in place, every element overwritten) through
    /// [`pim_tensor::uhat_project`] — one register-tiled pass over `W`,
    /// dense or dequantized on the fly, sharded over the `L` capsules.
    ///
    /// The projection is pure arithmetic every backend performs to the
    /// same bits, and it reads `u` in place, so `backend` and `gather` are
    /// unused; both stay in the signature for source compatibility.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input does not match the layer.
    pub fn prediction_vectors_into<B: MathBackend + ?Sized>(
        &self,
        u: &Tensor,
        _backend: &B,
        out: &mut Tensor,
        _gather: &mut Vec<f32>,
    ) -> Result<(), CapsNetError> {
        let dims = u.shape().dims();
        if dims.len() != 3 || dims[1] != self.l_caps || dims[2] != self.cl_dim {
            return Err(CapsNetError::InputMismatch {
                expected: format!("[B, {}, {}]", self.l_caps, self.cl_dim),
                actual: dims.to_vec(),
            });
        }
        let b = dims[0];
        out.resize_for_overwrite(&[b, self.l_caps, self.h_caps, self.ch_dim]);
        let weight = match self.weight.as_ref() {
            WeightRef::F32(w) => UhatWeights::F32(w.as_slice()),
            WeightRef::Quant(q) => UhatWeights::Quant(q),
        };
        uhat_project(
            u.as_slice(),
            weight,
            out.as_mut_slice(),
            (b, self.l_caps, self.cl_dim, self.h_caps * self.ch_dim),
        );
        Ok(())
    }

    fn procedure(&self) -> Procedure {
        Procedure {
            algorithm: self.routing,
            iterations: self.iterations,
            batch_shared: self.batch_shared,
        }
    }

    /// Full forward pass into freshly allocated tensors: prediction
    /// vectors then routing, same math as [`Self::forward_into`].
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input does not match the layer.
    pub fn forward<B: MathBackend + ?Sized>(
        &self,
        u: &Tensor,
        backend: &B,
    ) -> Result<RoutingOutput, CapsNetError> {
        let u_hat = self.prediction_vectors(u, backend)?;
        self.procedure().route_owned(&u_hat, backend)
    }

    /// Allocation-free forward pass for the arena-backed model path: `û`
    /// lands in `u_hat`, the routed capsules and coefficients in `routing`
    /// (read them via [`RoutingArena::v`] and
    /// [`RoutingArena::coefficients`]).
    ///
    /// Both stages shard across cores when the work amortizes the spawns:
    /// the projection over the `L` capsules, the routing — when samples
    /// route independently (per-sample dynamic, EM) — over the batch, each
    /// shard on its own scratch. Results are bit-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`Self::prediction_vectors_into`].
    pub fn forward_into<B: MathBackend + ?Sized>(
        &self,
        u: &Tensor,
        backend: &B,
        u_hat: &mut Tensor,
        routing: &mut RoutingArena,
    ) -> Result<(), CapsNetError> {
        self.prediction_vectors_into(u, backend, u_hat, &mut Vec::new())?;
        let dims = (u.shape().dims()[0], self.l_caps, self.h_caps, self.ch_dim);
        routing.route(self.procedure(), u_hat.as_slice(), dims, backend);
        Ok(())
    }

    /// `true` when the layer routes with one `[L, H]` coefficient matrix
    /// for the whole batch (batch-shared dynamic routing); otherwise the
    /// coefficients are `[B, L, H]`.
    pub fn shared_coefficients(&self) -> bool {
        self.procedure().shared_coefficients()
    }

    /// `true` when routing coefficients are shared across the batch.
    pub fn batch_shared(&self) -> bool {
        self.batch_shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactMath;

    fn layer() -> CapsLayer {
        CapsLayer::seeded(5, 4, 3, 6, RoutingAlgorithm::Dynamic, 3, 1.0, 17)
    }

    #[test]
    fn prediction_vector_shape() {
        let l = layer();
        let u = Tensor::uniform(&[2, 5, 4], -1.0, 1.0, 1);
        let u_hat = l.prediction_vectors(&u, &ExactMath).unwrap();
        assert_eq!(u_hat.shape().dims(), &[2, 5, 3, 6]);
    }

    #[test]
    fn prediction_vectors_match_manual_matvec() {
        let l = layer();
        let u = Tensor::uniform(&[1, 5, 4], -1.0, 1.0, 2);
        let u_hat = l.prediction_vectors(&u, &ExactMath).unwrap();
        // Manually compute û for capsule i=2, H capsule j=1.
        let i = 2;
        let w = l.weight.as_slice();
        let hc = 3 * 6;
        for j in 0..3 {
            for d in 0..6 {
                let mut acc = 0.0f32;
                for p in 0..4 {
                    acc += u.at(&[0, i, p]) * w[i * 4 * hc + p * hc + j * 6 + d];
                }
                let got = u_hat.at(&[0, i, j, d]);
                assert!((acc - got).abs() < 1e-5, "{acc} vs {got}");
            }
        }
    }

    #[test]
    fn input_mismatch_is_rejected() {
        let l = layer();
        let e = &ExactMath;
        assert!(l.prediction_vectors(&Tensor::zeros(&[2, 5, 3]), e).is_err());
        assert!(l.prediction_vectors(&Tensor::zeros(&[2, 4, 4]), e).is_err());
        assert!(l.prediction_vectors(&Tensor::zeros(&[2, 5]), e).is_err());
    }

    #[test]
    fn forward_produces_squashed_capsules() {
        let l = layer();
        let u = Tensor::uniform(&[2, 5, 4], -1.0, 1.0, 3);
        let out = l.forward(&u, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[2, 3, 6]);
        for cap in out.v.as_slice().chunks(6) {
            let n: f32 = cap.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(n < 1.0);
        }
    }

    #[test]
    fn quantized_weight_predictions_track_dequantized_f32() {
        use pim_tensor::{QuantDType, QuantTensor};
        let l = layer();
        let u = Tensor::uniform(&[2, 5, 4], -1.0, 1.0, 9);
        let base = l.prediction_vectors(&u, &ExactMath).unwrap();
        let w = l.weight().expect_f32();
        for dtype in [QuantDType::I8, QuantDType::F16] {
            // Two blocks splitting the leading (capsule) dim, as the
            // store's vault partitioning does.
            let q = QuantTensor::quantize(dtype, w.as_slice(), w.shape().dims(), &[2, 3]).unwrap();
            // A layer over the *dequantized* f32 copy computes with the
            // same effective weights, so the fused path must track it.
            let deq =
                CapsLayer::from_weights(q.dequantize(), 5, 4, 3, 6, RoutingAlgorithm::Dynamic, 3)
                    .unwrap();
            let ql = CapsLayer::from_weight_view(
                crate::WeightView::Quant(q),
                5,
                4,
                3,
                6,
                RoutingAlgorithm::Dynamic,
                3,
            )
            .unwrap();
            let want = deq.prediction_vectors(&u, &ExactMath).unwrap();
            let got = ql.prediction_vectors(&u, &ExactMath).unwrap();
            assert_eq!(got.shape().dims(), base.shape().dims());
            for (g, w_) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (g - w_).abs() <= 1e-5 * w_.abs().max(1.0),
                    "fused dequant path diverged: {g} vs {w_} ({dtype:?})"
                );
            }
            // And the quantized result stays close to the f32 original
            // (loose bound: int8 carries real quantization error).
            for (g, b) in got.as_slice().iter().zip(base.as_slice()) {
                assert!((g - b).abs() < 0.2, "{g} vs {b} ({dtype:?})");
            }
        }
    }

    #[test]
    fn quantized_weight_rejects_bad_shape() {
        use pim_tensor::{QuantDType, QuantTensor};
        let q = QuantTensor::quantize(QuantDType::I8, &[0.5; 24], &[2, 3, 4], &[2]).unwrap();
        assert!(CapsLayer::from_weight_view(
            crate::WeightView::Quant(q),
            5,
            4,
            3,
            6,
            RoutingAlgorithm::Dynamic,
            3
        )
        .is_err());
    }

    #[test]
    fn em_routing_also_runs() {
        let l = CapsLayer::seeded(5, 4, 3, 6, RoutingAlgorithm::Em, 3, 1.0, 17);
        let u = Tensor::uniform(&[2, 5, 4], -1.0, 1.0, 3);
        let out = l.forward(&u, &ExactMath).unwrap();
        assert_eq!(out.v.shape().dims(), &[2, 3, 6]);
        assert!(out.v.as_slice().iter().all(|x| x.is_finite()));
    }
}
