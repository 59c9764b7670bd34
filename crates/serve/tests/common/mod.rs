//! Helpers shared by the serve integration tests.

use std::collections::BTreeMap;

use capsnet::CapsNet;
use pim_tensor::Tensor;

/// A copy of `net` with every weight element scaled by `1 + factor`: a
/// small `factor` is the "honest new version" whose canary divergence is
/// small.
pub fn perturbed(net: &CapsNet, factor: f32) -> CapsNet {
    let mut weights: BTreeMap<String, Tensor> = net
        .named_weights()
        .into_iter()
        .map(|(name, t)| (name, t.expect_f32().map(|x| x * (1.0 + factor))))
        .collect();
    CapsNet::from_views(net.spec(), &mut weights).unwrap()
}
