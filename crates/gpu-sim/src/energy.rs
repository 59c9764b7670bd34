//! Standalone GPU energy accounting for the non-RP layers (the RP energy is
//! computed inside [`crate::GpuTimingModel::rp_result`] because it needs the
//! per-kernel traffic).

use capsnet::census::LayerProfile;
use serde::{Deserialize, Serialize};

use crate::specs::{GpuModelParams, GpuSpec};
use crate::timing::GpuTimingModel;

/// Energy model for GPU layer execution.
///
/// `E = flops·e_flop + traffic·e_byte + t·P_background`, with the background
/// power split between idle and activity-proportional components — the same
/// structure nvidia-smi measurements average over.
#[derive(Debug, Clone)]
pub struct GpuEnergyModel {
    spec: GpuSpec,
    params: GpuModelParams,
}

/// Energy result for a set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerEnergy {
    /// Total joules.
    pub energy_j: f64,
    /// Wall-clock seconds the layers occupied the GPU.
    pub time_s: f64,
    /// Implied average power (W).
    pub avg_power_w: f64,
}

impl GpuEnergyModel {
    /// Creates the model with default parameters.
    pub fn new(spec: GpuSpec) -> Self {
        GpuEnergyModel {
            spec,
            params: GpuModelParams::default(),
        }
    }

    /// Energy for one non-RP layer.
    fn layer_energy(&self, layer: &LayerProfile) -> LayerEnergy {
        let timing = GpuTimingModel::with_params(self.spec.clone(), self.params);
        let t = timing.layer_time(layer);
        let dynamic = layer.flops as f64 * self.params.energy_per_flop
            + (layer.read_bytes + layer.write_bytes) as f64 * self.params.energy_per_dram_byte;
        let background =
            t * (self.spec.idle_watts + 0.55 * (self.spec.tdp_watts - self.spec.idle_watts));
        let e = dynamic + background;
        LayerEnergy {
            energy_j: e,
            time_s: t,
            avg_power_w: if t > 0.0 { e / t } else { 0.0 },
        }
    }

    /// Total energy over several layers.
    pub fn layers_energy<'a>(
        &self,
        layers: impl IntoIterator<Item = &'a LayerProfile>,
    ) -> LayerEnergy {
        let mut energy = 0.0;
        let mut time = 0.0;
        for l in layers {
            let e = self.layer_energy(l);
            energy += e.energy_j;
            time += e.time_s;
        }
        LayerEnergy {
            energy_j: energy,
            time_s: time,
            avg_power_w: if time > 0.0 { energy / time } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::{CapsNetSpec, NetworkCensus};

    #[test]
    fn layer_energy_positive_and_power_plausible() {
        let census = NetworkCensus::from_spec(&CapsNetSpec::mnist(), 100).unwrap();
        let model = GpuEnergyModel::new(crate::GpuSpec::p100());
        let e = model.layer_energy(&census.primary);
        assert!(e.energy_j > 0.0);
        // Average power should sit between idle and TDP.
        assert!(
            e.avg_power_w > 60.0 && e.avg_power_w < 260.0,
            "{}",
            e.avg_power_w
        );
    }

    #[test]
    fn layers_energy_sums() {
        let census = NetworkCensus::from_spec(&CapsNetSpec::mnist(), 100).unwrap();
        let model = GpuEnergyModel::new(crate::GpuSpec::p100());
        let all = model.layers_energy(census.non_rp_layers());
        let sum: f64 = census
            .non_rp_layers()
            .into_iter()
            .map(|l| model.layer_energy(l).energy_j)
            .sum();
        assert!((all.energy_j - sum).abs() < 1e-9);
    }
}
