//! Table 1: the 12 benchmark configurations.

use capsnet::{CapsNetSpec, RoutingAlgorithm};
use serde::{Deserialize, Serialize};

/// Source dataset of a benchmark (drives input geometry and the Table 5
/// Origin accuracy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// MNIST handwritten digits, 28×28×1, 10 classes.
    Mnist,
    /// CIFAR10 natural images, 32×32×3, 10 (+1 "none") classes.
    Cifar10,
    /// EMNIST Letters/Balanced/ByClass, 28×28×1, 26/47/62 classes.
    Emnist,
    /// SVHN street-view digits, 32×32×3, 10 classes.
    Svhn,
}

impl Dataset {
    /// Input channels and spatial extent.
    fn input_geometry(&self) -> (usize, (usize, usize)) {
        match self {
            Dataset::Mnist | Dataset::Emnist => (1, (28, 28)),
            Dataset::Cifar10 | Dataset::Svhn => (3, (32, 32)),
        }
    }
}

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    /// Paper name (`Caps-MN1` …).
    pub name: &'static str,
    /// Source dataset.
    pub dataset: Dataset,
    /// Batch size (`BS`).
    pub batch_size: usize,
    /// Low-level capsules (`L Caps`).
    pub l_caps: usize,
    /// High-level capsules (`H Caps`).
    pub h_caps: usize,
    /// Routing iterations (`Iter`).
    pub iterations: usize,
    /// The Table 5 "Origin" accuracy this benchmark reports.
    pub origin_accuracy: f64,
}

impl Benchmark {
    /// The full-size network specification (used by the op census and all
    /// timing/energy experiments; never run functionally at this size).
    ///
    /// Geometry is solved so the PrimaryCaps grid × channels reproduces the
    /// exact `L Caps` count of Table 1.
    pub fn spec(&self) -> CapsNetSpec {
        let (in_c, hw) = self.dataset.input_geometry();
        // conv1 9×9/s1, primary 9×9/s2 per the CapsNet-MNIST template.
        let conv_out = hw.0 - 9 + 1;
        let grid = (conv_out - 9) / 2 + 1;
        let cells = grid * grid;
        assert_eq!(
            self.l_caps % cells,
            0,
            "{}: L={} not divisible by grid {}x{}",
            self.name,
            self.l_caps,
            grid,
            grid
        );
        let primary_channels = self.l_caps / cells;
        CapsNetSpec {
            name: self.name.into(),
            input_channels: in_c,
            input_hw: hw,
            conv1_channels: 256,
            conv1_kernel: 9,
            conv1_stride: 1,
            primary_channels,
            cl_dim: 8,
            primary_kernel: 9,
            primary_stride: 2,
            h_caps: self.h_caps,
            ch_dim: 16,
            routing_iterations: self.iterations,
            routing: RoutingAlgorithm::Dynamic,
            decoder_dims: vec![512, 1024, in_c * hw.0 * hw.1],
            routing_sharpness: 1.0,
            batch_shared_routing: true,
        }
    }

    /// A scaled-down functional variant preserving the routing structure
    /// (`H` capsules, iterations, capsule dimensions, batch-shared
    /// coefficients) with a small conv front-end, runnable on a laptop-class
    /// CPU for the Table 5 accuracy experiments (it stands in for the
    /// paper's trained models, which are not redistributable).
    pub fn functional_spec(&self) -> CapsNetSpec {
        let (in_c, _) = self.dataset.input_geometry();
        // 12×12 input → conv 5×5/s1 → 8×8 → primary 3×3/s2 → 3×3 grid.
        let cells = 9;
        let primary_channels = (self.l_caps / 144).clamp(2, 16);
        CapsNetSpec {
            name: format!("{}-func", self.name),
            input_channels: in_c,
            input_hw: (12, 12),
            conv1_channels: 16,
            conv1_kernel: 5,
            conv1_stride: 1,
            primary_channels,
            cl_dim: 8,
            primary_kernel: 3,
            primary_stride: 2,
            h_caps: self.h_caps,
            ch_dim: 16,
            routing_iterations: self.iterations,
            routing: RoutingAlgorithm::Dynamic,
            decoder_dims: vec![64, 128, in_c * 144],
            routing_sharpness: 1.0,
            // Per-sample routing: each prediction depends only on its own
            // input, so the margin filter in the accuracy harness is
            // meaningful.
            batch_shared_routing: false,
        }
        .tap_validate(cells)
    }
}

trait TapValidate {
    fn tap_validate(self, cells: usize) -> Self;
}

impl TapValidate for CapsNetSpec {
    fn tap_validate(self, cells: usize) -> Self {
        debug_assert_eq!(
            self.l_caps().expect("functional spec must be valid") % cells,
            0
        );
        self
    }
}

/// The 12 benchmarks of Table 1.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "Caps-MN1",
            dataset: Dataset::Mnist,
            batch_size: 100,
            l_caps: 1152,
            h_caps: 10,
            iterations: 3,
            origin_accuracy: 0.9975,
        },
        Benchmark {
            name: "Caps-MN2",
            dataset: Dataset::Mnist,
            batch_size: 200,
            l_caps: 1152,
            h_caps: 10,
            iterations: 3,
            origin_accuracy: 0.9975,
        },
        Benchmark {
            name: "Caps-MN3",
            dataset: Dataset::Mnist,
            batch_size: 300,
            l_caps: 1152,
            h_caps: 10,
            iterations: 3,
            origin_accuracy: 0.9975,
        },
        Benchmark {
            name: "Caps-CF1",
            dataset: Dataset::Cifar10,
            batch_size: 100,
            l_caps: 2304,
            h_caps: 11,
            iterations: 3,
            origin_accuracy: 0.8940,
        },
        Benchmark {
            name: "Caps-CF2",
            dataset: Dataset::Cifar10,
            batch_size: 100,
            l_caps: 3456,
            h_caps: 11,
            iterations: 3,
            origin_accuracy: 0.9003,
        },
        Benchmark {
            name: "Caps-CF3",
            dataset: Dataset::Cifar10,
            batch_size: 100,
            l_caps: 4608,
            h_caps: 11,
            iterations: 3,
            origin_accuracy: 0.9043,
        },
        Benchmark {
            name: "Caps-EN1",
            dataset: Dataset::Emnist,
            batch_size: 100,
            l_caps: 1152,
            h_caps: 26,
            iterations: 3,
            origin_accuracy: 0.8874,
        },
        Benchmark {
            name: "Caps-EN2",
            dataset: Dataset::Emnist,
            batch_size: 100,
            l_caps: 1152,
            h_caps: 47,
            iterations: 3,
            origin_accuracy: 0.8501,
        },
        Benchmark {
            name: "Caps-EN3",
            dataset: Dataset::Emnist,
            batch_size: 100,
            l_caps: 1152,
            h_caps: 62,
            iterations: 3,
            origin_accuracy: 0.8236,
        },
        Benchmark {
            name: "Caps-SV1",
            dataset: Dataset::Svhn,
            batch_size: 100,
            l_caps: 576,
            h_caps: 10,
            iterations: 3,
            origin_accuracy: 0.9670,
        },
        Benchmark {
            name: "Caps-SV2",
            dataset: Dataset::Svhn,
            batch_size: 100,
            l_caps: 576,
            h_caps: 10,
            iterations: 6,
            origin_accuracy: 0.9590,
        },
        Benchmark {
            name: "Caps-SV3",
            dataset: Dataset::Svhn,
            batch_size: 100,
            l_caps: 576,
            h_caps: 10,
            iterations: 9,
            origin_accuracy: 0.9590,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::NetworkCensus;

    #[test]
    fn twelve_benchmarks_with_unique_names() {
        let b = benchmarks();
        assert_eq!(b.len(), 12);
        let mut names: Vec<&str> = b.iter().map(|x| x.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn specs_reproduce_table1_l_caps() {
        for b in benchmarks() {
            let spec = b.spec();
            assert_eq!(
                spec.l_caps().unwrap(),
                b.l_caps,
                "{} L capsule mismatch",
                b.name
            );
            assert_eq!(spec.h_caps, b.h_caps);
            assert_eq!(spec.routing_iterations, b.iterations);
        }
    }

    #[test]
    fn all_specs_produce_censuses() {
        for b in benchmarks() {
            let census = NetworkCensus::from_spec(&b.spec(), b.batch_size).unwrap();
            assert_eq!(census.rp.nl, b.l_caps);
            assert_eq!(census.rp.nb, b.batch_size);
        }
    }

    #[test]
    fn functional_specs_validate_and_shrink() {
        for b in benchmarks() {
            let f = b.functional_spec();
            f.validate().unwrap();
            assert!(f.l_caps().unwrap() <= b.l_caps);
            assert_eq!(f.h_caps, b.h_caps, "{} must keep H capsules", b.name);
            assert_eq!(f.routing_iterations, b.iterations);
        }
    }

    #[test]
    fn sv_sweep_varies_only_iterations() {
        let b = benchmarks();
        let sv: Vec<&Benchmark> = b.iter().filter(|x| x.name.starts_with("Caps-SV")).collect();
        assert_eq!(sv.len(), 3);
        assert_eq!(sv[0].iterations, 3);
        assert_eq!(sv[1].iterations, 6);
        assert_eq!(sv[2].iterations, 9);
        assert!(sv.iter().all(|x| x.l_caps == 576));
    }

    #[test]
    fn mn_sweep_varies_only_batch() {
        let b = benchmarks();
        let mn: Vec<&Benchmark> = b.iter().filter(|x| x.name.starts_with("Caps-MN")).collect();
        assert_eq!(
            mn.iter().map(|x| x.batch_size).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
    }
}
