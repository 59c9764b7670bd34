//! Elementwise operations, reductions and axis-wise helpers for [`Tensor`].

use crate::error::TensorError;
use crate::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` (BLAS `axpy`), through the
    /// runtime-dispatched SIMD kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        simd::axpy(alpha, other.as_slice(), self.as_mut_slice());
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm of all elements (one SIMD-dispatched dot product).
    ///
    /// The empty tensor has norm 0 by definition — guaranteed explicitly
    /// here rather than left to the kernels' empty-chunk behavior, so the
    /// guarantee survives kernel rewrites.
    pub fn norm_sq(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        simd::dot(self.as_slice(), self.as_slice())
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Dot product of two same-shaped tensors, viewed as flat vectors
    /// (runtime-dispatched SIMD kernel).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        Ok(simd::dot(self.as_slice(), other.as_slice()))
    }

    /// Sums along `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor, TensorError> {
        let dims = self.shape().dims();
        if axis >= dims.len() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: dims.len(),
            });
        }
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims.remove(axis);
        let mut out = vec![0.0f32; outer * inner];
        let src = self.as_slice();
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let dst = o * inner;
                for i in 0..inner {
                    out[dst + i] += src[base + i];
                }
            }
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Softmax along `axis`:
    /// `softmax(x)_i = exp(x_i - max) / Σ_j exp(x_j - max)`.
    ///
    /// Numerically stabilized with the usual max-subtraction. The CapsNet
    /// routing procedure uses a backend-parameterized softmax instead (so the
    /// PE approximation of `exp` can be swapped in); this method is the exact
    /// reference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn softmax_axis(&self, axis: usize) -> Result<Tensor, TensorError> {
        let dims = self.shape().dims();
        if axis >= dims.len() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: dims.len(),
            });
        }
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let src = self.as_slice();
        let mut out = vec![0.0f32; src.len()];
        for o in 0..outer {
            for i in 0..inner {
                let mut mx = f32::NEG_INFINITY;
                for m in 0..mid {
                    mx = mx.max(src[(o * mid + m) * inner + i]);
                }
                let mut denom = 0.0f32;
                for m in 0..mid {
                    let e = (src[(o * mid + m) * inner + i] - mx).exp();
                    out[(o * mid + m) * inner + i] = e;
                    denom += e;
                }
                for m in 0..mid {
                    out[(o * mid + m) * inner + i] /= denom;
                }
            }
        }
        Tensor::from_vec(out, dims)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        let dims = self.shape().dims();
        if dims.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: dims.len(),
            });
        }
        let (r, c) = (dims[0], dims[1]);
        let src = self.as_slice();
        let mut out = vec![0.0f32; src.len()];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = src[i * c + j];
            }
        }
        Tensor::from_vec(out, &[c, r])
    }

    /// ReLU activation.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        let product = a.zip_with(&b, |x, y| x * y).unwrap();
        assert_eq!(product.as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let b = t(&[2.0, 3.0], &[2]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0], &[3]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.norm_sq(), 14.0);
        assert!((a.norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_tensor_norms_are_zero() {
        // Regression (guard audit): reductions over the empty tensor must
        // return 0, never NaN and never a debug assertion.
        let e = Tensor::zeros(&[0]);
        assert_eq!(e.norm_sq(), 0.0);
        assert_eq!(e.norm(), 0.0);
        assert_eq!(e.sum(), 0.0);
        let e2 = Tensor::zeros(&[3, 0]);
        assert_eq!(e2.norm_sq(), 0.0);
        assert_eq!(e2.dot(&Tensor::zeros(&[3, 0])).unwrap(), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.dot(&b).unwrap(), 11.0);
    }

    #[test]
    fn sum_axis_middle() {
        // shape [2,3,2]
        let a = t(
            &[
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, //
                7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
            ],
            &[2, 3, 2],
        );
        let s = a.sum_axis(1).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[9.0, 12.0, 27.0, 30.0]);
    }

    #[test]
    fn sum_axis_first_and_last() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_axis(0).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sum_axis(1).unwrap().as_slice(), &[3.0, 7.0]);
        assert!(a.sum_axis(2).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = a.softmax_axis(1).unwrap();
        for row in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[row, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform logits give uniform probabilities.
        for c in 0..3 {
            assert!((s.at(&[1, c]) - 1.0 / 3.0).abs() < 1e-6);
        }
        // Softmax is monotone in the logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = t(&[1.0, 2.0, 3.0], &[1, 3]);
        let b = t(&[101.0, 102.0, 103.0], &[1, 3]);
        let sa = a.softmax_axis(1).unwrap();
        let sb = b.softmax_axis(1).unwrap();
        for i in 0..3 {
            assert!((sa.as_slice()[i] - sb.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_axis_zero() {
        let a = t(&[0.0, 0.0, 0.0, 0.0], &[2, 2]);
        let s = a.softmax_axis(0).unwrap();
        assert!(s.as_slice().iter().all(|&x| (x - 0.5).abs() < 1e-6));
    }

    #[test]
    fn transpose_matrix() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.at(&[2, 1]), a.at(&[1, 2]));
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn activations() {
        let a = t(&[-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.0]);
        let s = a.sigmoid();
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(s.as_slice()[0] < 0.5 && s.as_slice()[2] > 0.5);
    }
}
