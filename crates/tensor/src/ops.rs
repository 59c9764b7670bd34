//! Layout operations on [`Tensor`]: the rank-2 transpose.

use crate::error::TensorError;
use crate::tensor::Tensor;

impl Tensor {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matrix() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let at = a.transpose().unwrap();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.at(&[2, 1]), a.at(&[1, 2]));
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }
}
