//! Dense `f32` tensor substrate for the PIM-CapsNet reproduction.
//!
//! This crate provides the small amount of linear algebra the functional
//! CapsNet implementation needs: an owned, contiguous, row-major [`Tensor`]
//! with shape/stride bookkeeping, elementwise operations, reductions,
//! (optionally threaded) matrix multiplication and a 2D convolution that
//! runs the same GEMM with its rows read from the input image (implicit
//! im2col).
//!
//! It is deliberately *not* a general-purpose array library: shapes are
//! validated eagerly ([`TensorError`] on mismatch), all data is `f32` (the
//! paper's PE design targets IEEE-754 single precision, §5.2), and only the
//! layouts the CapsNet layers use are supported.
//!
//! # Examples
//!
//! ```
//! use pim_tensor::Tensor;
//!
//! # fn main() -> Result<(), pim_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

mod conv;
mod error;
mod matmul;
mod ops;
pub mod par;
pub mod quant;
mod shape;
pub mod simd;
mod tensor;
mod tile;
mod uhat;

pub use conv::{conv2d_pretransposed_into, im2col_into, Conv2dScratch, Conv2dSpec};
pub use error::TensorError;
pub use matmul::matmul_into;
pub use quant::{
    encode_block_f16, f16_to_f32, f32_to_f16, quantize_block_i8, ByteBuf, QuantBlock, QuantDType,
    QuantTensor,
};
pub use shape::Shape;
pub use simd::SimdLevel;
pub use tensor::{Tensor, TensorBuf};
pub use uhat::{uhat_project, UhatWeights};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
