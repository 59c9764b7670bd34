use std::error::Error;
use std::fmt;

/// Error type for all fallible tensor operations.
///
/// Every public function in this crate that can fail returns
/// `Result<_, TensorError>`; the variants carry enough context to identify
/// the offending shapes without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data
    /// buffer length.
    LengthMismatch {
        /// Elements implied by the requested shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// An axis index is out of range for the tensor's rank.
    AxisOutOfRange {
        /// The requested axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor supplied.
        actual: usize,
    },
    /// A convolution configuration is impossible (e.g. kernel larger than
    /// the padded input).
    InvalidConv(String),
    /// A shape with a zero-sized dimension was supplied where data is
    /// required.
    EmptyShape,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "data length {actual} does not match shape volume {expected}"
            ),
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, got rank {actual}")
            }
            TensorError::InvalidConv(msg) => write!(f, "invalid convolution: {msg}"),
            TensorError::EmptyShape => write!(f, "shape has a zero-sized dimension"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::LengthMismatch {
            expected: 6,
            actual: 5,
        };
        let msg = err.to_string();
        assert!(msg.contains('6'));
        assert!(msg.contains('5'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
