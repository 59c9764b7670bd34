use crate::error::TensorError;

/// An owned tensor shape: a list of dimension extents, row-major.
///
/// `Shape` is a thin wrapper over `Vec<usize>` that caches nothing and
/// derives its stride information on demand; tensors in this crate are always
/// contiguous, so strides are fully determined by the extents.
///
/// # Examples
///
/// ```
/// use pim_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The extents of each dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Replaces the extents in place, reusing the allocation: a buffer
    /// that alternates between geometries of the same (or lower) rank
    /// never touches the heap.
    pub(crate) fn set_dims(&mut self, dims: &[usize]) {
        if self.dims != dims {
            self.dims.clear();
            self.dims.extend_from_slice(dims);
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents). An empty shape (rank 0)
    /// has volume 1, matching the scalar convention.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the index has the right rank and is in bounds;
    /// release builds perform the unchecked arithmetic for speed.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for (i, (&idx, &dim)) in index.iter().zip(&self.dims).enumerate().rev() {
            debug_assert!(idx < dim, "index {idx} out of bounds for dim {i} ({dim})");
            off += idx * stride;
            stride *= dim;
            let _ = i;
        }
        off
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn offset_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[0, 0, 3]), 3);
        assert_eq!(s.offset(&[0, 2, 0]), 8);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.dim(1), Ok(3));
        assert!(matches!(
            s.dim(2),
            Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 })
        ));
    }

    #[test]
    fn zero_dim_detection() {
        assert_eq!(Shape::new(&[2, 0, 3]).volume(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3, 4]).to_string(), "[2x3x4]");
    }
}
