use std::sync::Arc;

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::TensorError;
use crate::shape::Shape;

/// A backing buffer shared tensors borrow from without copying — e.g. an
/// mmapped model artifact whose pages stay in the OS page cache.
///
/// Implementations must return a **stable** slice: the same pointer and
/// length for the lifetime of the value (tensors cache nothing, but they
/// index into the slice on every access, so a buffer that re-derives its
/// view per call must do so consistently). The `Send + Sync` bound is what
/// lets shared tensors cross the serving layer's scoped worker threads.
pub trait TensorBuf: Send + Sync {
    /// The buffer's contents viewed as `f32`s (already alignment-checked by
    /// the provider).
    fn as_f32(&self) -> &[f32];
}

/// A plain vector is a valid shared buffer (useful for tests and for the
/// misalignment fallback path, where the store copies into owned memory
/// but still hands out one buffer shared by many tensors).
impl TensorBuf for Vec<f32> {
    fn as_f32(&self) -> &[f32] {
        self
    }
}

/// The tensor's backing storage: owned elements, or a borrowed window into
/// a shared [`TensorBuf`]. Cloning a shared tensor clones the `Arc`, not
/// the data.
#[derive(Clone)]
enum Storage {
    Owned(Vec<f32>),
    Shared {
        buf: Arc<dyn TensorBuf>,
        offset: usize,
        len: usize,
    },
}

/// A contiguous, row-major `f32` tensor.
///
/// All tensors in this crate are contiguous; views and broadcasting are not
/// supported. This keeps the functional CapsNet implementation simple and
/// makes per-operation byte accounting (used by the simulators) exact.
///
/// Storage is either **owned** (a `Vec<f32>`, the default for every
/// constructor) or **shared** (a window into an [`Arc<dyn TensorBuf>`],
/// created with [`Tensor::from_shared`] — the zero-copy path model loading
/// uses). Reads are identical either way; the first mutation of a shared
/// tensor copies it into owned storage (copy-on-write), so shared weights
/// can never be corrupted through a tensor view.
///
/// # Examples
///
/// ```
/// use pim_tensor::Tensor;
///
/// # fn main() -> Result<(), pim_tensor::TensorError> {
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Tensor {
    data: Storage,
    shape: Shape,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field(
                "storage",
                &match &self.data {
                    Storage::Owned(_) => "owned",
                    Storage::Shared { .. } => "shared",
                },
            )
            .field("data", &self.as_slice())
            .finish()
    }
}

impl PartialEq for Tensor {
    /// Tensors compare by shape and element values, regardless of whether
    /// the storage is owned or shared.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl Tensor {
    /// Creates a tensor from a data buffer and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            data: Storage::Owned(data),
            shape,
        })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: Storage::Owned(vec![0.0; shape.volume()]),
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: Storage::Owned(vec![value; shape.volume()]),
            shape,
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.as_mut_slice()[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`,
    /// seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        assert!(lo < hi, "uniform range must be non-empty: [{lo}, {hi})");
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(lo, hi);
        let data = (0..shape.volume()).map(|_| dist.sample(&mut rng)).collect();
        Tensor {
            data: Storage::Owned(data),
            shape,
        }
    }

    /// Creates a tensor with approximately normal elements
    /// (mean 0, stddev `std`), seeded deterministically.
    ///
    /// Uses a 12-uniform Irwin–Hall sum, which is plenty for weight
    /// initialization and avoids pulling in `rand_distr`.
    pub fn randn(dims: &[usize], std: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(0.0f32, 1.0f32);
        let data = (0..shape.volume())
            .map(|_| {
                let s: f32 = (0..12).map(|_| dist.sample(&mut rng)).sum();
                (s - 6.0) * std
            })
            .collect();
        Tensor {
            data: Storage::Owned(data),
            shape,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Creates a **shared** tensor: a zero-copy window of `volume(dims)`
    /// elements starting at `offset` inside `buf`. The data is borrowed —
    /// cloning is an `Arc` clone, and the first mutation copies out
    /// (copy-on-write).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the window
    /// `offset..offset + volume` does not fit inside `buf`.
    pub fn from_shared(
        buf: Arc<dyn TensorBuf>,
        offset: usize,
        dims: &[usize],
    ) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        let len = shape.volume();
        let available = buf.as_f32().len();
        if offset.checked_add(len).is_none_or(|end| end > available) {
            return Err(TensorError::LengthMismatch {
                expected: offset.saturating_add(len),
                actual: available,
            });
        }
        Ok(Tensor {
            data: Storage::Shared { buf, offset, len },
            shape,
        })
    }

    /// `true` when this tensor borrows a shared [`TensorBuf`] window
    /// (zero-copy) rather than owning its elements.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared { .. })
    }

    /// Replaces shared storage with an owned copy of the same elements
    /// (no-op when already owned) and returns the owned vector.
    fn owned_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared { buf, offset, len } = &self.data {
            let copied = buf.as_f32()[*offset..*offset + *len].to_vec();
            self.data = Storage::Owned(copied);
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared { .. } => unreachable!("converted to owned above"),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.volume()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the tensor data in bytes (`4 * len`). Used pervasively by the
    /// simulators for traffic accounting.
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// Borrows the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        match &self.data {
            Storage::Owned(v) => v,
            Storage::Shared { buf, offset, len } => &buf.as_f32()[*offset..*offset + *len],
        }
    }

    /// Mutably borrows the underlying buffer. On a shared tensor this is
    /// the copy-on-write point: the window is copied into owned storage
    /// first, so the shared buffer is never written through.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.owned_mut()
    }

    /// Consumes the tensor, returning its buffer (copies when shared).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(self.owned_mut())
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Debug-asserts bounds; see [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> f32 {
        self.as_slice()[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Debug-asserts bounds; see [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.as_mut_slice()[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        // Shared storage clones as an `Arc` bump: reshaping a mapped weight
        // stays zero-copy.
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Resizes this tensor in place to `dims`, zero-filling the data.
    ///
    /// Reuses the existing buffer capacity and the existing [`Shape`]
    /// allocation, so a warm buffer incurs no heap allocation. This is the
    /// primitive the allocation-free forward arenas build on.
    pub fn resize_for(&mut self, dims: &[usize]) {
        self.resize_for_overwrite(dims);
        self.as_mut_slice().fill(0.0);
    }

    /// [`Self::resize_for`] without the zero-fill, for producers that
    /// write every element: elements the buffer already held keep their
    /// stale values (only growth is zero-filled), so a warm buffer costs
    /// neither an allocation nor a pass over memory.
    pub fn resize_for_overwrite(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        let volume = self.shape.volume();
        match &mut self.data {
            Storage::Owned(v) => {
                // Exact growth: arena buffers are sized once and kept.
                v.reserve_exact(volume.saturating_sub(v.len()));
                v.resize(volume, 0.0);
            }
            // A shared tensor repurposed as a scratch buffer drops its
            // borrow and starts an owned buffer of its own.
            Storage::Shared { .. } => self.data = Storage::Owned(vec![0.0; volume]),
        }
    }

    /// Elements the owned buffer can hold without reallocating (0 for
    /// shared storage, which owns nothing).
    pub fn capacity(&self) -> usize {
        match &self.data {
            Storage::Owned(v) => v.capacity(),
            Storage::Shared { .. } => 0,
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: Storage::Owned(self.as_slice().iter().map(|&x| f(x)).collect()),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: Storage::Owned(
                self.as_slice()
                    .iter()
                    .zip(other.as_slice())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
            shape: self.shape.clone(),
        })
    }
}

impl Default for Tensor {
    /// An empty tensor (shape `[0]`) — the natural cold state for reusable
    /// buffers that [`Tensor::resize_for`] will grow on first use.
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .as_slice()
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(
            f,
            "[{}{}]",
            preview.join(", "),
            if self.len() > 8 { ", …" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros(&[3]).as_slice().iter().all(|&x| x == 0.0));
        assert!(Tensor::full(&[3], 2.5).as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let a = Tensor::uniform(&[100], -0.5, 0.5, 42);
        let b = Tensor::uniform(&[100], -0.5, 0.5, 42);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
        let c = Tensor::uniform(&[100], -0.5, 0.5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_statistics_are_plausible() {
        let t = Tensor::randn(&[10_000], 1.0, 7);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / t.len() as f32;
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape().dims(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn at_and_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn zip_with_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
    }

    #[test]
    fn size_bytes_counts_f32s() {
        assert_eq!(Tensor::zeros(&[10, 10]).size_bytes(), 400);
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let m = t.map(|x| x.abs());
        assert_eq!(m.as_slice(), &[1.0, 2.0]);
    }

    fn shared_buf() -> Arc<dyn TensorBuf> {
        Arc::new((0..12).map(|i| i as f32).collect::<Vec<f32>>())
    }

    #[test]
    fn from_shared_is_a_zero_copy_window() {
        let buf = shared_buf();
        let t = Tensor::from_shared(Arc::clone(&buf), 2, &[2, 3]).unwrap();
        assert!(t.is_shared());
        assert_eq!(t.as_slice(), &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.at(&[1, 2]), 7.0);
        // Same pointer as the backing buffer: genuinely zero-copy.
        assert!(std::ptr::eq(
            t.as_slice().as_ptr(),
            buf.as_f32()[2..].as_ptr()
        ));
        // Cloning and reshaping stay shared (Arc bumps, no copies).
        assert!(t.clone().is_shared());
        assert!(t.reshape(&[3, 2]).unwrap().is_shared());
        // Equality is by value, not by storage kind.
        let owned = Tensor::from_vec(vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &[2, 3]).unwrap();
        assert_eq!(t, owned);
    }

    #[test]
    fn from_shared_rejects_out_of_bounds_windows() {
        let buf = shared_buf();
        assert!(Tensor::from_shared(Arc::clone(&buf), 0, &[12]).is_ok());
        assert!(Tensor::from_shared(Arc::clone(&buf), 1, &[12]).is_err());
        assert!(Tensor::from_shared(Arc::clone(&buf), 13, &[0]).is_err());
        assert!(Tensor::from_shared(buf, usize::MAX, &[2]).is_err());
    }

    #[test]
    fn shared_mutation_copies_on_write() {
        let buf = shared_buf();
        let mut t = Tensor::from_shared(Arc::clone(&buf), 0, &[4]).unwrap();
        t.set(&[1], 99.0);
        assert!(!t.is_shared(), "first write must detach the borrow");
        assert_eq!(t.as_slice(), &[0.0, 99.0, 2.0, 3.0]);
        // The shared buffer is untouched.
        assert_eq!(buf.as_f32()[1], 1.0);
    }

    #[test]
    fn shared_resize_for_detaches() {
        let buf = shared_buf();
        let mut t = Tensor::from_shared(buf, 0, &[4]).unwrap();
        t.resize_for(&[2, 2]);
        assert!(!t.is_shared());
        assert_eq!(t.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn resize_for_overwrite_keeps_capacity_and_reshapes_in_place() {
        let mut t = Tensor::full(&[2, 3], 7.0);
        t.resize_for_overwrite(&[3, 1]);
        assert_eq!(t.shape().dims(), &[3, 1]);
        assert_eq!(t.as_slice(), &[7.0; 3], "retained elements are not cleared");
        t.resize_for_overwrite(&[5]);
        assert_eq!(t.as_slice(), &[7.0, 7.0, 7.0, 0.0, 0.0], "growth is zeroed");
        assert_eq!(t.capacity(), 6, "the first allocation is kept");
        t.resize_for(&[2, 2]);
        assert_eq!(t.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn shared_into_vec_copies_out() {
        let buf = shared_buf();
        let t = Tensor::from_shared(buf, 4, &[3]).unwrap();
        assert_eq!(t.into_vec(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn shared_tensors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
