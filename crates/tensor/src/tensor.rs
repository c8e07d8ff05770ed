//! The dense `f32` tensor type.
//!
//! Data is stored row-major in an `Arc`-shared buffer, so cloning a tensor
//! is O(1); mutation goes through [`Tensor::data_mut`] which copies only
//! when the buffer is shared (copy-on-write). The autograd tape clones
//! tensors freely — cheap clones keep that design practical. The buffer
//! newtype ([`Buf`]) keeps a process-wide live-bytes gauge up to date, so
//! peak tensor memory is observable per run.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::shape::Shape;

/// The backing buffer of a tensor. A thin newtype over `Vec<f32>` whose
/// construction/clone/drop keep the process-wide
/// [`seqrec_obs::metrics::TENSOR_LIVE_BYTES`] gauge (level + high-water
/// mark) in sync with the bytes actually allocated. `Arc` sharing — tensor
/// clones, reshapes — allocates nothing and is therefore not counted; only
/// real buffers are. Construction and drop additionally report to the
/// `seqrec_obs::mem` lifetime tracer (`SEQREC_OBS=mem=...`), which
/// attributes every buffer to the span path that allocated it.
///
/// **Allocator policy.** The first `Buf` pins two glibc malloc thresholds
/// for the whole process: `M_MMAP_THRESHOLD` to its 64-bit maximum of
/// 32 MiB and `M_TRIM_THRESHOLD` to −1 (no trimming). A training step or an
/// evaluation call frees its whole tape at once: hundreds of MiB in
/// buffers of a few hundred KiB to about 10 MiB each. Under glibc's
/// dynamic thresholds that memory went back to the kernel (`munmap` or a
/// heap trim) and the next step faulted every page in again, so the kernel
/// spent about as long faulting in and zeroing pages as an evaluation call
/// spent computing. Pinned, freed buffers stay on the heap's free lists and
/// the next step reuses them. The cost: the heap no longer shrinks, so the
/// process RSS stays at its peak once reached (`TENSOR_LIVE_BYTES` still
/// counts only live buffers). The limits: this is glibc only (other targets
/// compile none of it), and a tensor above 32 MiB still gets its own
/// `mmap`, which is unmapped on drop as before.
pub(crate) struct Buf {
    data: Vec<f32>,
    /// Lifetime-tracing id handed out by `seqrec_obs::mem` (0 when
    /// tracing was off at allocation time; its free is then a no-op).
    trace_id: u64,
}

impl Buf {
    fn new(data: Vec<f32>) -> Self {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            static PINNED: std::sync::Once = std::sync::Once::new();
            PINNED.call_once(pin_malloc_thresholds);
        }
        let bytes = data.capacity() * 4;
        seqrec_obs::metrics::TENSOR_LIVE_BYTES.add(bytes as i64);
        let trace_id = seqrec_obs::mem::on_alloc(bytes);
        Buf { data, trace_id }
    }
}

/// Keeps freed heap memory resident: see "Allocator policy" on [`Buf`].
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    use std::ffi::c_int;
    // `<malloc.h>` parameter numbers.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` takes two plain integers and only changes malloc's
    // tuning parameters, under the main arena's lock; it touches no memory
    // of ours. Both values are in range (`man 3 mallopt`: 32 MiB is the
    // 64-bit mmap-threshold maximum, −1 disables trimming). A rejected
    // value returns 0 and leaves glibc's defaults in place, which is safe.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, -1);
    }
}

impl Clone for Buf {
    fn clone(&self) -> Self {
        // Reached via `Arc::make_mut` on shared storage: a genuine new
        // allocation (the copy-on-write copy), so it is counted.
        Buf::new(self.data.clone())
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        let bytes = self.data.capacity() * 4;
        seqrec_obs::metrics::TENSOR_LIVE_BYTES.add(-(bytes as i64));
        seqrec_obs::mem::on_free(self.trace_id, bytes);
    }
}

impl Deref for Buf {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.data
    }
}

impl DerefMut for Buf {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.data
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

/// A dense, row-major, contiguous `f32` tensor with copy-on-write storage.
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Buf>,
}

impl Tensor {
    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data: Arc::new(Buf::new(data)) }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor { shape, data: Arc::new(Buf::new(vec![0.0; n])) }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor { shape, data: Arc::new(Buf::new(vec![value; n])) }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: Arc::new(Buf::new(vec![value])) }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True when the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Read-only view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the buffer; copies the storage first if it is shared
    /// with another tensor (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Extracts the single element of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// This is free: the storage is shared with `self`.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.len(),
            "cannot reshape {} ({} elems) to {shape} ({} elems)",
            self.shape,
            self.len(),
            shape.len()
        );
        Tensor { shape, data: Arc::clone(&self.data) }
    }

    /// Element at flat index `i`.
    pub fn at(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Element of a rank-2 tensor at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or the index is out of range.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.shape.rank(), 2, "at2 on tensor of shape {}", self.shape);
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        assert!(row < r && col < c, "index ({row}, {col}) out of range for {}", self.shape);
        self.data[row * c + col]
    }

    /// Returns a new tensor `self + other` (shapes must match exactly).
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Returns a new tensor `self - other` (shapes must match exactly).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Returns a new tensor with elementwise product (shapes must match).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Returns a new tensor scaled by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor { shape: self.shape.clone(), data: Arc::new(Buf::new(data)) }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch: {} vs {}", self.shape, other.shape);
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Tensor { shape: self.shape.clone(), data: Arc::new(Buf::new(data)) }
    }

    /// Accumulates `other` into `self` in place: `self += other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch: {} vs {}", self.shape, other.shape);
        let dst = Arc::make_mut(&mut self.data);
        for (d, &s) in dst.iter_mut().zip(other.data.iter()) {
            *d += s;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    ///
    /// # Panics
    /// Panics on empty tensors.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        (self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()).sqrt() as f32
    }

    /// Largest absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 on {}", self.shape);
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec([c, r], out)
    }

    /// Maximum relative/absolute deviation from `other`, for tests.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data.iter().zip(other.data.iter()).fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let show = self.len().min(8);
        write!(f, "{:?}", &self.data[..show])?;
        if self.len() > show {
            write!(f, "…")?;
        }
        Ok(())
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.at(0), 1.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_length() {
        Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn clone_is_cow() {
        let a = Tensor::zeros([4]);
        let mut b = a.clone();
        b.data_mut()[0] = 5.0;
        assert_eq!(a.at(0), 0.0);
        assert_eq!(b.at(0), 5.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec([2, 2], vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose2();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 6.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn reshape_shares_storage() {
        let a = Tensor::from_vec([2, 3], vec![0.0; 6]);
        let b = a.reshape([3, 2]);
        assert_eq!(b.shape().dims(), &[3, 2]);
        assert_eq!(b.data().as_ptr(), a.data().as_ptr());
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::ones([3]);
        a.add_assign(&Tensor::from_vec([3], vec![1.0, 2.0, 3.0]));
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn finiteness_check() {
        assert!(Tensor::ones([2]).is_finite());
        assert!(!Tensor::from_vec([2], vec![1.0, f32::NAN]).is_finite());
    }
}
