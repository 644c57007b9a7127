//! The dense `f32` tensor type.

use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// All operations that produce a new tensor allocate exactly once; in-place
/// variants (`*_inplace`, `add_assign_*`) exist for the optimizer and
/// parameter-server hot paths.
///
/// The buffer is shared copy-on-write: `clone()` is O(1) and shares it,
/// and the first mutable access to a shared buffer ([`data_mut`] and
/// everything built on it) copies it first. That is how a model's
/// parameters sit on an autograd tape without being copied: the tape holds
/// clones, and since it is dropped before the next weights are installed,
/// that install finds every buffer unshared and writes in place (DESIGN.md
/// §12.6).
///
/// [`data_mut`]: Self::data_mut
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------- constructors

    /// Builds a tensor from a flat row-major buffer. Panics if the buffer
    /// length does not match the shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data: Arc::new(data), shape }
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: Arc::new(vec![0.0; shape.numel()]), shape }
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: Arc::new(vec![value; shape.numel()]), shape }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: Arc::new(vec![value]), shape: Shape::scalar() }
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data_mut()[i * n + i] = 1.0;
        }
        t
    }

    /// Zeros with the same shape as `other`.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor { data: Arc::new(vec![0.0; other.numel()]), shape: other.shape.clone() }
    }

    // ---------------------------------------------------------- accessors

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer; copies it first if a clone of this
    /// tensor still shares it.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its buffer (a copy of it if a clone
    /// still shares it).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Value at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable value at a multi-index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data_mut()[off]
    }

    /// The single value of a scalar or 1-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor with {} elements", self.numel());
        self.data[0]
    }

    // ---------------------------------------------------------- reshaping

    /// Returns a tensor with the same buffer and a new shape of equal
    /// element count. O(1) move, no copy of the data on owned receivers.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(shape.numel(), self.numel(), "reshape {:?} -> {:?}", self.shape, shape);
        self.shape = shape;
        self
    }

    /// Like [`reshape`](Self::reshape) on a clone (which shares the buffer).
    pub fn reshaped(&self, dims: &[usize]) -> Self {
        self.clone().reshape(dims)
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2d on rank {}", self.shape.rank());
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        // Blocked transpose for cache friendliness on the larger matrices.
        const B: usize = 32;
        for ib in (0..m).step_by(B) {
            for jb in (0..n).step_by(B) {
                for i in ib..(ib + B).min(m) {
                    for j in jb..(jb + B).min(n) {
                        out[j * m + i] = self.data[i * n + j];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Copies row `i` of a rank-≥1 tensor (the slice along the first
    /// dimension) into a new tensor of rank `rank-1`.
    pub fn index_first(&self, i: usize) -> Tensor {
        assert!(self.shape.rank() >= 1);
        let row = self.shape.numel() / self.shape.dim(0);
        assert!(i < self.shape.dim(0), "row {i} out of {}", self.shape.dim(0));
        let data = self.data[i * row..(i + 1) * row].to_vec();
        Tensor::from_vec(data, &self.shape.dims()[1..])
    }

    /// Stacks rank-`r` tensors of identical shape into a rank-`r+1` tensor.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of zero tensors");
        let inner = parts[0].shape.clone();
        let mut data = Vec::with_capacity(parts.len() * inner.numel());
        for p in parts {
            assert_eq!(p.shape, inner, "stack shape mismatch");
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(inner.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Selects the given rows (first-dimension slices), producing a tensor
    /// with first dimension `rows.len()`.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        assert!(self.shape.rank() >= 1);
        let row = self.shape.numel() / self.shape.dim(0).max(1);
        let mut data = Vec::with_capacity(rows.len() * row);
        for &r in rows {
            assert!(r < self.shape.dim(0), "row {r} out of {}", self.shape.dim(0));
            data.extend_from_slice(&self.data[r * row..(r + 1) * row]);
        }
        let mut dims = self.shape.dims().to_vec();
        dims[0] = rows.len();
        Tensor::from_vec(data, &dims)
    }

    // ---------------------------------------------------------- diagnostics

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Elementwise approximate equality.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol + tol * a.abs().max(b.abs()))
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt() as f32
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{} elements, norm {:.4}]", self.numel(), self.norm())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.dims(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn eye_matmul_identity_property() {
        let t = Tensor::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let r = t.clone().reshape(&[4, 6]);
        assert_eq!(r.dims(), &[4, 6]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec((0..70).map(|x| x as f32 * 0.5).collect(), &[7, 10]);
        let tt = t.transpose2d().transpose2d();
        assert_eq!(tt, t);
    }

    #[test]
    fn transpose_values() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let tt = t.transpose2d();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.at(&[0, 1]), 4.0);
    }

    #[test]
    fn stack_and_index_first_inverse() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]);
        let b = Tensor::from_vec(vec![3., 4.], &[2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.index_first(0), a);
        assert_eq!(s.index_first(1), b);
    }

    #[test]
    fn gather_rows_selects() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let g = t.gather_rows(&[3, 1]);
        assert_eq!(g.dims(), &[2, 3]);
        assert_eq!(g.data(), &[9., 10., 11., 3., 4., 5.]);
    }

    #[test]
    fn norm_matches_manual() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clones_share_until_written_and_unshared_writes_stay_in_place() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let at = a.data().as_ptr();
        let b = a.clone();
        assert_eq!(b.data().as_ptr(), at, "a clone shares the buffer");
        a.data_mut()[0] = 9.0;
        assert_eq!(b.data(), &[1.0, 2.0, 3.0], "the clone never sees the write");
        assert_eq!(a.data(), &[9.0, 2.0, 3.0]);
        drop(b);
        let at = a.data().as_ptr();
        a.data_mut()[1] = 7.0;
        assert_eq!(a.data().as_ptr(), at, "an unshared buffer is written in place");
        assert_eq!(a.into_vec(), vec![9.0, 7.0, 3.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.is_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.is_finite());
    }
}
