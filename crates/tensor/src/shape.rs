//! Tensor shapes: a thin, validated wrapper around a dimension list.

use std::fmt;

/// The shape (dimension sizes) of a tensor. Row-major, outermost first.
///
/// Rank 0 (scalars) is represented by an empty dimension list and has
/// `numel() == 1`, matching the convention of the major frameworks.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Builds a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// A rank-0 (scalar) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides for this shape (innermost stride is 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat (row-major) offset of a multi-index. Panics on out-of-range
    /// indices in debug builds.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&ix, &d)) in index.iter().zip(&self.0).enumerate().rev() {
            debug_assert!(ix < d, "index {ix} out of range for dim {i} of size {d}");
            off += ix * stride;
            stride *= d;
            let _ = i;
        }
        off
    }

    /// Whether two shapes can be used in a leading-dimension broadcast:
    /// `other` equals `self` with the first dimension removed (e.g. adding a
    /// `[n]` bias to every row of a `[b, n]` matrix).
    pub fn broadcasts_rows(&self, other: &Shape) -> bool {
        self.rank() >= 1 && self.0[1..] == other.0[..]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    fn broadcast_rows_rule() {
        let m = Shape::new(&[8, 5]);
        let v = Shape::new(&[5]);
        assert!(m.broadcasts_rows(&v));
        assert!(!v.broadcasts_rows(&m));
        assert!(!m.broadcasts_rows(&Shape::new(&[4])));
        // 4D activation + per-feature map broadcast is not row broadcast.
        let act = Shape::new(&[2, 3, 4, 4]);
        assert!(act.broadcasts_rows(&Shape::new(&[3, 4, 4])));
    }

    #[test]
    fn zero_sized_dims() {
        let s = Shape::new(&[0, 4]);
        assert_eq!(s.numel(), 0);
    }
}
