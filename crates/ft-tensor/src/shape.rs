//! Shape and stride arithmetic for row-major dense tensors.

use std::fmt;

/// A tensor shape: the extent of each axis, row-major (last axis fastest).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from axis extents. Zero-length (scalar) shapes are allowed.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of axis `axis`. Panics when out of range.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// All axis extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of extents; 1 for a scalar shape).
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` when the shape contains no elements (some extent is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides in elements: `strides[i]` is the linear-index step
    /// when axis `i` advances by one.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear (flattened) index of a multi-index. Panics when the index is
    /// out of bounds or has the wrong rank.
    #[inline]
    pub fn linear_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.dims.len()
        );
        let mut lin = 0usize;
        for (axis, (&i, &d)) in idx.iter().zip(&self.dims).enumerate() {
            assert!(i < d, "index {i} out of bounds for axis {axis} with extent {d}");
            lin = lin * d + i;
        }
        lin
    }

    /// Calls `f` with every multi-index in row-major order (the order of
    /// [`Shape::multi_index`] over `0..len()`), reusing one index buffer.
    pub fn for_each_index(&self, mut f: impl FnMut(&[usize])) {
        let mut idx = vec![0usize; self.dims.len()];
        for _ in 0..self.len() {
            f(&idx);
            for (i, &d) in idx.iter_mut().zip(&self.dims).rev() {
                *i += 1;
                if *i < d {
                    break;
                }
                *i = 0;
            }
        }
    }

    /// Inverse of [`Shape::linear_index`]: the multi-index of linear position `lin`.
    pub fn multi_index(&self, mut lin: usize) -> Vec<usize> {
        assert!(lin < self.len().max(1), "linear index {lin} out of bounds");
        let mut idx = vec![0usize; self.dims.len()];
        for axis in (0..self.dims.len()).rev() {
            let d = self.dims[axis];
            idx[axis] = lin % d;
            lin /= d;
        }
        idx
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_index_walks_multi_index_order() {
        for dims in [vec![], vec![4], vec![2, 3, 4], vec![3, 0, 2], vec![1, 5, 1]] {
            let s = Shape::new(&dims);
            let mut seen = Vec::new();
            s.for_each_index(|idx| seen.push(idx.to_vec()));
            let want: Vec<Vec<usize>> = (0..s.len()).map(|lin| s.multi_index(lin)).collect();
            assert_eq!(seen, want, "{dims:?}");
        }
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn linear_and_multi_index_roundtrip() {
        let s = Shape::new(&[3, 5, 7]);
        for lin in 0..s.len() {
            let idx = s.multi_index(lin);
            assert_eq!(s.linear_index(&idx), lin);
        }
    }

    #[test]
    fn linear_index_matches_strides() {
        let s = Shape::new(&[4, 6]);
        let st = s.strides();
        for i in 0..4 {
            for j in 0..6 {
                assert_eq!(s.linear_index(&[i, j]), i * st[0] + j * st[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn linear_index_bounds_checked() {
        Shape::new(&[2, 2]).linear_index(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn linear_index_rank_checked() {
        Shape::new(&[2, 2]).linear_index(&[0]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.linear_index(&[]), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_extent() {
        let s = Shape::new(&[3, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
