//! Owned, contiguous, row-major real (`f64`) tensor.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::distributions::Distribution;
use rand::Rng;
use rayon::prelude::*;

use crate::shape::Shape;

/// Dense row-major tensor of `f64` values.
///
/// The data is always contiguous; the shape describes how the flat buffer is
/// interpreted. All indexing is bounds-checked in debug and release (the hot
/// numeric kernels in other crates operate on the flat slice directly).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// A tensor with every element equal to `value`.
    pub fn full(dims: &[usize], value: f64) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Wraps an existing buffer. Panics when the buffer length does not
    /// match the shape volume.
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {} volume {}",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Builds a tensor by evaluating `f` at every multi-index, in
    /// row-major order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        shape.for_each_index(|idx| data.push(f(idx)));
        Tensor { shape, data }
    }

    /// Samples every element i.i.d. from `dist`.
    pub fn random<D: Distribution<f64>>(dims: &[usize], dist: &D, rng: &mut impl Rng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| dist.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis extents, as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.shape.linear_index(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let lin = self.shape.linear_index(idx);
        &mut self.data[lin]
    }

    /// Reinterprets the buffer under a new shape of equal volume.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into shape {}",
            self.data.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Applies `f` in parallel chunks — worthwhile for multi-megabyte fields.
    pub fn par_map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        self.data.par_iter_mut().for_each(|x| *x = f(*x));
    }

    /// Combines two same-shaped tensors elementwise.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Self {
        self.assert_same_shape(other);
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += s * other`, elementwise (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, s: f64) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f64) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (NaN for empty tensors).
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Population variance (division by N, matching the paper's field
    /// statistics which treat the grid as the full population).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / self.data.len() as f64
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum element (-∞ for empty tensors).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Euclidean (Frobenius) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Inner product of the flattened tensors.
    pub fn dot(&self, other: &Tensor) -> f64 {
        self.assert_same_shape(other);
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// `true` when every element of both tensors agrees to within `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Copies the `i`-th sub-tensor along axis 0 (e.g. one sample of a batch).
    pub fn index_axis0(&self, i: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(!dims.is_empty(), "cannot index axis 0 of a scalar tensor");
        assert!(i < dims[0], "index {i} out of bounds for axis 0 extent {}", dims[0]);
        let sub_len: usize = dims[1..].iter().product();
        let start = i * sub_len;
        Tensor::from_vec(&dims[1..], self.data[start..start + sub_len].to_vec())
    }

    /// Copies the contiguous range `start..start+len` of sub-tensors along
    /// axis 0 (e.g. a window of snapshots from a trajectory).
    pub fn slice_axis0(&self, start: usize, len: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(!dims.is_empty(), "cannot slice axis 0 of a scalar tensor");
        assert!(
            start + len <= dims[0],
            "slice {start}..{} out of bounds for axis 0 extent {}",
            start + len,
            dims[0]
        );
        let sub_len: usize = dims[1..].iter().product();
        let mut out_dims = vec![len];
        out_dims.extend_from_slice(&dims[1..]);
        Tensor::from_vec(
            &out_dims,
            self.data[start * sub_len..(start + len) * sub_len].to_vec(),
        )
    }

    /// Overwrites the `i`-th sub-tensor along axis 0.
    pub fn set_axis0(&mut self, i: usize, sub: &Tensor) {
        let dims = self.shape.dims().to_vec();
        assert!(!dims.is_empty(), "cannot index axis 0 of a scalar tensor");
        assert!(i < dims[0], "index {i} out of bounds for axis 0 extent {}", dims[0]);
        assert_eq!(sub.dims(), &dims[1..], "sub-tensor shape mismatch");
        let sub_len = sub.len();
        let start = i * sub_len;
        self.data[start..start + sub_len].copy_from_slice(&sub.data);
    }

    /// Stacks equal-shaped tensors along a new leading axis.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cannot stack zero tensors");
        let first = &parts[0];
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            assert_eq!(p.dims(), first.dims(), "stack requires equal shapes");
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(&dims, data)
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f64;
    #[inline]
    fn index(&self, idx: &[usize]) -> &f64 {
        &self.data[self.shape.linear_index(idx)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    #[inline]
    fn index_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let lin = self.shape.linear_index(idx);
        &mut self.data[lin]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, … {} elems … , {:.4}])",
                self.data[0],
                self.data[1],
                self.data.len(),
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 12.0);
        assert_eq!(t[&[1, 0][..]], 10.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.add(&b).data(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).data(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).data(), &[5.0, 12.0, 21.0, 32.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let b = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        a.add_scaled(&b, 0.5);
        a.add_scaled(&b, 0.5);
        assert!(a.allclose(&b, 1e-15));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert!((t.variance() - 1.25).abs() < 1e-15);
        assert!((t.norm_l2() - 30.0_f64.sqrt()).abs() < 1e-15);
        assert_eq!(t.dot(&t), 30.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f64).collect());
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_volume_checked() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn axis0_slicing_roundtrip() {
        let t = Tensor::from_fn(&[3, 2, 2], |idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64);
        let s1 = t.index_axis0(1);
        assert_eq!(s1.dims(), &[2, 2]);
        assert_eq!(s1.at(&[1, 1]), 111.0);
        let mut t2 = Tensor::zeros(&[3, 2, 2]);
        for i in 0..3 {
            t2.set_axis0(i, &t.index_axis0(i));
        }
        assert!(t2.allclose(&t, 0.0));
    }

    #[test]
    fn stack_inverts_index_axis0() {
        let parts: Vec<Tensor> = (0..4)
            .map(|i| Tensor::full(&[2, 3], i as f64))
            .collect();
        let stacked = Tensor::stack(&parts);
        assert_eq!(stacked.dims(), &[4, 2, 3]);
        for (i, p) in parts.iter().enumerate() {
            assert!(stacked.index_axis0(i).allclose(p, 0.0));
        }
    }

    #[test]
    fn random_is_seeded_deterministic() {
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let a = Tensor::random(&[16], &dist, &mut StdRng::seed_from_u64(7));
        let b = Tensor::random(&[16], &dist, &mut StdRng::seed_from_u64(7));
        assert!(a.allclose(&b, 0.0));
        assert!(a.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn par_map_matches_serial() {
        let t = Tensor::from_fn(&[64, 64], |idx| idx[0] as f64 - idx[1] as f64);
        let mut a = t.clone();
        a.par_map_inplace(|x| x.tanh());
        let b = t.map(|x| x.tanh());
        assert!(a.allclose(&b, 0.0));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(&[4]);
        assert!(t.all_finite());
        t.data_mut()[2] = f64::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let _ = a.add(&b);
    }

    #[test]
    fn slice_axis0_matches_index_axis0() {
        let t = Tensor::from_fn(&[5, 2, 3], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let s = t.slice_axis0(1, 3);
        assert_eq!(s.dims(), &[3, 2, 3]);
        for k in 0..3 {
            assert!(s.index_axis0(k).allclose(&t.index_axis0(1 + k), 0.0));
        }
        assert_eq!(t.slice_axis0(0, 5).data(), t.data());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_axis0_bounds_checked() {
        Tensor::zeros(&[3, 2]).slice_axis0(2, 2);
    }
}