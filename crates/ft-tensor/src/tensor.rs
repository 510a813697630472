//! Owned, contiguous, row-major tensors: one container, [`Array`], generic
//! over its [`Element`] — real [`Tensor`] (`f64`) and complex [`CTensor`]
//! ([`Complex64`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Sub};

use rand::distributions::Distribution;
use rand::Rng;
use rayon::prelude::*;

use crate::complex::Complex64;
use crate::shape::Shape;

/// A tensor element: `f64` or [`Complex64`]. The arithmetic comes from the
/// operator traits, so every generic method computes exactly what the
/// element's own operators do, bit for bit.
pub trait Element:
    Copy
    + PartialEq
    + fmt::Debug
    + Send
    + Sync
    + Sum
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + MulAssign<f64>
{
    /// The additive identity.
    const ZERO: Self;
    /// Real components per element: 1, or 2 for a complex entry (re, then
    /// im). An optimizer updates each component as its own real degree of
    /// freedom.
    const COMPONENTS: usize;
    /// Component `c` (`c < COMPONENTS`).
    fn component(self, c: usize) -> f64;
    /// Component `c`, mutably.
    fn component_mut(&mut self, c: usize) -> &mut f64;
    /// Squared magnitude (`x²`, or `re² + im²`).
    fn norm_sqr(self) -> f64;
    /// `true` when every component is finite.
    fn is_finite(self) -> bool;
    /// [`crate::approx_eq`] on every component.
    fn approx_eq(self, other: Self, tol: f64) -> bool;
}

impl Element for f64 {
    const ZERO: f64 = 0.0;
    const COMPONENTS: usize = 1;
    #[inline]
    fn component(self, _c: usize) -> f64 {
        self
    }
    #[inline]
    fn component_mut(&mut self, _c: usize) -> &mut f64 {
        self
    }
    #[inline]
    fn norm_sqr(self) -> f64 {
        self * self
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn approx_eq(self, other: f64, tol: f64) -> bool {
        crate::approx_eq(self, other, tol)
    }
}

impl Element for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const COMPONENTS: usize = 2;
    #[inline]
    fn component(self, c: usize) -> f64 {
        if c == 0 { self.re } else { self.im }
    }
    #[inline]
    fn component_mut(&mut self, c: usize) -> &mut f64 {
        if c == 0 { &mut self.re } else { &mut self.im }
    }
    #[inline]
    fn norm_sqr(self) -> f64 {
        Complex64::norm_sqr(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }
    #[inline]
    fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        crate::approx_eq(self.re, other.re, tol) && crate::approx_eq(self.im, other.im, tol)
    }
}

/// Dense row-major tensor of [`Element`] values.
///
/// The data is always contiguous; the shape describes how the flat buffer is
/// interpreted. All indexing is bounds-checked in debug and release (the hot
/// numeric kernels in other crates operate on the flat slice directly).
#[derive(Clone, PartialEq)]
pub struct Array<T: Element> {
    shape: Shape,
    data: Vec<T>,
}

/// Real (`f64`) tensor.
pub type Tensor = Array<f64>;

/// Complex tensor, the spectral-domain counterpart of [`Tensor`].
pub type CTensor = Array<Complex64>;

impl<T: Element> Array<T> {
    /// A tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, T::ZERO)
    }

    /// A tensor with every element equal to `value`.
    pub fn full(dims: &[usize], value: T) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Array { shape, data }
    }

    /// Wraps an existing buffer. Panics when the buffer length does not
    /// match the shape volume.
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {} volume {}",
            data.len(),
            shape,
            shape.len()
        );
        Array { shape, data }
    }

    /// Builds a tensor by evaluating `f` at every multi-index, in
    /// row-major order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        shape.for_each_index(|idx| data.push(f(idx)));
        Array { shape, data }
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
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the flat buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> T {
        self.data[self.shape.linear_index(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut T {
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
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Array {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    pub fn zip_map(&self, other: &Self, f: impl Fn(T, T) -> T) -> Self {
        self.assert_same_shape(other);
        Array {
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
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by the real scalar `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sets every element to `value`, keeping the allocation.
    pub fn fill(&mut self, value: T) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> T {
        self.data.iter().copied().sum()
    }

    /// Euclidean (Frobenius) norm `sqrt(Σ |x|²)` of the flattened tensor.
    pub fn norm_l2(&self) -> f64 {
        self.data.iter().map(|&x| x.norm_sqr()).sum::<f64>().sqrt()
    }

    /// `true` when every element of both tensors agrees to within `tol`
    /// (componentwise absolute/relative, see [`crate::approx_eq`]).
    pub fn allclose(&self, other: &Self, tol: f64) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(&a, &b)| a.approx_eq(b, tol))
    }

    /// `true` when every component of every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|&x| x.is_finite())
    }

    /// Copies the `i`-th sub-tensor along axis 0 (e.g. one sample of a batch).
    pub fn index_axis0(&self, i: usize) -> Self {
        let dims = self.shape.dims();
        assert!(!dims.is_empty(), "cannot index axis 0 of a scalar tensor");
        assert!(i < dims[0], "index {i} out of bounds for axis 0 extent {}", dims[0]);
        let sub_len: usize = dims[1..].iter().product();
        let start = i * sub_len;
        Self::from_vec(&dims[1..], self.data[start..start + sub_len].to_vec())
    }

    /// Copies the contiguous range `start..start+len` of sub-tensors along
    /// axis 0 (e.g. a window of snapshots from a trajectory).
    pub fn slice_axis0(&self, start: usize, len: usize) -> Self {
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
        Self::from_vec(
            &out_dims,
            self.data[start * sub_len..(start + len) * sub_len].to_vec(),
        )
    }

    /// Overwrites the `i`-th sub-tensor along axis 0.
    pub fn set_axis0(&mut self, i: usize, sub: &Self) {
        let dims = self.shape.dims().to_vec();
        assert!(!dims.is_empty(), "cannot index axis 0 of a scalar tensor");
        assert!(i < dims[0], "index {i} out of bounds for axis 0 extent {}", dims[0]);
        assert_eq!(sub.dims(), &dims[1..], "sub-tensor shape mismatch");
        let sub_len = sub.len();
        let start = i * sub_len;
        self.data[start..start + sub_len].copy_from_slice(&sub.data);
    }

    /// Stacks equal-shaped tensors along a new leading axis.
    pub fn stack(parts: &[Self]) -> Self {
        assert!(!parts.is_empty(), "cannot stack zero tensors");
        let first = &parts[0];
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            assert_eq!(p.dims(), first.dims(), "stack requires equal shapes");
            data.extend_from_slice(&p.data);
        }
        Self::from_vec(&dims, data)
    }

    fn assert_same_shape(&self, other: &Self) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl Tensor {
    /// Samples every element i.i.d. from `dist`.
    pub fn random<D: Distribution<f64>>(dims: &[usize], dist: &D, rng: &mut impl Rng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| dist.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// Applies `f` in parallel chunks — worthwhile for multi-megabyte fields.
    pub fn par_map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        self.data.par_iter_mut().for_each(|x| *x = f(*x));
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

    /// Inner product of the flattened tensors.
    pub fn dot(&self, other: &Tensor) -> f64 {
        self.assert_same_shape(other);
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }
}

impl CTensor {
    /// Embeds a real tensor (zero imaginary parts).
    pub fn from_real(t: &Tensor) -> Self {
        CTensor {
            shape: t.shape.clone(),
            data: t.data.iter().map(|&x| Complex64::from_re(x)).collect(),
        }
    }

    /// Real parts, as a real tensor.
    pub fn re(&self) -> Tensor {
        Tensor::from_vec(self.dims(), self.data.iter().map(|z| z.re).collect())
    }

    /// Imaginary parts, as a real tensor.
    pub fn im(&self) -> Tensor {
        Tensor::from_vec(self.dims(), self.data.iter().map(|z| z.im).collect())
    }

    /// Elementwise conjugate.
    pub fn conj(&self) -> Self {
        self.map(Complex64::conj)
    }
}

impl<T: Element> Index<&[usize]> for Array<T> {
    type Output = T;
    #[inline]
    fn index(&self, idx: &[usize]) -> &T {
        &self.data[self.shape.linear_index(idx)]
    }
}

impl<T: Element> IndexMut<&[usize]> for Array<T> {
    #[inline]
    fn index_mut(&mut self, idx: &[usize]) -> &mut T {
        let lin = self.shape.linear_index(idx);
        &mut self.data[lin]
    }
}

impl<T: Element> fmt::Debug for Array<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Array(shape={}, ", self.shape)?;
        let d = &self.data;
        if d.len() <= 8 {
            write!(f, "data={d:?})")
        } else {
            let (n, last) = (d.len(), d[d.len() - 1]);
            write!(f, "data=[{:.4?}, {:.4?}, … {n} elems … , {last:.4?}])", d[0], d[1])
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