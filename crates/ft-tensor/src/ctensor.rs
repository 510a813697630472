//! Owned, contiguous, row-major complex tensor (spectral-domain counterpart
//! of [`crate::Tensor`]).

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::complex::Complex64;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Dense row-major tensor of [`Complex64`] values.
#[derive(Clone, PartialEq)]
pub struct CTensor {
    shape: Shape,
    data: Vec<Complex64>,
}

impl CTensor {
    /// A complex tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![Complex64::ZERO; shape.len()];
        CTensor { shape, data }
    }

    /// Wraps an existing buffer. Panics when length and shape disagree.
    pub fn from_vec(dims: &[usize], data: Vec<Complex64>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {} volume {}",
            data.len(),
            shape,
            shape.len()
        );
        CTensor { shape, data }
    }

    /// Builds a complex tensor by evaluating `f` at every multi-index, in
    /// row-major order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> Complex64) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        shape.for_each_index(|idx| data.push(f(idx)));
        CTensor { shape, data }
    }

    /// Embeds a real tensor (zero imaginary parts).
    pub fn from_real(t: &Tensor) -> Self {
        CTensor {
            shape: t.shape().clone(),
            data: t.data().iter().map(|&x| Complex64::from_re(x)).collect(),
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis extents.
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

    /// Read-only flat buffer.
    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> Complex64 {
        self.data[self.shape.linear_index(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut Complex64 {
        let lin = self.shape.linear_index(idx);
        &mut self.data[lin]
    }

    /// Reinterprets the buffer under a new shape of equal volume.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(shape.len(), self.data.len(), "cannot reshape: volume mismatch");
        self.shape = shape;
        self
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
        CTensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(Complex64) -> Complex64) -> Self {
        CTensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&z| f(z)).collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &CTensor) -> Self {
        self.assert_same_shape(other);
        CTensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| a + b).collect(),
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &CTensor) -> Self {
        self.assert_same_shape(other);
        CTensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| a - b).collect(),
        }
    }

    /// Elementwise product.
    pub fn mul(&self, other: &CTensor) -> Self {
        self.assert_same_shape(other);
        CTensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).collect(),
        }
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &CTensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by a real scalar in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for z in &mut self.data {
            *z = Complex64::ZERO;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> Complex64 {
        self.data.iter().copied().sum()
    }

    /// Euclidean norm `sqrt(Σ |z|²)`.
    pub fn norm_l2(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// `true` when every element of both tensors agrees to within `tol`
    /// (componentwise absolute/relative, see [`crate::approx_eq`]).
    pub fn allclose(&self, other: &CTensor, tol: f64) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(a, b)| {
                crate::approx_eq(a.re, b.re, tol) && crate::approx_eq(a.im, b.im, tol)
            })
    }

    /// `true` when every component of every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    fn assert_same_shape(&self, other: &CTensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl Index<&[usize]> for CTensor {
    type Output = Complex64;
    #[inline]
    fn index(&self, idx: &[usize]) -> &Complex64 {
        &self.data[self.shape.linear_index(idx)]
    }
}

impl IndexMut<&[usize]> for CTensor {
    #[inline]
    fn index_mut(&mut self, idx: &[usize]) -> &mut Complex64 {
        let lin = self.shape.linear_index(idx);
        &mut self.data[lin]
    }
}

impl fmt::Debug for CTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CTensor(shape={}, {} elems)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_real_roundtrip() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, -2.0, 3.0, -4.0]);
        let c = CTensor::from_real(&t);
        assert!(c.re().allclose(&t, 0.0));
        assert_eq!(c.im().sum(), 0.0);
    }

    #[test]
    fn conj_is_involution() {
        let c = CTensor::from_fn(&[3, 3], |idx| Complex64::new(idx[0] as f64, idx[1] as f64));
        assert!(c.conj().conj().allclose(&c, 0.0));
    }

    #[test]
    fn norms_match_real_embedding() {
        let c = CTensor::from_vec(&[2], vec![Complex64::new(3.0, 4.0), Complex64::ZERO]);
        assert!((c.norm_l2() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn arithmetic() {
        let a = CTensor::from_vec(&[2], vec![Complex64::new(1.0, 1.0), Complex64::new(2.0, 0.0)]);
        let b = CTensor::from_vec(&[2], vec![Complex64::new(0.0, 1.0), Complex64::new(1.0, 1.0)]);
        let sum = a.add(&b);
        assert_eq!(sum.at(&[0]), Complex64::new(1.0, 2.0));
        let prod = a.mul(&b);
        assert_eq!(prod.at(&[0]), Complex64::new(-1.0, 1.0));
        let diff = sum.sub(&b);
        assert!(diff.allclose(&a, 1e-15));
    }

    #[test]
    fn fill_zero_and_scale() {
        let mut c = CTensor::from_fn(&[4], |i| Complex64::new(i[0] as f64, 1.0));
        c.scale_inplace(2.0);
        assert_eq!(c.at(&[1]), Complex64::new(2.0, 2.0));
        c.fill_zero();
        assert_eq!(c.norm_l2(), 0.0);
    }

    #[test]
    fn indexing() {
        let mut c = CTensor::zeros(&[2, 3]);
        c[&[1, 2][..]] = Complex64::new(5.0, -5.0);
        assert_eq!(c.at(&[1, 2]), Complex64::new(5.0, -5.0));
        assert_eq!(c.at(&[0, 0]), Complex64::ZERO);
    }
}
