//! Tests of the complex tensor, [`crate::CTensor`] (an [`crate::tensor::Array`]
//! of [`crate::Complex64`]).

#[cfg(test)]
mod tests {
    use crate::{CTensor, Complex64, Tensor};

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
    fn fill_and_scale() {
        let mut c = CTensor::from_fn(&[4], |i| Complex64::new(i[0] as f64, 1.0));
        c.scale_inplace(2.0);
        assert_eq!(c.at(&[1]), Complex64::new(2.0, 2.0));
        c.fill(Complex64::ZERO);
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
