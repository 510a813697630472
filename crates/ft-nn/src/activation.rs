//! GELU activation (tanh form), used between the Fourier layers and inside
//! the lifting and projection MLPs (fused there, see [`crate::mlp`]), as in
//! the `neuraloperator` reference implementation.

use ft_tensor::Tensor;
use rayon::prelude::*;

use crate::param::ParamMut;
use crate::Layer;

/// `gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[derive(Clone, Default)]
pub struct Gelu {
    cache_input: Option<Tensor>,
}

const C: f64 = 0.797_884_560_802_865_4; // sqrt(2/π)
const A: f64 = 0.044715;

/// Elements per parallel chunk. Fixed, so the chunking — and whether a
/// call fans out at all (fewer than `rayon::MIN_PARALLEL_ITEMS` chunks
/// run inline) — depends on the tensor size alone, never on the pool.
const CHUNK: usize = 4096;

impl Gelu {
    /// A fresh activation layer (stateless apart from the backward cache).
    pub fn new() -> Self {
        Gelu::default()
    }

    /// `tanh(√(2/π)·(x + 0.044715·x³))`, shared by the value and the
    /// derivative.
    #[inline]
    fn inner_tanh(x: f64) -> f64 {
        (C * (x + A * x * x * x)).tanh()
    }

    #[inline]
    fn value_from(x: f64, t: f64) -> f64 {
        0.5 * x * (1.0 + t)
    }

    #[inline]
    fn derivative_from(x: f64, t: f64) -> f64 {
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * A * x * x)
    }

    /// Scalar forward value.
    #[inline]
    pub fn value(x: f64) -> f64 {
        Self::value_from(x, Self::inner_tanh(x))
    }

    /// Scalar derivative.
    #[inline]
    pub fn derivative(x: f64) -> f64 {
        Self::derivative_from(x, Self::inner_tanh(x))
    }

    /// `(value(x), derivative(x))` from one `tanh`, bit-identical to the
    /// two separate calls.
    #[inline]
    pub fn value_and_derivative(x: f64) -> (f64, f64) {
        let t = Self::inner_tanh(x);
        (Self::value_from(x, t), Self::derivative_from(x, t))
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        y.data_mut()
            .par_chunks_mut(CHUNK)
            .for_each(|c| c.iter_mut().for_each(|v| *v = Self::value(*v)));
        y
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_input = Some(x.clone());
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // The cached input's buffer becomes the input gradient.
        let mut gx = self
            .cache_input
            .take()
            .expect("backward called without a cached forward");
        assert_eq!(gx.dims(), grad_out.dims(), "gradient shape mismatch");
        gx.data_mut()
            .par_chunks_mut(CHUNK)
            .zip(grad_out.data().par_chunks(CHUNK))
            .for_each(|(xs, gs)| {
                for (v, &g) in xs.iter_mut().zip(gs) {
                    *v = Self::derivative(*v) * g;
                }
            });
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamMut<'_>)) {}

    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_input_gradient;

    #[test]
    fn known_values() {
        // gelu(0) = 0; gelu(+∞) → x; gelu is odd-ish around 0 only approximately.
        assert_eq!(Gelu::value(0.0), 0.0);
        assert!((Gelu::value(10.0) - 10.0).abs() < 1e-9);
        assert!(Gelu::value(-10.0).abs() < 1e-9);
        // Reference value (PyTorch tanh-approx gelu(1.0) ≈ 0.841192).
        assert!((Gelu::value(1.0) - 0.841192).abs() < 1e-5);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.2, 1.0, 2.5] {
            let eps = 1e-6;
            let num = (Gelu::value(x + eps) - Gelu::value(x - eps)) / (2.0 * eps);
            assert!(
                (Gelu::derivative(x) - num).abs() < 1e-8,
                "x={x}: {} vs {num}",
                Gelu::derivative(x)
            );
        }
    }

    #[test]
    fn value_and_derivative_match_the_separate_calls() {
        for i in -400..400 {
            let x = i as f64 * 0.0173;
            assert_eq!(Gelu::value_and_derivative(x), (Gelu::value(x), Gelu::derivative(x)));
        }
    }

    #[test]
    fn chunked_layer_is_elementwise() {
        // Several chunks plus a ragged tail, enough to fan out on the pool.
        let x = Tensor::from_fn(&[1, 3, 300, 300], |i| {
            (i[1] as f64 - 1.0) * 0.7 + (i[2] as f64 - 150.0) * 0.01 - i[3] as f64 * 0.003
        });
        let g = x.map(|v| 1.5 - v);
        let mut layer = Gelu::new();
        let y = layer.forward(&x);
        assert_eq!(y.data(), x.map(Gelu::value).data());
        assert_eq!(layer.infer(&x).data(), y.data());
        let gx = layer.backward(&g);
        assert_eq!(gx.data(), x.zip_map(&g, |xv, gv| Gelu::derivative(xv) * gv).data());
    }

    #[test]
    fn layer_gradcheck() {
        let mut layer = Gelu::new();
        let x = Tensor::from_fn(&[2, 3, 4], |i| {
            (i[0] as f64 - 0.5) * 0.8 + i[1] as f64 * 0.3 - i[2] as f64 * 0.2
        });
        check_input_gradient(&mut layer, &x, 1e-5, 1e-6);
    }

    #[test]
    fn monotone_on_positive_axis() {
        let mut prev = Gelu::value(0.0);
        for i in 1..100 {
            let v = Gelu::value(i as f64 * 0.1);
            assert!(v > prev);
            prev = v;
        }
    }
}
