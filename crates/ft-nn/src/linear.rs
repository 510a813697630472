//! Pointwise (1×1) channel-mixing linear layer.
//!
//! Acts independently at every grid point of an input `[B, C_in, *spatial]`:
//! `y[b, o, p] = Σ_i W[o, i] x[b, i, p] + bias[o]`. This is simultaneously
//! the `nn.Linear` of the lifting/projection MLPs (which run fused, see
//! [`crate::mlp`]) and the `Conv(1×1)` local term of each Fourier layer —
//! they are the same map on channel vectors.

use ft_tensor::Tensor;
use rand::distributions::Uniform;
use rand::Rng;
use rayon::prelude::*;

use crate::param::{Param, ParamMut};
use crate::Layer;

/// Pointwise linear layer `C_in → C_out` with bias.
#[derive(Clone)]
pub struct Linear {
    c_in: usize,
    c_out: usize,
    /// Weight `[C_out, C_in]`.
    pub weight: Param,
    /// Bias `[C_out]`.
    pub bias: Param,
    cache_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-uniform initialization (the PyTorch `nn.Linear` default):
    /// `U(−1/√C_in, 1/√C_in)` for both weight and bias.
    pub fn new(c_in: usize, c_out: usize, rng: &mut impl Rng) -> Self {
        assert!(c_in > 0 && c_out > 0, "channel counts must be positive");
        let bound = 1.0 / (c_in as f64).sqrt();
        let dist = Uniform::new(-bound, bound);
        Linear {
            c_in,
            c_out,
            weight: Param::new(Tensor::random(&[c_out, c_in], &dist, rng)),
            bias: Param::new(Tensor::random(&[c_out], &dist, rng)),
            cache_input: None,
        }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.apply(x)
    }

    fn apply(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert!(dims.len() >= 2, "Linear expects [B, C, *spatial]");
        assert_eq!(dims[1], self.c_in, "input channels {} != layer c_in {}", dims[1], self.c_in);
        let b = dims[0];
        let p: usize = dims[2..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims[1] = self.c_out;

        let w = self.weight.value.data();
        let bias = self.bias.value.data();
        let xd = x.data();
        let mut out = Tensor::zeros(&out_dims);
        // Parallel over (batch, out-channel) planes; inner loop streams the
        // spatial points contiguously.
        out.data_mut()
            .par_chunks_mut(p)
            .enumerate()
            .for_each(|(plane, dst)| {
                let bi = plane / self.c_out;
                let o = plane % self.c_out;
                let _ = b;
                dst.iter_mut().for_each(|v| *v = bias[o]);
                for i in 0..self.c_in {
                    let wv = w[o * self.c_in + i];
                    if wv == 0.0 {
                        continue;
                    }
                    let src = &xd[(bi * self.c_in + i) * p..(bi * self.c_in + i + 1) * p];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += wv * s;
                    }
                }
            });
        out
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.apply(x);
        self.cache_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_input
            .take()
            .expect("backward called without a cached forward");
        let dims = x.dims();
        let b = dims[0];
        let p: usize = dims[2..].iter().product();
        assert_eq!(grad_out.dims()[0], b, "batch mismatch");
        assert_eq!(grad_out.dims()[1], self.c_out, "output-channel mismatch");

        let g = grad_out.data();
        let xd = x.data();
        let w = self.weight.value.data();

        // Parameter gradients.
        {
            let gw = self.weight.grad.data_mut();
            let gb = self.bias.grad.data_mut();
            for bi in 0..b {
                for o in 0..self.c_out {
                    let gseg = &g[(bi * self.c_out + o) * p..(bi * self.c_out + o + 1) * p];
                    gb[o] += gseg.iter().sum::<f64>();
                    for i in 0..self.c_in {
                        let xseg = &xd[(bi * self.c_in + i) * p..(bi * self.c_in + i + 1) * p];
                        let mut acc = 0.0;
                        for (&gv, &xv) in gseg.iter().zip(xseg) {
                            acc += gv * xv;
                        }
                        gw[o * self.c_in + i] += acc;
                    }
                }
            }
        }

        // Input gradient: dX[b, i, p] = Σ_o W[o, i] g[b, o, p].
        let mut gx = Tensor::zeros(dims);
        gx.data_mut()
            .par_chunks_mut(p)
            .enumerate()
            .for_each(|(plane, dst)| {
                let bi = plane / self.c_in;
                let i = plane % self.c_in;
                for o in 0..self.c_out {
                    let wv = w[o * self.c_in + i];
                    if wv == 0.0 {
                        continue;
                    }
                    let gseg = &g[(bi * self.c_out + o) * p..(bi * self.c_out + o + 1) * p];
                    for (d, &gv) in dst.iter_mut().zip(gseg) {
                        *d += wv * gv;
                    }
                }
            });
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut::Real(&mut self.weight));
        f(ParamMut::Real(&mut self.bias));
    }

    fn param_count(&self) -> usize {
        self.c_out * self.c_in + self.c_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(2, 3, &mut rng);
        layer.weight.value = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        layer.bias.value = Tensor::from_vec(&[3], vec![0.1, 0.2, 0.3]);
        // One batch entry, 2 channels, 2 spatial points.
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 10.0, 20.0]);
        let y = layer.forward(&x);
        assert_eq!(y.dims(), &[1, 3, 2]);
        // y[0,0,:] = 1·[1,2] + 2·[10,20] + 0.1
        assert!((y.at(&[0, 0, 0]) - 21.1).abs() < 1e-12);
        assert!((y.at(&[0, 0, 1]) - 42.1).abs() < 1e-12);
        // y[0,2,:] = 5·[1,2] + 6·[10,20] + 0.3
        assert!((y.at(&[0, 2, 1]) - 130.3).abs() < 1e-12);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(10, 256, &mut rng);
        assert_eq!(layer.param_count(), 10 * 256 + 256);
    }

    #[test]
    fn gradcheck_weights_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::random(&[2, 3, 4], &rand::distributions::Uniform::new(-1.0, 1.0), &mut rng);
        check_param_gradients(&mut layer, &x, 1e-5, 2e-6);
    }

    #[test]
    fn gradcheck_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(2, 4, &mut rng);
        let x = Tensor::random(&[2, 2, 5], &rand::distributions::Uniform::new(-1.0, 1.0), &mut rng);
        check_input_gradient(&mut layer, &x, 1e-5, 2e-6);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::full(&[1, 2, 3], 1.0);
        let y = layer.forward(&x);
        let _ = layer.backward(&Tensor::full(y.dims(), 1.0));
        assert!(layer.weight.grad.norm_l2() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.weight.grad.norm_l2(), 0.0);
        assert_eq!(layer.bias.grad.norm_l2(), 0.0);
    }

    #[test]
    fn infer_equals_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(3, 3, &mut rng);
        let x = Tensor::random(&[1, 3, 7], &rand::distributions::Uniform::new(-1.0, 1.0), &mut rng);
        let a = layer.infer(&x);
        let b = layer.forward(&x);
        assert!(a.allclose(&b, 0.0));
    }
}
