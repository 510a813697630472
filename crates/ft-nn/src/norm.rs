//! Per-channel instance normalization.
//!
//! `neuraloperator`-style FNO stacks optionally insert a normalization
//! between Fourier layers; this layer provides that variant for the
//! architecture ablation (`ablation_norm`): every (batch, channel) plane is
//! standardized over its spatial extent and rescaled by learnable
//! per-channel affine parameters,
//! `y = γ_c · (x − μ_{b,c}) / √(σ²_{b,c} + ε) + β_c`.

use ft_tensor::Tensor;

use crate::param::{Param, ParamMut};
use crate::Layer;

/// Instance normalization over the spatial axes with per-channel affine.
#[derive(Clone)]
pub struct InstanceNorm {
    channels: usize,
    eps: f64,
    /// Per-channel scale γ, initialized to 1.
    pub gamma: Param,
    /// Per-channel shift β, initialized to 0.
    pub beta: Param,
    cache: Option<Cache>,
}

#[derive(Clone)]
struct Cache {
    /// Standardized activations x̂.
    xhat: Tensor,
    /// 1/√(σ² + ε) per (b, c) group.
    inv_std: Vec<f64>,
}

impl InstanceNorm {
    /// A fresh normalization layer for `channels` channels.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        InstanceNorm {
            channels,
            eps: 1e-6,
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn stats(&self, x: &Tensor) -> (Tensor, Vec<f64>) {
        let dims = x.dims();
        assert!(dims.len() >= 3, "InstanceNorm expects [B, C, *spatial]");
        assert_eq!(dims[1], self.channels, "channel mismatch");
        let groups = dims[0] * dims[1];
        let n: usize = dims[2..].iter().product();
        assert!(n > 1, "need more than one spatial point to normalize");

        let mut xhat = Tensor::zeros(dims);
        let mut inv_std = Vec::with_capacity(groups);
        let xd = x.data();
        let od = xhat.data_mut();
        for g in 0..groups {
            let seg = g * n..(g + 1) * n;
            let mean: f64 = xd[seg.clone()].iter().sum::<f64>() / n as f64;
            let var: f64 =
                xd[seg.clone()].iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            let is = 1.0 / (var + self.eps).sqrt();
            inv_std.push(is);
            for i in seg {
                od[i] = (xd[i] - mean) * is;
            }
        }
        (xhat, inv_std)
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (xhat, _) = self.stats(x);
        self.affine(&xhat)
    }

    fn affine(&self, xhat: &Tensor) -> Tensor {
        let dims = xhat.dims();
        let n: usize = dims[2..].iter().product();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let mut y = xhat.clone();
        for (gi, seg) in y.data_mut().chunks_mut(n).enumerate() {
            let c = gi % self.channels;
            for v in seg {
                *v = g[c] * *v + b[c];
            }
        }
        y
    }
}

impl Layer for InstanceNorm {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (xhat, inv_std) = self.stats(x);
        let y = self.affine(&xhat);
        self.cache = Some(Cache { xhat, inv_std });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Cache { xhat, inv_std } =
            self.cache.take().expect("backward called without a cached forward");
        let dims = xhat.dims().to_vec();
        let n: usize = dims[2..].iter().product();
        let groups = dims[0] * dims[1];
        assert_eq!(grad_out.dims(), &dims[..], "gradient shape mismatch");

        let g = grad_out.data();
        let xh = xhat.data();
        let gamma = self.gamma.value.data();

        // Parameter gradients.
        {
            let gg = self.gamma.grad.data_mut();
            let gb = self.beta.grad.data_mut();
            for gi in 0..groups {
                let c = gi % self.channels;
                let seg = gi * n..(gi + 1) * n;
                let mut sg = 0.0;
                let mut sgx = 0.0;
                for i in seg {
                    sg += g[i];
                    sgx += g[i] * xh[i];
                }
                gb[c] += sg;
                gg[c] += sgx;
            }
        }

        // Input gradient: (γ·is)·(g − mean(g) − x̂·mean(g·x̂)) per group.
        let mut gx = Tensor::zeros(&dims);
        let od = gx.data_mut();
        for gi in 0..groups {
            let c = gi % self.channels;
            let seg = gi * n..(gi + 1) * n;
            let mut mg = 0.0;
            let mut mgx = 0.0;
            for i in seg.clone() {
                mg += g[i];
                mgx += g[i] * xh[i];
            }
            mg /= n as f64;
            mgx /= n as f64;
            let scale = gamma[c] * inv_std[gi];
            for i in seg {
                od[i] = scale * (g[i] - mg - xh[i] * mgx);
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut::Real(&mut self.gamma));
        f(ParamMut::Real(&mut self.beta));
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input(b: usize, c: usize, n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(&[b, c, n, n], &rand::distributions::Uniform::new(-2.0, 2.0), &mut rng)
    }

    #[test]
    fn output_is_standardized_per_group_at_identity_affine() {
        let mut norm = InstanceNorm::new(3);
        let x = input(2, 3, 4, 0);
        let y = norm.forward(&x);
        let n = 16;
        for g in 0..6 {
            let seg = &y.data()[g * n..(g + 1) * n];
            let mean: f64 = seg.iter().sum::<f64>() / n as f64;
            let var: f64 = seg.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 1e-12, "group {g} mean {mean}");
            assert!((var - 1.0).abs() < 1e-5, "group {g} var {var}");
        }
    }

    #[test]
    fn affine_parameters_apply_per_channel() {
        let mut norm = InstanceNorm::new(2);
        norm.gamma.value = Tensor::from_vec(&[2], vec![2.0, 0.5]);
        norm.beta.value = Tensor::from_vec(&[2], vec![1.0, -1.0]);
        let x = input(1, 2, 4, 1);
        let y = norm.forward(&x);
        let n = 16;
        let c0: f64 = y.data()[..n].iter().sum::<f64>() / n as f64;
        let c1: f64 = y.data()[n..2 * n].iter().sum::<f64>() / n as f64;
        assert!((c0 - 1.0).abs() < 1e-10, "channel 0 mean should be β₀");
        assert!((c1 + 1.0).abs() < 1e-10, "channel 1 mean should be β₁");
    }

    #[test]
    fn gradcheck_instance_norm() {
        let mut norm = InstanceNorm::new(2);
        // Non-trivial affine so both parameter paths carry gradient.
        norm.gamma.value = Tensor::from_vec(&[2], vec![1.3, 0.7]);
        norm.beta.value = Tensor::from_vec(&[2], vec![0.2, -0.4]);
        let x = input(2, 2, 3, 2);
        check_param_gradients(&mut norm, &x, 1e-5, 5e-5);
        check_input_gradient(&mut norm, &x, 1e-5, 5e-5);
    }
}
