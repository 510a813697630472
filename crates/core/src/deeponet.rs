//! DeepONet comparison architecture (Lu et al., Nat. Mach. Intell. 2021).
//!
//! The paper's Sec. II surveys operator-learning architectures — DeepONet
//! among them — before selecting the FNO. This module implements a plain
//! unstacked DeepONet for the same snapshot-forecasting task so the choice
//! can be tested empirically (`ext_deeponet`):
//!
//! * **branch** net: an MLP on the flattened input snapshots
//!   `u ∈ R^{C_in·H·W} → R^{p·C_out}`;
//! * **trunk** net: an MLP on the query coordinate `(x, y) ∈ [0,1)² → R^p`,
//!   evaluated at every grid point;
//! * output: `G(u)(x)_o = Σ_k branch_{o,k}(u) · trunk_k(x) + b_o`.
//!
//! Unlike the FNO, the branch input dimension is tied to the training grid
//! (no resolution transfer) and translation equivariance must be *learned*
//! rather than inherited from the spectral parameterization — exactly the
//! structural advantages the paper's choice of FNO buys.

use ft_nn::{Gelu, Layer, Linear, ParamMut};
use ft_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::FnoKind;
use crate::model::ForecastModel;

/// DeepONet configuration.
#[derive(Clone, Debug)]
pub struct DeepONetConfig {
    /// Input snapshots (branch input is `in_channels · grid²`).
    pub in_channels: usize,
    /// Output snapshots.
    pub out_channels: usize,
    /// Training grid side (the branch net is tied to it).
    pub grid: usize,
    /// Hidden width of both MLPs.
    pub hidden: usize,
    /// Number of basis functions p (the branch/trunk inner dimension).
    pub basis: usize,
}

impl DeepONetConfig {
    /// Exact parameter count (all-real parameters).
    pub fn param_count(&self) -> usize {
        let d = self.in_channels * self.grid * self.grid;
        let h = self.hidden;
        let p = self.basis;
        let branch = (d * h + h) + (h * h + h) + (h * p * self.out_channels + p * self.out_channels);
        let trunk = (2 * h + h) + (h * h + h) + (h * p + p);
        branch + trunk + self.out_channels
    }
}

/// An unstacked DeepONet over 2D snapshot stacks.
#[derive(Clone)]
pub struct DeepONet {
    cfg: DeepONetConfig,
    branch1: Linear,
    branch_act1: Gelu,
    branch2: Linear,
    branch_act2: Gelu,
    branch3: Linear,
    trunk1: Linear,
    trunk_act1: Gelu,
    trunk2: Linear,
    trunk_act2: Gelu,
    trunk3: Linear,
    /// Output bias per output channel.
    bias: ft_nn::Param,
    /// Grid coordinates, `[1, 2, H·W]` (built once).
    coords: Tensor,
    cache: Option<Cache>,
}

#[derive(Clone)]
struct Cache {
    /// Branch output `[B, p·C_out, 1]`.
    b_out: Tensor,
    /// Trunk output `[1, p, H·W]`.
    t_out: Tensor,
    input_dims: Vec<usize>,
}

impl DeepONet {
    /// Builds a DeepONet, deterministically initialized from `seed`.
    pub fn new(cfg: DeepONetConfig, seed: u64) -> Self {
        assert!(cfg.basis >= 1 && cfg.hidden >= 1, "degenerate configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.in_channels * cfg.grid * cfg.grid;
        let branch1 = Linear::new(d, cfg.hidden, &mut rng);
        let branch2 = Linear::new(cfg.hidden, cfg.hidden, &mut rng);
        let branch3 = Linear::new(cfg.hidden, cfg.basis * cfg.out_channels, &mut rng);
        let trunk1 = Linear::new(2, cfg.hidden, &mut rng);
        let trunk2 = Linear::new(cfg.hidden, cfg.hidden, &mut rng);
        let trunk3 = Linear::new(cfg.hidden, cfg.basis, &mut rng);
        let n = cfg.grid;
        let coords = Tensor::from_fn(&[1, 2, n * n], |i| {
            let (y, x) = (i[2] / n, i[2] % n);
            if i[1] == 0 {
                x as f64 / n as f64
            } else {
                y as f64 / n as f64
            }
        });
        DeepONet {
            bias: ft_nn::Param::new(Tensor::zeros(&[cfg.out_channels])),
            cfg,
            branch1,
            branch_act1: Gelu::new(),
            branch2,
            branch_act2: Gelu::new(),
            branch3,
            trunk1,
            trunk_act1: Gelu::new(),
            trunk2,
            trunk_act2: Gelu::new(),
            trunk3,
            coords,
            cache: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DeepONetConfig {
        &self.cfg
    }

    fn check_input(&self, x: &Tensor) -> (usize, usize) {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "expected [B, C, H, W]");
        assert_eq!(dims[1], self.cfg.in_channels, "input channels");
        assert_eq!(dims[2], self.cfg.grid, "DeepONet branch is tied to its training grid");
        assert_eq!(dims[3], self.cfg.grid, "DeepONet branch is tied to its training grid");
        (dims[0], dims[2] * dims[3])
    }

    /// Combines branch `[B, p·C_out, 1]` and trunk `[1, p, S]` into
    /// `[B, C_out, H, W]`.
    fn combine(&self, b_out: &Tensor, t_out: &Tensor, batch: usize, s: usize) -> Tensor {
        let (p, c_out) = (self.cfg.basis, self.cfg.out_channels);
        let n = self.cfg.grid;
        let mut y = Tensor::zeros(&[batch, c_out, n, n]);
        let bd = b_out.data();
        let td = t_out.data();
        let bias = self.bias.value.data();
        let yd = y.data_mut();
        for b in 0..batch {
            for o in 0..c_out {
                let out_off = (b * c_out + o) * s;
                for k in 0..p {
                    let coeff = bd[b * (p * c_out) + o * p + k];
                    if coeff == 0.0 {
                        continue;
                    }
                    let trow = &td[k * s..(k + 1) * s];
                    for (i, &tv) in trow.iter().enumerate() {
                        yd[out_off + i] += coeff * tv;
                    }
                }
                for i in 0..s {
                    yd[out_off + i] += bias[o];
                }
            }
        }
        y
    }

    fn branch_forward(&mut self, flat: &Tensor) -> Tensor {
        let h = self.branch1.forward(flat);
        let h = self.branch_act1.forward(&h);
        let h = self.branch2.forward(&h);
        let h = self.branch_act2.forward(&h);
        self.branch3.forward(&h)
    }

    fn trunk_forward(&mut self) -> Tensor {
        let coords = self.coords.clone();
        let h = self.trunk1.forward(&coords);
        let h = self.trunk_act1.forward(&h);
        let h = self.trunk2.forward(&h);
        let h = self.trunk_act2.forward(&h);
        self.trunk3.forward(&h)
    }

    fn branch_infer(&self, flat: &Tensor) -> Tensor {
        let h = self.branch1.infer(flat);
        let h = self.branch_act1.infer(&h);
        let h = self.branch2.infer(&h);
        let h = self.branch_act2.infer(&h);
        self.branch3.infer(&h)
    }

    fn trunk_infer(&self) -> Tensor {
        let h = self.trunk1.infer(&self.coords);
        let h = self.trunk_act1.infer(&h);
        let h = self.trunk2.infer(&h);
        let h = self.trunk_act2.infer(&h);
        self.trunk3.infer(&h)
    }
}

impl Layer for DeepONet {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (batch, s) = self.check_input(x);
        let d = self.cfg.in_channels * s;
        let flat = x.clone().reshape(&[batch, d, 1]);
        let b_out = self.branch_forward(&flat);
        let t_out = self.trunk_forward();
        let y = self.combine(&b_out, &t_out, batch, s);
        self.cache = Some(Cache { b_out, t_out, input_dims: x.dims().to_vec() });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Cache { b_out, t_out, input_dims } =
            self.cache.take().expect("backward called without a cached forward");
        let batch = input_dims[0];
        let s = input_dims[2] * input_dims[3];
        let (p, c_out) = (self.cfg.basis, self.cfg.out_channels);
        assert_eq!(grad_out.dims(), &[batch, c_out, input_dims[2], input_dims[3]][..]);

        let g = grad_out.data();
        let bd = b_out.data();
        let td = t_out.data();

        // Bilinear combine: gradients to branch, trunk, bias.
        let mut gb = Tensor::zeros(b_out.dims());
        let mut gt = Tensor::zeros(t_out.dims());
        {
            let gbd = gb.data_mut();
            let gtd = gt.data_mut();
            let gbias = self.bias.grad.data_mut();
            for b in 0..batch {
                for o in 0..c_out {
                    let gseg = &g[(b * c_out + o) * s..(b * c_out + o + 1) * s];
                    gbias[o] += gseg.iter().sum::<f64>();
                    for k in 0..p {
                        let trow = &td[k * s..(k + 1) * s];
                        let mut acc = 0.0;
                        for (gv, tv) in gseg.iter().zip(trow) {
                            acc += gv * tv;
                        }
                        gbd[b * (p * c_out) + o * p + k] += acc;
                        let coeff = bd[b * (p * c_out) + o * p + k];
                        let grow = &mut gtd[k * s..(k + 1) * s];
                        for (gt_v, gv) in grow.iter_mut().zip(gseg) {
                            *gt_v += coeff * gv;
                        }
                    }
                }
            }
        }

        // Backprop the two MLPs (trunk input gradient is discarded — the
        // coordinates are constants).
        let gb = self.branch3.backward(&gb);
        let gb = self.branch_act2.backward(&gb);
        let gb = self.branch2.backward(&gb);
        let gb = self.branch_act1.backward(&gb);
        let gflat = self.branch1.backward(&gb);

        let gt = self.trunk3.backward(&gt);
        let gt = self.trunk_act2.backward(&gt);
        let gt = self.trunk2.backward(&gt);
        let gt = self.trunk_act1.backward(&gt);
        let _ = self.trunk1.backward(&gt);

        gflat.reshape(&input_dims)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        self.branch1.visit_params(f);
        self.branch2.visit_params(f);
        self.branch3.visit_params(f);
        self.trunk1.visit_params(f);
        self.trunk2.visit_params(f);
        self.trunk3.visit_params(f);
        f(ParamMut::Real(&mut self.bias));
    }

    fn param_count(&self) -> usize {
        self.branch1.param_count()
            + self.branch2.param_count()
            + self.branch3.param_count()
            + self.trunk1.param_count()
            + self.trunk2.param_count()
            + self.trunk3.param_count()
            + self.cfg.out_channels
    }
}

impl ForecastModel for DeepONet {
    fn infer(&self, x: &Tensor) -> Tensor {
        let (batch, s) = self.check_input(x);
        let d = self.cfg.in_channels * s;
        let flat = x.clone().reshape(&[batch, d, 1]);
        let b_out = self.branch_infer(&flat);
        let t_out = self.trunk_infer();
        self.combine(&b_out, &t_out, batch, s)
    }

    fn layout(&self) -> FnoKind {
        FnoKind::TwoDChannels
    }

    fn in_channels(&self) -> usize {
        self.cfg.in_channels
    }

    fn out_channels(&self) -> usize {
        self.cfg.out_channels
    }

    fn replicate(&self) -> Option<Box<dyn ForecastModel + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_nn::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::distributions::Uniform;

    fn tiny() -> DeepONetConfig {
        DeepONetConfig { in_channels: 2, out_channels: 2, grid: 6, hidden: 5, basis: 3 }
    }

    fn input(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(&[2, 2, 6, 6], &Uniform::new(-1.0, 1.0), &mut rng)
    }

    #[test]
    fn shapes_and_param_count() {
        let cfg = tiny();
        let model = DeepONet::new(cfg.clone(), 0);
        assert_eq!(model.param_count(), cfg.param_count());
        let y = model.infer(&input(1));
        assert_eq!(y.dims(), &[2, 2, 6, 6]);
        assert!(y.all_finite());
    }

    #[test]
    fn infer_matches_forward() {
        let mut m = DeepONet::new(tiny(), 2);
        let x = input(3);
        let a = m.infer(&x);
        let b = m.forward(&x);
        assert!(a.allclose(&b, 1e-12));
    }

    #[test]
    fn gradcheck_full_model() {
        let mut m = DeepONet::new(tiny(), 4);
        let x = input(5);
        check_param_gradients(&mut m, &x, 1e-5, 3e-5);
        check_input_gradient(&mut m, &x, 1e-5, 3e-5);
    }

    #[test]
    fn trains_with_the_generic_trainer() {
        use crate::train::{TrainConfig, Trainer};
        use ft_data::Pair;
        // A rank-1 operator (the bottleneck p = 3 cannot represent the
        // identity): target = fixed spatial pattern × mean(input).
        let pattern = Tensor::from_fn(&[2, 6, 6], |idx| {
            ((idx[1] as f64 * 0.9) + (idx[2] as f64 * 0.5)).sin() + 1.5
        });
        let pairs: Vec<Pair> = (0..6)
            .map(|i| {
                let f = Tensor::from_fn(&[2, 6, 6], |idx| {
                    ((idx[0] + idx[1] * 2 + idx[2]) as f64 * 0.4 + i as f64 * 0.3).sin() + 0.3
                });
                let target = pattern.scale(f.mean());
                Pair { input: f, target }
            })
            .collect();
        let model = DeepONet::new(tiny(), 6);
        let cfg = TrainConfig { epochs: 60, batch_size: 3, lr: 5e-3, ..Default::default() };
        let mut trainer = Trainer::new(model, cfg);
        let report = trainer.train(&pairs, &pairs[..2]);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < 0.5 * first, "loss must fall: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "tied to its training grid")]
    fn rejects_other_resolutions() {
        let m = DeepONet::new(tiny(), 0);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::random(&[1, 2, 12, 12], &Uniform::new(-1.0, 1.0), &mut rng);
        m.infer(&x);
    }
}
