//! The FNO model: lifting MLP → L Fourier layers → projection MLP. Both
//! MLPs are fused, tiled [`PointwiseMlp`] layers.
//!
//! One struct covers both paper variants: the input rank decides whether
//! the spectral convolutions transform 2 axes (`[B, C, H, W]`, temporal
//! channels) or 3 (`[B, 1, X, Y, T]`).

use std::path::Path;

use ft_nn::{Gelu, InstanceNorm, Layer, Linear, ParamMut, PointwiseMlp, SpectralConv};
use ft_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{Checkpoint, CheckpointError, ModelMeta};
use crate::config::{FnoConfig, FnoKind};

/// A trained (or trainable) forecasting operator: the interface the
/// trainer, rollout, and hybrid machinery need beyond [`Layer`]. The FNO is
/// the paper's instance; `fno_core::deeponet::DeepONet` is the comparison
/// architecture from the related-work discussion.
pub trait ForecastModel: Layer {
    /// Inference without gradient caching.
    fn infer(&self, x: &Tensor) -> Tensor;
    /// Batch layout the model consumes (2D-with-channels or 3D blocks).
    fn layout(&self) -> FnoKind;
    /// Input snapshot channels.
    fn in_channels(&self) -> usize;
    /// Output snapshot channels.
    fn out_channels(&self) -> usize;
    /// Batched inference entry point for the serving path: takes
    /// `[B, C, ...]` and returns `[B, C_out, ...]` without allocating any
    /// gradient tape (see `no_tape_forward` test coverage). The default
    /// delegates to [`ForecastModel::infer`], which is already tape-free.
    fn forward_inference(&self, batch: &Tensor) -> Tensor {
        self.infer(batch)
    }
    /// Architecture self-description for checkpoint embedding (`None`
    /// when the implementation cannot describe itself; `grid` is left 0
    /// for the caller to fill in).
    fn model_meta(&self) -> Option<ModelMeta> {
        None
    }
    /// A structural copy of this model (weights and gradient accumulators
    /// included) for the trainer's data-parallel replicas. Every model the
    /// trainer accepts must return `Some`; the `Option` only keeps callers
    /// that `expect` it unchanged.
    fn replicate(&self) -> Option<Box<dyn ForecastModel + Send>>;
}

/// A Fourier neural operator (2D-with-channels or 3D).
#[derive(Clone)]
pub struct Fno {
    config: FnoConfig,
    lift: PointwiseMlp,
    spectral: Vec<SpectralConv>,
    local: Vec<Linear>,
    norms: Vec<InstanceNorm>,
    acts: Vec<Gelu>,
    proj: PointwiseMlp,
}

impl Fno {
    /// Builds a model with the given configuration, deterministically
    /// initialized from `seed`.
    pub fn new(config: FnoConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = config.width;
        let lift = PointwiseMlp::new(config.in_channels, config.lifting_channels, w, &mut rng);
        let mut spectral = Vec::with_capacity(config.layers);
        let mut local = Vec::with_capacity(config.layers);
        let mut norms = Vec::new();
        let mut acts = Vec::with_capacity(config.layers);
        for _ in 0..config.layers {
            spectral.push(match config.kind {
                FnoKind::TwoDChannels => SpectralConv::new_2d(w, w, config.modes, &mut rng),
                FnoKind::ThreeD => SpectralConv::new_3d(w, w, config.modes, &mut rng),
            });
            local.push(Linear::new(w, w, &mut rng));
            if config.norm {
                norms.push(InstanceNorm::new(w));
            }
            acts.push(Gelu::new());
        }
        let proj =
            PointwiseMlp::new(w, config.projection_channels, config.out_channels, &mut rng);
        Fno { config, lift, spectral, local, norms, acts, proj }
    }

    /// The model configuration.
    pub fn config(&self) -> &FnoConfig {
        &self.config
    }

    /// Saves the model as an `FTC1` model file: the architecture metadata
    /// and the weights, with an empty training state (see
    /// [`Checkpoint::model_file`]).
    pub fn save(&mut self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let meta = ModelMeta::from_config(&self.config, 0);
        Checkpoint::model_file(meta, ft_nn::snapshot_params(self)).save(path)
    }

    /// Loads a model from any `FTC1` file that carries model metadata — an
    /// [`Fno::save`] model file or a trainer's `latest.ftc`, whose training
    /// state is ignored. The metadata is validated first, then every stored
    /// tensor is checked against the rebuilt architecture, and only then
    /// are the weights restored: a file that does not fit is a typed
    /// [`CheckpointError`], never a panic.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let ck = Checkpoint::load(path)?;
        let config = ck.meta.as_ref().ok_or(CheckpointError::MetaMissing)?.to_config();
        ck.validate_meta(&config)?;
        let mut model = Fno::new(config, 0);
        ck.check_params(&mut model)?;
        ft_nn::restore_params(&mut model, &ck.params);
        Ok(model)
    }

    /// Inference without gradient caching.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.check_input(x);
        let mut h = self.lift.infer(x);
        let last = self.spectral.len() - 1;
        for (i, (s, c)) in self.spectral.iter().zip(&self.local).enumerate() {
            let mut y = s.infer(&h);
            y.add_assign(&c.infer(&h));
            if let Some(norm) = self.norms.get(i) {
                y = norm.infer(&y);
            }
            h = if i < last { self.acts[i].infer(&y) } else { y };
        }
        self.proj.infer(&h)
    }

    fn check_input(&self, x: &Tensor) {
        let expect_rank = 2 + self.config.ndim();
        assert_eq!(
            x.shape().rank(),
            expect_rank,
            "expected rank-{expect_rank} input for this model kind"
        );
        assert_eq!(x.dims()[1], self.config.in_channels, "input channel count");
    }
}

impl ForecastModel for Fno {
    fn infer(&self, x: &Tensor) -> Tensor {
        Fno::infer(self, x)
    }
    fn layout(&self) -> FnoKind {
        self.config.kind
    }
    fn in_channels(&self) -> usize {
        self.config.in_channels
    }
    fn out_channels(&self) -> usize {
        self.config.out_channels
    }
    fn model_meta(&self) -> Option<ModelMeta> {
        Some(ModelMeta::from_config(&self.config, 0))
    }
    fn replicate(&self) -> Option<Box<dyn ForecastModel + Send>> {
        Some(Box::new(self.clone()))
    }
}

impl Layer for Fno {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.check_input(x);
        let mut h = self.lift.forward(x);
        let last = self.spectral.len() - 1;
        for i in 0..self.spectral.len() {
            // Both branches consume h; backward will need nothing beyond
            // what each branch caches itself.
            let mut y = self.spectral[i].forward(&h);
            y.add_assign(&self.local[i].forward(&h));
            if let Some(norm) = self.norms.get_mut(i) {
                y = norm.forward(&y);
            }
            h = if i < last { self.acts[i].forward(&y) } else { y };
        }
        self.proj.forward(&h)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.proj.backward(grad_out);
        let last = self.spectral.len() - 1;
        for i in (0..self.spectral.len()).rev() {
            let mut gy = if i < last { self.acts[i].backward(&g) } else { g };
            if let Some(norm) = self.norms.get_mut(i) {
                gy = norm.backward(&gy);
            }
            let mut gh = self.spectral[i].backward(&gy);
            gh.add_assign(&self.local[i].backward(&gy));
            g = gh;
        }
        self.lift.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        self.lift.visit_params(f);
        for (i, (s, c)) in self.spectral.iter_mut().zip(&mut self.local).enumerate() {
            s.visit_params(f);
            c.visit_params(f);
            if let Some(norm) = self.norms.get_mut(i) {
                norm.visit_params(f);
            }
        }
        self.proj.visit_params(f);
    }

    fn param_count(&self) -> usize {
        let mut n = self.lift.param_count();
        for (s, c) in self.spectral.iter().zip(&self.local) {
            n += s.param_count() + c.param_count();
        }
        for norm in &self.norms {
            n += norm.param_count();
        }
        n + self.proj.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_nn::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::distributions::Uniform;

    fn tiny2d() -> FnoConfig {
        FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 3,
            layers: 2,
            modes: 2,
            in_channels: 2,
            out_channels: 2,
            lifting_channels: 4,
            projection_channels: 4,
        norm: false,
        }
    }

    fn rand_input(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(dims, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    #[test]
    fn structural_param_count_matches_formula() {
        for (label, cfg, expected) in FnoConfig::table1() {
            // Building the 223M-param model just to count would be slow;
            // check the two small Table I rows structurally and the rest via
            // the closed form (covered in config tests).
            if expected < 10_000_000 {
                let model = Fno::new(cfg.clone(), 0);
                assert_eq!(model.param_count(), expected, "{label}");
            }
        }
    }

    #[test]
    fn forward_shapes_2d_and_3d() {
        let m2 = Fno::new(tiny2d(), 1);
        let y = m2.infer(&rand_input(&[2, 2, 8, 8], 0));
        assert_eq!(y.dims(), &[2, 2, 8, 8]);

        let cfg3 = FnoConfig {
            kind: FnoKind::ThreeD,
            width: 2,
            layers: 2,
            modes: 2,
            in_channels: 1,
            out_channels: 1,
            lifting_channels: 4,
            projection_channels: 4,
        norm: false,
        };
        let m3 = Fno::new(cfg3, 2);
        let y3 = m3.infer(&rand_input(&[1, 1, 6, 6, 4], 1));
        assert_eq!(y3.dims(), &[1, 1, 6, 6, 4]);
    }

    /// Every model file and checkpoint is a flat parameter list in
    /// `visit_params` order; these are the kinds and shapes files written
    /// before the lifting and projection MLPs were fused carry, so such
    /// files keep loading.
    #[test]
    fn param_list_matches_the_pre_fusion_layout() {
        let cfg = FnoConfig {
            lifting_channels: 5,
            projection_channels: 6,
            out_channels: 1,
            norm: true,
            ..tiny2d()
        };
        let got: Vec<(bool, Vec<usize>)> = ft_nn::snapshot_params(&mut Fno::new(cfg, 0))
            .iter()
            .map(|p| match p {
                ft_nn::ParamValue::Real(t) => (false, t.dims().to_vec()),
                ft_nn::ParamValue::Complex(t) => (true, t.dims().to_vec()),
            })
            .collect();
        let real = |d: &[usize]| (false, d.to_vec());
        let layer = [
            (true, vec![3, 3, 2, 2]),
            (true, vec![3, 3, 2, 2]),
            real(&[3, 3]),
            real(&[3]),
            real(&[3]),
            real(&[3]),
        ];
        let mut want = vec![real(&[5, 2]), real(&[5]), real(&[3, 5]), real(&[3])];
        want.extend(layer.iter().cloned());
        want.extend(layer.iter().cloned());
        want.extend([real(&[6, 3]), real(&[6]), real(&[1, 6]), real(&[1])]);
        assert_eq!(got, want);
    }

    #[test]
    fn infer_matches_forward() {
        let mut m = Fno::new(tiny2d(), 3);
        let x = rand_input(&[1, 2, 8, 8], 2);
        let a = m.infer(&x);
        let b = m.forward(&x);
        assert!(a.allclose(&b, 1e-12));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Fno::new(tiny2d(), 7);
        let b = Fno::new(tiny2d(), 7);
        let c = Fno::new(tiny2d(), 8);
        let x = rand_input(&[1, 2, 8, 8], 3);
        assert!(a.infer(&x).allclose(&b.infer(&x), 0.0));
        assert!(!a.infer(&x).allclose(&c.infer(&x), 1e-9));
    }

    #[test]
    fn full_model_gradcheck_2d() {
        let mut m = Fno::new(tiny2d(), 4);
        let x = rand_input(&[1, 2, 6, 6], 5);
        check_param_gradients(&mut m, &x, 1e-5, 2e-5);
        check_input_gradient(&mut m, &x, 1e-5, 2e-5);
    }

    #[test]
    fn full_model_gradcheck_3d() {
        let cfg = FnoConfig {
            kind: FnoKind::ThreeD,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 1,
            out_channels: 1,
            lifting_channels: 3,
            projection_channels: 3,
        norm: false,
        };
        let mut m = Fno::new(cfg, 6);
        let x = rand_input(&[1, 1, 4, 4, 4], 7);
        check_param_gradients(&mut m, &x, 1e-5, 2e-5);
        check_input_gradient(&mut m, &x, 1e-5, 2e-5);
    }

    #[test]
    fn one_adam_step_reduces_loss() {
        use ft_nn::{Adam, RelativeL2};
        let mut m = Fno::new(tiny2d(), 9);
        let x = rand_input(&[2, 2, 8, 8], 8);
        let mut rng = StdRng::seed_from_u64(10);
        let target = Tensor::random(&[2, 2, 8, 8], &Uniform::new(-1.0, 1.0), &mut rng);
        let mut opt = Adam::new(1e-3);
        let y0 = m.forward(&x);
        let (l0, g) = RelativeL2::value_and_grad(&y0, &target);
        m.backward(&g);
        opt.step(&mut m);
        m.zero_grad();
        let l1 = RelativeL2::value(&m.infer(&x), &target);
        assert!(l1 < l0, "loss must decrease: {l0} -> {l1}");
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn wrong_rank_input_panics() {
        let m = Fno::new(tiny2d(), 0);
        m.infer(&Tensor::zeros(&[2, 2, 8]));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fno_model_{}_{name}", std::process::id()))
    }

    /// Saves `m`, loads it back, and checks bitwise-identical predictions.
    fn assert_roundtrip(m: &mut Fno, x: &Tensor, name: &str) -> Fno {
        let y = m.infer(x);
        let path = tmp(name);
        m.save(&path).unwrap();
        let loaded = Fno::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.infer(x).allclose(&y, 0.0), "bitwise-identical predictions");
        loaded
    }

    #[test]
    fn model_file_roundtrip_preserves_predictions() {
        let x = rand_input(&[1, 2, 8, 8], 12);
        let loaded = assert_roundtrip(&mut Fno::new(tiny2d(), 11), &x, "2d.ftc");
        assert_eq!(loaded.config().width, tiny2d().width);
        assert_eq!(loaded.config().kind, tiny2d().kind);

        // The norm flag round-trips too.
        let mut cfg_n = tiny2d();
        cfg_n.norm = true;
        let loaded = assert_roundtrip(&mut Fno::new(cfg_n, 3), &x, "norm.ftc");
        assert!(loaded.config().norm);

        let cfg3 = FnoConfig { kind: FnoKind::ThreeD, in_channels: 1, out_channels: 1, ..tiny2d() };
        let x3 = rand_input(&[1, 1, 6, 6, 4], 13);
        let loaded = assert_roundtrip(&mut Fno::new(cfg3, 4), &x3, "3d.ftc");
        assert_eq!(loaded.config().kind, FnoKind::ThreeD);
    }

    #[test]
    fn model_file_depends_on_the_weights_alone() {
        let (a, b) = (tmp("a.ftc"), tmp("b.ftc"));
        Fno::new(tiny2d(), 5).save(&a).unwrap();
        Fno::new(tiny2d(), 5).save(&b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn rejects_architecture_mismatch() {
        // Weights of a modes-2 model under metadata that claims modes 4:
        // the tensor count agrees, the spectral shapes do not.
        let mut m = Fno::new(tiny2d(), 1);
        let mut wide = tiny2d();
        wide.modes = 4;
        let ck = Checkpoint::model_file(
            ModelMeta::from_config(&wide, 0),
            ft_nn::snapshot_params(&mut m),
        );
        let path = tmp("mismatch.ftc");
        ck.save(&path).unwrap();
        assert!(matches!(
            Fno::load(&path),
            Err(CheckpointError::MetaMismatch { field: "param_count", .. })
        ));
        // The per-tensor check catches it even when the count is skipped.
        assert!(matches!(
            ck.check_params(&mut Fno::new(wide, 0)),
            Err(CheckpointError::MetaMismatch { field: "param_dim", .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
