//! Per-layer metrics at a workload's own shapes: the FFT, every layer of
//! the FNO (timed through a mirror network built from the same public
//! `ft-nn` layers), the training step's pieces in `fno-core`, and how
//! much of a measured step the timed pieces account for.
//!
//! Flop and byte counts are computed from the tensor shapes, not measured.

use std::collections::BTreeMap;
use std::time::Instant;

use fno_core::{
    batch_of, sharded_batch_grads, tree_reduce_grads, Fno, FnoConfig, FnoKind, ForecastModel,
    LossKind,
};
use ft_data::Pair;
use ft_nn::{Adam, Gelu, Layer, Linear, RelativeL2, SpectralConv};
use ft_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{synthetic_frames, Report};
use crate::probes::Ceilings;
use crate::stats::{median, median_ms, ms_since};

/// The model and batch shape a workload runs at.
pub struct Shape {
    pub workload: &'static str,
    pub cfg: FnoConfig,
    pub grid: usize,
    pub batch: usize,
    pub seed: u64,
}

impl Shape {
    pub fn new(
        workload: &'static str,
        cfg: FnoConfig,
        grid: usize,
        batch: usize,
        seed: u64,
    ) -> Shape {
        Shape {
            workload,
            cfg,
            grid,
            batch,
            seed,
        }
    }

    fn heavy(&self) -> bool {
        self.grid >= 128
    }

    /// Repetitions for a call of this shape: one or two at 256², more on
    /// small grids.
    fn reps(&self) -> usize {
        if self.heavy() {
            2
        } else {
            9
        }
    }

    /// `batch` seeded training pairs of this shape.
    fn pairs(&self) -> Vec<Pair> {
        (0..self.batch)
            .map(|k| {
                let c = &self.cfg;
                let f = synthetic_frames(
                    self.seed.wrapping_add(100 + k as u64),
                    c.in_channels + c.out_channels,
                    self.grid,
                );
                Pair {
                    input: f.slice_axis0(0, c.in_channels),
                    target: f.slice_axis0(c.in_channels, c.out_channels),
                }
            })
            .collect()
    }
}

/// The FNO's layer sequence rebuilt from public `ft-nn` layers with the
/// model's shapes, so every layer call can be timed on its own.
struct Mirror {
    lift1: Linear,
    lift_act: Gelu,
    lift2: Linear,
    spectral: Vec<SpectralConv>,
    local: Vec<Linear>,
    acts: Vec<Gelu>,
    proj1: Linear,
    proj_act: Gelu,
    proj2: Linear,
}

/// Per pass, the total milliseconds spent in each named layer call.
type PassTimes = BTreeMap<&'static str, f64>;

fn timed<R>(t: &mut PassTimes, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *t.entry(name).or_default() += ms_since(t0);
    r
}

impl Mirror {
    fn new(c: &FnoConfig, seed: u64) -> Mirror {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = c.width;
        Mirror {
            lift1: Linear::new(c.in_channels, c.lifting_channels, &mut rng),
            lift_act: Gelu::new(),
            lift2: Linear::new(c.lifting_channels, w, &mut rng),
            spectral: (0..c.layers)
                .map(|_| SpectralConv::new_2d(w, w, c.modes, &mut rng))
                .collect(),
            local: (0..c.layers).map(|_| Linear::new(w, w, &mut rng)).collect(),
            acts: (0..c.layers).map(|_| Gelu::new()).collect(),
            proj1: Linear::new(w, c.projection_channels, &mut rng),
            proj_act: Gelu::new(),
            proj2: Linear::new(c.projection_channels, c.out_channels, &mut rng),
        }
    }

    /// One sample's forward, loss and backward, as `Fno::forward`,
    /// `RelativeL2::value_and_grad` and `Fno::backward` sequence them.
    fn pass(&mut self, x: &Tensor, target: &Tensor) -> PassTimes {
        let mut t = PassTimes::new();
        let a = timed(&mut t, "lift_fwd", || self.lift1.forward(x));
        let a = timed(&mut t, "gelu_fwd", || self.lift_act.forward(&a));
        let mut h = timed(&mut t, "lift2_fwd", || self.lift2.forward(&a));
        let last = self.spectral.len() - 1;
        for i in 0..self.spectral.len() {
            let mut y = timed(&mut t, "spectral_fwd", || self.spectral[i].forward(&h));
            let z = timed(&mut t, "local_fwd", || self.local[i].forward(&h));
            timed(&mut t, "add", || y.add_assign(&z));
            h = if i < last {
                timed(&mut t, "gelu_w_fwd", || self.acts[i].forward(&y))
            } else {
                y
            };
        }
        let p = timed(&mut t, "proj1_fwd", || self.proj1.forward(&h));
        let p = timed(&mut t, "gelu_proj_fwd", || self.proj_act.forward(&p));
        let out = timed(&mut t, "proj_fwd", || self.proj2.forward(&p));
        let (_, g) = timed(&mut t, "loss", || RelativeL2::value_and_grad(&out, target));
        let g = timed(&mut t, "proj_bwd", || self.proj2.backward(&g));
        let g = timed(&mut t, "gelu_proj_bwd", || self.proj_act.backward(&g));
        let mut g = timed(&mut t, "proj1_bwd", || self.proj1.backward(&g));
        for i in (0..self.spectral.len()).rev() {
            let gy = if i < last {
                timed(&mut t, "gelu_w_bwd", || self.acts[i].backward(&g))
            } else {
                g
            };
            let mut gh = timed(&mut t, "spectral_bwd", || self.spectral[i].backward(&gy));
            let gl = timed(&mut t, "local_bwd", || self.local[i].backward(&gy));
            timed(&mut t, "add", || gh.add_assign(&gl));
            g = gh;
        }
        let g = timed(&mut t, "lift2_bwd", || self.lift2.backward(&g));
        let g = timed(&mut t, "gelu_bwd", || self.lift_act.backward(&g));
        timed(&mut t, "lift_bwd", || self.lift1.backward(&g));
        t
    }
}

/// Median over passes of each layer's per-pass total.
fn pass_medians(passes: &[PassTimes]) -> PassTimes {
    passes[0]
        .keys()
        .map(|&k| (k, median(&passes.iter().map(|p| p[k]).collect::<Vec<_>>())))
        .collect()
}

/// One training step as `Trainer::train` runs it (sharded path, relative
/// L2, no clipping), against the given replicas.
fn train_step(
    model: &mut Fno,
    replicas: &mut [Box<dyn ForecastModel + Send>],
    adam: &mut Adam,
    pairs: &[Pair],
) {
    let chunk: Vec<usize> = (0..pairs.len()).collect();
    let snap = ft_nn::snapshot_params(model);
    let per = sharded_batch_grads(
        replicas,
        &snap,
        pairs,
        &chunk,
        FnoKind::TwoDChannels,
        LossKind::RelativeL2,
        0.0,
    );
    let grads = per
        .into_iter()
        .map(|(_, g)| g.expect("finite sample"))
        .collect();
    let mut reduced = tree_reduce_grads(grads).expect("non-empty batch");
    ft_nn::scale_param_values(&mut reduced, 1.0 / pairs.len() as f64);
    ft_nn::load_grads(model, &reduced);
    ft_nn::global_grad_norm(model);
    adam.step(model);
    model.zero_grad();
}

/// A linear map's computed cost: flops and bytes of one forward or
/// backward call on `points` grid points.
fn linear_cost(l: &Linear, points: usize, backward: bool) -> (f64, f64) {
    let (ci, co, p) = (l.c_in() as f64, l.c_out() as f64, points as f64);
    if backward {
        // Weight gradient and input gradient; reads x and g, writes gx.
        (4.0 * p * ci * co, 8.0 * p * (2.0 * ci + co))
    } else {
        (2.0 * p * ci * co, 8.0 * p * (ci + co))
    }
}

/// Reports `name` as ms plus computed GFLOP/s, GB/s and the share of the
/// roofline bound it reaches.
fn kernel(rep: &mut Report, ceil: &Ceilings, name: &str, ms: f64, flops: f64, bytes: f64) {
    let gflops = flops / (ms * 1e6);
    let gbps = bytes / (ms * 1e6);
    rep.metric(&format!("{name}_ms"), ms, "ms");
    rep.metric(&format!("{name}.gflops"), gflops, "GFLOP/s");
    rep.metric(&format!("{name}.gbps"), gbps, "GB/s");
    rep.metric(
        &format!("{name}.roof_frac"),
        gflops / ceil.roofline_gflops(flops / bytes),
        "ratio",
    );
}

pub fn measure(shape: &Shape, ceil: &Ceilings, rep: &mut Report) {
    let c = &shape.cfg;
    let (n, reps) = (shape.grid, shape.reps());
    let points = n * n;
    let pairs = shape.pairs();
    let (x1, y1) = batch_of(&pairs, &[0], FnoKind::TwoDChannels);
    rep.line(format!(
        "per-layer shapes ({}): width {}, modes {}, lifting {}, {n}², batch {} (layer calls at batch 1)",
        shape.workload, c.width, c.modes, c.lifting_channels, shape.batch
    ));

    // ft-fft at the Fourier layers' [w, H, W].
    let h = Tensor::from_vec(
        &[1, c.width, n, n],
        synthetic_frames(shape.seed, c.width, n).into_vec(),
    );
    let spec = ft_fft::rfft2(&h);
    let rfft_ms = median_ms(reps, 0.3, || drop(std::hint::black_box(ft_fft::rfft2(&h))));
    let irfft_ms = median_ms(reps, 0.3, || {
        drop(std::hint::black_box(ft_fft::irfft2(&spec, n)))
    });
    let planes = c.width as f64;
    let fft_flops = planes * 2.5 * points as f64 * (points as f64).log2();
    let fft_bytes = planes * (8.0 * points as f64 + 16.0 * (n * (n / 2 + 1)) as f64);
    rep.metric("fft.rfft2_ms", rfft_ms, "ms");
    rep.metric("fft.irfft2_ms", irfft_ms, "ms");
    rep.metric("fft.gflops", fft_flops / (rfft_ms * 1e6), "GFLOP/s");
    rep.metric(
        "fft.roof_frac",
        fft_flops / (rfft_ms * 1e6) / ceil.roofline_gflops(fft_flops / fft_bytes),
        "ratio",
    );

    let mut mirror = Mirror::new(c, shape.seed);
    let spectral = &mirror.spectral[0];
    rep.metric(
        "nn.spectral_infer_ms",
        median_ms(reps, 0.3, || drop(std::hint::black_box(spectral.infer(&h)))),
        "ms",
    );

    // fno-core: whole-model calls and the training step's pieces.
    let mut model = Fno::new(c.clone(), shape.seed);
    let infer_reps = if shape.heavy() { 1 } else { reps };
    rep.metric(
        "core.infer_b1_ms",
        median_ms(infer_reps, 0.3, || {
            drop(std::hint::black_box(model.infer(&x1)))
        }),
        "ms",
    );
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..infer_reps {
        let t0 = Instant::now();
        let out = model.forward(&x1);
        fwd.push(ms_since(t0));
        let (_, g) = RelativeL2::value_and_grad(&out, &y1);
        let t0 = Instant::now();
        model.backward(&g);
        bwd.push(ms_since(t0));
    }
    rep.metric("core.fwd_ms", median(&fwd), "ms");
    rep.metric("core.bwd_ms", median(&bwd), "ms");
    let batch: Vec<usize> = (0..shape.batch).collect();
    rep.metric(
        "core.batch_of_ms",
        median_ms(reps, 0.1, || {
            drop(batch_of(&pairs, &batch, FnoKind::TwoDChannels))
        }),
        "ms",
    );
    let snap = ft_nn::snapshot_params(&mut model);
    let mut replica = model.replicate().expect("Fno replicates");
    let snapshot_ms = median_ms(reps, 0.1, || drop(ft_nn::snapshot_params(&mut model)));
    let restore_ms = median_ms(reps, 0.1, || {
        ft_nn::restore_params(replica.as_mut(), &snap);
        replica.zero_grad();
    });
    rep.metric("core.snapshot_restore_ms", snapshot_ms + restore_ms, "ms");
    let mut width_replicas: Vec<_> = (0..rayon::current_num_threads().min(shape.batch))
        .map(|_| model.replicate().expect("Fno replicates"))
        .collect();
    let mut per = Vec::new();
    let shard_ms = median_ms(infer_reps, 0.2, || {
        per = sharded_batch_grads(
            &mut width_replicas,
            &snap,
            &pairs,
            &batch,
            FnoKind::TwoDChannels,
            LossKind::RelativeL2,
            0.0,
        )
    });
    drop(width_replicas);
    rep.metric("core.shard_grads_ms", shard_ms, "ms");
    let grads: Vec<_> = per
        .into_iter()
        .map(|(_, g)| g.expect("finite sample"))
        .collect();
    // tree_reduce_grads consumes its input: time it on clones and take
    // the clone's own cost back out.
    let with_clone_ms = median_ms(reps, 0.1, || drop(tree_reduce_grads(grads.clone())));
    let clone_ms = median_ms(reps, 0.1, || drop(std::hint::black_box(grads.clone())));
    let tree_ms = (with_clone_ms - clone_ms).max(0.0);
    rep.metric("core.tree_reduce_ms", tree_ms, "ms");

    // Optimizer pieces on the model with a loaded gradient.
    let mut reduced = tree_reduce_grads(grads.clone()).expect("non-empty batch");
    ft_nn::scale_param_values(&mut reduced, 1.0 / shape.batch as f64);
    let load_ms = median_ms(reps, 0.1, || ft_nn::load_grads(&mut model, &reduced));
    let scale_ms = median_ms(reps, 0.1, || ft_nn::scale_param_values(&mut reduced, 1.0));
    let norm_ms = median_ms(reps, 0.1, || {
        std::hint::black_box(ft_nn::global_grad_norm(&mut model));
    });
    rep.metric(
        "nn.clip_ms",
        median_ms(reps, 0.1, || {
            std::hint::black_box(ft_nn::clip_grad_norm(&mut model, 1e9));
        }),
        "ms",
    );
    let mut adam = Adam::new(1e-9);
    adam.step(&mut model);
    let adam_ms = median_ms(reps, 0.1, || adam.step(&mut model));
    rep.metric("nn.adam_step_ms", adam_ms, "ms");
    let zero_ms = median_ms(reps, 0.1, || model.zero_grad());
    let sample_grads_ms = median_ms(reps, 0.1, || drop(ft_nn::snapshot_grads(replica.as_mut())));
    let batch1_ms = median_ms(reps, 0.1, || {
        drop(batch_of(&pairs, &[0], FnoKind::TwoDChannels))
    });

    // ft-nn and the step as a whole: each measured serial step (one
    // replica) runs right after timed passes of every layer call of one
    // sample's forward, loss and backward, one pass per sample of the step,
    // so that a step and the pieces it is compared with see the same host
    // speed; the host's speed swings between levels within a second. One
    // untimed pass and step first, so everything timed runs warm. At 256²
    // a sample takes seconds, so the steps there run at batch 1.
    let step_pairs = if shape.heavy() {
        &pairs[..1]
    } else {
        &pairs[..]
    };
    let other_pieces = snapshot_ms
        + restore_ms
        + step_pairs.len() as f64 * (batch1_ms + sample_grads_ms + zero_ms)
        + tree_ms
        + scale_ms
        + load_ms
        + norm_ms
        + adam_ms
        + zero_ms;
    let mut replicas = vec![model.replicate().expect("Fno replicates")];
    let mut adam = Adam::new(1e-3);
    mirror.pass(&x1, &y1);
    train_step(&mut model, &mut replicas, &mut adam, step_pairs);
    let (mut passes, mut steps, mut coverages) = (Vec::new(), Vec::new(), Vec::new());
    let mut step_alloc = (0, 0);
    for _ in 0..reps {
        let mut layer_ms = 0.0;
        for _ in step_pairs {
            let pass = mirror.pass(&x1, &y1);
            layer_ms += pass.values().sum::<f64>();
            passes.push(pass);
        }
        let (allocs0, bytes0) = crate::alloc_counts();
        let t0 = Instant::now();
        train_step(&mut model, &mut replicas, &mut adam, step_pairs);
        let step_ms = ms_since(t0);
        let (allocs1, bytes1) = crate::alloc_counts();
        step_alloc = (allocs1 - allocs0, bytes1 - bytes0);
        coverages.push((other_pieces + layer_ms) / step_ms);
        steps.push(step_ms);
    }
    let coverage = median(&coverages);
    rep.metric("core.step_coverage", coverage, "ratio");
    rep.metric("mem.alloc_mb_per_step", step_alloc.1 as f64 / 1e6, "MB");
    rep.metric("mem.allocs_per_step", step_alloc.0 as f64, "count");

    let pass = pass_medians(&passes);
    let per_call = |k: &str, calls: usize| pass[k] / calls as f64;
    let l = c.layers;
    rep.metric("nn.spectral_fwd_ms", per_call("spectral_fwd", l), "ms");
    rep.metric("nn.spectral_bwd_ms", per_call("spectral_bwd", l), "ms");
    for (name, key, layer, calls, bwd) in [
        ("nn.lift_fwd", "lift_fwd", &mirror.lift1, 1, false),
        ("nn.lift_bwd", "lift_bwd", &mirror.lift1, 1, true),
        ("nn.proj_fwd", "proj_fwd", &mirror.proj2, 1, false),
        ("nn.proj_bwd", "proj_bwd", &mirror.proj2, 1, true),
        ("nn.local_fwd", "local_fwd", &mirror.local[0], l, false),
    ] {
        let (flops, bytes) = linear_cost(layer, points, bwd);
        kernel(rep, ceil, name, per_call(key, calls), flops, bytes);
    }
    rep.metric("nn.gelu_fwd_ms", per_call("gelu_fwd", 1), "ms");
    rep.metric("nn.gelu_bwd_ms", per_call("gelu_bwd", 1), "ms");
    rep.metric("nn.loss_ms", per_call("loss", 1), "ms");
    rep.line(format!(
        "serial batch-{} step {:.3} ms (median of {reps}, each after its own timed passes, after a warm-up); \
         one sample's layer calls {:.3} ms, other pieces {other_pieces:.3} ms; coverage per step {coverages:.3?}, |median - 1| = {:.3}",
        step_pairs.len(),
        median(&steps),
        pass.values().sum::<f64>(),
        (coverage - 1.0).abs()
    ));
}
