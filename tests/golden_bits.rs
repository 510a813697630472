//! Golden bits for the model, the trainer and the lattice Boltzmann solver.
//!
//! Each check pins the FNV-1a hash of an output's `f64` bit patterns
//! (`ft_tensor::bit_hash` / `complex_bit_hash`) beside its L2 norm. The
//! hash catches any change of a single bit, the norm (held to 1e-12
//! relative) says how far a failing output moved. A refactor that keeps
//! "the same bits" keeps every pin; a change that moves them on purpose
//! re-records them and says so.
//!
//! Shapes are small enough for a debug build. The model's point counts
//! per sample (12·24 = 288 in 2D, 8·8·6 = 384 in 3D) are not multiples of
//! the MLP tile (`ft_nn::mlp::TILE`, 256), so the ragged last tile runs.

use std::f64::consts::PI;

use fno2d_turbulence::data::Pair;
use fno2d_turbulence::fno::config::{FnoConfig, FnoKind};
use fno2d_turbulence::fno::{rollout, Fno, ForecastModel, TrainConfig, Trainer};
use fno2d_turbulence::lbm::{Collision, Lbm, LbmConfig};
use fno2d_turbulence::nn::{snapshot_grads, snapshot_params, Layer, ParamValue};
use fno2d_turbulence::tensor::{bit_hash, Tensor};

const H: usize = 12;
const W: usize = 24;

/// Asserts `values` hash to `hash` and have L2 norm `norm` (1e-12
/// relative), printing the measured pair on failure.
fn pin(what: &str, values: &[f64], hash: u64, norm: f64) {
    let got_hash = bit_hash(values);
    let got_norm = values.iter().map(|v| v * v).sum::<f64>().sqrt();
    let norm_ok = (got_norm - norm).abs() <= 1e-12 * norm.abs();
    assert!(
        got_hash == hash && norm_ok,
        "{what}: got ({got_hash:#018x}, {got_norm:e}), pinned ({hash:#018x}, {norm:e})"
    );
}

/// Every value of a parameter snapshot in order, complex entries as their
/// `re, im` pairs (the order `complex_bit_hash` reads them in).
fn flatten(values: &[ParamValue]) -> Vec<f64> {
    let mut out = Vec::new();
    for v in values {
        match v {
            ParamValue::Real(t) => out.extend_from_slice(t.data()),
            ParamValue::Complex(t) => out.extend(t.data().iter().flat_map(|z| [z.re, z.im])),
        }
    }
    out
}

fn cfg(kind: FnoKind, in_channels: usize, out_channels: usize) -> FnoConfig {
    FnoConfig {
        kind,
        width: 4,
        layers: 2,
        modes: 4,
        in_channels,
        out_channels,
        lifting_channels: 8,
        projection_channels: 8,
        norm: false,
    }
}

/// A smooth periodic field over `dims`, its last two axes the plane.
fn field(dims: &[usize], phase: f64) -> Tensor {
    let (h, w) = (dims[dims.len() - 2], dims[dims.len() - 1]);
    Tensor::from_fn(dims, |i| {
        let lead: usize = i[..i.len() - 2].iter().sum();
        let y = 2.0 * PI * i[i.len() - 2] as f64 / h as f64;
        let x = 2.0 * PI * i[i.len() - 1] as f64 / w as f64;
        (x + phase + 0.3 * lead as f64).sin() + 0.5 * (2.0 * y - phase).cos()
    })
}

#[test]
fn inference_2d_and_3d() {
    let fno2 = Fno::new(cfg(FnoKind::TwoDChannels, 3, 2), 11);
    let y2 = fno2.forward_inference(&field(&[2, 3, H, W], 0.2));
    assert_eq!(y2.dims(), &[2, 2, H, W]);
    pin("2D forward_inference", y2.data(), 0x2578158c1bd8ca70, 8.66992312821409);

    let fno3 = Fno::new(cfg(FnoKind::ThreeD, 1, 1), 12);
    let x3 = Tensor::from_fn(&[1, 1, 8, 8, 6], |i| {
        let (a, b, t) = (i[2] as f64, i[3] as f64, i[4] as f64);
        (2.0 * PI * a / 8.0 + 0.1 * t).sin() * (2.0 * PI * b / 8.0).cos() + 0.05 * t
    });
    let y3 = fno3.forward_inference(&x3);
    assert_eq!(y3.dims(), &[1, 1, 8, 8, 6]);
    pin("3D forward_inference", y3.data(), 0x3e1d3fd09b3bc5a5, 1.8300791286673674);
}

#[test]
fn forward_backward_gradients() {
    let mut fno = Fno::new(cfg(FnoKind::TwoDChannels, 3, 2), 13);
    let x = field(&[2, 3, H, W], 0.7);
    let y = fno.forward(&x);
    let grad_out = field(y.dims(), 1.9);
    fno.zero_grad();
    let dx = fno.backward(&grad_out);
    assert_eq!(dx.dims(), x.dims());
    pin("input gradient", dx.data(), 0x04ad5a2e0a805e10, 6.581199726521988e-2);
    let grads = flatten(&snapshot_grads(&mut fno));
    pin("parameter gradients", &grads, 0x287136ca7c127315, 22.281023339323994);
}

#[test]
fn ten_frame_rollout() {
    let fno = Fno::new(cfg(FnoKind::TwoDChannels, 3, 2), 14);
    let frames = rollout(&fno, &field(&[3, H, W], 0.4), 10);
    assert_eq!(frames.dims(), &[10, H, W]);
    pin("rollout", frames.data(), 0xa4a76fb111c2eb34, 7.094645662226755);
}

/// Two-epoch training runs. At batch 3 the per-sample gradients meet in a
/// tree of three (`tree_reduce_grads`), whose association the pins hold;
/// at batch 2 one addition takes them, which any order gives the same bits.
#[test]
fn trained_model_file() {
    let pairs: Vec<Pair> = (0..6)
        .map(|p| {
            let phase = 0.61 * p as f64;
            Pair { input: field(&[3, H, W], phase), target: field(&[2, H, W], phase + 0.1) }
        })
        .collect();
    let pinned = [
        (2, 0x731ba75b7cfcfe22, 0xfb9fec18ff52e77b, 3.66097196936229),
        (3, 0xfc43c20b50127fd1, 0x98e702daab2e7614, 3.6596255733300045),
    ];
    for (batch_size, file_pin, hash, norm) in pinned {
        let mut trainer = Trainer::new(
            Fno::new(cfg(FnoKind::TwoDChannels, 3, 2), 15),
            TrainConfig { epochs: 2, batch_size, ..Default::default() },
        );
        trainer.train(&pairs, &[]);
        let mut model = trainer.into_model();

        let path = std::env::temp_dir()
            .join(format!("ft_golden_{}_{batch_size}.ftc", std::process::id()));
        model.save(&path).expect("save model file");
        let bytes = std::fs::read(&path).expect("read model file");
        let _ = std::fs::remove_file(&path);
        // FNV-1a over the file's bytes (what `bit_hash` does over f64 bits).
        let file_hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(file_hash, file_pin, "batch {batch_size} model file: got {file_hash:#018x}");
        let weights = flatten(&snapshot_params(&mut model));
        pin(&format!("batch {batch_size} trained weights"), &weights, hash, norm);
    }
}

#[test]
fn lbm_bgk_and_entropic_velocities() {
    let n = 16;
    let ux = Tensor::from_fn(&[n, n], |i| {
        let (y, x) = (2.0 * PI * i[0] as f64 / n as f64, 2.0 * PI * i[1] as f64 / n as f64);
        0.04 * x.sin() * y.cos() + 0.01 * (2.0 * y).sin()
    });
    let uy = Tensor::from_fn(&[n, n], |i| {
        let (y, x) = (2.0 * PI * i[0] as f64 / n as f64, 2.0 * PI * i[1] as f64 / n as f64);
        -0.04 * x.cos() * y.sin() + 0.01 * (3.0 * x).cos()
    });
    // The entropic row moved once, when the collision's `ln` became the
    // in-tree one of `ft-lbm`'s lattice module (libm's gave
    // 0x1f8f0a7ff3660fd9, 0.4550235610184611; the velocities moved by
    // 1.2e-12 in relative L2).
    let pinned = [
        (Collision::Bgk, "BGK", 0xa0bbf125a42fdde8, 0.4550357762203753),
        (Collision::Entropic, "entropic", 0xec8bb6642d987683, 0.45502356101846353),
    ];
    for (collision, name, hash, norm) in pinned {
        let mut cfg = LbmConfig::with_reynolds(n, 2000.0);
        cfg.collision = collision;
        let mut lbm = Lbm::new(cfg);
        lbm.set_velocity(&ux, &uy);
        lbm.run(12);
        let (vx, vy) = lbm.velocity();
        let mut v = vx.into_vec();
        v.extend_from_slice(vy.data());
        pin(&format!("{name} LBM velocity"), &v, hash, norm);
    }
}
