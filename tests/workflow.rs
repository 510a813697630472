//! Production-workflow integration: the end-to-end path a downstream user
//! takes — generate, train (optionally physics-informed), checkpoint to
//! disk, reload, forecast — plus the baseline comparisons of Sec. IV.

use fno2d_turbulence::data::{
    split_components, windows, DatasetConfig, TurbulenceDataset, WindowSpec,
};
use fno2d_turbulence::fno::baselines::{persistence_rollout, SpectralLinearModel};
use fno2d_turbulence::fno::physics::paired_windows;
use fno2d_turbulence::fno::rollout::{frame_errors, rollout};
use fno2d_turbulence::fno::{divergence_penalty, Fno, FnoConfig, TrainConfig, Trainer};
use fno2d_turbulence::fno::train::batch_of;

fn dataset() -> TurbulenceDataset {
    let mut cfg = DatasetConfig::small(16, 3, 26);
    cfg.burn_in_tc = 0.05;
    TurbulenceDataset::generate(cfg)
}

#[test]
fn train_checkpoint_reload_forecast() {
    let ds = dataset();
    let flat = split_components(&ds.velocity);
    let spec = WindowSpec { input_len: 10, output_len: 2, stride: 2 };
    let mut pairs = Vec::new();
    for s in 0..flat.dims()[0] {
        pairs.extend(windows(&flat.index_axis0(s), &spec));
    }
    let mut cfg = FnoConfig::fno2d(4, 2, 4, 2);
    cfg.lifting_channels = 8;
    cfg.projection_channels = 8;
    let model = Fno::new(cfg, 0);
    let tcfg = TrainConfig { epochs: 4, batch_size: 4, lr: 2e-3, ..Default::default() };
    let mut trainer = Trainer::new(model, tcfg);
    trainer.train(&pairs, &pairs[..2]);
    let mut model = trainer.into_model();

    let mut path = std::env::temp_dir();
    path.push(format!("fno2d_workflow_{}.ftc", std::process::id()));
    model.save(&path).unwrap();
    let loaded = Fno::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let hist = flat.index_axis0(0).slice_axis0(0, 10);
    let a = rollout(&model, &hist, 5);
    let b = rollout(&loaded, &hist, 5);
    assert!(a.allclose(&b, 0.0), "reloaded model must forecast identically");
}

#[test]
fn baselines_are_well_behaved_on_real_data() {
    let ds = dataset();
    let flat = split_components(&ds.velocity);
    let train_trajs: Vec<_> = (0..flat.dims()[0] - 1).map(|s| flat.index_axis0(s)).collect();
    let linear = SpectralLinearModel::fit(&train_trajs, 4);

    let held = flat.index_axis0(flat.dims()[0] - 1);
    let hist = held.slice_axis0(0, 10);
    let truth = held.slice_axis0(10, 8);

    let per = persistence_rollout(&hist, 8);
    let lin = linear.rollout(&hist, 8);
    let per_err = frame_errors(&per, &truth);
    let lin_err = frame_errors(&lin, &truth);

    // Persistence error grows with horizon on an evolving flow.
    assert!(per_err[7] > per_err[0], "persistence error must grow: {per_err:?}");
    // The linear model is finite and not wildly off on a quasi-linear
    // decaying flow.
    assert!(lin_err.iter().all(|e| e.is_finite()));
    assert!(lin_err[7] < 2.0, "linear baseline should stay sane: {lin_err:?}");
}

#[test]
fn physics_informed_training_reduces_prediction_divergence() {
    let ds = dataset();
    let mut train = Vec::new();
    for s in 0..ds.samples() {
        train.extend(paired_windows(&ds.velocity.index_axis0(s), 10, 2));
    }
    assert!(!train.is_empty());

    let run = |weight: f64| {
        let mut cfg = FnoConfig::fno2d(4, 2, 4, 4);
        cfg.in_channels = 20;
        cfg.lifting_channels = 8;
        cfg.projection_channels = 8;
        let model = Fno::new(cfg, 0);
        let tcfg = TrainConfig {
            epochs: 6,
            batch_size: 4,
            lr: 2e-3,
            divergence_weight: weight,
            ..Default::default()
        };
        let mut trainer = Trainer::new(model, tcfg);
        trainer.train(&train, &train[..2]);
        let model = trainer.into_model();
        // Mean divergence penalty of predictions over the training inputs.
        let idx: Vec<usize> = (0..train.len()).collect();
        let mut acc = 0.0;
        for chunk in idx.chunks(8) {
            let (x, _) = batch_of(&train, chunk, model.config().kind);
            let (pv, _) = divergence_penalty(&model.infer(&x));
            acc += pv * chunk.len() as f64;
        }
        acc / train.len() as f64
    };

    let vanilla = run(0.0);
    let informed = run(1.0);
    assert!(
        informed < vanilla,
        "divergence penalty must reduce prediction divergence: {informed} vs {vanilla}"
    );
}
