//! Integration of the extension features: ensemble forecasting on real
//! flows, a dataset from the finite-difference (Arakawa) generator trained
//! end to end, and the DeepONet through the generic training path.

use fno2d_turbulence::data::{
    split_components, windows, DatasetConfig, SolverKind, TurbulenceDataset, WindowSpec,
};
use fno2d_turbulence::fno::ensemble::ensemble_rollout;
use fno2d_turbulence::fno::{DeepONet, DeepONetConfig, Fno, FnoConfig, TrainConfig, Trainer};
use fno2d_turbulence::lbm::IcSpec;

#[test]
fn ensemble_spread_stays_near_delta_below_lyapunov_horizon() {
    // Train a quick model on a tiny dataset, then check the ensemble
    // machinery end-to-end on a held-out flow: finite spread of the right
    // order, deterministic members.
    let mut cfg = DatasetConfig::small(16, 3, 24);
    cfg.burn_in_tc = 0.05;
    let ds = TurbulenceDataset::generate(cfg);
    let flat = split_components(&ds.velocity);
    let spec = WindowSpec { input_len: 10, output_len: 2, stride: 2 };
    let mut pairs = Vec::new();
    for s in 0..flat.dims()[0] - 1 {
        pairs.extend(windows(&flat.index_axis0(s), &spec));
    }
    let mut mcfg = FnoConfig::fno2d(4, 2, 4, 2);
    mcfg.lifting_channels = 8;
    mcfg.projection_channels = 8;
    let model = Fno::new(mcfg, 0);
    let tcfg = TrainConfig { epochs: 4, batch_size: 4, lr: 2e-3, ..Default::default() };
    let mut trainer = Trainer::new(model, tcfg);
    trainer.train(&pairs, &pairs[..2]);
    let model = trainer.into_model();

    let held = flat.index_axis0(flat.dims()[0] - 1);
    let hist = held.slice_axis0(0, 10);
    let delta0 = 0.01 * hist.norm_l2();
    let ens = ensemble_rollout(&model, &hist, 6, 5, delta0);
    assert_eq!(ens.mean.dims(), &[6, 16, 16]);
    assert!(ens.spread.iter().all(|&s| s.is_finite() && s > 0.0));
    // Spread must stay within an order of magnitude of the injected
    // perturbation per point (no blow-up through a 0.03 t_c horizon).
    let per_point = delta0 / (hist.len() as f64 / 10.0).sqrt();
    for &s in &ens.spread {
        assert!(s < 10.0 * per_point, "spread {s} vs per-point δ {per_point}");
    }
}

#[test]
fn arakawa_generated_dataset_trains_a_model() {
    // The full pipeline also runs on the finite-difference generator (the
    // paper's cross-solver generalization claim from the data side).
    let mut cfg = DatasetConfig::small(16, 2, 24);
    cfg.burn_in_tc = 0.05;
    cfg.solver = SolverKind::ArakawaFd;
    cfg.ic = IcSpec { k_min: 2, k_max: 4 };
    let ds = TurbulenceDataset::generate(cfg);
    assert!(ds.velocity.all_finite());
    let flat = split_components(&ds.velocity);
    let spec = WindowSpec { input_len: 10, output_len: 2, stride: 2 };
    let mut pairs = Vec::new();
    for s in 0..flat.dims()[0] {
        pairs.extend(windows(&flat.index_axis0(s), &spec));
    }
    let mut mcfg = FnoConfig::fno2d(4, 2, 4, 2);
    mcfg.lifting_channels = 8;
    mcfg.projection_channels = 8;
    let model = Fno::new(mcfg, 0);
    let tcfg = TrainConfig { epochs: 5, batch_size: 4, lr: 2e-3, ..Default::default() };
    let mut trainer = Trainer::new(model, tcfg);
    let report = trainer.train(&pairs, &pairs[..2]);
    assert!(report.train_loss.last().unwrap() < &report.train_loss[0]);
}

#[test]
fn deeponet_trains_on_real_turbulence_data() {
    let mut cfg = DatasetConfig::small(12, 2, 26);
    cfg.burn_in_tc = 0.05;
    cfg.ic = IcSpec { k_min: 1, k_max: 3 };
    let ds = TurbulenceDataset::generate(cfg);
    let flat = split_components(&ds.velocity);
    let spec = WindowSpec { input_len: 10, output_len: 2, stride: 2 };
    let mut pairs = Vec::new();
    for s in 0..flat.dims()[0] {
        pairs.extend(windows(&flat.index_axis0(s), &spec));
    }
    let don = DeepONet::new(
        DeepONetConfig { in_channels: 10, out_channels: 2, grid: 12, hidden: 8, basis: 6 },
        0,
    );
    let tcfg = TrainConfig { epochs: 10, batch_size: 4, lr: 3e-3, ..Default::default() };
    let mut trainer = Trainer::new(don, tcfg);
    let report = trainer.train(&pairs, &pairs[..2]);
    assert!(
        report.train_loss.last().unwrap() < &report.train_loss[0],
        "DeepONet must optimize through the generic trainer: {:?}",
        (report.train_loss[0], report.train_loss.last())
    );
}
