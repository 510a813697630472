//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §5 for the index). The paper's full scale — 5000
//! samples of 256² fields, A6000-hours of training — is substituted with a
//! laptop-scale configuration that preserves the protocol and the
//! qualitative shape of every result; pass `--full` to any binary to run
//! the paper-scale configuration instead (documented, but expect days of
//! compute), or set `FT_FAST=1` for a seconds-scale smoke run.
//!
//! Output convention: every binary prints CSV rows to stdout *and* writes
//! them under `results/`.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

use std::path::PathBuf;

use ft_data::{windows, DatasetConfig, Pair, SolverKind, TurbulenceDataset, WindowSpec};
use ft_lbm::IcSpec;
use fno_core::{Fno, FnoConfig, TrainConfig, TrainReport, Trainer};

/// Scale of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run (CI-friendly).
    Fast,
    /// Minutes-scale default: small grids, real training.
    Small,
    /// The paper's configuration (256² grids, thousands of samples).
    Paper,
}

impl Scale {
    /// Resolves the scale from argv (`--full`) and env (`FT_FAST`).
    pub fn from_env() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Paper
        } else if std::env::var("FT_FAST").is_ok() {
            Scale::Fast
        } else {
            Scale::Small
        }
    }
}

/// Experiment-wide knobs derived from the scale.
#[derive(Clone, Debug)]
pub struct Knobs {
    /// Grid points per side.
    pub grid: usize,
    /// Training trajectories.
    pub train_samples: usize,
    /// Held-out trajectories.
    pub test_samples: usize,
    /// Snapshots per trajectory.
    pub snapshots: usize,
    /// Default FNO width.
    pub width: usize,
    /// Default Fourier modes.
    pub modes: usize,
    /// Default layers.
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Baseline learning rate (scaled runs train for few epochs and need a
    /// hotter rate than the paper's 1e-3-for-500-epochs schedule).
    pub lr: f64,
    /// Reynolds number of the generated data.
    pub reynolds: f64,
}

impl Knobs {
    /// Knobs for a scale.
    pub fn new(scale: Scale) -> Knobs {
        match scale {
            Scale::Fast => Knobs {
                grid: 16,
                train_samples: 2,
                test_samples: 1,
                snapshots: 20,
                width: 4,
                modes: 4,
                layers: 2,
                epochs: 3,
                lr: 5e-3,
                reynolds: 500.0,
            },
            Scale::Small => Knobs {
                grid: 32,
                train_samples: 8,
                test_samples: 4,
                snapshots: 40,
                width: 8,
                modes: 8,
                layers: 4,
                epochs: 20,
                lr: 5e-3,
                reynolds: 1000.0,
            },
            Scale::Paper => Knobs {
                grid: 256,
                train_samples: 4500,
                test_samples: 500,
                snapshots: 201,
                width: 40,
                modes: 32,
                layers: 4,
                epochs: 500,
                lr: 1e-3,
                reynolds: 7500.0,
            },
        }
    }

    /// Dataset configuration implied by the knobs. The initial-condition
    /// band is kept within the resolvable range of the grid.
    pub fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            n_grid: self.grid,
            samples: self.train_samples + self.test_samples,
            snapshots: self.snapshots,
            dt_sample_tc: 0.005,
            burn_in_tc: if self.grid >= 128 { 0.5 } else { 0.1 },
            reynolds: self.reynolds,
            ic: IcSpec { k_min: 2, k_max: (self.grid / 6).clamp(3, 8) },
            solver: if self.grid >= 128 { SolverKind::EntropicLbm } else { SolverKind::SpectralNs },
            seed: 1,
            probe_every: 0,
        }
    }
}

/// Generates the dataset and splits scalar-component trajectories into
/// train/test pair sets with the paper's windowing.
pub fn dataset_pairs(knobs: &Knobs, out_channels: usize) -> (Vec<Pair>, Vec<Pair>, TurbulenceDataset) {
    let ds = TurbulenceDataset::generate(knobs.dataset_config());
    let spec = WindowSpec { input_len: 10, output_len: out_channels, stride: out_channels };
    let flat = ft_data::split_components(&ds.velocity);
    let total = flat.dims()[0];
    let train_fields = knobs.train_samples * 2;
    let mut train = Vec::new();
    let mut test = Vec::new();
    for s in 0..total {
        let traj = flat.index_axis0(s);
        let pairs = windows(&traj, &spec);
        if s < train_fields {
            train.extend(pairs);
        } else {
            test.extend(pairs);
        }
    }
    (train, test, ds)
}

/// Trains one 2D-with-channels model and returns it with the report.
#[allow(clippy::too_many_arguments)] // mirrors the paper's hyperparameter list
pub fn train_2d(
    knobs: &Knobs,
    width: usize,
    layers: usize,
    modes: usize,
    out_channels: usize,
    train: &[Pair],
    test: &[Pair],
    train_cfg: TrainConfig,
) -> (Fno, TrainReport) {
    let mut cfg = FnoConfig::fno2d(width, layers, modes, out_channels);
    // The harness trains at reduced lifting/projection widths when the
    // model itself is scaled down; paper-scale keeps 256.
    if knobs.grid < 128 {
        cfg.lifting_channels = 32;
        cfg.projection_channels = 32;
    }
    let model = Fno::new(cfg, 7);
    let mut trainer = Trainer::new(model, train_cfg);
    let report = trainer.train(train, test);
    (trainer.into_model(), report)
}

/// Opens `results/<name>` for CSV output, creating the directory. The
/// writer is crash-consistent: rows accumulate in a temp file and the
/// final CSV only appears (atomically) when the writer is dropped, so an
/// interrupted run never leaves a half-written `results/*.csv`.
pub fn csv(name: &str, header: &[&str]) -> ft_data::CsvWriter {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    println!("# writing {}", dir.join(name).display());
    println!("{}", header.join(","));
    ft_data::CsvWriter::create(dir.join(name), header).expect("create csv")
}

/// The `results/` directory at the workspace root (or cwd fallback).
pub fn results_dir() -> PathBuf {
    let here = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for anc in here.ancestors() {
        if anc.join("Cargo.toml").exists() && anc.join("crates").exists() {
            return anc.join("results");
        }
    }
    here.join("results")
}

/// Prints one CSV row to stdout and the file.
pub fn emit(w: &mut ft_data::CsvWriter, values: &[f64]) {
    let line: Vec<String> = values.iter().map(|v| format!("{v:.6e}")).collect();
    println!("{}", line.join(","));
    w.row(values).expect("write row");
}

/// Prints a labeled CSV row to stdout and the file.
pub fn emit_labeled(w: &mut ft_data::CsvWriter, label: &str, values: &[f64]) {
    let line: Vec<String> = values.iter().map(|v| format!("{v:.6e}")).collect();
    println!("{label},{}", line.join(","));
    w.labeled_row(label, values).expect("write row");
}

/// RAII observability scope for an experiment binary. Constructed at the
/// top of `main`, it enables `ft-obs` instrumentation; on drop it writes
/// `results/BENCH_<name>.json` (`ft-obs/bench-v1`, kind `"experiment"`)
/// with the run's wall time and a snapshot of every counter, gauge and
/// span the experiment touched.
pub struct ObsScope {
    name: &'static str,
    start: std::time::Instant,
}

/// Enables instrumentation for an experiment binary and returns the guard
/// that writes `results/BENCH_<name>.json` when dropped.
pub fn obs_scope(name: &'static str) -> ObsScope {
    ft_obs::set_enabled(true);
    ObsScope { name, start: std::time::Instant::now() }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        let wall = self.start.elapsed().as_secs_f64();
        let record = ft_obs::Record::new("experiment")
            .str("name", self.name)
            .f64("wall_seconds", wall);
        let path = results_dir().join(format!("BENCH_{}.json", self.name));
        match ft_obs::bench::write_bench_json(&path, "experiment", self.name, wall, &[record]) {
            Ok(()) => println!("# writing {}", path.display()),
            Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
        }
    }
}

/// Shared driver for Figs. 8 and 9: trains the paper's hybrid model
/// (10 input channels, 5 output channels) and marches the three schemes —
/// pure PDE, pure FNO, hybrid — from the same held-out history.
///
/// Returns `(pde, fno, hybrid)` trajectory logs.
pub fn run_longterm_experiment(
    knobs: &Knobs,
    frames: usize,
) -> (
    fno_core::TrajectoryLog,
    fno_core::TrajectoryLog,
    fno_core::TrajectoryLog,
) {
    use fno_core::{HybridConfig, HybridScheme, Scheme};
    use ft_ns::SpectralNs;

    let (train, test, ds) = dataset_pairs(knobs, 5);
    let cfg = TrainConfig {
        epochs: knobs.epochs,
        batch_size: 8,
        lr: knobs.lr,
        scheduler_gamma: 0.5,
        scheduler_step: 100,
        seed: 0,
        ..Default::default()
    };
    let (model, report) = train_2d(knobs, knobs.width, knobs.layers, knobs.modes, 5, &train, &test, cfg);
    eprintln!(
        "# hybrid model trained: one-shot test error {:.4e} ({:.1}s)",
        report.test_error, report.wall_seconds
    );

    // Held-out history: first ten frames of the first test sample.
    let s = knobs.train_samples; // first held-out trajectory
    let history: Vec<(ft_tensor::Tensor, ft_tensor::Tensor)> =
        (0..10).map(|t| ds.velocity_at(s, t)).collect();

    let n = knobs.grid;
    let u0 = 0.05;
    let nu = u0 * n as f64 / knobs.reynolds;
    let t_c = n as f64 / u0;
    let hcfg = HybridConfig { window_frames: 5, dt_frame_tc: 0.005, t_c };

    let run = |scheme: Scheme| {
        let mut solver = SpectralNs::new(n, n as f64, nu);
        HybridScheme::new(&model, &mut solver, hcfg.clone()).run(&history, frames, scheme)
    };
    (run(Scheme::PurePde), run(Scheme::PureFno), run(Scheme::Hybrid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_scale_progression() {
        let fast = Knobs::new(Scale::Fast);
        let small = Knobs::new(Scale::Small);
        let paper = Knobs::new(Scale::Paper);
        assert!(fast.grid < small.grid && small.grid < paper.grid);
        assert_eq!(paper.grid, 256);
        assert_eq!(paper.train_samples + paper.test_samples, 5000);
        assert_eq!(paper.snapshots, 201);
    }

    #[test]
    fn dataset_config_band_fits_grid() {
        for scale in [Scale::Fast, Scale::Small, Scale::Paper] {
            let k = Knobs::new(scale);
            let cfg = k.dataset_config();
            assert!(cfg.ic.k_max * 3 <= k.grid, "band must be resolvable at {scale:?}");
        }
    }

    #[test]
    fn fast_pairs_pipeline_works() {
        let knobs = Knobs::new(Scale::Fast);
        let (train, test, ds) = dataset_pairs(&knobs, 5);
        assert!(!train.is_empty() && !test.is_empty());
        assert_eq!(ds.n_grid(), knobs.grid);
        assert_eq!(train[0].input.dims(), &[10, 16, 16]);
        assert_eq!(train[0].target.dims(), &[5, 16, 16]);
    }
}
