//! Ensemble generation: random ICs → burn-in → sampled trajectories.

use ft_analysis::DiagnosticsProbe;
use ft_lbm::{vorticity, IcSpec, Lbm, LbmConfig};
use ft_ns::{ArakawaNs, PdeSolver, SpectralNs};
use ft_tensor::Tensor;

/// Which solver drives the data generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Entropic lattice Boltzmann — the paper's generator.
    EntropicLbm,
    /// BGK lattice Boltzmann (α = 2), cheaper, adequate at moderate Re.
    BgkLbm,
    /// Pseudo-spectral Navier-Stokes — faster per step at small grids and
    /// useful for cross-solver generalization experiments.
    SpectralNs,
    /// Finite-difference Arakawa-Jacobian Navier-Stokes — the same
    /// discretization family as the solver the paper couples the FNO with.
    ArakawaFd,
}

/// Configuration of a dataset-generation run.
#[derive(Clone, Debug)]
pub struct DatasetConfig {
    /// Grid points per side.
    pub n_grid: usize,
    /// Number of trajectories (each with a distinct random IC).
    pub samples: usize,
    /// Snapshots per trajectory (the paper records 201: t = 0 … t_c at
    /// 0.005 t_c steps).
    pub snapshots: usize,
    /// Sampling interval in convective time units (paper: 0.005).
    pub dt_sample_tc: f64,
    /// Burn-in before time reset, in convective units (paper: 0.5).
    pub burn_in_tc: f64,
    /// Target Reynolds number `U₀·L/ν` (paper: 7000–8000).
    pub reynolds: f64,
    /// Initial-condition band.
    pub ic: IcSpec,
    /// Solver used for the evolution.
    pub solver: SolverKind,
    /// Base RNG seed; sample `s` uses `seed + s`.
    pub seed: u64,
    /// Emit a `physics` diagnostics record every this many solver steps
    /// per trajectory (`0`, the default, disables probing). Only active
    /// while `ft-obs` instrumentation is enabled; records are tagged with
    /// the sample index.
    pub probe_every: usize,
}

impl DatasetConfig {
    /// A small configuration that generates in seconds on a laptop while
    /// preserving every step of the paper's protocol (used by tests,
    /// examples and the scaled-down experiment harness).
    pub fn small(n_grid: usize, samples: usize, snapshots: usize) -> Self {
        DatasetConfig {
            n_grid,
            samples,
            snapshots,
            dt_sample_tc: 0.005,
            burn_in_tc: 0.5,
            reynolds: 1000.0,
            ic: IcSpec::default(),
            solver: SolverKind::SpectralNs,
            seed: 0,
            probe_every: 0,
        }
    }
}

/// How many solver steps pass between finiteness probes during guarded
/// generation. Divergence spreads globally within a few steps, so a sparse
/// cadence catches a blow-up long before a snapshot is recorded.
const CHECK_EVERY: usize = 16;

/// Failure of a guarded generation run: one sample's solver blew up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenerateError {
    /// Index of the sample whose solver diverged.
    pub sample: usize,
    /// The underlying solver diagnostic.
    pub detail: String,
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset generation failed at sample {}: {}", self.sample, self.detail)
    }
}

impl std::error::Error for GenerateError {}

/// A generated ensemble of decaying-turbulence trajectories.
///
/// `velocity` has shape `[S, T, 2, H, W]` (sample, snapshot, component,
/// grid); vorticity is derived on demand.
pub struct TurbulenceDataset {
    /// The configuration that produced the data.
    pub config: DatasetConfig,
    /// Velocity snapshots, `[S, T, 2, H, W]`.
    pub velocity: Tensor,
}

impl TurbulenceDataset {
    /// Generates the full ensemble, one pool task per sample, panicking
    /// with the sample index if a solver blows up (see
    /// [`TurbulenceDataset::try_generate`] for the recoverable form).
    pub fn generate(config: DatasetConfig) -> Self {
        Self::try_generate(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generates the full ensemble, stopping with [`GenerateError`] if any
    /// sample's solver goes non-finite instead of baking NaN frames into
    /// the dataset (the lowest failing sample's error).
    ///
    /// Each trajectory is a task of its own in one `rayon::scope`, so the
    /// samples run concurrently on the pool. Each depends only on its
    /// seed and lands in its own slot, so the dataset is the same bit for
    /// bit at any pool width.
    pub fn try_generate(config: DatasetConfig) -> Result<Self, GenerateError> {
        assert!(config.samples > 0 && config.snapshots > 0, "empty dataset requested");
        let mut trajs: Vec<Option<Result<Tensor, GenerateError>>> = vec![None; config.samples];
        let config_ref = &config;
        rayon::scope(|scope| {
            for (sample, slot) in trajs.iter_mut().enumerate() {
                scope.spawn(move |_| {
                    let traj = generate_trajectory(config_ref, config_ref.seed + sample as u64);
                    *slot = Some(traj.map_err(|detail| GenerateError { sample, detail }));
                });
            }
        });
        let trajs = trajs
            .into_iter()
            .map(|t| t.expect("every sample's task has run"))
            .collect::<Result<Vec<Tensor>, _>>()?;
        let velocity = Tensor::stack(&trajs);
        Ok(TurbulenceDataset { config, velocity })
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.velocity.dims()[0]
    }

    /// Snapshots per sample.
    pub fn snapshots(&self) -> usize {
        self.velocity.dims()[1]
    }

    /// Grid points per side.
    pub fn n_grid(&self) -> usize {
        self.velocity.dims()[4]
    }

    /// One velocity snapshot `(ux, uy)` of sample `s` at time index `t`.
    pub fn velocity_at(&self, s: usize, t: usize) -> (Tensor, Tensor) {
        let snap = self.velocity.index_axis0(s).index_axis0(t);
        (snap.index_axis0(0), snap.index_axis0(1))
    }

    /// Vorticity trajectory of sample `s`, shape `[T, H, W]`.
    pub fn vorticity_trajectory(&self, s: usize) -> Tensor {
        let t = self.snapshots();
        let frames: Vec<Tensor> = (0..t)
            .map(|i| {
                let (ux, uy) = self.velocity_at(s, i);
                vorticity(&ux, &uy)
            })
            .collect();
        Tensor::stack(&frames)
    }

    /// Splits into train/test subsets by sample index (test gets the tail).
    pub fn split(&self, train: usize) -> (Tensor, Tensor) {
        let s = self.samples();
        assert!(train < s, "train split {train} must leave test samples out of {s}");
        let dims = self.velocity.dims();
        let per = self.velocity.len() / s;
        let (a, b) = self.velocity.data().split_at(train * per);
        let mut train_dims = dims.to_vec();
        train_dims[0] = train;
        let mut test_dims = dims.to_vec();
        test_dims[0] = s - train;
        (
            Tensor::from_vec(&train_dims, a.to_vec()),
            Tensor::from_vec(&test_dims, b.to_vec()),
        )
    }
}

/// Generates one trajectory, shape `[T, 2, H, W]`, with the solver's
/// finiteness guard active throughout burn-in and sampling.
fn generate_trajectory(config: &DatasetConfig, seed: u64) -> Result<Tensor, String> {
    let n = config.n_grid;
    match config.solver {
        SolverKind::EntropicLbm | SolverKind::BgkLbm => {
            let mut cfg = LbmConfig::with_reynolds(n, config.reynolds);
            cfg.collision = if config.solver == SolverKind::EntropicLbm { ft_lbm::Collision::Entropic } else { ft_lbm::Collision::Bgk };
            let (ux0, uy0) = config.ic.generate(n, cfg.u0, seed);
            let mut lbm = Lbm::new(cfg.clone());
            lbm.set_velocity(&ux0, &uy0);
            if config.probe_every > 0 {
                lbm.set_probe(
                    DiagnosticsProbe::new("lbm", config.probe_every as u64)
                        .with_tag(seed - config.seed),
                );
            }

            // Burn-in, then reset time and sample.
            let burn_steps = (config.burn_in_tc * cfg.t_c()).round() as usize;
            lbm.try_run(burn_steps, CHECK_EVERY).map_err(|e| e.to_string())?;
            let sample_steps = (config.dt_sample_tc * cfg.t_c()).round().max(1.0) as usize;

            let mut frames = Vec::with_capacity(config.snapshots);
            for t in 0..config.snapshots {
                if t > 0 {
                    lbm.try_run(sample_steps, CHECK_EVERY).map_err(|e| e.to_string())?;
                }
                let (ux, uy) = lbm.velocity();
                frames.push(Tensor::stack(&[ux, uy]));
            }
            Ok(Tensor::stack(&frames))
        }
        SolverKind::SpectralNs => {
            let mut ns = SpectralNs::new(n, n as f64, ns_viscosity(config));
            if config.probe_every > 0 {
                ns.set_probe(
                    DiagnosticsProbe::new("ns.spectral", config.probe_every as u64)
                        .with_tag(seed - config.seed),
                );
            }
            run_ns_protocol(&mut ns, config, seed, |s| s.cfl_dt())
        }
        SolverKind::ArakawaFd => {
            let mut ns = ArakawaNs::new(n, n as f64, ns_viscosity(config));
            if config.probe_every > 0 {
                ns.set_probe(
                    DiagnosticsProbe::new("ns.arakawa", config.probe_every as u64)
                        .with_tag(seed - config.seed),
                );
            }
            run_ns_protocol(&mut ns, config, seed, |s| s.cfl_dt())
        }
    }
}

/// Viscosity matching the LBM nondimensionalization: box side L = n grid
/// units, u0 = 0.05, ν from the Reynolds number.
fn ns_viscosity(config: &DatasetConfig) -> f64 {
    0.05 * config.n_grid as f64 / config.reynolds
}

/// Shared burn-in/sampling protocol for the Navier-Stokes generators.
fn run_ns_protocol<S: PdeSolver>(
    ns: &mut S,
    config: &DatasetConfig,
    seed: u64,
    cfl_dt: impl Fn(&S) -> f64,
) -> Result<Tensor, String> {
    let n = config.n_grid;
    let u0 = 0.05;
    let t_c = n as f64 / u0;
    let (ux0, uy0) = config.ic.generate(n, u0, seed);
    ns.set_velocity(&ux0, &uy0);

    // Integrate with a CFL-bounded step that divides the sampling
    // interval evenly.
    let sample_dt = config.dt_sample_tc * t_c;
    let cfl = cfl_dt(ns);
    let substeps = (sample_dt / cfl).ceil().max(1.0) as usize;
    let dt = sample_dt / substeps as f64;

    let burn_intervals = (config.burn_in_tc / config.dt_sample_tc).round() as usize;
    ns.try_advance(dt, substeps * burn_intervals, CHECK_EVERY)
        .map_err(|e| e.to_string())?;

    let mut frames = Vec::with_capacity(config.snapshots);
    for t in 0..config.snapshots {
        if t > 0 {
            ns.try_advance(dt, substeps, CHECK_EVERY).map_err(|e| e.to_string())?;
        }
        let (ux, uy) = ns.velocity();
        frames.push(Tensor::stack(&[ux, uy]));
    }
    Ok(Tensor::stack(&frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TurbulenceDataset {
        let mut cfg = DatasetConfig::small(24, 3, 5);
        cfg.burn_in_tc = 0.05; // keep the test fast; protocol unchanged
        TurbulenceDataset::generate(cfg)
    }

    #[test]
    fn shapes_and_accessors() {
        let ds = tiny();
        assert_eq!(ds.velocity.dims(), &[3, 5, 2, 24, 24]);
        assert_eq!(ds.samples(), 3);
        assert_eq!(ds.snapshots(), 5);
        assert_eq!(ds.n_grid(), 24);
        let (ux, uy) = ds.velocity_at(1, 2);
        assert_eq!(ux.dims(), &[24, 24]);
        assert_eq!(uy.dims(), &[24, 24]);
        let w = ds.vorticity_trajectory(0);
        assert_eq!(w.dims(), &[5, 24, 24]);
    }

    #[test]
    fn pooled_generation_equals_a_serial_reference_bit_for_bit() {
        for solver in [SolverKind::EntropicLbm, SolverKind::SpectralNs] {
            let mut cfg = DatasetConfig::small(16, 3, 3);
            cfg.burn_in_tc = 0.05;
            cfg.solver = solver;
            let serial: Vec<Tensor> = (0..cfg.samples)
                .map(|s| generate_trajectory(&cfg, cfg.seed + s as u64).unwrap())
                .collect();
            let want = ft_tensor::bit_hash(Tensor::stack(&serial).data());
            let ds = TurbulenceDataset::generate(cfg);
            assert_eq!(ft_tensor::bit_hash(ds.velocity.data()), want, "{solver:?}");
        }
    }

    #[test]
    fn samples_differ_and_are_reproducible() {
        let ds1 = tiny();
        let ds2 = tiny();
        assert!(ds1.velocity.allclose(&ds2.velocity, 0.0), "same seed, same data");
        let s0 = ds1.velocity.index_axis0(0);
        let s1 = ds1.velocity.index_axis0(1);
        assert!(!s0.allclose(&s1, 1e-6), "different ICs give different trajectories");
    }

    #[test]
    fn trajectories_evolve_in_time() {
        let ds = tiny();
        let first = ds.velocity.index_axis0(0).index_axis0(0);
        let last = ds.velocity.index_axis0(0).index_axis0(4);
        let rel = first.sub(&last).norm_l2() / first.norm_l2();
        assert!(rel > 1e-4, "flow must evolve between snapshots: {rel}");
    }

    #[test]
    fn fields_are_finite_and_subsonic() {
        let ds = tiny();
        assert!(ds.velocity.all_finite());
        assert!(ds.velocity.max().abs() < 1.0, "lattice-unit velocities stay < 1");
    }

    #[test]
    fn split_partitions_samples() {
        let ds = tiny();
        let (train, test) = ds.split(2);
        assert_eq!(train.dims()[0], 2);
        assert_eq!(test.dims()[0], 1);
        assert!(test
            .index_axis0(0)
            .allclose(&ds.velocity.index_axis0(2), 0.0));
    }

    #[test]
    fn lbm_and_spectral_agree_qualitatively() {
        // Same IC band and Reynolds number: both solvers must produce
        // decaying, same-magnitude velocity fields (not identical numbers).
        let mut cfg = DatasetConfig::small(24, 1, 3);
        cfg.burn_in_tc = 0.02;
        cfg.solver = SolverKind::BgkLbm;
        let a = TurbulenceDataset::generate(cfg.clone());
        cfg.solver = SolverKind::SpectralNs;
        let b = TurbulenceDataset::generate(cfg);
        let ra = a.velocity.norm_l2();
        let rb = b.velocity.norm_l2();
        assert!(ra / rb < 3.0 && rb / ra < 3.0, "magnitudes differ wildly: {ra} vs {rb}");
    }

    #[test]
    fn arakawa_generator_tracks_spectral_generator() {
        let mut cfg = DatasetConfig::small(32, 1, 4);
        cfg.burn_in_tc = 0.02;
        // Keep the band well resolved for the 2nd-order FD discretization.
        cfg.ic = IcSpec { k_min: 2, k_max: 4 };
        cfg.solver = SolverKind::SpectralNs;
        let a = TurbulenceDataset::generate(cfg.clone());
        cfg.solver = SolverKind::ArakawaFd;
        let b = TurbulenceDataset::generate(cfg);
        // Same IC and protocol, different discretizations: close but not
        // identical over this short horizon.
        let rel = a.velocity.sub(&b.velocity).norm_l2() / a.velocity.norm_l2();
        assert!(rel < 0.05, "cross-generator deviation {rel}");
        assert!(rel > 0.0, "generators must not be bitwise identical");
    }
}