//! Hybrid FNO–PDE time marching (Sec. VI-C, Figs. 8 and 9).
//!
//! A single scheme runner covers the three methodologies compared in the
//! paper: pure PDE, pure (iterated) FNO, and the hybrid alternation where
//! each solver's output seeds the other for the next time window. The log
//! records the Fig. 8 diagnostics (kinetic energy, enstrophy, divergence
//! norm) and keeps the velocity frames so vorticity fields (Fig. 8 top) and
//! energy/enstrophy error curves (Fig. 9) can be derived.

use ft_analysis::stats::GlobalDiagnostics;
use ft_analysis::{report_blowup, sample_finite};
use ft_ns::{PdeSolver, SolverError};
use ft_tensor::Tensor;

use crate::model::{Fno, ForecastModel};
use crate::rollout::Window;

/// Which time-marching scheme to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Classical solver only.
    PurePde,
    /// Iterated FNO only.
    PureFno,
    /// Alternating FNO and PDE windows.
    Hybrid,
}

/// Hybrid-marching configuration.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Frames produced per scheme window (the paper uses 5: the FNO's
    /// output channels, covering 0.025 t_c).
    pub window_frames: usize,
    /// Convective time between frames (the dataset's 0.005 t_c).
    pub dt_frame_tc: f64,
    /// Convective time unit in solver time (`t_c = L/U₀`).
    pub t_c: f64,
}

impl HybridConfig {
    /// Paper-protocol configuration for a solver whose convective time is
    /// `t_c` in its own units.
    pub fn paper(t_c: f64) -> Self {
        HybridConfig { window_frames: 5, dt_frame_tc: 0.005, t_c }
    }
}

/// One recorded trajectory with the Fig. 8 diagnostics.
#[derive(Clone, Debug, Default)]
pub struct TrajectoryLog {
    /// Frame times in convective units (relative to the start of marching).
    pub times: Vec<f64>,
    /// Velocity frames `(ux, uy)`.
    pub frames: Vec<(Tensor, Tensor)>,
    /// Domain kinetic energy per frame.
    pub kinetic_energy: Vec<f64>,
    /// Global enstrophy per frame.
    pub enstrophy: Vec<f64>,
    /// Divergence L2 norm per frame.
    pub divergence: Vec<f64>,
}

impl TrajectoryLog {
    fn push(&mut self, t: f64, ux: Tensor, uy: Tensor) {
        let d = GlobalDiagnostics::of_velocity(&ux, &uy);
        self.times.push(t);
        self.kinetic_energy.push(d.kinetic_energy);
        self.enstrophy.push(d.enstrophy);
        self.divergence.push(d.divergence_norm);
        self.frames.push((ux, uy));
    }

    /// Percentage errors of kinetic energy and enstrophy against a
    /// reference trajectory (Fig. 9). Lengths are truncated to the shorter.
    pub fn percent_errors(&self, reference: &TrajectoryLog) -> (Vec<f64>, Vec<f64>) {
        let n = self.times.len().min(reference.times.len());
        let ke = (0..n)
            .map(|i| {
                100.0 * (self.kinetic_energy[i] - reference.kinetic_energy[i]).abs()
                    / reference.kinetic_energy[i].abs().max(1e-300)
            })
            .collect();
        let en = (0..n)
            .map(|i| {
                100.0 * (self.enstrophy[i] - reference.enstrophy[i]).abs()
                    / reference.enstrophy[i].abs().max(1e-300)
            })
            .collect();
        (ke, en)
    }
}

/// Orchestrates one scheme over a PDE solver `S` and a trained model.
pub struct HybridScheme<'a, S: PdeSolver, M: ForecastModel = Fno> {
    model: &'a M,
    solver: &'a mut S,
    cfg: HybridConfig,
}

impl<'a, S: PdeSolver, M: ForecastModel> HybridScheme<'a, S, M> {
    /// Binds a trained model and a solver.
    pub fn new(model: &'a M, solver: &'a mut S, cfg: HybridConfig) -> Self {
        assert!(cfg.window_frames >= 1, "window must hold at least one frame");
        HybridScheme { model, solver, cfg }
    }

    /// Marches `frames` new frames from a ten-frame history of velocity
    /// snapshots (oldest first), recording diagnostics at every frame.
    ///
    /// The history's last frame is time 0; produced frames are at
    /// `dt_frame_tc, 2·dt_frame_tc, …` in convective units.
    pub fn run(&mut self, history: &[(Tensor, Tensor)], frames: usize, scheme: Scheme) -> TrajectoryLog {
        self.march(history, frames, scheme, None)
            .expect("unchecked march never raises")
    }

    /// Like [`HybridScheme::run`], but probes every produced state for
    /// finiteness (the PDE solver every `check_every` substeps, each FNO
    /// frame on emission) and stops with [`SolverError::BlowUp`] instead of
    /// logging poisoned frames.
    pub fn run_checked(
        &mut self,
        history: &[(Tensor, Tensor)],
        frames: usize,
        scheme: Scheme,
        check_every: usize,
    ) -> Result<TrajectoryLog, SolverError> {
        self.march(history, frames, scheme, Some(check_every.max(1)))
    }

    fn march(
        &mut self,
        history: &[(Tensor, Tensor)],
        frames: usize,
        scheme: Scheme,
        check_every: Option<usize>,
    ) -> Result<TrajectoryLog, SolverError> {
        let c_in = self.model.in_channels();
        assert_eq!(
            history.len(),
            c_in,
            "history must hold exactly the model's input frames"
        );
        let mut log = TrajectoryLog::default();
        let dt_frame = self.cfg.dt_frame_tc * self.cfg.t_c;

        // One autoregressive window per velocity component; FNO windows
        // advance it, PDE frames are pushed into it.
        let (xs, ys): (Vec<Tensor>, Vec<Tensor>) = history.iter().cloned().unzip();
        let mut win_x = Window::new(self.model.layout(), &Tensor::stack(&xs));
        let mut win_y = Window::new(self.model.layout(), &Tensor::stack(&ys));

        let mut produced = 0usize;
        let mut use_fno = scheme != Scheme::PurePde;
        while produced < frames {
            let take = self.cfg.window_frames.min(frames - produced);
            if use_fno {
                let px = win_x.advance(self.model, take);
                let py = win_y.advance(self.model, take);
                for t in 0..take {
                    let (ux, uy) = (px.index_axis0(t), py.index_axis0(t));
                    let finite = || sample_finite(ux.data(), 64) && sample_finite(uy.data(), 64);
                    if check_every.is_some() && !finite() {
                        report_blowup("hybrid.fno", produced as u64, "fno velocity");
                        return Err(SolverError::BlowUp {
                            step: produced as u64,
                            field: "fno velocity",
                        });
                    }
                    produced += 1;
                    log.push(produced as f64 * self.cfg.dt_frame_tc, ux, uy);
                }
            } else {
                // PDE window: seed from the newest frame, then sample every
                // dt_frame with a CFL-bounded substep.
                let (ux0, uy0) = log.frames.last().or(history.last()).expect("non-empty history");
                self.solver.set_velocity(ux0, uy0);
                let substeps = self.pde_substeps(dt_frame);
                let dt = dt_frame / substeps as f64;
                for _ in 0..take {
                    match check_every {
                        Some(ce) => self.solver.try_advance(dt, substeps, ce)?,
                        None => self.solver.advance(dt, substeps),
                    }
                    let (ux, uy) = self.solver.velocity();
                    produced += 1;
                    win_x.push(&ux);
                    win_y.push(&uy);
                    log.push(produced as f64 * self.cfg.dt_frame_tc, ux, uy);
                }
            }
            match scheme {
                Scheme::Hybrid => use_fno = !use_fno,
                Scheme::PureFno => use_fno = true,
                Scheme::PurePde => use_fno = false,
            }
        }
        Ok(log)
    }

    /// Conservative substep count for one frame interval: CFL bound from
    /// the lattice-unit characteristic speed with a safety factor.
    fn pde_substeps(&self, dt_frame: f64) -> usize {
        // dx = 1 in the solver's lattice normalization, |u| ≲ 3·U₀; a
        // fixed bound keeps the cost predictable.
        let cfl_dt = 2.0;
        (dt_frame / cfl_dt).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FnoConfig;
    use crate::config::FnoKind;
    use crate::model::Fno;
    use ft_lbm::IcSpec;
    use ft_ns::SpectralNs;

    fn tiny_model(c_in: usize, c_out: usize) -> Fno {
        let cfg = FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: c_in,
            out_channels: c_out,
            lifting_channels: 3,
            projection_channels: 3,
        norm: false,
        };
        Fno::new(cfg, 0)
    }

    fn history(n: usize, frames: usize) -> Vec<(Tensor, Tensor)> {
        // A slowly evolving PDE history so the last frame is physical.
        let (ux0, uy0) = IcSpec::default().generate(n, 0.05, 3);
        let mut ns = SpectralNs::new(n, n as f64, 0.05 * n as f64 / 500.0);
        use ft_ns::PdeSolver;
        ns.set_velocity(&ux0, &uy0);
        let mut out = Vec::new();
        for _ in 0..frames {
            ns.advance(1.0, 2);
            out.push(ns.velocity());
        }
        out
    }

    #[test]
    fn pure_pde_scheme_matches_direct_solver_energy_decay() {
        let n = 24;
        let model = tiny_model(4, 2);
        let mut solver = SpectralNs::new(n, n as f64, 0.05 * n as f64 / 500.0);
        let hist = history(n, 4);
        let cfg = HybridConfig { window_frames: 2, dt_frame_tc: 0.005, t_c: n as f64 / 0.05 };
        let mut scheme = HybridScheme::new(&model, &mut solver, cfg);
        let log = scheme.run(&hist, 6, Scheme::PurePde);
        assert_eq!(log.times.len(), 6);
        // Viscous decay: kinetic energy must not increase.
        for w in log.kinetic_energy.windows(2) {
            assert!(w[1] <= w[0] * 1.0001, "energy must decay: {:?}", log.kinetic_energy);
        }
        // PDE states are spectrally solenoidal; the recorded diagnostic is
        // the centered-difference divergence, whose truncation residual is
        // O((kh)²/6) of the vorticity norm on these coarse test grids.
        for (d, z) in log.divergence.iter().zip(&log.enstrophy) {
            assert!(*d < 0.2 * z.sqrt().max(1e-300), "divergence {d} vs enstrophy {z}");
        }
    }

    #[test]
    fn schemes_produce_requested_frames_and_alternate() {
        let n = 16;
        let model = tiny_model(4, 2);
        let hist = history(n, 4);
        let cfg = HybridConfig { window_frames: 2, dt_frame_tc: 0.005, t_c: n as f64 / 0.05 };

        for scheme_kind in [Scheme::PureFno, Scheme::Hybrid] {
            let mut solver = SpectralNs::new(n, n as f64, 0.001);
            let mut scheme = HybridScheme::new(&model, &mut solver, cfg.clone());
            let log = scheme.run(&hist, 7, scheme_kind);
            assert_eq!(log.frames.len(), 7, "{scheme_kind:?}");
            assert_eq!(log.times.len(), 7);
            assert!(log.times.windows(2).all(|w| w[1] > w[0]));
        }
    }

    #[test]
    fn hybrid_pde_windows_restore_divergence_free() {
        // The untrained FNO emits arbitrary (non-solenoidal) fields; every
        // PDE window must snap the state back to (numerically) zero
        // divergence — the Fig. 8 bottom-right behaviour.
        let n = 16;
        let model = tiny_model(4, 2);
        let hist = history(n, 4);
        let cfg = HybridConfig { window_frames: 2, dt_frame_tc: 0.005, t_c: n as f64 / 0.05 };
        let mut solver = SpectralNs::new(n, n as f64, 0.001);
        let mut scheme = HybridScheme::new(&model, &mut solver, cfg);
        let log = scheme.run(&hist, 8, Scheme::Hybrid);
        // Windows: FNO frames 0-1, PDE frames 2-3, FNO 4-5, PDE 6-7. The
        // spectral solver projects every step onto divergence-free modes;
        // the recorded diagnostic is the centered-difference residual,
        // whose truncation floor on the FNO's spectrally-noisy output is
        // O((kh)²/6) ≈ 0.4·√enstrophy on this coarse grid. So the PDE
        // frames must (a) never increase the residual left by the FNO
        // window and (b) stay at that truncation floor.
        for frame in [2usize, 3, 6, 7] {
            let d = log.divergence[frame];
            let z = log.enstrophy[frame];
            assert!(
                d <= log.divergence[frame - 1] * 1.05,
                "PDE step must not add divergence: frame {frame} {d} vs {}",
                log.divergence[frame - 1]
            );
            assert!(
                d < 0.5 * z.sqrt().max(1e-300),
                "PDE frame {frame} divergence {d} above truncation floor (enstrophy {z})"
            );
        }
    }

    #[test]
    fn percent_errors_zero_against_self() {
        let n = 16;
        let model = tiny_model(4, 2);
        let hist = history(n, 4);
        let cfg = HybridConfig { window_frames: 2, dt_frame_tc: 0.005, t_c: n as f64 / 0.05 };
        let mut solver = SpectralNs::new(n, n as f64, 0.001);
        let mut scheme = HybridScheme::new(&model, &mut solver, cfg);
        let log = scheme.run(&hist, 4, Scheme::PurePde);
        let (ke, en) = log.percent_errors(&log);
        assert!(ke.iter().all(|&e| e == 0.0));
        assert!(en.iter().all(|&e| e == 0.0));
    }

    #[test]
    #[should_panic(expected = "history must hold")]
    fn wrong_history_length_panics() {
        let n = 16;
        let model = tiny_model(4, 2);
        let hist = history(n, 3);
        let cfg = HybridConfig { window_frames: 2, dt_frame_tc: 0.005, t_c: n as f64 / 0.05 };
        let mut solver = SpectralNs::new(n, n as f64, 0.001);
        HybridScheme::new(&model, &mut solver, cfg).run(&hist, 2, Scheme::Hybrid);
    }
}
