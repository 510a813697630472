//! `solve64`: an entropic LBM trajectory, then hybrid FNO + spectral-NS
//! marching at 64². The only workload where `ft-lbm`, `ft-ns` and
//! `ft-analysis` do the work; its FFTs are complex 2D transforms.

use std::time::Instant;

use fno_core::{Fno, HybridConfig, HybridScheme, Scheme};
use ft_lbm::{IcSpec, Lbm, LbmConfig};
use ft_ns::SpectralNs;
use ft_tensor::Tensor;

use crate::common::{solve_config, Headline, Report, ROUNDS};
use crate::layers::Shape;
use crate::stats::{median, ms_since, trimmed_mean};
use crate::Workload;

pub const SOLVE_GRID: usize = 64;
pub const SOLVE_REYNOLDS: f64 = 1000.0;
/// Frames per timed hybrid march (four FNO/PDE windows of five frames).
const HYBRID_FRAMES: usize = 20;
/// Lattice steps between history frames (≈ the 0.005 t_c frame interval).
const STEPS_PER_FRAME: usize = 6;

pub struct Solve64 {
    lbm: Lbm,
    model: Fno,
    history: Vec<(Tensor, Tensor)>,
    seed: u64,
    mass0: f64,
}

/// The hybrid configuration in lattice units (`t_c = n / u₀`).
pub fn hybrid_config(n: usize) -> HybridConfig {
    HybridConfig::paper(LbmConfig::with_reynolds(n, SOLVE_REYNOLDS).t_c())
}

/// A spectral solver matching the LBM's box and viscosity.
pub fn spectral_solver(n: usize) -> SpectralNs {
    SpectralNs::new(n, n as f64, LbmConfig::with_reynolds(n, SOLVE_REYNOLDS).nu)
}

impl Workload for Solve64 {
    fn setup(seed: u64) -> Self {
        let n = SOLVE_GRID;
        let cfg = LbmConfig::with_reynolds(n, SOLVE_REYNOLDS);
        let (ux, uy) = IcSpec::default().generate(n, cfg.u0, seed);
        let mut lbm = Lbm::new(cfg);
        lbm.set_velocity(&ux, &uy);
        // The hybrid history: ten LBM frames, one every STEPS_PER_FRAME.
        let history: Vec<(Tensor, Tensor)> = (0..10)
            .map(|_| {
                lbm.run(STEPS_PER_FRAME);
                lbm.velocity()
            })
            .collect();
        let model = Fno::new(solve_config(), seed);
        // Warm-up: one hybrid window pair.
        let mut solver = spectral_solver(n);
        let mut scheme = HybridScheme::new(&model, &mut solver, hybrid_config(n));
        std::hint::black_box(scheme.run(&history, 10, Scheme::Hybrid));
        let mass0 = lbm.total_mass();
        Solve64 {
            lbm,
            model,
            history,
            seed,
            mass0,
        }
    }

    fn measure(&mut self, seconds: f64, rep: &mut Report) -> Headline {
        let n = SOLVE_GRID;
        let mut steps_ms = Vec::new();
        let mut marches_s = Vec::new();
        let mut healthy = true;
        let round_s = seconds / ROUNDS as f64;
        for _ in 0..ROUNDS {
            rep.calibrate();
            // The LBM trajectory continues, one collide-stream step per sample.
            let start = Instant::now();
            let first = steps_ms.len();
            while steps_ms.len() - first < 10 || start.elapsed().as_secs_f64() < 0.4 * round_s {
                let t0 = Instant::now();
                self.lbm.step();
                steps_ms.push(ms_since(t0));
            }
            // Hybrid FNO/PDE marches from the LBM history.
            let start = Instant::now();
            let first = marches_s.len();
            while marches_s.len() - first < 1 || start.elapsed().as_secs_f64() < 0.6 * round_s {
                let mut solver = spectral_solver(n);
                let mut scheme = HybridScheme::new(&self.model, &mut solver, hybrid_config(n));
                let t0 = Instant::now();
                let log = scheme.run_checked(&self.history, HYBRID_FRAMES, Scheme::Hybrid, 4);
                marches_s.push(t0.elapsed().as_secs_f64());
                match log {
                    Ok(log) => {
                        healthy &= log.kinetic_energy.len() == HYBRID_FRAMES
                            && log
                                .kinetic_energy
                                .iter()
                                .chain(&log.enstrophy)
                                .all(|e| e.is_finite());
                    }
                    Err(_) => {
                        healthy = false;
                        rep.failed += 1;
                    }
                }
            }
        }
        rep.calibrate();
        rep.attempted += (steps_ms.len() + marches_s.len() * HYBRID_FRAMES) as u64;
        rep.check(
            "solve64: run_checked finishes without BlowUp, with finite energies",
            healthy,
        );
        let step_ms = trimmed_mean(&steps_ms);
        rep.line(format!(
            "lbm.mlups = {:.4} (step {step_ms:.4} ms trimmed mean, p50 {:.4} ms, {} steps at {n}²)",
            (n * n) as f64 / (step_ms * 1e3),
            median(&steps_ms),
            steps_ms.len()
        ));
        let frames_per_s = HYBRID_FRAMES as f64 / trimmed_mean(&marches_s);
        rep.line(format!(
            "hybrid.frames_per_s = {frames_per_s:.4} 1/s ({} marches of {HYBRID_FRAMES} frames, trimmed mean march time)",
            marches_s.len()
        ));
        Headline {
            throughput_per_s: frames_per_s,
            latency_ms: step_ms,
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        let drift = (self.lbm.total_mass() - self.mass0).abs() / self.mass0;
        rep.line(format!("lbm relative mass drift over the run = {drift:e}"));
        rep.check(
            "solve64: LBM mass is conserved (relative drift < 1e-10)",
            drift < 1e-10,
        );
    }

    fn shape(&self) -> Shape {
        Shape::new("solve64", solve_config(), SOLVE_GRID, 2, self.seed)
    }
}
