//! Incompressible 2D Navier-Stokes solvers on the periodic box.
//!
//! The paper's hybrid scheme alternates the FNO with a classical PDE solver
//! (the closed-source PR-DNS finite-difference code). This crate provides
//! two interchangeable substitutes that integrate the same
//! vorticity-streamfunction formulation
//!
//! `∂ω/∂t + u·∇ω = ν ∇²ω`,  `∇²ψ = −ω`,  `u = (∂ψ/∂y, −∂ψ/∂x)`:
//!
//! * [`SpectralNs`] — a pseudo-spectral solver (2/3-rule dealiasing,
//!   RK4 with an exact integrating factor for the viscous term), the
//!   reference integrator for this workspace;
//! * [`ArakawaNs`] — a finite-difference solver with the Arakawa (1966)
//!   energy- and enstrophy-conserving Jacobian, a 5-point Laplacian, an
//!   FFT Poisson solve, and SSP-RK3 time stepping, mirroring the
//!   "finite difference based Navier-Stokes solver" the paper couples the
//!   FNO with.
//!
//! Both expose the same velocity/vorticity state accessors, so the hybrid
//! orchestrator in `fno-core` is generic over the choice via [`PdeSolver`].
//!
//! Both transform through [`SpectralGrid`], and every field they transform
//! is real: a single field goes through the real transform, and two fields
//! share one complex transform (`ifft2(H(x) + i·H(y))` inverse, one
//! `fft2(x + i·y)` forward, see [`grid`]). A [`SpectralNs`] RK4 step runs 8
//! complex and 4 real 2D transforms (two packed inverses and one real
//! forward per stage), where one transform per field took 20 complex ones,
//! and its stage and transform buffers belong to the solver.

#![warn(missing_docs)]
// Indexed loops mirror the discrete math in numeric kernels; clippy's
// iterator rewrites obscure the stencil/butterfly structure.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod arakawa;
pub mod forcing;
pub mod grid;
pub mod spectral;

pub use arakawa::ArakawaNs;
pub use forcing::Forcing;
pub use grid::SpectralGrid;
pub use spectral::SpectralNs;

pub use ft_analysis::SolverError;

use ft_analysis::{report_blowup, DiagnosticsProbe};
use ft_tensor::Tensor;

/// Common interface of the PDE solvers, as consumed by the hybrid
/// FNO-PDE orchestrator.
pub trait PdeSolver {
    /// Resets the solver state from a velocity field (`[n, n]` each).
    fn set_velocity(&mut self, ux: &Tensor, uy: &Tensor);
    /// Current velocity field `(ux, uy)`.
    fn velocity(&self) -> (Tensor, Tensor);
    /// Current vorticity field.
    fn vorticity(&self) -> Tensor;
    /// Advances the solution by `steps` time steps of size `dt`.
    fn advance(&mut self, dt: f64, steps: usize);
    /// Grid points per side.
    fn resolution(&self) -> usize;
    /// Time steps taken since the last state reset.
    fn steps_taken(&self) -> u64;
    /// Cheap finiteness probe of the evolving state — a strided sample,
    /// not a full scan. `Err` names the offending field. Divergence
    /// spreads globally within a step in both spectral and FD schemes, so
    /// a sparse sample detects a blow-up at most a few steps late.
    fn check_finite(&self) -> Result<(), &'static str>;

    /// Mutable access to an attached [`DiagnosticsProbe`], if any.
    /// Solvers that support live physics diagnostics override this (see
    /// `SpectralNs::set_probe` / `ArakawaNs::set_probe`); the default is
    /// probe-less.
    fn probe_mut(&mut self) -> Option<&mut DiagnosticsProbe> {
        None
    }

    /// Advances like [`PdeSolver::advance`] but probes the state every
    /// `check_every` steps, stopping with [`SolverError::BlowUp`] instead
    /// of returning non-finite fields. A blow-up is recorded in the
    /// `ft-obs` flight recorder and triggers a dump; an attached
    /// [`DiagnosticsProbe`] is ticked after every guarded chunk.
    fn try_advance(
        &mut self,
        dt: f64,
        steps: usize,
        check_every: usize,
    ) -> Result<(), SolverError> {
        let chunk = check_every.max(1);
        let mut done = 0usize;
        while done < steps {
            let k = chunk.min(steps - done);
            self.advance(dt, k);
            done += k;
            if let Err(field) = self.check_finite() {
                let step = self.steps_taken();
                report_blowup("ns", step, field);
                return Err(SolverError::BlowUp { step, field });
            }
            // Two-phase tick: `probe_mut` and `velocity` both borrow
            // `self`, so decide due-ness first, then extract and emit.
            if self.probe_mut().is_some_and(|p| p.advance(k as u64)) {
                let (ux, uy) = self.velocity();
                if let Some(p) = self.probe_mut() {
                    p.emit(&ux, &uy);
                }
            }
        }
        Ok(())
    }
}

/// Time steps integrated by any [`PdeSolver::advance`] in the process;
/// ticks only while `ft-obs` instrumentation is enabled.
static NS_STEPS: ft_obs::Counter = ft_obs::Counter::new("ns.steps");
/// Distribution of individual time-step durations across both NS solvers
/// (per-solver split is visible in the `*.steps_per_sec` gauges; the
/// histogram's job is the p99/max tail, which a mean rate hides).
static NS_STEP_SECONDS: ft_obs::Histogram = ft_obs::Histogram::new("ns.step_seconds");

/// Runs `steps` iterations of `step`, timing each one into
/// [`NS_STEP_SECONDS`] while instrumentation is enabled (and not reading
/// the clock at all otherwise). Shared by both `PdeSolver` impls.
pub(crate) fn run_steps(steps: usize, mut step: impl FnMut()) {
    if ft_obs::enabled() {
        for _ in 0..steps {
            let t0 = std::time::Instant::now();
            step();
            NS_STEP_SECONDS.observe(t0.elapsed().as_secs_f64());
        }
    } else {
        for _ in 0..steps {
            step();
        }
    }
}
/// Steps/second achieved by the most recent [`SpectralNs`] advance.
static NS_SPECTRAL_STEPS_PER_SEC: ft_obs::Gauge = ft_obs::Gauge::new("ns.spectral.steps_per_sec");
/// Steps/second achieved by the most recent [`ArakawaNs`] advance.
static NS_ARAKAWA_STEPS_PER_SEC: ft_obs::Gauge = ft_obs::Gauge::new("ns.arakawa.steps_per_sec");

/// Records solver throughput for one `advance` call. `gauge` selects the
/// per-solver steps/sec gauge; shared by both `PdeSolver` impls.
pub(crate) fn record_advance(steps: usize, secs: f64, gauge: &'static ft_obs::Gauge) {
    NS_STEPS.add(steps as u64);
    if secs > 0.0 && steps > 0 {
        gauge.set(steps as f64 / secs);
    }
}
