//! Finite-difference vorticity–streamfunction solver with the Arakawa
//! Jacobian, mirroring the finite-difference Navier-Stokes code the paper
//! couples the FNO with.

use ft_tensor::Tensor;

use crate::grid::SpectralGrid;
use crate::PdeSolver;

/// Finite-difference incompressible 2D Navier-Stokes solver.
///
/// * advection: Arakawa's (1966) second-order 9-point Jacobian
///   `J = (J⁺⁺ + J⁺ˣ + Jˣ⁺)/3`, which conserves energy and enstrophy in the
///   semi-discrete inviscid limit and therefore cannot blow up through
///   nonlinear aliasing;
/// * diffusion: 5-point centered Laplacian;
/// * Poisson solve for the streamfunction: exact FFT inversion of the
///   *spectral* Laplacian on the periodic box;
/// * time stepping: three-stage strong-stability-preserving Runge-Kutta
///   (SSP-RK3).
pub struct ArakawaNs {
    grid: SpectralGrid,
    nu: f64,
    omega: Tensor,
    time: f64,
    steps: u64,
    /// Optional live physics probe, ticked by guarded advances.
    probe: Option<ft_analysis::DiagnosticsProbe>,
}

impl ArakawaNs {
    /// Creates a solver at rest on an `n × n` grid with box side `l` and
    /// kinematic viscosity `nu`.
    pub fn new(n: usize, l: f64, nu: f64) -> Self {
        assert!(nu >= 0.0, "viscosity must be non-negative");
        ArakawaNs {
            grid: SpectralGrid::new(n, l),
            nu,
            omega: Tensor::zeros(&[n, n]),
            time: 0.0,
            steps: 0,
            probe: None,
        }
    }

    /// Attaches a [`ft_analysis::DiagnosticsProbe`]; guarded advances
    /// ([`PdeSolver::try_advance`]) tick it and emit `physics` records at
    /// its cadence.
    pub fn set_probe(&mut self, probe: ft_analysis::DiagnosticsProbe) {
        self.probe = Some(probe);
    }

    /// The underlying grid.
    pub fn grid(&self) -> &SpectralGrid {
        &self.grid
    }

    /// Elapsed simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Sets the state from a physical vorticity field.
    pub fn set_vorticity(&mut self, omega: &Tensor) {
        assert_eq!(omega.dims(), &[self.grid.n(), self.grid.n()], "vorticity shape");
        self.omega = omega.clone();
        self.time = 0.0;
        self.steps = 0;
    }

    /// Current streamfunction (FFT Poisson solve, zero-mean gauge).
    pub fn streamfunction(&self) -> Tensor {
        let spec = self.grid.to_spectral(&self.omega);
        self.grid.to_physical(&self.grid.poisson_streamfunction(&spec))
    }

    /// Arakawa 9-point Jacobian `J(ψ, ω) ≈ ∂ψ/∂x ∂ω/∂y − ∂ψ/∂y ∂ω/∂x`.
    pub fn arakawa_jacobian(psi: &Tensor, omega: &Tensor, dx: f64) -> Tensor {
        let dims = psi.dims();
        let (ny, nx) = (dims[0], dims[1]);
        assert_eq!(omega.dims(), dims, "field shapes must match");
        let p = psi.data();
        let w = omega.data();
        let c = 1.0 / (12.0 * dx * dx);
        Tensor::from_fn(&[ny, nx], |i| {
            let (y, x) = (i[0], i[1]);
            let yp = (y + 1) % ny;
            let ym = (y + ny - 1) % ny;
            let xp = (x + 1) % nx;
            let xm = (x + nx - 1) % nx;
            let at = |yy: usize, xx: usize| (p[yy * nx + xx], w[yy * nx + xx]);
            let (p_e, w_e) = at(y, xp);
            let (p_w, w_w) = at(y, xm);
            let (p_n, w_n) = at(yp, x);
            let (p_s, w_s) = at(ym, x);
            let (p_ne, w_ne) = at(yp, xp);
            let (p_nw, w_nw) = at(yp, xm);
            let (p_se, w_se) = at(ym, xp);
            let (p_sw, w_sw) = at(ym, xm);

            // J⁺⁺: centered differences of both fields.
            let jpp = (p_e - p_w) * (w_n - w_s) - (p_n - p_s) * (w_e - w_w);
            // J⁺ˣ: ψ centered, ω at corners.
            let jpx = p_e * (w_ne - w_se) - p_w * (w_nw - w_sw) - p_n * (w_ne - w_nw)
                + p_s * (w_se - w_sw);
            // Jˣ⁺: ψ at corners, ω centered.
            let jxp = p_ne * (w_n - w_e) - p_sw * (w_w - w_s) - p_nw * (w_n - w_w)
                + p_se * (w_e - w_s);

            c * (jpp + jpx + jxp)
        })
    }

    /// 5-point periodic Laplacian.
    pub fn laplacian(field: &Tensor, dx: f64) -> Tensor {
        let dims = field.dims();
        let (ny, nx) = (dims[0], dims[1]);
        let d = field.data();
        let c = 1.0 / (dx * dx);
        Tensor::from_fn(&[ny, nx], |i| {
            let (y, x) = (i[0], i[1]);
            let yp = (y + 1) % ny;
            let ym = (y + ny - 1) % ny;
            let xp = (x + 1) % nx;
            let xm = (x + nx - 1) % nx;
            c * (d[y * nx + xp] + d[y * nx + xm] + d[yp * nx + x] + d[ym * nx + x]
                - 4.0 * d[y * nx + x])
        })
    }

    /// `dω/dt = J(ψ, ω) + ν ∇²ω`.
    ///
    /// With `u = ∂ψ/∂y`, `v = −∂ψ/∂x` the advection term is
    /// `u·∇ω = −J(ψ, ω)` for `J = ψ_x ω_y − ψ_y ω_x`, so it enters the
    /// right-hand side with a **plus** sign.
    fn rhs(&self, omega: &Tensor) -> Tensor {
        let spec = self.grid.to_spectral(omega);
        let psi = self.grid.to_physical(&self.grid.poisson_streamfunction(&spec));
        let dx = self.grid.dx();
        let mut out = Self::arakawa_jacobian(&psi, omega, dx);
        if self.nu > 0.0 {
            out.add_scaled(&Self::laplacian(omega, dx), self.nu);
        }
        out
    }

    /// One SSP-RK3 step of size `dt`.
    pub fn step(&mut self, dt: f64) {
        let w = &self.omega;
        // u1 = w + dt f(w)
        let mut u1 = w.clone();
        u1.add_scaled(&self.rhs(w), dt);
        // u2 = 3/4 w + 1/4 (u1 + dt f(u1))
        let mut u2 = w.scale(0.75);
        let mut t = u1.clone();
        t.add_scaled(&self.rhs(&u1), dt);
        u2.add_scaled(&t, 0.25);
        // w⁺ = 1/3 w + 2/3 (u2 + dt f(u2))
        let mut out = w.scale(1.0 / 3.0);
        let mut t2 = u2.clone();
        t2.add_scaled(&self.rhs(&u2), dt);
        out.add_scaled(&t2, 2.0 / 3.0);
        self.omega = out;
        self.time += dt;
        self.steps += 1;
    }

    /// Largest stable advective step `C·dx/|u|_max` (C = 0.4 for RK3).
    pub fn cfl_dt(&self) -> f64 {
        let (ux, uy) = self.velocity();
        let umax = ux
            .data()
            .iter()
            .zip(uy.data())
            .map(|(&a, &b)| a.hypot(b))
            .fold(0.0f64, f64::max);
        let adv = 0.4 * self.grid.dx() / umax.max(1e-12);
        // Explicit diffusion limit dx²/(4ν).
        if self.nu > 0.0 {
            adv.min(0.2 * self.grid.dx() * self.grid.dx() / self.nu)
        } else {
            adv
        }
    }
}

impl PdeSolver for ArakawaNs {
    fn set_velocity(&mut self, ux: &Tensor, uy: &Tensor) {
        let spec = self.grid.vorticity_spectrum(ux, uy);
        self.omega = self.grid.to_physical(&spec);
        self.time = 0.0;
        self.steps = 0;
    }

    fn velocity(&self) -> (Tensor, Tensor) {
        self.grid.velocity(&self.grid.to_spectral(&self.omega))
    }

    fn vorticity(&self) -> Tensor {
        self.omega.clone()
    }

    fn advance(&mut self, dt: f64, steps: usize) {
        let _span = ft_obs::span("ns.arakawa.advance");
        let timer = ft_obs::enabled().then(std::time::Instant::now);
        crate::run_steps(steps, || self.step(dt));
        if let Some(t0) = timer {
            crate::record_advance(steps, t0.elapsed().as_secs_f64(), &crate::NS_ARAKAWA_STEPS_PER_SEC);
        }
    }

    fn resolution(&self) -> usize {
        self.grid.n()
    }

    fn steps_taken(&self) -> u64 {
        self.steps
    }

    fn probe_mut(&mut self) -> Option<&mut ft_analysis::DiagnosticsProbe> {
        self.probe.as_mut()
    }

    fn check_finite(&self) -> Result<(), &'static str> {
        if ft_analysis::sample_finite(self.omega.data(), 64) {
            Ok(())
        } else {
            Err("vorticity")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn test_field(n: usize) -> Tensor {
        Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            (2.0 * x).sin() * y.cos() + 0.4 * (x + 3.0 * y).cos()
        })
    }

    #[test]
    fn jacobian_is_antisymmetric() {
        let n = 16;
        let a = test_field(n);
        let b = Tensor::from_fn(&[n, n], |i| {
            ((i[0] * 2 + i[1]) as f64 * 0.21).sin()
        });
        let jab = ArakawaNs::arakawa_jacobian(&a, &b, 0.5);
        let jba = ArakawaNs::arakawa_jacobian(&b, &a, 0.5);
        assert!(jab.add(&jba).norm_l2() < 1e-12 * jab.norm_l2().max(1e-300));
    }

    #[test]
    fn jacobian_conservation_sums() {
        // Arakawa's scheme satisfies Σ J = 0, Σ ω J = 0, Σ ψ J = 0 exactly
        // (the discrete analogues of enstrophy and energy conservation).
        let n = 16;
        let psi = test_field(n);
        let omega = Tensor::from_fn(&[n, n], |i| ((i[0] * 3 + i[1] * 2) as f64 * 0.37).cos());
        let j = ArakawaNs::arakawa_jacobian(&psi, &omega, 1.0);
        let scale = j.norm_l2().max(1e-300);
        assert!(j.sum().abs() < 1e-11 * scale, "Σ J = {}", j.sum());
        assert!(j.dot(&omega).abs() < 1e-11 * scale, "Σ ωJ = {}", j.dot(&omega));
        assert!(j.dot(&psi).abs() < 1e-11 * scale, "Σ ψJ = {}", j.dot(&psi));
    }

    #[test]
    fn jacobian_matches_analytic_for_smooth_fields() {
        // J(sin x, sin y) = cos x cos y on the 2π box.
        let n = 128;
        let dx = 2.0 * PI / n as f64;
        let psi = Tensor::from_fn(&[n, n], |i| (2.0 * PI * i[1] as f64 / n as f64).sin());
        let omg = Tensor::from_fn(&[n, n], |i| (2.0 * PI * i[0] as f64 / n as f64).sin());
        let j = ArakawaNs::arakawa_jacobian(&psi, &omg, dx);
        let expect = Tensor::from_fn(&[n, n], |i| {
            (2.0 * PI * i[1] as f64 / n as f64).cos() * (2.0 * PI * i[0] as f64 / n as f64).cos()
        });
        let err = j.sub(&expect).norm_l2() / expect.norm_l2();
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn laplacian_of_plane_wave() {
        let n = 64;
        let dx = 2.0 * PI / n as f64;
        let f = Tensor::from_fn(&[n, n], |i| (2.0 * PI * 2.0 * i[1] as f64 / n as f64).sin());
        let lap = ArakawaNs::laplacian(&f, dx);
        // Discrete eigenvalue: −(2/dx² )(1−cos(k dx)) ≈ −k².
        let k = 2.0;
        let expect_factor = -2.0 / (dx * dx) * (1.0 - (k * dx).cos());
        let expect = f.scale(expect_factor);
        assert!(lap.allclose(&expect, 1e-9));
    }

    #[test]
    fn taylor_green_decay_close_to_exact() {
        let n = 64;
        let nu = 0.02;
        let mut ns = ArakawaNs::new(n, 2.0 * PI, nu);
        let w0 = Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            2.0 * 0.3 * x.cos() * y.cos()
        });
        ns.set_vorticity(&w0);
        let dt = 0.005;
        let steps = 200;
        ns.advance(dt, steps);
        let t = dt * steps as f64;
        // The FD Laplacian decays each mode at its discrete eigenvalue, so
        // allow a percent-level deviation from the continuum rate.
        let expect = w0.scale((-2.0 * nu * t).exp());
        let err = ns.vorticity().sub(&expect).norm_l2() / expect.norm_l2();
        assert!(err < 0.01, "relative error {err}");
    }

    #[test]
    fn inviscid_energy_enstrophy_bounded() {
        let n = 32;
        let mut ns = ArakawaNs::new(n, 2.0 * PI, 0.0);
        ns.set_vorticity(&test_field(n));
        let enstrophy = |s: &ArakawaNs| s.vorticity().dot(&s.vorticity());
        let z0 = enstrophy(&ns);
        ns.advance(0.005, 200);
        let z1 = enstrophy(&ns);
        // Semi-discrete conservation + RK3 time truncation: tiny drift.
        assert!((z1 - z0).abs() / z0 < 1e-4, "enstrophy drift {}", (z1 - z0).abs() / z0);
    }

    #[test]
    fn agrees_with_spectral_solver_short_horizon() {
        use crate::spectral::SpectralNs;
        let n = 48;
        let nu = 0.01;
        let w0 = test_field(n);
        let mut fd = ArakawaNs::new(n, 2.0 * PI, nu);
        fd.set_vorticity(&w0);
        let mut sp = SpectralNs::new(n, 2.0 * PI, nu);
        sp.set_vorticity(&w0);
        let dt = 0.002;
        let steps = 100;
        fd.advance(dt, steps);
        sp.advance(dt, steps);
        let err = fd.vorticity().sub(&sp.vorticity()).norm_l2() / sp.vorticity().norm_l2();
        // The deviation is the FD scheme's O(dx²) spatial truncation error;
        // at n = 48 on an O(1) flow a few percent is the expected scale.
        assert!(err < 0.08, "cross-solver deviation {err}");

        // Refining the FD grid must shrink the deviation (2nd-order scheme).
        let n2 = 96;
        let w0_fine = test_field(n2);
        let mut fd2 = ArakawaNs::new(n2, 2.0 * PI, nu);
        fd2.set_vorticity(&w0_fine);
        let mut sp2 = SpectralNs::new(n2, 2.0 * PI, nu);
        sp2.set_vorticity(&w0_fine);
        fd2.advance(dt, steps);
        sp2.advance(dt, steps);
        let err2 = fd2.vorticity().sub(&sp2.vorticity()).norm_l2() / sp2.vorticity().norm_l2();
        assert!(err2 < 0.5 * err, "no grid convergence: {err} -> {err2}");
    }
}
