//! Pseudo-spectral vorticity–streamfunction solver with integrating-factor
//! RK4 time stepping and 2/3-rule dealiasing.

use ft_tensor::{CTensor, Complex64, Tensor};

use crate::forcing::Forcing;
use crate::grid::SpectralGrid;
use crate::PdeSolver;

/// Pseudo-spectral incompressible 2D Navier-Stokes solver.
///
/// State is the full complex vorticity spectrum `ω̂`. The viscous term is
/// integrated exactly through the factor `e^{−νk²t}`; the advective term is
/// advanced with classical RK4 evaluated pseudo-spectrally (products in
/// physical space, derivatives in spectral space, 2/3 dealiasing on the
/// nonlinear term).
pub struct SpectralNs {
    grid: SpectralGrid,
    nu: f64,
    omega_hat: CTensor,
    time: f64,
    steps: u64,
    /// Optional stationary vorticity forcing (spectral) and linear drag.
    forcing_hat: Option<CTensor>,
    drag: f64,
    /// 2/3-rule dealiasing toggle (on by default; off only for ablation).
    dealias: bool,
    /// Optional live physics probe, ticked by guarded advances.
    probe: Option<ft_analysis::DiagnosticsProbe>,
    /// Integrating factors of the last step, reused while its `dt` and the
    /// drag stay the same (ν is fixed at construction).
    factors: Option<Factors>,
    /// The step's three stage spectra, reused from step to step.
    stages: [CTensor; 3],
    /// Working buffers of the nonlinear term, reused from stage to stage.
    rhs: Rhs,
}

/// The integrating factors `E½ = e^{−(νk² + drag)·dt/2}` and `E = E½²` of
/// one step size and drag, per mode.
struct Factors {
    dt: f64,
    drag: f64,
    e_half: Vec<f64>,
    e_full: Vec<f64>,
}

/// Buffers of one evaluation of the nonlinear term: the packed velocity
/// `u + i·v`, the real advection field and its half spectrum. The packed
/// vorticity gradient `ω_x + i·ω_y` takes the place of `ω̂` in the stage
/// buffer itself, which the advection's spectrum then overwrites.
struct Rhs {
    uv: CTensor,
    advection: Vec<f64>,
    half: CTensor,
}

impl Rhs {
    fn new(grid: &SpectralGrid) -> Self {
        let n = grid.n();
        Rhs {
            uv: CTensor::zeros(&[n, n]),
            advection: vec![0.0; n * n],
            half: grid.half_spectrum(),
        }
    }

    /// Replaces the vorticity spectrum in `w` by the right-hand side
    /// `N̂(ω̂) = −(u·∇ω)̂`, dealiased when `dealias` is set, plus the
    /// forcing.
    ///
    /// Two complex inverse transforms give `u`, `v`, `ω_x` and `ω_y`, and
    /// one real forward transform brings the advection back.
    fn eval(&mut self, g: &SpectralGrid, w: &mut CTensor, dealias: bool, forcing: Option<&CTensor>) {
        self.uv.data_mut().copy_from_slice(w.data());
        g.inverse_pair(&mut self.uv, |z, m| g.velocity_mode(z, m));
        g.inverse_pair(w, |z, m| (z.mul_i() * m.kx, z.mul_i() * m.ky));
        let fields = self.uv.data().iter().zip(w.data());
        for (a, (uv, grad)) in self.advection.iter_mut().zip(fields) {
            *a = -(uv.re * grad.re + uv.im * grad.im);
        }
        g.to_spectral_into(&self.advection, w, &mut self.half);
        if dealias {
            g.dealias(w);
        }
        if let Some(f) = forcing {
            w.add_assign(f);
        }
    }
}

impl SpectralNs {
    /// Creates a solver at rest on an `n × n` grid with box side `l` and
    /// kinematic viscosity `nu`.
    pub fn new(n: usize, l: f64, nu: f64) -> Self {
        assert!(nu >= 0.0, "viscosity must be non-negative");
        let grid = SpectralGrid::new(n, l);
        SpectralNs {
            nu,
            omega_hat: CTensor::zeros(&[n, n]),
            time: 0.0,
            steps: 0,
            forcing_hat: None,
            drag: 0.0,
            dealias: true,
            probe: None,
            factors: None,
            stages: std::array::from_fn(|_| CTensor::zeros(&[n, n])),
            rhs: Rhs::new(&grid),
            grid,
        }
    }

    /// Attaches a [`ft_analysis::DiagnosticsProbe`]; guarded advances
    /// ([`PdeSolver::try_advance`]) tick it and emit `physics` records at
    /// its cadence.
    pub fn set_probe(&mut self, probe: ft_analysis::DiagnosticsProbe) {
        self.probe = Some(probe);
    }

    /// Enables or disables the 2/3-rule dealiasing of the nonlinear term.
    /// Disabling it exposes the aliasing instability the rule exists to
    /// prevent; it is provided for the ablation benchmarks only.
    pub fn set_dealias(&mut self, on: bool) {
        self.dealias = on;
    }

    /// Installs a stationary forcing and linear drag (forced-turbulence
    /// extension); `None`-like removal via [`SpectralNs::clear_forcing`].
    pub fn set_forcing(&mut self, forcing: &Forcing) {
        assert!(forcing.drag >= 0.0, "drag must be non-negative");
        assert_eq!(
            forcing.f_omega.dims(),
            &[self.grid.n(), self.grid.n()],
            "forcing field shape"
        );
        self.forcing_hat = Some(self.grid.to_spectral(&forcing.f_omega));
        self.drag = forcing.drag;
    }

    /// Removes any installed forcing and drag.
    pub fn clear_forcing(&mut self) {
        self.forcing_hat = None;
        self.drag = 0.0;
    }

    /// The spectral grid (wavenumber tables).
    pub fn grid(&self) -> &SpectralGrid {
        &self.grid
    }

    /// Kinematic viscosity.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Elapsed simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Sets the state from a physical vorticity field.
    pub fn set_vorticity(&mut self, omega: &Tensor) {
        self.steps = 0;
        self.omega_hat = self.grid.to_spectral(omega);
        self.time = 0.0;
    }

    /// Read access to the vorticity spectrum.
    pub fn omega_hat(&self) -> &CTensor {
        &self.omega_hat
    }

    /// Largest stable advective time step `C·dx/|u|_max` (C = 0.5).
    pub fn cfl_dt(&self) -> f64 {
        let (ux, uy) = self.velocity();
        let umax = ux
            .data()
            .iter()
            .zip(uy.data())
            .map(|(&a, &b)| a.hypot(b))
            .fold(0.0f64, f64::max);
        0.5 * self.grid.dx() / umax.max(1e-12)
    }

    /// One RK4 step of size `dt` with the exact viscous integrating factor.
    ///
    /// Writing `ĝ(t) = e^{νk²t} ω̂(t)`, the ODE becomes `dĝ/dt = e^{νk²t} N̂`.
    /// The four stages only ever need the factors `E½ = e^{−νk²dt/2}` and
    /// `E = e^{−νk²dt}`, which are computed once per step size and drag.
    /// Each stage argument is built in a stage buffer and replaced there by
    /// its right-hand side; the three buffers hold `k1`, `k2` (later
    /// `k2 + k3`) and `k3` (later `k4`), and the result is built over `k1`
    /// and swapped in as the new state.
    pub fn step(&mut self, dt: f64) {
        let stale = self.factors.as_ref().is_none_or(|f| f.dt != dt || f.drag != self.drag);
        if stale {
            // Linear operator: viscous dissipation plus (optional) linear
            // drag, both integrated exactly through the factor.
            let e_half: Vec<f64> = self
                .grid
                .k2()
                .iter()
                .map(|&k| (-(self.nu * k + self.drag) * dt * 0.5).exp())
                .collect();
            let e_full = e_half.iter().map(|&e| e * e).collect();
            self.factors = Some(Factors { dt, drag: self.drag, e_half, e_full });
        }
        let SpectralNs { grid, omega_hat, forcing_hat, dealias, factors, stages, rhs, .. } = self;
        let Some(Factors { e_half, e_full, .. }) = factors else {
            unreachable!("factors were just computed")
        };
        let mut nonlinear = |w: &mut CTensor| rhs.eval(grid, w, *dealias, forcing_hat.as_ref());
        let [k1, k23, k34] = stages;
        let wd = omega_hat.data();

        // k1 at t_n.
        k1.data_mut().copy_from_slice(wd);
        nonlinear(k1);
        let k1d = k1.data();
        // k2 at t_n + dt/2, argument E½·(w + dt/2·k1).
        update(k23, |idx, _| {
            let mut z = wd[idx];
            z += k1d[idx] * (dt * 0.5);
            z *= e_half[idx];
            z
        });
        nonlinear(k23);
        let k2d = k23.data();
        // k3 at t_n + dt/2, argument E½·w + dt/2·k2.
        update(k34, |idx, _| {
            let mut z = wd[idx];
            z *= e_half[idx];
            z += k2d[idx] * (dt * 0.5);
            z
        });
        nonlinear(k34);
        // k2 + k3, the only form the result needs them in.
        update(k23, |idx, k2| k2 + k34.data()[idx]);
        // k4 at t_n + dt, argument E·w + dt·E½·k3.
        update(k34, |idx, mut k| {
            let mut z = wd[idx];
            z *= e_full[idx];
            k *= e_half[idx];
            z += k * dt;
            z
        });
        nonlinear(k34);
        let (k23d, k4d) = (k23.data(), k34.data());

        // ω̂(t+dt) = E·w + dt/6·(E·k1 + 2E½·(k2 + k3) + k4).
        update(k1, |idx, k1| {
            let e = e_full[idx];
            let eh = e_half[idx];
            wd[idx] * e + (k1 * e + k23d[idx] * (2.0 * eh) + k4d[idx]) * (dt / 6.0)
        });
        std::mem::swap(omega_hat, k1);
        self.time += dt;
        self.steps += 1;
    }
}

/// Sets every mode of `t` from its flat index and its current value: the
/// RK4 stage arguments are elementwise in ω̂ and the earlier stages.
fn update(t: &mut CTensor, f: impl Fn(usize, Complex64) -> Complex64) {
    for (idx, z) in t.data_mut().iter_mut().enumerate() {
        *z = f(idx, *z);
    }
}

impl PdeSolver for SpectralNs {
    fn set_velocity(&mut self, ux: &Tensor, uy: &Tensor) {
        self.omega_hat = self.grid.vorticity_spectrum(ux, uy);
        self.time = 0.0;
        self.steps = 0;
    }

    fn velocity(&self) -> (Tensor, Tensor) {
        self.grid.velocity(&self.omega_hat)
    }

    fn vorticity(&self) -> Tensor {
        self.grid.to_physical(&self.omega_hat)
    }

    fn advance(&mut self, dt: f64, steps: usize) {
        let _span = ft_obs::span("ns.spectral.advance");
        let timer = ft_obs::enabled().then(std::time::Instant::now);
        crate::run_steps(steps, || self.step(dt));
        if let Some(t0) = timer {
            crate::record_advance(steps, t0.elapsed().as_secs_f64(), &crate::NS_SPECTRAL_STEPS_PER_SEC);
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
        if ft_analysis::sample_finite(self.omega_hat.data(), 64) {
            Ok(())
        } else {
            Err("vorticity spectrum")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn taylor_green_vorticity(n: usize, amp: f64) -> Tensor {
        // u = −A cos x sin y, v = A sin x cos y  ⇒  ω = 2A cos x cos y.
        Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            2.0 * amp * x.cos() * y.cos()
        })
    }

    #[test]
    fn taylor_green_decays_exactly() {
        // TG is an exact NS solution: ω(t) = ω(0)·e^{−2νt} (k² = 2, L = 2π).
        let n = 32;
        let nu = 0.05;
        let mut ns = SpectralNs::new(n, 2.0 * PI, nu);
        let w0 = taylor_green_vorticity(n, 0.3);
        ns.set_vorticity(&w0);
        let dt = 0.01;
        let steps = 100;
        ns.advance(dt, steps);
        let t = dt * steps as f64;
        let expect = w0.scale((-2.0 * nu * t).exp());
        let err = ns.vorticity().sub(&expect).norm_l2() / expect.norm_l2();
        assert!(err < 1e-8, "relative error {err}");
    }

    #[test]
    fn cached_factors_follow_dt_and_drag() {
        // A step after a change of dt or drag must use fresh factors: it
        // equals, bit for bit, the same step with the cache emptied first.
        let n = 16;
        let run = |drop_cache: bool| {
            let mut ns = SpectralNs::new(n, 2.0 * PI, 0.02);
            ns.set_vorticity(&taylor_green_vorticity(n, 0.7).add(&Tensor::from_fn(&[n, n], |i| {
                (2.0 * PI * (i[0] + 2 * i[1]) as f64 / n as f64).sin()
            })));
            let mut states = Vec::new();
            for (dt, drag) in [(0.01, None), (0.01, None), (0.005, None), (0.005, Some(0.3))] {
                if let Some(drag) = drag {
                    ns.set_forcing(&Forcing { f_omega: Tensor::zeros(&[n, n]), drag });
                }
                if drop_cache {
                    ns.factors = None;
                }
                ns.step(dt);
                states.push(ft_tensor::complex_bit_hash(ns.omega_hat().data()));
            }
            states
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn inviscid_energy_and_enstrophy_conservation() {
        // With ν = 0 the truncated system conserves energy and enstrophy up
        // to the RK4 truncation error.
        let n = 32;
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.0);
        let w0 = Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            (2.0 * x).sin() * y.cos() + 0.4 * (x + 3.0 * y).cos()
        });
        ns.set_vorticity(&w0);
        let enstrophy = |s: &SpectralNs| s.vorticity().dot(&s.vorticity());
        let energy = |s: &SpectralNs| {
            let (u, v) = s.velocity();
            u.dot(&u) + v.dot(&v)
        };
        let (z0, e0) = (enstrophy(&ns), energy(&ns));
        ns.advance(0.005, 200);
        let (z1, e1) = (enstrophy(&ns), energy(&ns));
        assert!((z1 - z0).abs() / z0 < 1e-6, "enstrophy drift {}", (z1 - z0).abs() / z0);
        assert!((e1 - e0).abs() / e0 < 1e-6, "energy drift {}", (e1 - e0).abs() / e0);
    }

    #[test]
    fn velocity_roundtrip_through_pde_interface() {
        let n = 24;
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.01);
        // Zero-mean solenoidal field from the streamfunction
        // ψ = cos 2x sin 3y: u = ∂ψ/∂y, v = −∂ψ/∂x.
        let field = |f: fn(f64, f64) -> f64| {
            Tensor::from_fn(&[n, n], |i| {
                f(2.0 * PI * i[1] as f64 / n as f64, 2.0 * PI * i[0] as f64 / n as f64)
            })
        };
        let ux = field(|x, y| 3.0 * (2.0 * x).cos() * (3.0 * y).cos());
        let uy = field(|x, y| 2.0 * (2.0 * x).sin() * (3.0 * y).sin());
        ns.set_velocity(&ux, &uy);
        let (rux, ruy) = ns.velocity();
        assert!(rux.allclose(&ux, 1e-8), "ux roundtrip");
        assert!(ruy.allclose(&uy, 1e-8), "uy roundtrip");
    }

    #[test]
    fn rk4_convergence_order() {
        // Halving dt must reduce the error by ~2⁴ against a fine reference.
        let n = 16;
        let nu = 0.02;
        let w0 = Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            (x).sin() * (2.0 * y).cos() + 0.3 * (3.0 * x + y).sin()
        });
        // Strong nonlinearity so the truncation error sits far above
        // machine precision at the test step sizes.
        let w0 = w0.scale(6.0);
        let t_end = 0.8;
        let run = |dt: f64| {
            let mut ns = SpectralNs::new(n, 2.0 * PI, nu);
            ns.set_vorticity(&w0);
            let steps = (t_end / dt).round() as usize;
            ns.advance(dt, steps);
            ns.vorticity()
        };
        let reference = run(0.0025);
        let e1 = run(0.08).sub(&reference).norm_l2();
        let e2 = run(0.04).sub(&reference).norm_l2();
        let order = (e1 / e2).log2();
        assert!(order > 3.4, "observed order {order} (e1={e1}, e2={e2})");
    }

    #[test]
    fn kolmogorov_forcing_reaches_exact_laminar_fixed_point() {
        // For f_ω = −A·k·cos(k y) the laminar Kolmogorov flow is an exact
        // steady solution (J(ψ, ω) = 0 for a single mode):
        // ω* = f_ω / (ν k² + μ).
        use crate::forcing::Forcing;
        let n = 32;
        let nu = 0.05;
        let drag = 0.02;
        let k = 2usize;
        let mut ns = SpectralNs::new(n, 2.0 * PI, nu);
        let f = Forcing::kolmogorov(n, 2.0 * PI, k, 0.1, drag);
        ns.set_forcing(&f);
        // Start from rest and integrate toward the fixed point.
        ns.set_vorticity(&Tensor::zeros(&[n, n]));
        ns.advance(0.05, 2000);
        let kf = k as f64;
        let expect = f.f_omega.scale(1.0 / (nu * kf * kf + drag));
        let err = ns.vorticity().sub(&expect).norm_l2() / expect.norm_l2();
        assert!(err < 1e-6, "fixed-point error {err}");
    }

    #[test]
    fn forcing_sustains_energy_where_decay_kills_it() {
        use crate::forcing::Forcing;
        let n = 32;
        let nu = 0.02;
        let w0 = taylor_green_vorticity(n, 0.3);
        let energy = |s: &SpectralNs| {
            let (u, v) = s.velocity();
            u.dot(&u) + v.dot(&v)
        };

        let mut decay = SpectralNs::new(n, 2.0 * PI, nu);
        decay.set_vorticity(&w0);
        let e0 = energy(&decay);
        decay.advance(0.02, 1500);
        let e_decay = energy(&decay);
        assert!(e_decay < 0.5 * e0, "unforced flow must lose energy");

        let mut forced = SpectralNs::new(n, 2.0 * PI, nu);
        forced.set_forcing(&Forcing::random_band(n, 2.0 * PI, 2, 4, 0.5, 0.05, 3));
        forced.set_vorticity(&w0);
        forced.advance(0.02, 1500);
        let e_forced = energy(&forced);
        assert!(
            e_forced > e_decay * 2.0,
            "forcing must sustain the flow: {e_forced} vs decayed {e_decay}"
        );
        assert!(e_forced.is_finite());

        // Statistically steady: energy over the second half stays bounded
        // within a band rather than trending to zero.
        let mid = energy(&forced);
        forced.advance(0.02, 750);
        let late = energy(&forced);
        assert!(late > 0.2 * mid && late < 5.0 * mid, "bounded fluctuation: {mid} -> {late}");
    }

    #[test]
    fn clear_forcing_restores_decay() {
        use crate::forcing::Forcing;
        let n = 24;
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.05);
        ns.set_forcing(&Forcing::kolmogorov(n, 2.0 * PI, 2, 0.2, 0.0));
        ns.set_vorticity(&taylor_green_vorticity(n, 0.2));
        ns.advance(0.05, 200);
        ns.clear_forcing();
        let z0 = ns.vorticity().dot(&ns.vorticity());
        ns.advance(0.05, 400);
        let z1 = ns.vorticity().dot(&ns.vorticity());
        assert!(z1 < z0, "enstrophy must decay once forcing is removed");
    }

    #[test]
    fn cfl_dt_is_positive_and_scales() {
        let n = 32;
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.01);
        ns.set_vorticity(&taylor_green_vorticity(n, 0.3));
        let dt1 = ns.cfl_dt();
        assert!(dt1 > 0.0);
        ns.set_vorticity(&taylor_green_vorticity(n, 0.6));
        let dt2 = ns.cfl_dt();
        assert!(dt2 < dt1, "faster flow must shrink the CFL step");
    }
}
