//! `SpectralNs` against an oracle that transforms one field at a time.
//!
//! The solver packs two real fields into each complex inverse transform
//! (`H(x) + i·H(y)`, `H(x)[k] = (x[k] + conj x[−k])/2`), brings the real
//! advection back through a real transform, and builds `set_velocity`'s
//! spectrum from one transform of `ux + i·uy`. The oracle here is the
//! plain formulation: `ifft2(..).re()` of `û`, `v̂`, `∂ₓω̂` and `∂ᵧω̂`
//! each, `fft2` of the real advection, and `fft2` of `ux` and of `uy` one
//! by one, built from `ft_fft::{fft2, ifft2}` alone. Both must agree to
//! rounding (relative L2 ≤ 1e-13 on `ω̂` and on `velocity()`) after 20 and
//! 200 RK4 steps at 32² and 64², from a vorticity with seeded noise up to
//! the Nyquist modes, from a `set_velocity` state (whose Nyquist lines are
//! not Hermitian), and in a forced run.

use std::f64::consts::PI;

use ft_fft::{fft2, ifft2};
use ft_ns::{Forcing, PdeSolver, SpectralGrid, SpectralNs};
use ft_tensor::{CTensor, Complex64, Tensor};

/// Largest relative L2 difference allowed between solver and oracle.
const TOLERANCE: f64 = 1e-13;

/// A smooth two-mode field plus seeded noise that reaches every mode,
/// the Nyquist row and column included (the field of `tests/bits.rs` for
/// seed 11).
fn noisy_field(n: usize, seed: u64) -> Tensor {
    let mut s = seed;
    Tensor::from_fn(&[n, n], |i| {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let noise = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        let x = 2.0 * PI * i[1] as f64 / n as f64;
        let y = 2.0 * PI * i[0] as f64 / n as f64;
        (2.0 * x).sin() * y.cos() + 0.5 * (x + 3.0 * y).cos() + 0.1 * noise
    })
}

/// The integrating-factor RK4 pseudo-spectral step, one transform per
/// field.
struct Oracle {
    n: usize,
    k: Vec<f64>,
    k2: Vec<f64>,
    mask: Vec<f64>,
    nu: f64,
    drag: f64,
    forcing_hat: Option<CTensor>,
    omega_hat: CTensor,
}

impl Oracle {
    fn new(n: usize, nu: f64) -> Self {
        let g = SpectralGrid::new(n, 2.0 * PI);
        Oracle {
            n,
            k: (0..n).map(|i| g.wavenumber(i)).collect(),
            k2: g.k2().to_vec(),
            mask: g.dealias_mask().to_vec(),
            nu,
            drag: 0.0,
            forcing_hat: None,
            omega_hat: CTensor::zeros(&[n, n]),
        }
    }

    fn spectrum(field: &Tensor) -> CTensor {
        fft2(&CTensor::from_real(field))
    }

    /// `ĝ` with mode `(iy, ix)` set from its value and wavenumbers.
    fn map(&self, spec: &CTensor, f: impl Fn(Complex64, usize, f64, f64) -> Complex64) -> CTensor {
        let n = self.n;
        let mut out = spec.clone();
        for (idx, z) in out.data_mut().iter_mut().enumerate() {
            *z = f(*z, idx, self.k[idx % n], self.k[idx / n]);
        }
        out
    }

    fn velocity_spectra(&self, w: &CTensor) -> (CTensor, CTensor) {
        let psi = self.map(w, |z, idx, _, _| {
            if self.k2[idx] == 0.0 {
                Complex64::ZERO
            } else {
                z / self.k2[idx]
            }
        });
        (
            self.map(&psi, |p, _, _, ky| p.mul_i() * ky),
            self.map(&psi, |p, _, kx, _| p.mul_neg_i() * kx),
        )
    }

    fn nonlinear(&self, w: &CTensor) -> CTensor {
        let (u_hat, v_hat) = self.velocity_spectra(w);
        let u = ifft2(&u_hat).re();
        let v = ifft2(&v_hat).re();
        let wx = ifft2(&self.map(w, |z, _, kx, _| z.mul_i() * kx)).re();
        let wy = ifft2(&self.map(w, |z, _, _, ky| z.mul_i() * ky)).re();
        let advection = u.mul(&wx).add(&v.mul(&wy)).scale(-1.0);
        let mut n_hat = Self::spectrum(&advection);
        for (z, &m) in n_hat.data_mut().iter_mut().zip(&self.mask) {
            *z *= m;
        }
        if let Some(f) = &self.forcing_hat {
            n_hat.add_assign(f);
        }
        n_hat
    }

    fn step(&mut self, dt: f64) {
        let e_half: Vec<f64> =
            self.k2.iter().map(|&k| (-(self.nu * k + self.drag) * dt * 0.5).exp()).collect();
        let e_full: Vec<f64> = e_half.iter().map(|&e| e * e).collect();
        let w = self.omega_hat.clone();
        let wd = w.data();
        let stage = |f: &dyn Fn(usize) -> Complex64| {
            let mut t = w.clone();
            for (idx, z) in t.data_mut().iter_mut().enumerate() {
                *z = f(idx);
            }
            t
        };
        let k1 = self.nonlinear(&w);
        let k2 = self.nonlinear(&stage(&|i| (wd[i] + k1.data()[i] * (dt * 0.5)) * e_half[i]));
        let k3 = self.nonlinear(&stage(&|i| wd[i] * e_half[i] + k2.data()[i] * (dt * 0.5)));
        let k4 = self.nonlinear(&stage(&|i| wd[i] * e_full[i] + k3.data()[i] * e_half[i] * dt));
        self.omega_hat = stage(&|i| {
            let (e, eh) = (e_full[i], e_half[i]);
            let (a, b, c, d) = (k1.data()[i], k2.data()[i], k3.data()[i], k4.data()[i]);
            wd[i] * e + (a * e + (b + c) * (2.0 * eh) + d) * (dt / 6.0)
        });
    }

    fn set_velocity(&mut self, ux: &Tensor, uy: &Tensor) {
        let u_hat = Self::spectrum(ux);
        let v_hat = Self::spectrum(uy);
        self.omega_hat = self.map(&v_hat, |v, idx, kx, ky| v.mul_i() * kx - u_hat.data()[idx].mul_i() * ky);
    }

    fn velocity(&self) -> (Tensor, Tensor) {
        let (u_hat, v_hat) = self.velocity_spectra(&self.omega_hat);
        (ifft2(&u_hat).re(), ifft2(&v_hat).re())
    }
}

fn relative_l2(got: &[f64], want: &[f64]) -> f64 {
    let diff: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
    let norm: f64 = want.iter().map(|b| b * b).sum();
    (diff / norm).sqrt()
}

fn flat(c: &CTensor) -> Vec<f64> {
    c.data().iter().flat_map(|z| [z.re, z.im]).collect()
}

/// Steps solver and oracle 200 times with `dt`, comparing `ω̂` and the
/// velocity after 20 and after 200 steps.
fn march_and_compare(case: &str, ns: &mut SpectralNs, oracle: &mut Oracle, dt: f64) {
    let mut done = 0;
    for checkpoint in [20, 200] {
        while done < checkpoint {
            ns.step(dt);
            oracle.step(dt);
            done += 1;
        }
        let ((ux, uy), (ox, oy)) = (ns.velocity(), oracle.velocity());
        let velocity: Vec<f64> = ux.data().iter().chain(uy.data()).copied().collect();
        let want: Vec<f64> = ox.data().iter().chain(oy.data()).copied().collect();
        let errors = [
            ("omega_hat", relative_l2(&flat(ns.omega_hat()), &flat(&oracle.omega_hat))),
            ("velocity", relative_l2(&velocity, &want)),
        ];
        for (what, err) in errors {
            assert!(
                err <= TOLERANCE,
                "{case}, {what} after {done} steps: relative L2 {err:e} > {TOLERANCE:e}"
            );
        }
    }
}

#[test]
fn set_vorticity_with_nyquist_noise_matches_the_oracle() {
    for n in [32, 64] {
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.01);
        let mut oracle = Oracle::new(n, 0.01);
        let w0 = noisy_field(n, 11);
        ns.set_vorticity(&w0);
        oracle.omega_hat = Oracle::spectrum(&w0);
        march_and_compare(&format!("set_vorticity {n}²"), &mut ns, &mut oracle, 0.01);
    }
}

#[test]
fn set_velocity_state_matches_the_oracle() {
    for n in [32, 64] {
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.01);
        let mut oracle = Oracle::new(n, 0.01);
        let (ux, uy) = (noisy_field(n, 11).scale(0.5), noisy_field(n, 29).scale(0.5));
        ns.set_velocity(&ux, &uy);
        oracle.set_velocity(&ux, &uy);
        march_and_compare(&format!("set_velocity {n}²"), &mut ns, &mut oracle, 0.01);
    }
}

#[test]
fn forced_run_matches_the_oracle() {
    for n in [32, 64] {
        let forcing = Forcing::kolmogorov(n, 2.0 * PI, 2, 0.1, 0.05);
        let mut ns = SpectralNs::new(n, 2.0 * PI, 0.02);
        ns.set_forcing(&forcing);
        let mut oracle = Oracle::new(n, 0.02);
        oracle.forcing_hat = Some(Oracle::spectrum(&forcing.f_omega));
        oracle.drag = forcing.drag;
        let w0 = noisy_field(n, 11);
        ns.set_vorticity(&w0);
        oracle.omega_hat = Oracle::spectrum(&w0);
        march_and_compare(&format!("forced {n}²"), &mut ns, &mut oracle, 0.02);
    }
}
