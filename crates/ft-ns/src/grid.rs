//! Spectral grid bookkeeping: wavenumbers, dealias masks, Poisson inverse.

use ft_fft::nd::fft_axis;
use ft_fft::{ifft2, Direction};
use ft_tensor::{CTensor, Complex64, Tensor};

/// Wavenumber tables and spectral operators for an `n × n` periodic box of
/// physical side length `l`.
pub struct SpectralGrid {
    n: usize,
    l: f64,
    /// Signed wavenumber along one axis: `2π/l · {0, 1, …, n/2−1, −n/2, …, −1}`.
    k: Vec<f64>,
    /// `k²` for every (ky, kx) pair, flattened row-major.
    k2: Vec<f64>,
    /// 2/3-rule dealias mask (1.0 keep, 0.0 zero), flattened row-major.
    dealias: Vec<f64>,
}

impl SpectralGrid {
    /// Builds tables for an `n × n` grid with box side `l`.
    pub fn new(n: usize, l: f64) -> Self {
        assert!(n >= 4, "spectral grid needs n ≥ 4");
        let dk = 2.0 * std::f64::consts::PI / l;
        let k: Vec<f64> = (0..n)
            .map(|i| {
                let s = if i <= n / 2 { i as isize } else { i as isize - n as isize };
                s as f64 * dk
            })
            .collect();
        let mut k2 = vec![0.0; n * n];
        let mut dealias = vec![0.0; n * n];
        let cut = (n as f64) / 3.0 * dk; // keep |k| < (2/3)·k_max = n/3·dk
        for (iy, &ky) in k.iter().enumerate() {
            for (ix, &kx) in k.iter().enumerate() {
                k2[iy * n + ix] = kx * kx + ky * ky;
                dealias[iy * n + ix] =
                    if kx.abs() < cut && ky.abs() < cut { 1.0 } else { 0.0 };
            }
        }
        SpectralGrid { n, l, k, k2, dealias }
    }

    /// Grid points per side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Physical box side length.
    pub fn l(&self) -> f64 {
        self.l
    }

    /// Grid spacing `l/n`.
    pub fn dx(&self) -> f64 {
        self.l / self.n as f64
    }

    /// Signed wavenumber along one axis at index `i`.
    #[inline]
    pub fn wavenumber(&self, i: usize) -> f64 {
        self.k[i]
    }

    /// `k²` table (row-major over (ky, kx)).
    #[inline]
    pub fn k2(&self) -> &[f64] {
        &self.k2
    }

    /// 2/3-rule dealias mask.
    #[inline]
    pub fn dealias_mask(&self) -> &[f64] {
        &self.dealias
    }

    /// Forward transform of a real field into the full complex spectrum:
    /// `fft2` of the field, transformed in place in its complex copy.
    pub fn to_spectral(&self, field: &Tensor) -> CTensor {
        assert_eq!(field.dims(), &[self.n, self.n], "field shape");
        let mut spec = CTensor::from_real(field);
        for axis in 0..2 {
            fft_axis(&mut spec, axis, Direction::Forward);
        }
        spec
    }

    /// Inverse transform back to a real field (imaginary residue dropped).
    pub fn to_physical(&self, spec: &CTensor) -> Tensor {
        assert_eq!(spec.dims(), &[self.n, self.n], "spectrum shape");
        ifft2(spec).re()
    }

    /// Applies the dealias mask in place.
    pub fn dealias(&self, spec: &mut CTensor) {
        for (z, &m) in spec.data_mut().iter_mut().zip(&self.dealias) {
            *z *= m;
        }
    }

    /// Solves `∇²ψ = −ω` spectrally: `ψ̂ = ω̂ / k²` (zero-mean gauge).
    pub fn poisson_streamfunction(&self, omega_hat: &CTensor) -> CTensor {
        let n = self.n;
        let mut psi = omega_hat.clone();
        let data = psi.data_mut();
        for idx in 0..n * n {
            let k2 = self.k2[idx];
            if k2 == 0.0 {
                data[idx] = Complex64::ZERO;
            } else {
                data[idx] = data[idx] / k2;
            }
        }
        psi
    }

    /// Velocity spectra from the vorticity spectrum:
    /// `û = i k_y ψ̂`, `v̂ = −i k_x ψ̂` with `ψ̂ = ω̂/k²`.
    pub fn velocity_spectra(&self, omega_hat: &CTensor) -> (CTensor, CTensor) {
        let n = self.n;
        // `u` starts as ψ̂ and is overwritten mode by mode.
        let mut u = self.poisson_streamfunction(omega_hat);
        let mut v = CTensor::zeros(&[n, n]);
        let rows = u.data_mut().chunks_exact_mut(n).zip(v.data_mut().chunks_exact_mut(n));
        for ((u_row, v_row), &ky) in rows.zip(&self.k) {
            for ((u, v), &kx) in u_row.iter_mut().zip(v_row).zip(&self.k) {
                let p = *u;
                *u = p.mul_i() * ky;
                *v = p.mul_neg_i() * kx;
            }
        }
        (u, v)
    }

    /// Vorticity spectrum from velocity fields: `ω̂ = i k_x v̂ − i k_y û`.
    pub fn vorticity_spectrum(&self, ux: &Tensor, uy: &Tensor) -> CTensor {
        let n = self.n;
        let u_hat = self.to_spectral(ux);
        // `w` starts as v̂ and is overwritten mode by mode.
        let mut w = self.to_spectral(uy);
        let rows = w.data_mut().chunks_exact_mut(n).zip(u_hat.data().chunks_exact(n));
        for ((w_row, u_row), &ky) in rows.zip(&self.k) {
            for ((w, &u), &kx) in w_row.iter_mut().zip(u_row).zip(&self.k) {
                *w = w.mul_i() * kx - u.mul_i() * ky;
            }
        }
        w
    }

    /// Spectral partial derivative along x of a spectrum (multiply by `i k_x`).
    pub fn ddx_spec(&self, spec: &CTensor) -> CTensor {
        let mut out = spec.clone();
        for row in out.data_mut().chunks_exact_mut(self.n) {
            for (z, &kx) in row.iter_mut().zip(&self.k) {
                *z = z.mul_i() * kx;
            }
        }
        out
    }

    /// Spectral partial derivative along y of a spectrum (multiply by `i k_y`).
    pub fn ddy_spec(&self, spec: &CTensor) -> CTensor {
        let mut out = spec.clone();
        for (row, &ky) in out.data_mut().chunks_exact_mut(self.n).zip(&self.k) {
            for z in row {
                *z = z.mul_i() * ky;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn wavenumbers_are_signed() {
        let g = SpectralGrid::new(8, 2.0 * PI);
        let ks: Vec<f64> = (0..8).map(|i| g.wavenumber(i)).collect();
        assert_eq!(ks, vec![0.0, 1.0, 2.0, 3.0, 4.0, -3.0, -2.0, -1.0]);
    }

    #[test]
    fn spectral_derivative_of_sine() {
        let n = 32;
        let g = SpectralGrid::new(n, 2.0 * PI);
        let f = Tensor::from_fn(&[n, n], |i| (3.0 * 2.0 * PI * i[1] as f64 / n as f64).sin());
        let spec = g.to_spectral(&f);
        let df = g.to_physical(&g.ddx_spec(&spec));
        let expect =
            Tensor::from_fn(&[n, n], |i| 3.0 * (3.0 * 2.0 * PI * i[1] as f64 / n as f64).cos());
        assert!(df.allclose(&expect, 1e-9), "max err");
    }

    #[test]
    fn poisson_inverts_laplacian() {
        let n = 16;
        let g = SpectralGrid::new(n, 2.0 * PI);
        // ψ = sin(2x)cos(3y) → ω = −∇²ψ = 13 ψ.
        let psi = Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            (2.0 * x).sin() * (3.0 * y).cos()
        });
        let omega = psi.scale(13.0);
        let psi_rec = g.to_physical(&g.poisson_streamfunction(&g.to_spectral(&omega)));
        assert!(psi_rec.allclose(&psi, 1e-9));
    }

    #[test]
    fn velocity_spectra_are_divergence_free() {
        let n = 24;
        let g = SpectralGrid::new(n, 1.0);
        let omega = Tensor::from_fn(&[n, n], |i| {
            ((i[0] * 3 + i[1] * 5) as f64 * 0.37).sin()
        });
        let what = g.to_spectral(&omega);
        let (uh, vh) = g.velocity_spectra(&what);
        // div̂ = i kx û + i ky v̂ must vanish identically.
        let div = g.ddx_spec(&uh).add(&g.ddy_spec(&vh));
        assert!(div.norm_l2() < 1e-9 * what.norm_l2().max(1e-300));
    }

    #[test]
    fn curl_of_velocity_recovers_vorticity() {
        let n = 32;
        let g = SpectralGrid::new(n, 2.0 * PI);
        // Start from a band-limited vorticity, go to velocity, come back.
        let omega = Tensor::from_fn(&[n, n], |i| {
            let x = 2.0 * PI * i[1] as f64 / n as f64;
            let y = 2.0 * PI * i[0] as f64 / n as f64;
            (2.0 * x + y).sin() + 0.5 * (3.0 * y - x).cos()
        });
        let what = g.to_spectral(&omega);
        let (uh, vh) = g.velocity_spectra(&what);
        let ux = g.to_physical(&uh);
        let uy = g.to_physical(&vh);
        let w_rec = g.to_physical(&g.vorticity_spectrum(&ux, &uy));
        // The k=0 vorticity mode is lost in the Poisson gauge; the test field
        // has zero mean so recovery is exact.
        assert!(w_rec.allclose(&omega, 1e-8));
    }

    #[test]
    fn dealias_kills_high_modes_only() {
        let n = 12;
        let g = SpectralGrid::new(n, 2.0 * PI);
        let mut spec = CTensor::from_fn(&[n, n], |_| Complex64::ONE);
        g.dealias(&mut spec);
        // Mode (0, 0) survives; mode (n/2, n/2) (Nyquist corner) dies.
        assert_eq!(spec.at(&[0, 0]), Complex64::ONE);
        assert_eq!(spec.at(&[n / 2, n / 2]), Complex64::ZERO);
        // Kept fraction should be roughly (2/3)² of all modes.
        let kept: f64 = g.dealias_mask().iter().sum();
        let frac = kept / (n * n) as f64;
        assert!(frac > 0.3 && frac < 0.6, "kept fraction {frac}");
    }
}
