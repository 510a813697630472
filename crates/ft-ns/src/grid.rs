//! Spectral grid bookkeeping: wavenumbers, dealias masks, Poisson inverse,
//! and the transforms between real fields and their full spectra.
//!
//! Every field the solvers transform is real, and every transform here
//! uses that. A single field goes through the real transform (`rfft`
//! rows plus one column pass over the half spectrum). Two fields share
//! one complex transform: the inverse through the identity
//! `Re(ifft2 X) = ifft2(H(X))` with `H(X)[k] = (X[k] + conj X[−k])/2`,
//! which makes `ifft2(H(X) + i·H(Y))` hold `Re(ifft2 X)` in its real
//! parts and `Re(ifft2 Y)` in its imaginary parts; the forward by
//! splitting `fft2(x + i·y)` into its conjugate-even and conjugate-odd
//! parts. `H` is not optional: the Nyquist row and column of a
//! first-derivative multiplier (`i k` with `k = +n/2` on both sides) and
//! the spectrum [`SpectralGrid::vorticity_spectrum`] builds are not
//! Hermitian, and the real part of their inverse is `ifft2(H(X))`, not
//! `ifft2(X)`.

use ft_fft::nd::fft_axis;
use ft_fft::{shared_real_plan, Direction};
use ft_tensor::{CTensor, Complex64, Tensor};

/// Wavenumber tables, spectral operators and real-field transforms for an
/// `n × n` periodic box of physical side length `l`.
///
/// The transforms: [`SpectralGrid::to_spectral`] and
/// [`SpectralGrid::to_physical`] move one real field through the real
/// transform; [`SpectralGrid::velocity`] reads both velocity components
/// from one packed inverse transform, and
/// [`SpectralGrid::vorticity_spectrum`] takes both from one forward
/// transform. `SpectralNs` and `ArakawaNs` use only these.
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

/// One spectral mode: its flat row-major index and its wavenumbers.
#[derive(Clone, Copy)]
pub(crate) struct Mode {
    pub(crate) idx: usize,
    pub(crate) kx: f64,
    pub(crate) ky: f64,
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

    /// Forward transform of a real field into the full complex spectrum.
    pub fn to_spectral(&self, field: &Tensor) -> CTensor {
        assert_eq!(field.dims(), &[self.n, self.n], "field shape");
        let mut spec = CTensor::zeros(&[self.n, self.n]);
        self.to_spectral_into(field.data(), &mut spec, &mut self.half_spectrum());
        spec
    }

    /// A `[n, n/2 + 1]` buffer for the half spectrum of one real field.
    pub(crate) fn half_spectrum(&self) -> CTensor {
        CTensor::zeros(&[self.n, self.n / 2 + 1])
    }

    /// [`SpectralGrid::to_spectral`] into `spec`, through the caller's
    /// half-spectrum buffer `half` ([`SpectralGrid::half_spectrum`]): `rfft`
    /// rows, a forward column pass over the `n/2 + 1` kept columns, then
    /// the other columns mirrored by conjugate symmetry,
    /// `X[ky][kx] = conj X[−ky][−kx]`.
    pub(crate) fn to_spectral_into(&self, field: &[f64], spec: &mut CTensor, half: &mut CTensor) {
        let n = self.n;
        let wh = n / 2 + 1;
        shared_real_plan(n).par_rfft_rows(field, half.data_mut(), wh);
        fft_axis(half, 0, Direction::Forward);
        let h = half.data();
        for (iy, row) in spec.data_mut().chunks_exact_mut(n).enumerate() {
            let my = (n - iy) % n;
            let (kept, mirrored) = row.split_at_mut(wh);
            kept.copy_from_slice(&h[iy * wh..(iy + 1) * wh]);
            for (ix, z) in (wh..n).zip(mirrored) {
                *z = h[my * wh + n - ix].conj();
            }
        }
    }

    /// Inverse transform back to a real field: the inverse real transform
    /// of `H(spec)`, which is the real part of `ifft2(spec)`.
    pub fn to_physical(&self, spec: &CTensor) -> Tensor {
        assert_eq!(spec.dims(), &[self.n, self.n], "spectrum shape");
        let n = self.n;
        let wh = n / 2 + 1;
        let s = spec.data();
        let mut half = self.half_spectrum();
        for (iy, row) in half.data_mut().chunks_exact_mut(wh).enumerate() {
            let my = (n - iy) % n;
            for (ix, z) in row.iter_mut().enumerate() {
                *z = hermitian(s[iy * n + ix], s[my * n + (n - ix) % n]);
            }
        }
        fft_axis(&mut half, 0, Direction::Inverse);
        let mut out = vec![0.0; n * n];
        shared_real_plan(n).par_irfft_rows(half.data(), wh, &mut out);
        Tensor::from_vec(&[n, n], out)
    }

    /// Calls `f(a, b)` once for every mode `a` and its mirror `b = −a`,
    /// the mode conjugate symmetry pairs it with, where `a.idx ≤ b.idx`.
    /// A self-mirrored mode (`k = 0` or `n/2` on each axis) comes as
    /// `a == b`.
    fn mirror_pairs(&self, mut f: impl FnMut(Mode, Mode)) {
        let n = self.n;
        let mode = |iy: usize, ix: usize| Mode { idx: iy * n + ix, kx: self.k[ix], ky: self.k[iy] };
        for iy in 0..n {
            let my = (n - iy) % n;
            if my < iy {
                continue;
            }
            for ix in 0..n {
                let mx = (n - ix) % n;
                if my == iy && mx < ix {
                    continue;
                }
                f(mode(iy, ix), mode(my, mx));
            }
        }
    }

    /// Replaces the spectrum `z` by the inverse transform of two real
    /// fields packed into one complex field: with `(x, y) = modes(z[m], m)`
    /// at every mode `m`, `z` is packed with `H(x) + i·H(y)` in one mode
    /// loop and transformed in place, and ends up holding `Re(ifft2 x)` in
    /// its real parts and `Re(ifft2 y)` in its imaginary parts.
    pub(crate) fn inverse_pair(
        &self,
        z: &mut CTensor,
        modes: impl Fn(Complex64, Mode) -> (Complex64, Complex64),
    ) {
        assert_eq!(z.dims(), &[self.n, self.n], "spectrum shape");
        let d = z.data_mut();
        self.mirror_pairs(|a, b| {
            let ((xa, ya), (xb, yb)) = (modes(d[a.idx], a), modes(d[b.idx], b));
            let (hx, hy) = (hermitian(xa, xb), hermitian(ya, yb));
            d[a.idx] = hx + hy.mul_i();
            d[b.idx] = hx.conj() + hy.conj().mul_i();
        });
        fft_axis(z, 0, Direction::Inverse);
        fft_axis(z, 1, Direction::Inverse);
    }

    /// Applies the dealias mask in place.
    pub fn dealias(&self, spec: &mut CTensor) {
        for (z, &m) in spec.data_mut().iter_mut().zip(&self.dealias) {
            *z *= m;
        }
    }

    /// `ψ̂ = ω̂ / k²` at one mode of flat index `idx` (zero-mean gauge).
    #[inline]
    fn streamfunction_mode(&self, w: Complex64, idx: usize) -> Complex64 {
        let k2 = self.k2[idx];
        if k2 == 0.0 {
            Complex64::ZERO
        } else {
            w / k2
        }
    }

    /// `(û, v̂) = (i k_y ψ̂, −i k_x ψ̂)` at one mode, from `ω̂` there.
    #[inline]
    pub(crate) fn velocity_mode(&self, w: Complex64, m: Mode) -> (Complex64, Complex64) {
        let p = self.streamfunction_mode(w, m.idx);
        (p.mul_i() * m.ky, p.mul_neg_i() * m.kx)
    }

    /// Solves `∇²ψ = −ω` spectrally: `ψ̂ = ω̂ / k²` (zero-mean gauge).
    pub fn poisson_streamfunction(&self, omega_hat: &CTensor) -> CTensor {
        let mut psi = omega_hat.clone();
        for (idx, z) in psi.data_mut().iter_mut().enumerate() {
            *z = self.streamfunction_mode(*z, idx);
        }
        psi
    }

    /// Velocity fields from the vorticity spectrum, both from one packed
    /// inverse transform.
    pub fn velocity(&self, omega_hat: &CTensor) -> (Tensor, Tensor) {
        let n = self.n;
        assert_eq!(omega_hat.dims(), &[n, n], "spectrum shape");
        let mut uv = omega_hat.clone();
        self.inverse_pair(&mut uv, |w, m| self.velocity_mode(w, m));
        let ux = uv.data().iter().map(|z| z.re).collect();
        let uy = uv.data().iter().map(|z| z.im).collect();
        (Tensor::from_vec(&[n, n], ux), Tensor::from_vec(&[n, n], uy))
    }

    /// Vorticity spectrum from velocity fields: `ω̂ = i k_x v̂ − i k_y û`.
    ///
    /// `û` and `v̂` come from one forward transform `Z = fft2(ux + i·uy)`:
    /// `û[k] = (Z[k] + conj Z[−k])/2` and `v̂[k] = (Z[k] − conj Z[−k])/(2i)`.
    /// At the Nyquist lines `ω̂` is not Hermitian (`k_x` or `k_y` is
    /// `+n/2` at `k` and at `−k`), exactly as when `û` and `v̂` are
    /// transformed one by one.
    pub fn vorticity_spectrum(&self, ux: &Tensor, uy: &Tensor) -> CTensor {
        let n = self.n;
        assert_eq!(ux.dims(), &[n, n], "ux shape");
        assert_eq!(uy.dims(), &[n, n], "uy shape");
        let packed = ux.data().iter().zip(uy.data()).map(|(&x, &y)| Complex64::new(x, y)).collect();
        let mut w = CTensor::from_vec(&[n, n], packed);
        fft_axis(&mut w, 0, Direction::Forward);
        fft_axis(&mut w, 1, Direction::Forward);
        let z = w.data_mut();
        self.mirror_pairs(|a, b| {
            let (za, zb) = (z[a.idx], z[b.idx].conj());
            let u = (za + zb) * 0.5;
            let v = (za - zb).mul_neg_i() * 0.5;
            z[a.idx] = v.mul_i() * a.kx - u.mul_i() * a.ky;
            let (u, v) = (u.conj(), v.conj());
            z[b.idx] = v.mul_i() * b.kx - u.mul_i() * b.ky;
        });
        w
    }
}

/// `H(x)` at a mode from `x` there (`xa`) and at its mirror (`xb`):
/// `(xa + conj xb)/2`. At the mirror it is the conjugate.
#[inline]
fn hermitian(xa: Complex64, xb: Complex64) -> Complex64 {
    (xa + xb.conj()) * 0.5
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
        // The curl of (0, f) is ∂f/∂x.
        let df = g.to_physical(&g.vorticity_spectrum(&Tensor::zeros(&[n, n]), &f));
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
        let (ux, uy) = g.velocity(&what);
        // ∂ₓu + ∂ᵧv is the curl of (−v, u), and must vanish identically
        // away from the Nyquist lines, where a real field's `k = n/2`
        // stands for both signs and has no derivative.
        let div = g.vorticity_spectrum(&uy.scale(-1.0), &ux);
        let mut off_nyquist = 0.0;
        for (iy, row) in div.data().chunks_exact(n).enumerate() {
            for (ix, z) in row.iter().enumerate() {
                if iy != n / 2 && ix != n / 2 {
                    off_nyquist += z.norm_sqr();
                }
            }
        }
        assert!(off_nyquist.sqrt() < 1e-9 * what.norm_l2().max(1e-300));
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
        let (ux, uy) = g.velocity(&what);
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
