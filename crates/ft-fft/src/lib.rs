//! From-scratch fast Fourier transforms for the fno2d-turbulence workspace.
//!
//! The paper's pipeline needs Fourier transforms in three places: the
//! spectral convolution inside the FNO layers, the pseudo-spectral
//! Navier-Stokes solver, and the spectral analysis (energy spectra). No
//! external FFT crate is sanctioned for this build, so this crate implements:
//!
//! * an iterative **radix-2** Cooley-Tukey transform for power-of-two sizes
//!   (the 64/128/256 spatial grids), run over a block of lines at once so
//!   its butterflies vectorize across lines at the host's width,
//! * a recursive **mixed-radix** transform for smooth sizes (factors 2/3/5/7,
//!   e.g. the 10-snapshot temporal axis of the 3D FNO),
//! * **Bluestein's** chirp-z algorithm for arbitrary (prime) sizes,
//! * **real-input** transforms (`rfft`/`irfft`) with the half-spectrum
//!   layout used by `torch.fft.rfftn`,
//! * batched **N-dimensional** transforms over the trailing axes of a
//!   [`ft_tensor::Tensor`]/[`ft_tensor::CTensor`], rayon-parallel over lines
//!   once a call holds [`MIN_PARALLEL_POINTS`] values (smaller calls run on
//!   the calling thread); a strided radix-2 axis is transformed in place,
//!   with no gather.
//!
//! Conventions match `torch.fft` defaults: the forward transform is
//! unnormalized, the inverse carries the `1/n` factor (`norm="backward"`).

#![warn(missing_docs)]
// Indexed loops mirror the discrete math in numeric kernels; clippy's
// iterator rewrites obscure the stencil/butterfly structure.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod bluestein;
pub mod mixed;
pub mod nd;
pub mod plan;
pub mod radix2;
pub mod real;

pub use nd::{fft2, fftn, ifft2, ifftn, irfft2, irfftn, rfft2, rfftn};
pub use plan::{shared_plan, Fft};
pub use real::{irfft, rfft, rows_per_task, shared_real_plan, RealPlan, MIN_PARALLEL_POINTS};

use ft_tensor::Complex64;

/// Transform direction. The inverse applies the `1/n` normalization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Unnormalized forward transform `X[k] = Σ x[j] e^{-2πi jk/n}`.
    Forward,
    /// Normalized inverse transform `x[j] = (1/n) Σ X[k] e^{+2πi jk/n}`.
    Inverse,
}

impl Direction {
    /// Sign of the exponent in the transform kernel.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// Reference O(n²) discrete Fourier transform, used as the correctness
/// oracle in tests and for tiny sizes where it beats the fast paths.
pub fn dft(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = dir.sign();
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
            acc += x * Complex64::cis(theta);
        }
        *o = acc;
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for z in &mut out {
            *z *= inv;
        }
    }
    out
}

/// Convenience one-shot 1D transform using the process-wide plan cache.
pub fn fft_1d(data: &mut [Complex64], dir: Direction) {
    shared_plan(data.len()).process(data, dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft(&x, Direction::Forward);
        for z in y {
            assert!((z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_roundtrip() {
        let x: Vec<Complex64> = (0..7)
            .map(|i| Complex64::new(i as f64, (i * i) as f64 * 0.1))
            .collect();
        let y = dft(&x, Direction::Forward);
        let back = dft(&y, Direction::Inverse);
        for (a, b) in x.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn dft_single_tone() {
        // x[j] = e^{2πi·3j/16} has all energy in bin 3.
        let n = 16;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        let y = dft(&x, Direction::Forward);
        for (k, z) in y.iter().enumerate() {
            let expect = if k == 3 { n as f64 } else { 0.0 };
            assert!((z.abs() - expect).abs() < 1e-9, "bin {k}");
        }
    }
}
