//! Dense numerical tensors for the fno2d-turbulence workspace.
//!
//! This crate provides the small linear-algebra substrate everything else is
//! built on: a [`Complex64`] scalar type, row-major dense [`Tensor`] (real,
//! `f64`) and [`CTensor`] (complex) containers with shape/stride index math,
//! elementwise and reduction operations, and rayon-parallel helpers. Its
//! [`codec`] module is the workspace's one bounded little-endian binary
//! reader and writer, shared by every on-disk format. Its [`isa`] module
//! is the one runtime dispatch point that compiles a hot kernel for the
//! host's vector width (AVX2, AVX-512) from one source, with the same bits.
//!
//! The containers are deliberately simple — owned, contiguous, row-major —
//! because every consumer in this workspace (FFT, lattice Boltzmann,
//! Navier-Stokes, the FNO layers) operates on whole fields and batches and
//! never needs general strided views. Keeping the representation contiguous
//! makes the hot loops (collision sweeps, butterflies, spectral products)
//! vectorizable and trivially parallelizable, per the hpc-parallel guides.

#![warn(missing_docs)]
// Indexed loops mirror the discrete math in numeric kernels; clippy's
// iterator rewrites obscure the stencil/butterfly structure.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod codec;
pub mod complex;
pub mod ctensor;
pub mod isa;
pub mod ops;
pub mod shape;
pub mod tensor;

pub use complex::Complex64;
pub use ctensor::CTensor;
pub use isa::Isa;
pub use shape::Shape;
pub use tensor::Tensor;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relative to the larger magnitude, whichever is looser.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(approx_eq(0.0, 0.0, 1e-9));
    }
}
