//! Dense numerical tensors for the fno2d-turbulence workspace.
//!
//! This crate provides the small linear-algebra substrate everything else is
//! built on: a [`Complex64`] scalar type, one row-major dense container,
//! [`Array`], generic over its [`Element`] (`f64` or [`Complex64`]; the
//! aliases [`Tensor`] and [`CTensor`] name the two), with shape/stride
//! index math, elementwise and reduction operations, and rayon-parallel
//! helpers. A method both element types need is written once on
//! `Array<T>`; the real-only statistics and the complex-only conversions
//! sit on the aliases. Its
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
#[cfg(test)]
mod ctensor;
pub mod isa;
pub mod ops;
pub mod shape;
pub mod tensor;

pub use complex::Complex64;
pub use isa::Isa;
pub use shape::Shape;
pub use tensor::{Array, CTensor, Element, Tensor};

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

/// FNV-1a over the little-endian bit patterns of `values`: the workspace's
/// one fingerprint for "same bits" pins.
pub fn bit_hash(values: &[f64]) -> u64 {
    fnv1a(values.iter().copied())
}

/// [`bit_hash`] of a complex buffer, taken over its `re, im` pairs in order.
pub fn complex_bit_hash(values: &[Complex64]) -> u64 {
    fnv1a(values.iter().flat_map(|z| [z.re, z.im]))
}

fn fnv1a(values: impl Iterator<Item = f64>) -> u64 {
    values
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_hash_is_fnv1a_over_le_bytes() {
        // FNV-1a of no bytes is the offset basis.
        assert_eq!(bit_hash(&[]), 0xcbf2_9ce4_8422_2325);
        // Signed zeros differ in bits, so they differ in hash.
        assert_ne!(bit_hash(&[0.0]), bit_hash(&[-0.0]));
        let z = [Complex64::new(1.5, -0.0), Complex64::new(-2.0, 3.25)];
        assert_eq!(complex_bit_hash(&z), bit_hash(&[1.5, -0.0, -2.0, 3.25]));
    }

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(approx_eq(0.0, 0.0, 1e-9));
    }
}
