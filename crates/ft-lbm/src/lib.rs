//! Entropic lattice Boltzmann (D2Q9) solver for 2D decaying turbulence.
//!
//! This is the data-generation substrate of the paper: the authors produce
//! 5000 samples of decaying 2D turbulence with the *essentially entropic*
//! lattice Boltzmann method (Atif et al., PRL 2017) on 256×256 periodic
//! grids. This crate implements that scheme from scratch:
//!
//! * the **D2Q9 lattice** with the exact product-form entropic equilibrium,
//! * the **entropic stabilizer**: the over-relaxation parameter α is the
//!   nontrivial root of the discrete H-theorem equality
//!   `H(f + αΔ) = H(f)`. The root is bracketed from α = 2 upwards, capped
//!   by the positivity barrier, and then found by Newton's method from the
//!   bracket's right end, stopping once `|H(f + αΔ) − H(f)|` is at the
//!   `1e-13·max(|H(f)|, 1)` noise floor ([`solver::entropic_alpha`]).
//!   α = 2 recovers BGK; the solver departs from 2 only under strong
//!   nonequilibrium, which is exactly what keeps underresolved turbulence
//!   stable. The logarithm is computed in-tree (`lattice::ln`, no libm),
//!   so the solver's bits do not depend on the host,
//! * periodic streaming, macroscopic moment extraction, and finite
//!   difference curl/divergence for the sampled fields,
//! * the paper's random solenoidal initial conditions (a random band-limited
//!   streamfunction), and the burn-in / sampling protocol of Sec. III.
//!
//! The solver has one relaxation, `f ← f + αβ(f^eq − f)` toward the
//! product-form equilibrium, with α = 2 (BGK) or the entropic root. It
//! allocates no buffers per step. Collision works in place, rayon-parallel
//! over groups of eight neighbouring cells, each group one contiguous run
//! per population plane. A group solves its eight α in lockstep, on the
//! stack, compiled for the host's vector width ([`ft_tensor::Isa`]), with
//! the bits of eight one-cell calls. Streaming is parallel over the nine
//! population planes.

#![warn(missing_docs)]
// Indexed loops mirror the discrete math in numeric kernels; clippy's
// iterator rewrites obscure the stencil/butterfly structure.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod fields;
pub mod force;
pub mod ic;
pub mod lattice;
pub mod solver;

pub use fields::{divergence, kinetic_energy, vorticity};
pub use force::BodyForce;
pub use ic::IcSpec;
pub use lattice::{equilibrium, D2Q9};
pub use solver::{Collision, Lbm, LbmConfig, SolverError};
