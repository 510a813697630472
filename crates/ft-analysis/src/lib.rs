//! Flow-field analysis: the quantities behind Figs. 1–4, 8 and 9.
//!
//! * [`stats`] — per-snapshot global statistics (mean, standard deviation,
//!   Frobenius norm, global enstrophy, kinetic energy, divergence norm) and
//!   their time evolution over a trajectory (Fig. 1, Fig. 8 bottom row);
//! * [`separation`] — relative L2 separation from the initial condition
//!   (Fig. 2) and the normalized projection / correlation coefficient with
//!   the initial field (Fig. 3);
//! * [`lyapunov`] — maximum Lyapunov exponent estimation from twin
//!   trajectories via the paper's Eq. (1), and the Lyapunov time `T_L = 1/Λ`
//!   (Fig. 4);
//! * [`spectrum`] — isotropic kinetic-energy spectrum `E(k)`, the standard
//!   diagnostic for spectral bias of ML surrogates;
//! * [`probe`] — a [`DiagnosticsProbe`] that periodically measures a live
//!   velocity field (energy, enstrophy, spectral tail, divergence
//!   residual) and streams `physics` records through the `ft-obs` sink;
//! * [`blowup`] — the one [`SolverError`], finiteness probe and
//!   flight-recorder report that the guarded loops of every solver family
//!   (LBM, Navier-Stokes, the hybrid march) share.

#![warn(missing_docs)]
// Indexed loops mirror the discrete math in numeric kernels; clippy's
// iterator rewrites obscure the stencil/butterfly structure.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod blowup;
pub mod higher_order;
pub mod lyapunov;
pub mod probe;
pub mod separation;
pub mod spectrum;
pub mod stats;

pub use blowup::{report_blowup, sample_finite, SolverError};
pub use higher_order::{excess_kurtosis, pdf, structure_function};
pub use lyapunov::{lyapunov_exponent, LyapunovEstimate};
pub use probe::{DiagnosticsProbe, PhysicsDiagnostics};
pub use separation::{correlation_with_initial, l2_separation_from_initial};
pub use spectrum::energy_spectrum;
pub use stats::{FieldStats, GlobalDiagnostics};
