//! Neural-network substrate with hand-derived reverse-mode gradients.
//!
//! The Rust ecosystem offers no sanctioned autodiff for this build, so every
//! layer implements an explicit `forward`/`backward` pair; correctness is
//! enforced by finite-difference gradient checks in each module's tests
//! (see [`gradcheck`]). The layer set is exactly what the paper's FNO models
//! need:
//!
//! * [`Linear`] — pointwise channel-mixing linear map (the per-layer local
//!   term `W x`, and the two maps of a [`PointwiseMlp`]),
//! * [`Gelu`] — the GELU activation (tanh form, as in PyTorch / the
//!   `neuraloperator` reference),
//! * [`PointwiseMlp`] — `Linear → Gelu → Linear` fused over fixed spatial
//!   tiles (the FNO's 256-wide lifting and projection MLPs), never
//!   materializing the hidden tensor,
//! * [`SpectralConv`] — the Fourier-space convolution: a mode-truncated
//!   `rfftn`, a per-mode complex channel mix on the kept modes, and the
//!   matching inverse, never forming the full spectrum; generic over 2 or 3
//!   transform dimensions so the same code backs the 2D-with-channels and
//!   3D models.
//!   Gradients flow through the FFTs via the adjoint identities derived in
//!   [`spectral`],
//! * [`loss::RelativeL2`] — the per-sample relative L2 training loss,
//! * [`Adam`] + [`StepLr`] — the optimizer and scheduler used in Sec. VI
//!   (complex parameters are treated as independent real pairs, the PyTorch
//!   convention).
//!
//! Gradient convention for complex quantities: the "real-pair gradient"
//! `g = ∂L/∂Re(z) + i·∂L/∂Im(z)`, which is what optimizers consume. A
//! complex entry is two real degrees of freedom, re then im
//! ([`ft_tensor::Element::COMPONENTS`], [`ft_tensor::Element::component`]),
//! so [`Adam`], [`global_grad_norm`] and [`gradcheck`] run one generic
//! path for real and complex parameters ([`ParamKind`]).

#![warn(missing_docs)]
// Indexed loops mirror the discrete math in numeric kernels; clippy's
// iterator rewrites obscure the stencil/butterfly structure.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod activation;
pub mod adam;
pub mod clip;
pub mod gradcheck;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod norm;
pub mod param;
pub mod scheduler;
pub mod serialize;
pub mod spectral;

pub use activation::Gelu;
pub use adam::{Adam, AdamState};
pub use clip::{clip_grad_norm, global_grad_norm};
pub use linear::Linear;
pub use loss::RelativeL2;
pub use mlp::PointwiseMlp;
pub use param::{CParam, Param, ParamKind, ParamMut, ParamValue};
pub use loss::Mse;
pub use norm::InstanceNorm;
pub use scheduler::StepLr;
pub use serialize::{
    add_param_values, load_grads, load_param_values_from, restore_params, save_param_values_to,
    scale_param_values, snapshot_grads, snapshot_params,
};
pub use spectral::SpectralConv;

use ft_tensor::Tensor;

/// A differentiable layer with explicit reverse-mode gradients.
///
/// `forward` caches whatever the backward pass needs; `backward` consumes
/// the cache (call order must alternate), accumulates parameter gradients,
/// and returns the gradient with respect to the input.
pub trait Layer {
    /// Forward pass (training mode: caches activations).
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass; `grad_out` matches the forward output shape, the
    /// return value matches the forward input shape.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every learnable parameter (values + gradient accumulators).
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>));

    /// Number of parameters, counting a complex weight as **one** (the
    /// PyTorch `numel` convention used by the paper's Table I).
    fn param_count(&self) -> usize;

    /// Clears all gradient accumulators.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| param::each!(p, p => p.grad.fill(Default::default())));
    }
}

/// Asserts `got` and `want` hold the same `f64` bits, naming the first
/// index that differs (the dispatched kernels' ISA parity tests).
#[cfg(test)]
pub(crate) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{what}: element {i} is {:e}, want {:e}", got[i], want[i]);
    }
}
