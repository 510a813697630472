//! The paper's contribution: Fourier neural operators for spatiotemporal
//! dynamics of 2D decaying turbulence, and the hybrid FNO–PDE scheme.
//!
//! * [`config`] — model configurations with the exact closed-form parameter
//!   counts of Table I (all twelve rows reproduce to the digit);
//! * [`model`] — the FNO itself, generic over the 2D-with-temporal-channels
//!   and 3D variants: a two-layer lifting MLP, `L` Fourier layers (spectral
//!   convolution + pointwise linear + GELU), and a two-layer projection MLP;
//! * [`train`] — the Sec. VI training loop: relative-L2 loss, Adam, StepLR,
//!   mini-batching, held-out evaluation;
//! * [`mod@rollout`] — the one mapping between `[F, H, W]` frame blocks and
//!   model tensors, and autoregressive prediction: a model with `k < 10`
//!   output channels is applied iteratively, feeding predictions back,
//!   until ten frames exist (Sec. VI-A) or an arbitrary horizon is reached;
//! * [`hybrid`] — the hybrid FNO–PDE time marching of Sec. VI-C: windows
//!   alternate between the ML surrogate and a classical solver, with the
//!   PDE phase pulling the fields back toward the divergence-free manifold.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub mod baselines;
pub mod checkpoint;
pub mod config;
pub mod deeponet;
pub mod ensemble;
pub mod hybrid;
pub mod model;
pub mod physics;
pub mod rollout;
pub mod train;

pub use baselines::{persistence_rollout, SpectralLinearModel};
pub use checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, ModelMeta};
pub use config::{FnoConfig, FnoKind};
pub use deeponet::{DeepONet, DeepONetConfig};
pub use ensemble::{ensemble_rollout, EnsembleForecast};
pub use hybrid::{HybridConfig, HybridScheme, Scheme, TrajectoryLog};
pub use model::{Fno, ForecastModel};
pub use physics::{divergence_penalty, paired_windows};
pub use rollout::{frame_errors, predict_block_3d, rollout};
pub use train::{
    batch_of, evaluate, sharded_batch_grads, tree_reduce_grads, LossKind, RecoveryCause,
    RecoveryEvent, SampleGrad, TrainConfig, TrainReport, Trainer,
};
