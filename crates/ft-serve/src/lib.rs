//! Inference serving for trained FNO models.
//!
//! Training produces an `FTC1` model file (or a checkpoint in the same
//! container); this crate turns one into a long-lived inference service.
//! It is deliberately dependency-free (std + the workspace crates),
//! matching the offline `crates/compat` philosophy. The moving parts:
//!
//! * [`registry`] — loads model files into a named
//!   [`registry::ModelRegistry`] through `Fno::load`, which validates the
//!   embedded self-describing [`fno_core::ModelMeta`] header and every
//!   weight tensor *before* restoring them, so an architecture mismatch is
//!   a typed error rather than a panic deep in `restore_params`;
//! * [`engine`] — the serving core: admission (model, input shape,
//!   draining flag), then one tape-free
//!   [`fno_core::ForecastModel::forward_inference`] call per predict, run
//!   on the calling thread (one request, one forward; no queue).
//!   [`engine::ServeHandle`] is the cloneable in-process API;
//! * [`session`] — stateful autoregressive rollout sessions: the server
//!   keeps the temporal-channel window (2D) or space-time block (3D)
//!   server-side and streams successive predicted frames; idle sessions
//!   are evicted by TTL and LRU capacity;
//! * [`proto`] — the wire protocol shared by the `fno-serve` TCP server
//!   and the `serve-bench` load generator: one newline-delimited JSON
//!   header per frame followed by a little-endian `f32` field payload;
//! * [`server`] — the blocking TCP accept loop (thread per connection, at
//!   most [`server::MAX_CONNECTIONS`] live, which also bounds the predicts
//!   running at once) that exposes a [`engine::ServeHandle`] over
//!   [`proto`].
//!
//! Everything is instrumented with `ft-obs`: per-stage latency histograms
//! (forward, serialize), request and refused-connection counters, and
//! flight-recorder events for overload and session eviction. With instrumentation disabled the hot
//! path pays one atomic load per probe, like the rest of the workspace.

#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;

pub use engine::{ServeConfig, ServeEngine, ServeHandle, ServeStats};
pub use registry::{ModelEntry, ModelRegistry, RegistryError};
pub use session::SessionConfig;

use std::fmt;

/// A typed serving failure, returned to the caller of every request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server already holds [`server::MAX_CONNECTIONS`] live
    /// connections; this one was refused at accept and closed. Clients
    /// should back off and retry.
    Overloaded,
    /// No model with this name is registered.
    UnknownModel(String),
    /// No live session with this id (never opened, closed, or evicted).
    UnknownSession(u64),
    /// The input tensor's shape does not match what the model accepts.
    BadInput(String),
    /// The engine is draining; no new work is admitted.
    ShuttingDown,
    /// A wire-protocol violation (malformed header, short payload).
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded: connection limit reached"),
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::BadInput(msg) => write!(f, "bad input: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Stable wire identifier for the error (the `error` field of a
    /// failure response header).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::UnknownModel(_) => "unknown_model",
            ServeError::UnknownSession(_) => "unknown_session",
            ServeError::BadInput(_) => "bad_input",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Protocol(_) => "protocol",
        }
    }
}
