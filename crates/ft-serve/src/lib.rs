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
//! * [`engine`] — the serving core: a bounded request queue with admission
//!   control (explicit [`ServeError::Overloaded`] when full), a dispatcher
//!   that coalesces compatible requests (same model, same input shape)
//!   into micro-batches executed as one batched
//!   [`fno_core::ForecastModel::forward_inference`] call, and graceful
//!   drain on shutdown. [`engine::ServeHandle`] is the cloneable
//!   in-process API;
//! * [`session`] — stateful autoregressive rollout sessions: the server
//!   keeps the temporal-channel window (2D) or space-time block (3D)
//!   server-side and streams successive predicted frames; idle sessions
//!   are evicted by TTL and LRU capacity;
//! * [`proto`] — the wire protocol shared by the `fno-serve` TCP server
//!   and the `serve-bench` load generator: one newline-delimited JSON
//!   header per frame followed by a little-endian `f32` field payload;
//! * [`server`] — the blocking TCP accept loop (thread per connection)
//!   that exposes a [`engine::ServeHandle`] over [`proto`].
//!
//! Everything is instrumented with `ft-obs`: per-stage latency histograms
//! (queue wait, batch assembly, forward, serialize), request/rejection
//! counters, a batch-size distribution, and flight-recorder events for
//! overload and session eviction. With instrumentation disabled the hot
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
use std::time::Duration;

/// A typed serving failure, returned to the caller of every request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is full; the request was rejected at
    /// admission and never executed. Clients should back off and retry.
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
            ServeError::Overloaded => write!(f, "overloaded: request queue is full"),
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

    /// Reconstructs the error class from a wire `code` (detail is lost).
    pub fn from_code(code: &str, detail: &str) -> ServeError {
        match code {
            "overloaded" => ServeError::Overloaded,
            "unknown_model" => ServeError::UnknownModel(detail.to_string()),
            "unknown_session" => ServeError::UnknownSession(0),
            "bad_input" => ServeError::BadInput(detail.to_string()),
            "shutting_down" => ServeError::ShuttingDown,
            _ => ServeError::Protocol(detail.to_string()),
        }
    }
}

/// Default bound on the request queue (admission control).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;
/// Default micro-batch size cap.
pub const DEFAULT_MAX_BATCH: usize = 8;
/// Default batching window: how long the dispatcher holds an open batch
/// waiting for more compatible requests before executing it.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::from_micros(200);
