//! The serving layer's `ft-obs` instrumentation points, declared in one
//! place so the dashboards (`--profile`, `BENCH_serve.json`) and the code
//! agree on names. Histogram names end in `_seconds` so the bench
//! comparator classifies their quantiles as timings (loose, one-sided).

use ft_obs::{Counter, Gauge, Histogram};

/// Predicts admitted (past the admission check and the draining flag).
pub static REQUESTS: Counter = Counter::new("serve.requests");
/// Connections refused at accept because [`crate::server::MAX_CONNECTIONS`]
/// were already live.
pub static REJECTED_CONNECTIONS: Counter = Counter::new("serve.rejected.connections");
/// Rollout sessions opened.
pub static SESSIONS_OPENED: Counter = Counter::new("serve.sessions.opened");
/// Rollout sessions evicted (TTL expiry or LRU capacity).
pub static SESSIONS_EVICTED: Counter = Counter::new("serve.sessions.evicted");

/// Live session count, sampled on open/close/evict.
pub static LIVE_SESSIONS: Gauge = Gauge::new("serve.sessions.live");
/// Live connection threads, sampled on every accept-loop turn.
pub static CONNECTIONS: Gauge = Gauge::new("serve.connections");

/// Forward-pass time of one request.
pub static FORWARD: Histogram = Histogram::new("serve.forward_seconds");
/// Wire serialization time (header + payload encode) per response.
pub static SERIALIZE: Histogram = Histogram::new("serve.serialize_seconds");
