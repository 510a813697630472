//! The serving layer's `ft-obs` instrumentation points, declared in one
//! place so the dashboards (`--profile`, `BENCH_serve.json`) and the code
//! agree on names. Histogram names end in `_seconds` so the bench
//! comparator classifies their quantiles as timings (loose, one-sided).

use ft_obs::{Counter, Gauge, Histogram};

/// Requests admitted into the queue (predict + session steps).
pub static REQUESTS: Counter = Counter::new("serve.requests");
/// Requests rejected at admission because the queue was full.
pub static REJECTED: Counter = Counter::new("serve.rejected");
/// Micro-batches executed.
pub static BATCHES: Counter = Counter::new("serve.batches");
/// Rollout sessions opened.
pub static SESSIONS_OPENED: Counter = Counter::new("serve.sessions.opened");
/// Rollout sessions evicted (TTL expiry or LRU capacity).
pub static SESSIONS_EVICTED: Counter = Counter::new("serve.sessions.evicted");

/// Instantaneous queue depth, sampled at enqueue/dequeue.
pub static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue_depth");
/// Live session count, sampled on open/close/evict.
pub static LIVE_SESSIONS: Gauge = Gauge::new("serve.sessions.live");
/// Live connection threads, sampled on every accept-loop turn.
pub static CONNECTIONS: Gauge = Gauge::new("serve.connections");

/// Distribution of executed batch sizes (the micro-batching win is this
/// distribution's mean moving above 1.0 under load).
pub static BATCH_SIZE: Histogram = Histogram::new("serve.batch_size");
/// Time from admission to dequeue by the dispatcher.
pub static QUEUE_WAIT: Histogram = Histogram::new("serve.queue_wait_seconds");
/// Time the dispatcher spends holding an open batch waiting for
/// compatible requests (bounded by the batch window).
pub static BATCH_ASSEMBLY: Histogram = Histogram::new("serve.batch_assembly_seconds");
/// Batched forward-pass time (whole batch, not per sample).
pub static FORWARD: Histogram = Histogram::new("serve.forward_seconds");
/// Wire serialization time (header + payload encode) per response.
pub static SERIALIZE: Histogram = Histogram::new("serve.serialize_seconds");
