//! Observability substrate for the fno2d-turbulence workspace.
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows" — which is unfalsifiable without measurement. This crate is the
//! measurement layer every other crate instruments against, built with no
//! external dependencies (consistent with the offline `crates/compat`
//! approach):
//!
//! * [`mod@span`] — hierarchical wall-clock timing spans with thread-safe
//!   aggregation. A [`span()`] guard times a scope; nested guards compose
//!   into `/`-separated paths (`train/epoch/eval`), and
//!   [`span::report()`] renders the aggregate tree;
//! * [`metrics`] — monotonic [`Counter`]s and last-value [`Gauge`]s backed
//!   by lock-free atomics, declared as `static`s at the instrumentation
//!   site and registered lazily on first use;
//! * [`sink`] — a structured [`Record`] type (insertion-ordered fields,
//!   hand-rolled JSON encoding) and a process-global JSONL sink opened
//!   with [`open_jsonl()`]; the training loop emits one record per epoch;
//! * [`mod@bench`] — the stable-schema `BENCH_*.json` emitter
//!   ([`bench::write_bench_json`]) that snapshots all counters, gauges and
//!   span aggregates alongside caller-provided records.
//!
//! # Zero overhead when disabled
//!
//! All instrumentation is gated on a process-global flag
//! ([`set_enabled`]/[`enabled`]). When the flag is off — the default —
//! every entry point reduces to one relaxed atomic load and a branch:
//! no clock reads, no locks, and **no heap allocations** (asserted by the
//! counting-allocator test in `tests/no_alloc.rs`), so tier-1 timings are
//! unaffected by the presence of instrumentation. Producers that build
//! records should go through [`emit_with`], which only invokes its
//! closure when a sink is actually open.
//!
//! # Example
//!
//! ```
//! static STEPS: ft_obs::Counter = ft_obs::Counter::new("example.steps");
//!
//! ft_obs::set_enabled(true);
//! {
//!     let _outer = ft_obs::span("outer");
//!     let _inner = ft_obs::span("inner"); // aggregates as "outer/inner"
//!     STEPS.add(3);
//! }
//! assert_eq!(STEPS.get(), 3);
//! assert!(ft_obs::span::stats().iter().any(|(path, _)| path == "outer/inner"));
//! ft_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod compare;
pub mod flight;
pub mod hist;
pub mod metrics;
pub mod sink;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use sink::{
    close_jsonl, emit, emit_with, open_jsonl, sink_open, JsonValue, Record,
};
pub use span::{span, SpanGuard, SpanStat};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables all instrumentation (spans, counters,
/// gauges). Disabled is the default; see the crate docs for the
/// zero-overhead guarantee. Enabling also has pool tasks inherit the
/// span path of the thread that spawned them ([`span()`]).
pub fn set_enabled(on: bool) {
    if on {
        rayon::set_task_context(rayon::TaskContext {
            capture: span::capture_context,
            swap: span::swap_context,
        });
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all span aggregates, zeroes every registered counter and gauge,
/// and empties every histogram. Intended for tests and for binaries that
/// emit several independent `BENCH_*.json` snapshots in one process.
pub fn reset() {
    span::reset();
    metrics::reset();
    hist::reset();
}

/// Renders a human-readable profile: the span tree followed by all
/// non-zero counters, gauges and histograms. The CLI prints this on exit
/// under `--profile`.
pub fn profile_report() -> String {
    let mut out = span::report();
    let counters = metrics::counter_snapshot();
    let gauges = metrics::gauge_snapshot();
    let hists = hist::histogram_snapshot();
    if !counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, v) in counters {
            out.push_str(&format!("  {name} = {v}\n"));
        }
    }
    if !gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for (name, v) in gauges {
            out.push_str(&format!("  {name} = {v:.6}\n"));
        }
    }
    if !hists.is_empty() {
        out.push_str("\nhistograms:\n");
        for (name, s) in hists {
            out.push_str(&format!(
                "  {name}: count={} mean={:.6} p50={:.6} p90={:.6} p99={:.6} max={:.6}\n",
                s.count, s.mean, s.p50, s.p90, s.p99, s.max
            ));
        }
    }
    out
}
