//! Disabled-mode guarantee: instrumentation that is turned off performs
//! **zero heap allocations** — the property that lets the trainer, the
//! solvers and the FFT layer stay instrumented permanently without
//! affecting tier-1 timings.
//!
//! This file is its own test binary (hence its own process), built with
//! `harness = false`: the counting global allocator below sees every
//! allocation in the process, so nothing else may run beside the measured
//! window. Under libtest the test would run on a spawned thread while the
//! harness's main thread kept allocating for its own bookkeeping; a plain
//! `main` has no such thread, so the count is exact under any load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; only adds a relaxed
// counter increment on the allocating paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static HOT_COUNTER: ft_obs::Counter = ft_obs::Counter::new("noalloc.counter");
static HOT_GAUGE: ft_obs::Gauge = ft_obs::Gauge::new("noalloc.gauge");
static HOT_HIST: ft_obs::Histogram = ft_obs::Histogram::new("noalloc.hist");

/// Simulates the instrumentation sequence of one trainer step with
/// observability disabled: spans around forward/backward, counters for
/// throughput, a gauge, a histogram sample, a flight-recorder event, and
/// a (conditionally built) sink record.
fn instrumented_step(i: u64) {
    let _step = ft_obs::span("step");
    {
        let _fwd = ft_obs::span("forward");
        HOT_COUNTER.add(i);
    }
    {
        let _bwd = ft_obs::span("backward");
        HOT_GAUGE.set(i as f64);
        HOT_HIST.observe(i as f64);
    }
    ft_obs::flight::event_with(|| ft_obs::Record::new("event").str("kind", "noalloc").u64("i", i));
    ft_obs::emit_with(|| ft_obs::Record::new("step").u64("i", i));
}

fn main() {
    disabled_instrumentation_allocates_nothing();
    println!("no_alloc: disabled_instrumentation_allocates_nothing ok");
}

fn disabled_instrumentation_allocates_nothing() {
    assert!(!ft_obs::enabled(), "instrumentation must start disabled");

    // Warm up once (outside the measured window) so any lazy runtime
    // state is paid for up front.
    instrumented_step(0);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000 {
        instrumented_step(i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled spans/counters/gauges/emit_with must not allocate"
    );

    // And none of it recorded anything.
    assert_eq!(HOT_COUNTER.get(), 0);
    assert_eq!(HOT_GAUGE.get(), 0.0);
    assert_eq!(HOT_HIST.snapshot().count, 0);
    assert_eq!(ft_obs::flight::event_count(), 0);
    assert!(!ft_obs::span::stats().iter().any(|(p, _)| p == "step"));
}
