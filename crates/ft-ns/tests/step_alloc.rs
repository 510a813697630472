//! A warm `SpectralNs::step` allocates a count that does not depend on the
//! grid: the same at 32² as at 64². The step's buffers are whole fields
//! (spectra, physical fields, the integrating factors), a fixed number per
//! step; an allocation per mode or per line would scale the count with the
//! grid (4× from 32² to 64²).
//!
//! Own test binary with `harness = false` (same convention as
//! `crates/ft-obs/tests/no_alloc.rs`): the counting global allocator sees
//! every allocation in the process, so no libtest thread may run beside the
//! measured window. At these sizes every parallel loop of the step runs
//! inline (below the rayon shim's threshold), so the pool queues nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::sync::atomic::{AtomicU64, Ordering};

use ft_ns::SpectralNs;
use ft_tensor::Tensor;

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

/// Allocations of one warm step on an `n × n` grid.
fn warm_step_allocations(n: usize) -> u64 {
    let mut ns = SpectralNs::new(n, 2.0 * PI, 0.01);
    ns.set_vorticity(&Tensor::from_fn(&[n, n], |i| {
        let x = 2.0 * PI * i[1] as f64 / n as f64;
        let y = 2.0 * PI * i[0] as f64 / n as f64;
        (2.0 * x).sin() * y.cos() + 0.4 * (x + 3.0 * y).cos()
    }));
    // Warm-up: fills the plan caches for this size.
    ns.step(0.01);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    ns.step(0.01);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

fn main() {
    let small = warm_step_allocations(32);
    let large = warm_step_allocations(64);
    assert_eq!(
        small, large,
        "a warm SpectralNs::step must allocate the same count at 32² and 64²"
    );
    println!("step_alloc: a warm SpectralNs::step allocates {small} times at 32² and at 64²");
}
