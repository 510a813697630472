//! Allocation-churn guarantees for the batched transform hot path: after a
//! warm-up call, the in-place `fft_axis` allocates a small constant per
//! call (one line buffer per parallel batch for the strided path; the plan
//! cache hands out `Arc` clones of cached plans), and `rfftn`/`irfftn`
//! settle to an exact, stable per-call allocation count (output buffers and
//! per-batch row scratch only — no hidden cache accretion or per-row
//! planning).
//!
//! Own test binary (same convention as `crates/core/tests/infer_no_tape_alloc.rs`):
//! a counting global allocator sees every allocation in the process, so the
//! measurement must not share a process with concurrently-allocating tests.
//! Shapes are kept below the rayon shim's inline threshold so nothing is
//! queued on the worker pool (queueing a batch allocates).

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ft_fft::nd::{fft_axis, irfftn, rfftn};
use ft_fft::Direction;
use ft_tensor::{CTensor, Complex64, Tensor};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; only adds a relaxed
// counter increment on the allocating paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_transforms_have_stable_allocation_counts() {
    // [B, C, H, W] batch, small enough that every parallel loop inlines.
    let x = Tensor::from_fn(&[2, 2, 4, 8], |i| {
        (i[0] as f64 * 0.7 + i[1] as f64 * 1.3 + i[2] as f64 * 0.31 - i[3] as f64 * 0.17).sin()
    });
    let mut ct = CTensor::from_fn(&[2, 2, 4, 8], |i| {
        Complex64::new((i[2] as f64 * 0.5).cos(), (i[3] as f64 * 0.9).sin())
    });

    // Warm-up: populates the process-wide plan caches for every size these
    // shapes touch.
    let spec = rfftn(&x, 2);
    let _ = irfftn(&spec, 8, 2);
    fft_axis(&mut ct, 2, Direction::Forward);

    // In-place strided transform: plan lookup is an Arc clone and the line
    // buffer is one per parallel batch, so the per-call allocation count is
    // a small constant — independent of how many lines are transformed. A
    // regression to per-line buffers would scale the count with the line
    // count (32 lines here vs 128 below).
    let axis_small = allocations_during(|| fft_axis(&mut ct, 2, Direction::Forward));
    let mut big = CTensor::from_fn(&[4, 4, 4, 8], |i| {
        Complex64::new((i[1] as f64 * 0.5).cos(), (i[3] as f64 * 0.9).sin())
    });
    fft_axis(&mut big, 2, Direction::Forward); // warm the bigger batch
    let axis_big = allocations_during(|| fft_axis(&mut big, 2, Direction::Forward));
    assert_eq!(
        axis_small, axis_big,
        "warm fft_axis allocations must not scale with the number of lines"
    );
    assert!(axis_small <= 8, "warm fft_axis should only allocate bookkeeping: {axis_small}");

    // Out-of-place transforms allocate their output (and shape bookkeeping)
    // but nothing that accretes: the count is exactly reproducible.
    let rfft_first = allocations_during(|| {
        let _ = rfftn(&x, 2);
    });
    let rfft_second = allocations_during(|| {
        let _ = rfftn(&x, 2);
    });
    assert_eq!(
        rfft_first, rfft_second,
        "rfftn allocation count must be stable call-to-call (no plan churn)"
    );

    let irfft_first = allocations_during(|| {
        let _ = irfftn(&spec, 8, 2);
    });
    let irfft_second = allocations_during(|| {
        let _ = irfftn(&spec, 8, 2);
    });
    assert_eq!(
        irfft_first, irfft_second,
        "irfftn allocation count must be stable call-to-call (no plan churn)"
    );

    // A fresh last-axis length (odd, so the full-complex fallback runs)
    // plans once, then is just as stable.
    let odd = Tensor::from_fn(&[2, 2, 4, 7], |i| (i[3] as f64 - i[2] as f64 * 0.4).cos());
    let _ = rfftn(&odd, 2);
    let odd_first = allocations_during(|| {
        let _ = rfftn(&odd, 2);
    });
    let odd_second = allocations_during(|| {
        let _ = rfftn(&odd, 2);
    });
    assert_eq!(odd_first, odd_second, "odd-length rfftn must also be churn-free");
}
