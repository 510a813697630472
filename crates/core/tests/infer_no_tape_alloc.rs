//! No-tape guarantee for the serving path: `forward_inference` must not
//! allocate gradient caches — its allocation count is stable from call to
//! call and strictly below the training-mode `Layer::forward`, which
//! stores an activation tape for backward.
//!
//! This file is its own test binary with `harness = false` (same
//! convention as `crates/ft-obs/tests/no_alloc.rs`): the counting global
//! allocator sees every allocation in the process, so no test harness
//! thread may allocate beside the measured window. Only `main` and the
//! worker pool run here.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ft_nn::Layer;
use ft_tensor::Tensor;
use fno_core::{Fno, FnoConfig, FnoKind, ForecastModel};

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

fn main() {
    forward_inference_allocates_no_gradient_tape();
    println!("infer_no_tape_alloc: forward_inference_allocates_no_gradient_tape ok");
}

fn forward_inference_allocates_no_gradient_tape() {
    let cfg = FnoConfig {
        kind: FnoKind::TwoDChannels,
        width: 4,
        layers: 2,
        modes: 3,
        in_channels: 4,
        out_channels: 2,
        lifting_channels: 6,
        projection_channels: 6,
        norm: true,
    };
    let mut model = Fno::new(cfg, 3);
    let x = Tensor::from_fn(&[2, 4, 8, 8], |i| {
        (i[1] as f64 * 0.4 + i[2] as f64 * 0.21 - i[3] as f64 * 0.13).sin()
    });

    // Warm up both paths outside the measured window: first use pays for
    // FFT plan caches and any lazily grown global state.
    let _ = model.forward_inference(&x);
    let _ = model.forward(&x);

    let infer_first = allocations_during(|| {
        let _ = model.forward_inference(&x);
    });
    let infer_second = allocations_during(|| {
        let _ = model.forward_inference(&x);
    });
    let train = allocations_during(|| {
        let _ = model.forward(&x);
    });

    // Tape-free means no hidden per-call cache growth: the inference
    // count is reproducible exactly…
    assert_eq!(
        infer_first, infer_second,
        "forward_inference must have a stable allocation count (no cache accretion)"
    );
    // …and strictly cheaper than training mode, which allocates the
    // activation tape for backward on every call.
    assert!(
        infer_first < train,
        "forward_inference ({infer_first} allocations) should allocate strictly less \
         than tape-building Layer::forward ({train} allocations)"
    );
}
