//! Two guarantees of the serving path, counted by the global allocator.
//!
//! * No tape: `forward_inference` must not allocate gradient caches — its
//!   allocation count is stable from call to call and strictly below the
//!   training-mode `Layer::forward`, which stores an activation tape for
//!   backward.
//! * No fan-out at 32²: a warm batch-1 predict of the serve-sized model
//!   (w8 l4 m8, 10 → 2, 32-wide MLPs) holds every parallel call below
//!   `ft_fft::MIN_PARALLEL_POINTS` or the pool shim's item threshold, so it
//!   queues nothing on the pool: no allocation happens off the calling
//!   thread. A worker that ran a queued task would allocate its batch's
//!   scratch, so this holds only if nothing was queued. On a width-1 pool
//!   (one core) nothing can be queued and the check holds trivially.
//!
//! This file is its own test binary with `harness = false` (same
//! convention as `crates/ft-obs/tests/no_alloc.rs`): the counting global
//! allocator sees every allocation in the process, so no test harness
//! thread may allocate beside the measured window. Only `main` and the
//! worker pool run here.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ft_nn::Layer;
use ft_tensor::Tensor;
use fno_core::{Fno, FnoConfig, FnoKind, ForecastModel};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations made by any thread but `main`.
static OFF_MAIN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on `main` only. A `const` initializer with no destructor, so
    /// reading it from inside the allocator never allocates.
    static IS_MAIN: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if !IS_MAIN.try_with(Cell::get).unwrap_or(false) {
            OFF_MAIN.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates every operation to `System`; only adds relaxed
// counter increments on the allocating paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        Self::count();
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
    IS_MAIN.with(|m| m.set(true));
    forward_inference_allocates_no_gradient_tape();
    println!("infer_no_tape_alloc: forward_inference_allocates_no_gradient_tape ok");
    serve_sized_predict_queues_nothing_on_the_pool();
    println!("infer_no_tape_alloc: serve_sized_predict_queues_nothing_on_the_pool ok");
}

fn serve_sized_predict_queues_nothing_on_the_pool() {
    let mut cfg = FnoConfig::fno2d(8, 4, 8, 2);
    cfg.lifting_channels = 32;
    cfg.projection_channels = 32;
    let model = Fno::new(cfg, 5);
    let x = Tensor::from_fn(&[1, 10, 32, 32], |i| {
        (i[1] as f64 * 0.3 + i[2] as f64 * 0.19 - i[3] as f64 * 0.27).sin()
    });
    // Warm-up: plan caches, and the pool's workers, which allocate as they
    // start.
    let _ = model.forward_inference(&x);
    let _ = rayon::current_num_threads();

    let before = OFF_MAIN.load(Ordering::SeqCst);
    // Eight fork-joins per forward would give a worker many chances to
    // take a task; ten forwards make a queued task near-certain to show.
    for _ in 0..10 {
        let _ = model.forward_inference(&x);
    }
    let off_main = OFF_MAIN.load(Ordering::SeqCst) - before;
    assert_eq!(
        off_main,
        0,
        "a warm 32² batch-1 forward_inference allocated {off_main} times off the calling \
         thread (pool width {}): some parallel call fanned out",
        rayon::current_num_threads()
    );
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
