//! Exact allocation counts of the warm batched transforms.
//!
//! After a warm-up call has filled the plan caches:
//! - a strided radix-2 `fft_axis` transforms each `[n][inner]` chunk in
//!   place, so it allocates nothing, however many lines it transforms;
//! - a contiguous radix-2 `fft_axis` allocates one transposed `[n][8]`
//!   scratch;
//! - the batched real rows (`RealPlan::rfft_rows` / `irfft_rows`) allocate
//!   nothing once their scratch has grown, for any row count (here 11, not
//!   a multiple of the 8-row block), whether the plan is radix-2 or
//!   mixed-radix (the half plan of a length-12 row, the full plan of a
//!   length-7 row): the scratch also holds the mixed-radix working line;
//! - `rfftn` / `irfftn` allocate their outputs, shape bookkeeping and one
//!   row scratch, and nothing that accretes.
//!
//! Every call here holds fewer points than `ft_fft::MIN_PARALLEL_POINTS`,
//! so it runs on the calling thread without going through the pool shim,
//! and its count is the same at every pool width; that includes a 32²
//! batch-1 layer's 256 rows. A regression to per-line or per-row buffers,
//! to per-call planning, or to fanning out calls below the floor changes
//! these counts.
//!
//! Own test binary with `harness = false` (same convention as
//! `crates/ft-obs/tests/no_alloc.rs`): the counting global allocator sees
//! every allocation in the process, so no libtest thread may run beside
//! the measured windows.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ft_fft::nd::{fft_axis, irfftn, rfftn};
use ft_fft::{shared_real_plan, Direction};
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

/// Asserts that `f`, run twice after a warm-up, allocates exactly `want`
/// times both times.
fn assert_count(what: &str, want: u64, mut f: impl FnMut()) {
    f();
    let got = [allocations_during(&mut f), allocations_during(&mut f)];
    assert_eq!(got, [want, want], "{what}: allocations per warm call");
    println!("alloc_stability: {what}: {want} allocations per warm call");
}

fn main() {
    // [B, C, H, W] batches below the parallel floor.
    let x = Tensor::from_fn(&[2, 2, 4, 8], |i| {
        (i[0] as f64 * 0.7 + i[1] as f64 * 1.3 + i[2] as f64 * 0.31 - i[3] as f64 * 0.17).sin()
    });
    let mut small = CTensor::from_fn(&[2, 2, 4, 8], |i| {
        Complex64::new((i[2] as f64 * 0.5).cos(), (i[3] as f64 * 0.9).sin())
    });
    let mut big = CTensor::from_fn(&[4, 4, 4, 8], |i| {
        Complex64::new((i[1] as f64 * 0.5).cos(), (i[3] as f64 * 0.9).sin())
    });

    // Strided axis: 32 lines, then 128; nothing allocates.
    assert_count("strided fft_axis, 32 lines", 0, || {
        fft_axis(&mut small, 2, Direction::Forward)
    });
    assert_count("strided fft_axis, 128 lines", 0, || fft_axis(&mut big, 2, Direction::Forward));
    // Contiguous axis: 32 rows, then 128: one transposed scratch.
    assert_count("contiguous fft_axis, 32 rows", 1, || {
        fft_axis(&mut small, 3, Direction::Inverse)
    });
    assert_count("contiguous fft_axis, 128 rows", 1, || {
        fft_axis(&mut big, 3, Direction::Inverse)
    });

    // Batched real rows with a warm scratch: 11 rows of each length.
    let mut scratch = Vec::new();
    for n in [16usize, 12, 7] {
        let cols = n / 2 + 1;
        let rows = 11;
        let input: Vec<f64> = (0..rows * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut spec = vec![Complex64::ZERO; rows * cols];
        let mut back = vec![0.0; rows * n];
        let rp = shared_real_plan(n);
        assert_count(&format!("rfft_rows, n = {n}, 11 rows"), 0, || {
            rp.rfft_rows(&input, &mut spec, cols, &mut scratch)
        });
        assert_count(&format!("irfft_rows, n = {n}, 11 rows"), 0, || {
            rp.irfft_rows(&spec, cols, &mut back, &mut scratch)
        });
    }

    // Out-of-place n-d transforms (the rows and the strided column pass).
    // rfftn: its extents, output extents, output buffer, row scratch and
    // the output's shape. irfftn: its extents, the working copy (shape and
    // buffer), the output buffer, row scratch and the output's shape.
    let spec = rfftn(&x, 2);
    assert_count("rfftn [2, 2, 4, 8]", 5, || {
        let _ = rfftn(&x, 2);
    });
    assert_count("irfftn [2, 2, 4, 5]", 6, || {
        let _ = irfftn(&spec, 8, 2);
    });
    // A fresh, odd last-axis length (the full-complex fallback, mixed-radix
    // rows) plans once in the warm-up, then allocates what rfftn [.., 8]
    // does.
    let odd = Tensor::from_fn(&[2, 2, 4, 7], |i| (i[3] as f64 - i[2] as f64 * 0.4).cos());
    assert_count("rfftn [2, 2, 4, 7]", 5, || {
        let _ = rfftn(&odd, 2);
    });
    // A 32² batch-1 layer of 8 channels: 256 rows of 32 points, 8192 points
    // in all, below the floor.
    let layer = Tensor::from_fn(&[1, 8, 32, 32], |i| {
        (i[1] as f64 * 0.9 + i[2] as f64 * 0.23 - i[3] as f64 * 0.41).sin()
    });
    let layer_spec = rfftn(&layer, 2);
    assert_count("rfftn [1, 8, 32, 32]", 5, || {
        let _ = rfftn(&layer, 2);
    });
    assert_count("irfftn [1, 8, 32, 17]", 6, || {
        let _ = irfftn(&layer_spec, 32, 2);
    });
}
