//! Exact allocation counts of the warm batched transforms.
//!
//! After a warm-up call has filled the plan caches:
//! - a strided radix-2 `fft_axis` transforms each `[n][inner]` chunk in
//!   place, so it allocates only its copy of the tensor's extents, however
//!   many lines it transforms;
//! - a contiguous radix-2 `fft_axis` adds one transposed `[n][8]` scratch
//!   per parallel batch;
//! - the batched real rows (`RealPlan::rfft_rows` / `irfft_rows`) with a
//!   radix-2 half plan allocate nothing once their scratch has grown, for
//!   any row count (here 11, not a multiple of the 8-row block). A
//!   mixed-radix plan (the half plan of a length-12 row, the full plan of
//!   a length-7 row) allocates its own working line in every `process`
//!   call, so those rows count one each;
//! - `rfftn` / `irfftn` allocate their outputs, shape bookkeeping and one
//!   row scratch per parallel batch, and nothing that accretes.
//!
//! Every parallel loop here runs inline, but on a pool wider than one
//! thread the pool shim first collects the loop's items into one list
//! (`item_list` below); a width-1 pool streams them. A regression to
//! per-line or per-row buffers, or to per-call planning, changes these
//! counts.
//!
//! Own test binary with `harness = false` (same convention as
//! `crates/ft-obs/tests/no_alloc.rs`): the counting global allocator sees
//! every allocation in the process, so no libtest thread may run beside
//! the measured windows. Shapes are kept below the rayon shim's inline
//! threshold so nothing is queued on the worker pool (queueing a batch
//! allocates).

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
    // The pool shim's item list: one per parallel loop on a wider pool.
    let item_list = u64::from(rayon::current_num_threads() > 1);

    // [B, C, H, W] batches, small enough that every parallel loop inlines.
    let x = Tensor::from_fn(&[2, 2, 4, 8], |i| {
        (i[0] as f64 * 0.7 + i[1] as f64 * 1.3 + i[2] as f64 * 0.31 - i[3] as f64 * 0.17).sin()
    });
    let mut small = CTensor::from_fn(&[2, 2, 4, 8], |i| {
        Complex64::new((i[2] as f64 * 0.5).cos(), (i[3] as f64 * 0.9).sin())
    });
    let mut big = CTensor::from_fn(&[4, 4, 4, 8], |i| {
        Complex64::new((i[1] as f64 * 0.5).cos(), (i[3] as f64 * 0.9).sin())
    });

    // Strided axis: 32 lines, then 128; only the extents copy allocates.
    assert_count("strided fft_axis, 32 lines", 1 + item_list, || {
        fft_axis(&mut small, 2, Direction::Forward)
    });
    assert_count("strided fft_axis, 128 lines", 1 + item_list, || {
        fft_axis(&mut big, 2, Direction::Forward)
    });
    // Contiguous axis: 32 rows, then 128, in one inline batch: the extents
    // copy and one transposed scratch.
    assert_count("contiguous fft_axis, 32 rows", 2 + item_list, || {
        fft_axis(&mut small, 3, Direction::Inverse)
    });
    assert_count("contiguous fft_axis, 128 rows", 2 + item_list, || {
        fft_axis(&mut big, 3, Direction::Inverse)
    });

    // Batched real rows with a warm scratch: 11 rows of each length; the
    // mixed-radix plans allocate once per row.
    let mut scratch = Vec::new();
    for (n, per_call) in [(16usize, 0), (12, 11), (7, 11)] {
        let cols = n / 2 + 1;
        let rows = 11;
        let input: Vec<f64> = (0..rows * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut spec = vec![Complex64::ZERO; rows * cols];
        let mut back = vec![0.0; rows * n];
        let rp = shared_real_plan(n);
        assert_count(&format!("rfft_rows, n = {n}, 11 rows"), per_call, || {
            rp.rfft_rows(&input, &mut spec, cols, &mut scratch)
        });
        assert_count(&format!("irfft_rows, n = {n}, 11 rows"), per_call, || {
            rp.irfft_rows(&spec, cols, &mut back, &mut scratch)
        });
    }

    // Out-of-place n-d transforms, two parallel loops each (the rows and
    // the strided column pass). rfftn: its extents, output extents, output
    // buffer, row scratch, the output's shape and the column pass's
    // extents. irfftn: its extents, the working copy (shape and buffer),
    // the column pass's extents, the output buffer, row scratch and the
    // output's shape.
    let spec = rfftn(&x, 2);
    assert_count("rfftn [2, 2, 4, 8]", 6 + 2 * item_list, || {
        let _ = rfftn(&x, 2);
    });
    assert_count("irfftn [2, 2, 4, 5]", 7 + 2 * item_list, || {
        let _ = irfftn(&spec, 8, 2);
    });
    // A fresh, odd last-axis length (the full-complex fallback) plans once
    // in the warm-up, then is just as stable: rfftn's six plus one
    // mixed-radix working line per row (16 rows).
    let odd = Tensor::from_fn(&[2, 2, 4, 7], |i| (i[3] as f64 - i[2] as f64 * 0.4).cos());
    assert_count("rfftn [2, 2, 4, 7]", 22 + 2 * item_list, || {
        let _ = rfftn(&odd, 2);
    });
}
