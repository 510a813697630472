//! Bounded allocation in `proto::read_frame`: a header that declares the
//! largest payload the protocol allows (`MAX_PAYLOAD_ELEMS` f32s, 1 GiB)
//! and then hangs up must cost well under a megabyte, and a payload cut
//! off part-way must cost memory in proportion to the bytes that arrived.
//!
//! Own test binary (same convention as `crates/core/tests/infer_no_tape_alloc.rs`):
//! the counting global allocator sees every allocation in the process, so
//! both measurements run in one test, with no other test alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};

use ft_serve::proto::{self, MAX_PAYLOAD_ELEMS};
use ft_serve::ServeError;

/// Bytes currently allocated, and the most at any moment since the last
/// [`peak_during`] started.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAllocator;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: delegates every operation to `System`; only adds counter
// updates around it.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// The peak heap growth, in bytes, while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

/// A `predict` header declaring `MAX_PAYLOAD_ELEMS` elements, followed by
/// `sent` payload bytes and EOF.
fn truncated_frame(sent: usize) -> Vec<u8> {
    let mut bytes =
        format!("{{\"type\":\"predict\",\"model\":\"m\",\"dims\":[{MAX_PAYLOAD_ELEMS}]}}\n")
            .into_bytes();
    bytes.resize(bytes.len() + sent, 0x3f);
    bytes
}

fn read_truncated(frame: &[u8]) -> (Result<(), ServeError>, usize) {
    peak_during(|| proto::read_frame(&mut BufReader::new(frame)).map(|_| ()))
}

#[test]
fn declared_payload_is_not_allocated_before_it_arrives() {
    const MIB: usize = 1 << 20;

    let frame = truncated_frame(0);
    let (result, peak) = read_truncated(&frame);
    assert!(
        matches!(result, Err(ServeError::Protocol(_))),
        "a payload cut off by EOF is a protocol error, got {result:?}"
    );
    assert!(peak < MIB, "header alone cost {peak} bytes of heap");

    // 4 MiB of the declared 1 GiB arrive: the f64 widening doubles them,
    // and growing the buffer may briefly hold two copies.
    let sent = 4 * MIB;
    let frame = truncated_frame(sent);
    let (result, peak) = read_truncated(&frame);
    assert!(matches!(result, Err(ServeError::Protocol(_))), "got {result:?}");
    assert!(peak < 4 * sent + MIB, "{sent} payload bytes cost {peak} bytes of heap");
}
