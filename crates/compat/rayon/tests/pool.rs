//! The worker pool under load: panics, nesting and configuration.
//!
//! Each fan-out test holds one batch per pool thread at a `Barrier`, so
//! every worker is busy at once. The tests take a lock: two barrier
//! fan-outs in flight together could each hold some workers and wait for
//! the rest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread::ThreadId;

use rayon::prelude::*;
use rayon::{current_num_threads, ThreadPoolBuilder, MIN_PARALLEL_ITEMS};

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn panic_in_a_worker_batch_reaches_the_caller_and_the_pool_survives() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let width = current_num_threads();
    let n = MIN_PARALLEL_ITEMS * width;
    let barrier = Barrier::new(width);
    let panicked_on: Mutex<Option<ThreadId>> = Mutex::new(None);
    let caller = std::thread::current().id();

    let result = catch_unwind(AssertUnwindSafe(|| {
        (0..n).into_par_iter().for_each(|i| {
            if i % MIN_PARALLEL_ITEMS == 0 {
                barrier.wait();
            }
            if i == n - 1 {
                *panicked_on.lock().unwrap() = Some(std::thread::current().id());
                std::panic::panic_any("boom in the last batch");
            }
        });
    }));
    let payload = result.expect_err("the batch's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"boom in the last batch")
    );
    let on = panicked_on.lock().unwrap().expect("the last item ran");
    assert_eq!(
        on == caller,
        width == 1,
        "the last batch runs on a worker when there is one"
    );

    let sum = (0..n).into_par_iter().map(|i| i).reduce(|| 0, |a, b| a + b);
    assert_eq!(sum, n * (n - 1) / 2, "the next parallel call succeeds");
}

#[test]
fn par_iter_inside_a_scope_task_inside_par_chunks_mut_completes() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let width = current_num_threads();
    let barrier = Barrier::new(width);
    let src: Vec<u64> = (0..1000).collect();
    let src = &src;
    let mut data = vec![0u64; MIN_PARALLEL_ITEMS * width];

    data.par_chunks_mut(1).enumerate().for_each(|(i, cell)| {
        if i % MIN_PARALLEL_ITEMS == 0 {
            barrier.wait();
        }
        rayon::scope(|s| {
            s.spawn(move |_| {
                cell[0] = src
                    .par_iter()
                    .map(|&x| x * i as u64)
                    .reduce(|| 0, |a, b| a + b);
            });
        });
    });
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, 499_500 * i as u64, "item {i}");
    }
}

#[test]
fn build_global_after_the_pool_started_is_an_error() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::scope(|s| s.spawn(|_| {}));
    let width = current_num_threads();
    let err = ThreadPoolBuilder::new()
        .num_threads(width + 1)
        .build_global();
    assert!(err.is_err(), "a started pool cannot be resized");
    assert_eq!(current_num_threads(), width, "the running width stands");
}
