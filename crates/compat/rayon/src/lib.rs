//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the parallel-iterator subset it uses. Semantics match rayon
//! where it matters:
//!
//! * `par_chunks_mut` / `par_chunks` / `par_iter_mut` / `into_par_iter`
//!   entry points returning a [`ParIter`];
//! * `enumerate`, `zip`, `map`, `for_each`, `for_each_init`, `collect`,
//!   `reduce` adapters;
//! * terminal operations (`for_each`, `collect`, `reduce`) split the work
//!   into contiguous batches and run them on a process-lifetime pool of
//!   worker threads, through the same fork-join entry point as [`scope`]
//!   (see the `pool` module: nested calls fan out into the same pool, and
//!   a panic in any batch is re-raised on the calling thread).
//!
//! Batch boundaries depend only on the item count and the pool width,
//! never on which thread runs a batch. Small workloads (fewer items than
//! [`MIN_PARALLEL_ITEMS`]) run inline, and a width-1 pool streams every
//! terminal operation straight through the iterator. `ParIter` also
//! implements [`Iterator`], so any adapter this shim does not
//! special-case degrades gracefully to the sequential std implementation.

#![warn(missing_docs)]

mod pool;

pub use pool::{scope, set_task_context, Scope, TaskContext};

/// Below this many items a terminal operation runs inline: queueing the
/// batches and waking a worker (a few µs) would outweigh the work.
pub const MIN_PARALLEL_ITEMS: usize = 64;

fn num_threads() -> usize {
    pool::width()
}

/// Number of worker threads terminal operations may fan out over —
/// the configured global pool width, or the machine's parallelism when
/// [`ThreadPoolBuilder::build_global`] was not called first. The first
/// call fixes the width, as in rayon.
pub fn current_num_threads() -> usize {
    num_threads()
}

/// Error returned when the global pool is configured twice, or after its
/// width was fixed by use.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    msg: &'static str,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.msg)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures the process-global worker pool, rayon-style.
///
/// "Building" the global pool fixes its width and starts its `width − 1`
/// workers (the thread that submits work runs one part itself). Like
/// rayon, the global pool can be initialized at most once: a second call,
/// or a call after a parallel call or [`current_num_threads`] has fixed
/// the machine's width, fails with [`ThreadPoolBuildError`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default (machine) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool width; 0 keeps the machine default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the configuration globally and starts the workers. Errors
    /// if the global pool was already initialized or its width fixed.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { pool::machine_threads() } else { self.num_threads };
        if pool::configure(n) {
            Ok(())
        } else {
            Err(ThreadPoolBuildError { msg: "the global thread pool has already been initialized" })
        }
    }
}

/// Number of batches a workload of `n` items should split into: never
/// more than the pool width or the item count, and 1 (inline) for
/// workloads too small to amortize a fan-out.
fn fanout(n: usize) -> usize {
    if n < MIN_PARALLEL_ITEMS {
        return 1;
    }
    num_threads().min(n).max(1)
}

/// Splits `items` into at most `parts` contiguous batches, preserving order.
fn split_batches<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    // Walk from the back so split_off is O(batch).
    let mut sizes: Vec<usize> =
        (0..parts).map(|i| base + usize::from(i < extra)).collect();
    while let Some(size) = sizes.pop() {
        let tail = items.split_off(items.len() - size);
        out.push(tail);
    }
    out.reverse();
    out
}

/// Runs `op` over every item, one batch per pool thread, with one `init`
/// value per batch.
fn parallel_for_each<T: Send, S, INIT, F>(items: Vec<T>, init: INIT, op: F)
where
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) + Sync,
{
    let run = |batch: Vec<T>| {
        let mut state = init();
        batch.into_iter().for_each(|x| op(&mut state, x));
    };
    let parts = fanout(items.len());
    if parts <= 1 {
        run(items);
        return;
    }
    pool::fork_join(split_batches(items, parts), run);
}

/// Maps every item, preserving order, one batch per pool thread.
fn parallel_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: F) -> Vec<R> {
    let parts = fanout(items.len());
    if parts <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut outs: Vec<Vec<R>> = Vec::new();
    outs.resize_with(parts, Vec::new);
    let work: Vec<_> = split_batches(items, parts).into_iter().zip(outs.iter_mut()).collect();
    pool::fork_join(work, |(batch, out)| *out = batch.into_iter().map(&f).collect());
    outs.into_iter().flatten().collect()
}

/// A "parallel" iterator: a plain iterator whose terminal operations fan
/// out over the worker pool.
pub struct ParIter<I> {
    inner: I,
}

impl<I: Iterator> Iterator for ParIter<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.inner.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<I: Iterator> ParIter<I> {
    /// Pairs every item with its index (parity with rayon's `enumerate`).
    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter { inner: self.inner.enumerate() }
    }

    /// Zips with another (parallel or plain) iterator.
    pub fn zip<J: IntoIterator>(self, other: J) -> ParIter<std::iter::Zip<I, J::IntoIter>> {
        ParIter { inner: self.inner.zip(other) }
    }

    /// Lazily maps items; the closure runs on worker threads at the
    /// terminal operation.
    pub fn map<R, F: Fn(I::Item) -> R>(self, f: F) -> ParMap<I, F> {
        ParMap { inner: self.inner, f }
    }

    /// Consumes the iterator, applying `f` to every item in parallel.
    /// With a single-thread pool the items stream straight through the
    /// iterator — no intermediate `Vec`, no pool.
    pub fn for_each<F>(self, f: F)
    where
        I::Item: Send,
        F: Fn(I::Item) + Sync,
    {
        self.for_each_init(|| (), |_, x| f(x));
    }

    /// [`for_each`](Self::for_each) with per-batch state, as in rayon:
    /// `init` makes one value per batch (one in all on a width-1 pool or
    /// for an inline workload) and `op` gets it mutably with each item.
    /// Batches depend only on the item count and the pool width, so the
    /// number of `init` calls does too: a scratch buffer made here costs
    /// the same allocations at every call, whichever threads run it.
    pub fn for_each_init<S, INIT, F>(self, init: INIT, op: F)
    where
        I::Item: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, I::Item) + Sync,
    {
        if num_threads() == 1 {
            let mut state = init();
            self.inner.for_each(|x| op(&mut state, x));
            return;
        }
        parallel_for_each(self.inner.collect(), init, op);
    }
}

/// Lazily mapped parallel iterator (see [`ParIter::map`]).
pub struct ParMap<I, F> {
    inner: I,
    f: F,
}

impl<I: Iterator, R, F: Fn(I::Item) -> R> Iterator for ParMap<I, F> {
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.inner.next().map(&self.f)
    }
}

impl<I: Iterator, R, F: Fn(I::Item) -> R> ParMap<I, F> {
    /// Applies the map in parallel and collects in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C
    where
        I::Item: Send,
        R: Send,
        F: Sync,
    {
        if num_threads() == 1 {
            return self.inner.map(self.f).collect();
        }
        parallel_map(self.inner.collect(), self.f).into_iter().collect()
    }

    /// Applies the map and `f` in parallel over every item.
    pub fn for_each<G>(self, g: G)
    where
        I::Item: Send,
        R: Send,
        G: Fn(R) + Sync,
        F: Sync,
    {
        let map = self.f;
        if num_threads() == 1 {
            self.inner.for_each(move |x| g(map(x)));
            return;
        }
        parallel_for_each(self.inner.collect(), || (), move |_, x| g(map(x)));
    }

    /// Parallel fold-then-combine, rayon-style: `identity` seeds each
    /// worker, `op` combines partial results pairwise.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        I::Item: Send,
        R: Send,
        F: Sync,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        if num_threads() == 1 {
            return self.inner.map(self.f).fold(identity(), &op);
        }
        let mapped = parallel_map(self.inner.collect(), self.f);
        mapped.into_iter().fold(identity(), &op)
    }
}

/// Conversion into a parallel iterator (owning).
pub trait IntoParallelIterator {
    /// Underlying sequential iterator.
    type Iter: Iterator;
    /// Wraps `self` for parallel consumption.
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = std::vec::IntoIter<T>;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter { inner: self.into_iter() }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = std::ops::Range<usize>;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter { inner: self }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Iter = std::ops::Range<u64>;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter { inner: self }
    }
}

/// Shared-slice parallel views (`par_chunks`, `par_iter`).
pub trait ParallelSlice<T: Sync> {
    /// Chunked read-only view.
    fn par_chunks(&self, size: usize) -> ParIter<std::slice::Chunks<'_, T>>;
    /// Per-element read-only view.
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<std::slice::Chunks<'_, T>> {
        ParIter { inner: self.chunks(size) }
    }
    fn par_iter(&self) -> ParIter<std::slice::Iter<'_, T>> {
        ParIter { inner: self.iter() }
    }
}

/// Mutable-slice parallel views (`par_chunks_mut`, `par_iter_mut`).
pub trait ParallelSliceMut<T: Send> {
    /// Chunked mutable view; chunks are disjoint, so workers never alias.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<std::slice::ChunksMut<'_, T>>;
    /// Per-element mutable view.
    fn par_iter_mut(&mut self) -> ParIter<std::slice::IterMut<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<std::slice::ChunksMut<'_, T>> {
        ParIter { inner: self.chunks_mut(size) }
    }
    fn par_iter_mut(&mut self) -> ParIter<std::slice::IterMut<'_, T>> {
        ParIter { inner: self.iter_mut() }
    }
}

/// Everything a `use rayon::prelude::*` consumer expects.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_mut_for_each_touches_every_chunk() {
        let mut data = vec![0u64; 1024];
        data.par_chunks_mut(8).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 8) as u64);
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn zip_pairs_in_lockstep() {
        let src: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; 512];
        dst.par_chunks_mut(4).zip(src.par_chunks(4)).for_each(|(d, s)| {
            d.copy_from_slice(s);
        });
        assert_eq!(dst, src);
    }

    #[test]
    fn reduce_combines_all_parts() {
        let total = (0..100usize)
            .into_par_iter()
            .map(|i| vec![i])
            .reduce(Vec::new, |mut a, b| {
                a.extend(b);
                a
            });
        let mut sorted = total;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn small_workloads_run_inline() {
        // Below the threshold nothing is queued; just verify behavior.
        let mut data = [1.0f64; 8];
        data.par_iter_mut().for_each(|x| *x *= 2.0);
        assert!(data.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let mut outputs = vec![0usize; 4];
        super::scope(|s| {
            for (i, slot) in outputs.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i + 1);
            }
        });
        assert_eq!(outputs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn batches_partition_exactly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 3, 8] {
                let items: Vec<usize> = (0..n).collect();
                let batches = super::split_batches(items, parts);
                let flat: Vec<usize> = batches.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn for_each_init_makes_one_state_per_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n in [8usize, 1000] {
            let inits = AtomicUsize::new(0);
            let mut data = vec![0usize; n];
            data.par_iter_mut().enumerate().for_each_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |seen, (i, v)| {
                    seen.push(i);
                    *v = seen.len();
                },
            );
            // Each batch's state counts the items of that batch, in order.
            let expected = super::fanout(n);
            assert_eq!(inits.load(Ordering::Relaxed), expected, "n={n}");
            assert_eq!(data.iter().filter(|&&v| v == 1).count(), expected, "n={n}");
        }
    }
}
