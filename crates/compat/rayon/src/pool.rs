//! The process-lifetime worker pool behind every parallel call.
//!
//! `width − 1` workers start on the first call that queues a task (or at
//! [`crate::ThreadPoolBuilder::build_global`]), which returns only once
//! all of them run, and live as long as the process. There is one
//! fork-join entry point, [`scope`]: the calling thread runs the scope body
//! itself and every task spawned from it is queued for the pool. Idle
//! workers block on a condition variable; they never spin.
//!
//! A thread waiting for its scope does not sleep while work is queued: it
//! runs queued tasks (its own scope's first, then anyone's) until its own
//! are done. A parallel call made inside a pool task therefore fans out
//! into the same pool, and nesting cannot deadlock: a queued task that no
//! worker takes is run by the thread waiting for it.
//!
//! A panic in a task is caught; the scope still waits for every other
//! task (they may borrow the caller's stack), then re-raises the first
//! payload on the thread that opened it. The pool survives the panic.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Pool width, fixed by `build_global` or by the first read; 0 until then.
static WIDTH: AtomicUsize = AtomicUsize::new(0);

static POOL: OnceLock<Pool> = OnceLock::new();

static CONTEXT: OnceLock<TaskContext> = OnceLock::new();

pub(crate) fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The pool width. The first read fixes it at the machine's parallelism
/// unless `build_global` fixed it before, so the width a caller sees never
/// changes afterwards.
pub(crate) fn width() -> usize {
    let fixed = WIDTH.load(Ordering::Relaxed);
    if fixed != 0 {
        return fixed;
    }
    let n = machine_threads();
    match WIDTH.compare_exchange(0, n, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => n,
        Err(fixed) => fixed,
    }
}

/// Fixes the pool width at `n` and starts the workers; `false` when the
/// width was already fixed.
pub(crate) fn configure(n: usize) -> bool {
    let fresh = WIDTH
        .compare_exchange(0, n, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok();
    if fresh {
        pool();
    }
    fresh
}

/// Per-thread context that a pool task inherits from the thread that
/// queued it, installed once with [`set_task_context`]. `ft-obs` uses it
/// so a span opened inside a task nests under the span that was open
/// where the task was spawned, whichever thread runs it.
#[derive(Clone, Copy, Debug)]
pub struct TaskContext {
    /// Runs on the queuing thread; its result travels with the task.
    pub capture: fn() -> Vec<String>,
    /// Installs a captured context on the running thread and returns the
    /// one it displaced, which is swapped back when the task ends.
    pub swap: fn(Vec<String>) -> Vec<String>,
}

/// Installs the process's [`TaskContext`]; later calls are ignored.
pub fn set_task_context(ctx: TaskContext) {
    let _ = CONTEXT.set(ctx);
}

type Payload = Box<dyn Any + Send>;
type Task = Box<dyn FnOnce() + Send>;

/// Completion state shared by a scope and its tasks.
struct Latch {
    /// The scope body plus every spawned task not yet finished. Each
    /// finisher's `AcqRel` decrement releases its task's writes; the
    /// owner's `Acquire` load of zero (or its own decrement to zero)
    /// acquires them. An increment needs no ordering of its own: the queue
    /// mutex hands the task over only after it.
    pending: AtomicUsize,
    /// The first panic payload of any task.
    panic: Mutex<Option<Payload>>,
}

struct Job {
    task: Task,
    latch: Arc<Latch>,
    context: Vec<String>,
}

impl Job {
    fn run(self) {
        let Job {
            task,
            latch,
            context,
        } = self;
        let hooks = CONTEXT.get();
        let displaced = hooks.map(|h| (h.swap)(context));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            latch
                .panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        if let (Some(h), Some(d)) = (hooks, displaced) {
            (h.swap)(d);
        }
        // The task and every borrow it held are gone by now.
        if latch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last part: wake the scope's owner. Taking the queue lock
            // orders this after the owner's check of `pending`.
            let pool = pool();
            let queue = pool.lock();
            if queue.sleepers > 0 {
                pool.wake.notify_all();
            }
        }
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Threads blocked on `wake`: idle workers and waiting scope owners.
    sleepers: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
}

/// The pool, started (and its width fixed) on first use.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        // The workers live as long as the process and are never joined:
        // they own no data, and `Job::run` catches every task's panic.
        // The pool is handed out only once every worker runs: a thread's
        // start-up allocates on the new thread (its name, its signal
        // stack), and left to the scheduler that would land inside some
        // later, unrelated call.
        let started = Arc::new(Barrier::new(width()));
        for i in 1..width() {
            let started = Arc::clone(&started);
            std::thread::Builder::new()
                .name(format!("rayon-compat-{i}"))
                .spawn(move || {
                    started.wait();
                    pool().work()
                })
                .expect("failed to spawn a pool worker");
        }
        started.wait();
        Pool {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                sleepers: 0,
            }),
            wake: Condvar::new(),
        }
    })
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sleep<'a>(&self, mut queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        queue.sleepers += 1;
        let mut queue = self
            .wake
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
        queue.sleepers -= 1;
        queue
    }

    fn push(&self, job: Job) {
        let mut queue = self.lock();
        queue.jobs.push_back(job);
        if queue.sleepers > 0 {
            self.wake.notify_one();
        }
    }

    fn work(&self) {
        let mut queue = self.lock();
        loop {
            match queue.jobs.pop_front() {
                Some(job) => {
                    drop(queue);
                    job.run();
                    queue = self.lock();
                }
                None => queue = self.sleep(queue),
            }
        }
    }

    /// Runs queued jobs, `latch`'s own first, until `latch` has none
    /// pending; sleeps only while nothing is queued.
    fn help_until_done(&self, latch: &Arc<Latch>) {
        let mut queue = self.lock();
        while latch.pending.load(Ordering::Acquire) != 0 {
            let next = queue
                .jobs
                .iter()
                .position(|j| Arc::ptr_eq(&j.latch, latch))
                .or((!queue.jobs.is_empty()).then_some(0));
            match next.and_then(|i| queue.jobs.remove(i)) {
                Some(job) => {
                    drop(queue);
                    job.run();
                    queue = self.lock();
                }
                None => queue = self.sleep(queue),
            }
        }
        // A wake-up meant for a queued job may have landed here.
        if !queue.jobs.is_empty() && queue.sleepers > 0 {
            self.wake.notify_one();
        }
    }
}

/// A scope handle for structured task spawning (see [`scope`]).
pub struct Scope<'scope, 'env: 'scope> {
    latch: Arc<Latch>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    fn new(latch: Arc<Latch>) -> Self {
        Scope {
            latch,
            scope: PhantomData,
            env: PhantomData,
        }
    }

    /// Queues `f` on the pool; the closure may spawn further tasks
    /// through the scope handle it receives, rayon-style. Every task runs
    /// on a pool worker or on a thread waiting for a scope, whatever the
    /// workload size: callers use `scope` when they want the concurrency.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let handle = Scope::new(Arc::clone(&self.latch));
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || f(&handle));
        // SAFETY: only the lifetime changes. The task may borrow data that
        // outlives 'scope, which ends inside `scope()`; `scope()` neither
        // returns nor unwinds before `pending` reaches zero, and a job
        // consumes (so drops) its task before it decrements `pending`.
        let task = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        // Everything that can panic comes before the count goes up.
        let pool = pool();
        let context = CONTEXT.get().map_or_else(Vec::new, |h| (h.capture)());
        self.latch.pending.fetch_add(1, Ordering::Relaxed);
        pool.push(Job {
            task,
            latch: Arc::clone(&self.latch),
            context,
        });
    }
}

/// Structured fork-join, rayon-style: runs `f` on the calling thread with
/// a [`Scope`] whose spawned tasks have all finished before `scope`
/// returns. Tasks may borrow from the enclosing frame, as with
/// `std::thread::scope`. A panic in `f` or in any task is re-raised here
/// (the body's first, else the first task's) once every task is done.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    let latch = Arc::new(Latch {
        pending: AtomicUsize::new(1),
        panic: Mutex::new(None),
    });
    let result = catch_unwind(AssertUnwindSafe(|| f(&Scope::new(Arc::clone(&latch)))));
    if latch.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
        pool().help_until_done(&latch);
    }
    let task_panic = latch
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    match (result, task_panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(r), None) => r,
    }
}

/// Runs `run` once per part: the first on the calling thread, the rest
/// on the pool. Returns when all are done.
pub(crate) fn fork_join<P: Send>(parts: Vec<P>, run: impl Fn(P) + Sync) {
    let mut parts = parts.into_iter();
    let first = parts.next();
    scope(|s| {
        let run = &run;
        for part in parts {
            s.spawn(move |_| run(part));
        }
        if let Some(part) = first {
            run(part);
        }
    });
}
