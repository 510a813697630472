//! The serving core: bounded admission queue, one-request dispatcher,
//! graceful drain.
//!
//! # Life of a request
//!
//! 1. **Admission** — [`ServeHandle::submit`] checks the input shape
//!    against the target model ([`ModelEntry::check_input`], the check
//!    sessions use too) and tries to enqueue. A full queue is an
//!    immediate [`ServeError::Overloaded`] (no silent blocking): the
//!    caller sees backpressure, `serve.rejected` counts it, and a
//!    `serve_overload` flight event marks the episode.
//! 2. **Execution** — the dispatcher pops the oldest request and runs it
//!    alone: the input is stacked into a one-sample model tensor
//!    ([`fno_core::rollout::stack`], which owns the 2D and 3D layouts) and
//!    run through one [`ForecastModel::forward_inference`] call (no
//!    gradient tape), which parallelizes internally via rayon. A panic in
//!    the model is caught and converted into the request's error — the
//!    dispatcher and the server outlive bad inputs. Requests are never
//!    coalesced: a batched forward measured no cheaper per sample by more
//!    than the run-to-run spread (DESIGN.md §12b), so a request never
//!    waits for company.
//! 3. **Completion** — the caller's [`PendingResponse`] is filled and
//!    woken.
//!
//! # Dispatch modes
//!
//! With `auto_dispatch` (the default) a background dispatcher thread
//! drives steps 2–3. With it off, **manual dispatch** mode, nothing runs
//! until [`ServeHandle::dispatch_once`] is called — queue states are then
//! fully deterministic, which is what the overload and drain tests use.
//!
//! # Shutdown
//!
//! [`ServeEngine::shutdown`] flips the draining flag (new submissions get
//! [`ServeError::ShuttingDown`]), lets the dispatcher finish everything
//! already admitted, and joins it. No admitted request is dropped.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ft_tensor::Tensor;
use fno_core::rollout::{stack, unstack};
use fno_core::ForecastModel;

use crate::metrics;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::session::{SessionConfig, SessionStore};
use crate::ServeError;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bound on queued (admitted, not yet executing) requests.
    pub queue_capacity: usize,
    /// Spawn the background dispatcher (`true`), or require explicit
    /// [`ServeHandle::dispatch_once`] calls (`false`, for tests).
    pub auto_dispatch: bool,
    /// Session-store limits.
    pub session: SessionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: crate::DEFAULT_QUEUE_CAPACITY,
            auto_dispatch: true,
            session: SessionConfig::default(),
        }
    }
}

/// A point-in-time view of engine state, for health endpoints and tests.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Requests currently queued (admitted, not executing).
    pub queued: usize,
    /// Live rollout sessions.
    pub sessions: usize,
    /// Whether the engine is draining.
    pub shutting_down: bool,
}

/// One admitted request, parked in the queue until a dispatcher picks it
/// up.
struct Request {
    entry: Arc<ModelEntry>,
    input: Tensor,
    enqueued: Instant,
    slot: Arc<ResponseSlot>,
}

/// Rendezvous cell between a waiting client and the dispatcher.
struct ResponseSlot {
    result: Mutex<Option<Result<Tensor, ServeError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn fill(&self, r: Result<Tensor, ServeError>) {
        *self.result.lock().unwrap() = Some(r);
        self.cv.notify_all();
    }
}

/// The caller's side of an in-flight request. [`PendingResponse::wait`]
/// blocks until the dispatcher fills it.
pub struct PendingResponse {
    slot: Arc<ResponseSlot>,
}

impl std::fmt::Debug for PendingResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state =
            if self.slot.result.lock().unwrap().is_some() { "ready" } else { "in-flight" };
        write!(f, "PendingResponse({state})")
    }
}

impl PendingResponse {
    /// Blocks until the prediction (or its error) is available.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        let mut guard = self.slot.result.lock().unwrap();
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self.slot.cv.wait(guard).unwrap();
        }
    }

    /// Non-blocking poll; `None` while still in flight.
    pub fn try_take(&self) -> Option<Result<Tensor, ServeError>> {
        self.slot.result.lock().unwrap().take()
    }
}

struct QueueState {
    queue: VecDeque<Request>,
    shutting_down: bool,
}

struct Shared {
    cfg: ServeConfig,
    registry: ModelRegistry,
    sessions: SessionStore,
    state: Mutex<QueueState>,
    /// Signaled on enqueue and on shutdown.
    cv: Condvar,
}

/// A running serving engine. Owns the dispatcher thread (in auto mode);
/// hand out [`ServeHandle`]s via [`ServeEngine::handle`] and call
/// [`ServeEngine::shutdown`] to drain.
pub struct ServeEngine {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

/// Cloneable, thread-safe client handle to a [`ServeEngine`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeEngine {
    /// Starts an engine over `registry` with `cfg`. In auto-dispatch mode
    /// this spawns the dispatcher thread immediately.
    pub fn new(registry: ModelRegistry, cfg: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            cfg,
            registry,
            sessions: SessionStore::new(cfg.session),
            state: Mutex::new(QueueState { queue: VecDeque::new(), shutting_down: false }),
            cv: Condvar::new(),
        });
        let dispatcher = cfg.auto_dispatch.then(|| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-dispatcher".into())
                .spawn(move || dispatcher_loop(&sh))
                .expect("spawn serve dispatcher")
        });
        ServeEngine { shared, dispatcher }
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Graceful drain: stop admitting, finish everything already queued,
    /// stop the dispatcher. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutting_down = true;
            self.shared.cv.notify_all();
        }
        if let Some(h) = self.dispatcher.take() {
            h.join().expect("serve dispatcher panicked");
        } else {
            // Manual mode: drain inline so admitted requests still complete.
            while dispatch_one(&self.shared) > 0 {}
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServeHandle {
    /// Validates and admits a request against model `model`; returns a
    /// handle to await. Fails fast with [`ServeError::Overloaded`] when
    /// the queue is full.
    pub fn submit(&self, model: &str, input: Tensor) -> Result<PendingResponse, ServeError> {
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        entry.check_input(&input)?;
        let slot = ResponseSlot::new();
        {
            let mut st = self.shared.state.lock().unwrap();
            if st.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() >= self.shared.cfg.queue_capacity {
                metrics::REJECTED.inc();
                ft_obs::flight::event_with(|| {
                    ft_obs::Record::new("event")
                        .str("kind", "serve_overload")
                        .str("model", model)
                        .u64("queue_depth", st.queue.len() as u64)
                        .u64("capacity", self.shared.cfg.queue_capacity as u64)
                });
                return Err(ServeError::Overloaded);
            }
            st.queue.push_back(Request {
                entry,
                input,
                enqueued: Instant::now(),
                slot: Arc::clone(&slot),
            });
            metrics::REQUESTS.inc();
            metrics::QUEUE_DEPTH.set(st.queue.len() as f64);
        }
        self.shared.cv.notify_all();
        Ok(PendingResponse { slot })
    }

    /// The admission check of [`ServeHandle::submit`] and
    /// [`ServeHandle::open_session`] on an input's dims alone: `model` must
    /// be registered ([`ServeError::UnknownModel`]) and take inputs of
    /// `dims` ([`ModelEntry::check_dims`]). The TCP server runs it on a
    /// request header before it reads the payload.
    pub fn check_dims(&self, model: &str, dims: &[usize]) -> Result<(), ServeError> {
        self.shared
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?
            .check_dims(dims)
    }

    /// Synchronous predict: [`ServeHandle::submit`] + wait.
    pub fn predict(&self, model: &str, input: Tensor) -> Result<Tensor, ServeError> {
        self.submit(model, input)?.wait()
    }

    /// Manual-dispatch mode: execute the oldest queued request (no
    /// waiting). Returns the number of requests completed: 1, or 0 if the
    /// queue was empty. Also usable in auto mode for tests, though the
    /// background dispatcher will race it.
    pub fn dispatch_once(&self) -> usize {
        dispatch_one(&self.shared)
    }

    /// Opens a rollout session for `model` from `history`.
    pub fn open_session(&self, model: &str, history: &Tensor) -> Result<u64, ServeError> {
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        if self.shared.state.lock().unwrap().shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        self.shared.sessions.open(entry, history)
    }

    /// Advances a session by `steps` frames; returns `[steps, H, W]`.
    pub fn session_step(&self, id: u64, steps: usize) -> Result<Tensor, ServeError> {
        self.shared.sessions.step(id, steps)
    }

    /// Closes a session; returns whether it existed.
    pub fn close_session(&self, id: u64) -> bool {
        self.shared.sessions.close(id)
    }

    /// Current engine state.
    pub fn stats(&self) -> ServeStats {
        let st = self.shared.state.lock().unwrap();
        ServeStats {
            queued: st.queue.len(),
            sessions: self.shared.sessions.len(),
            shutting_down: st.shutting_down,
        }
    }
}

fn dispatcher_loop(sh: &Shared) {
    loop {
        if dispatch_one(sh) == 0 {
            // Queue empty: exit if draining, otherwise sleep until work.
            let mut st = sh.state.lock().unwrap();
            while st.queue.is_empty() {
                if st.shutting_down {
                    return;
                }
                st = sh.cv.wait(st).unwrap();
            }
        }
    }
}

/// Pops the oldest request and executes it. Returns the number of
/// requests completed: 1, or 0 if the queue was empty.
fn dispatch_one(sh: &Shared) -> usize {
    let req = {
        let mut st = sh.state.lock().unwrap();
        let Some(req) = st.queue.pop_front() else {
            return 0;
        };
        metrics::QUEUE_DEPTH.set(st.queue.len() as f64);
        req
    };
    metrics::QUEUE_WAIT.observe(req.enqueued.elapsed().as_secs_f64());
    let output = {
        let _sp = ft_obs::span("serve/forward");
        let t0 = Instant::now();
        let r = run(&req);
        metrics::FORWARD.observe(t0.elapsed().as_secs_f64());
        r
    };
    req.slot.fill(output);
    1
}

/// Stacks the request's input into a one-sample model tensor, runs one
/// tape-free forward, and unstacks the predicted block.
fn run(req: &Request) -> Result<Tensor, ServeError> {
    let kind = req.entry.config().kind;
    let on = format_args!("a {:?} input", req.input.dims());
    req.entry.guarded(on, |m| {
        let y = m.forward_inference(&stack(kind, &[&req.input]));
        unstack(kind, &y).pop().expect("one block in, one block out")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use fno_core::{Fno, FnoConfig, FnoKind};

    fn tiny_cfg() -> FnoConfig {
        FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 4,
            out_channels: 2,
            lifting_channels: 3,
            projection_channels: 3,
            norm: false,
        }
    }

    fn tiny_registry() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.insert("m", Fno::new(tiny_cfg(), 42)).unwrap();
        reg
    }

    fn input(h: usize) -> Tensor {
        Tensor::from_fn(&[4, h, h], |i| (i[0] as f64 * 0.3 + i[1] as f64 + i[2] as f64).sin())
    }

    /// A distinct `[4, h, h]` input per `seed`.
    fn input_seeded(h: usize, seed: usize) -> Tensor {
        Tensor::from_fn(&[4, h, h], |i| {
            (seed as f64 + i[0] as f64 * 0.3 + i[1] as f64 - i[2] as f64 * 0.7).sin()
        })
    }

    #[test]
    fn queued_predicts_equal_direct_forwards_bit_for_bit() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let pending: Vec<_> = (0..3).map(|s| h.submit("m", input_seeded(8, s)).unwrap()).collect();
        assert_eq!(h.stats().queued, 3);
        for left in (0..3).rev() {
            assert_eq!(h.dispatch_once(), 1, "one request per dispatch");
            assert_eq!(h.stats().queued, left);
        }
        assert_eq!(h.dispatch_once(), 0);
        let model = &tiny_registry().get("m").unwrap().model;
        for (s, p) in pending.into_iter().enumerate() {
            let served = p.wait().unwrap();
            let direct = model.forward_inference(&input_seeded(8, s).reshape(&[1, 4, 8, 8]));
            assert_eq!(served.dims(), &[2, 8, 8]);
            assert_eq!(served.data(), direct.data(), "request {s}");
        }
    }

    #[test]
    fn mixed_shapes_are_served_one_per_dispatch_in_admission_order() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let grids = [8, 16, 8, 16];
        let pending: Vec<_> = grids.iter().map(|&g| h.submit("m", input(g)).unwrap()).collect();
        for (k, &g) in grids.iter().enumerate() {
            assert_eq!(h.dispatch_once(), 1);
            let out = pending[k].try_take().expect("the oldest request is served").unwrap();
            assert_eq!(out.dims(), &[2, g, g]);
            assert!(pending[k + 1..].iter().all(|p| p.try_take().is_none()), "after {k}");
        }
        assert_eq!(h.dispatch_once(), 0);
    }

    #[test]
    fn typed_rejections() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        assert!(matches!(
            h.predict("nope", input(8)).unwrap_err(),
            ServeError::UnknownModel(_)
        ));
        let bad = Tensor::zeros(&[3, 8, 8]); // wrong channel count
        assert!(matches!(h.predict("m", bad).unwrap_err(), ServeError::BadInput(_)));
        let tiny = Tensor::zeros(&[4, 2, 2]); // grid below 2×modes
        assert!(matches!(h.predict("m", tiny.clone()).unwrap_err(), ServeError::BadInput(_)));
        // Sessions pass the same admission check.
        for history in [Tensor::zeros(&[3, 8, 8]), tiny, Tensor::zeros(&[4, 8])] {
            assert!(matches!(h.open_session("m", &history).unwrap_err(), ServeError::BadInput(_)));
        }
        assert!(matches!(
            h.open_session("nope", &input(8)).unwrap_err(),
            ServeError::UnknownModel(_)
        ));
        assert_eq!(h.stats().sessions, 0);
    }

    #[test]
    fn auto_dispatch_round_trip() {
        let mut engine = ServeEngine::new(tiny_registry(), ServeConfig::default());
        let h = engine.handle();
        let out = h.predict("m", input(8)).unwrap();
        assert_eq!(out.dims(), &[2, 8, 8]);
        engine.shutdown();
        assert!(matches!(h.predict("m", input(8)).unwrap_err(), ServeError::ShuttingDown));
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let mut engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let pending: Vec<_> =
            (0..5).map(|_| h.submit("m", input(8)).unwrap()).collect();
        engine.shutdown();
        for p in pending {
            assert!(p.wait().is_ok(), "admitted requests must complete through drain");
        }
    }

    /// [`tiny_registry`] plus `broken`, a model whose every forward
    /// panics: the lifting layer's bias is emptied, so every one of its 64
    /// output planes, which the pool splits across its threads, indexes
    /// past the end and panics inside the parallel call.
    fn registry_with_broken_model() -> ModelRegistry {
        let mut broken = Fno::new(FnoConfig { lifting_channels: 64, ..tiny_cfg() }, 7);
        let mut k = 0;
        ft_nn::Layer::visit_params(&mut broken, &mut |p| {
            if let ft_nn::ParamMut::Real { value, .. } = p {
                if k == 1 {
                    *value = Tensor::zeros(&[0]);
                }
                k += 1;
            }
        });
        let mut reg = tiny_registry();
        reg.insert("broken", broken).unwrap();
        reg
    }

    #[test]
    fn panicking_forward_is_a_typed_error_and_the_engine_keeps_serving() {
        let reg = registry_with_broken_model();
        let engine =
            ServeEngine::new(reg, ServeConfig { auto_dispatch: false, ..Default::default() });
        let h = engine.handle();
        let broken = h.submit("broken", input(8)).unwrap();
        assert_eq!(h.dispatch_once(), 1, "the panic stays inside the dispatch");
        match broken.wait() {
            Err(ServeError::BadInput(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected the typed panic error, got {other:?}"),
        }
        let next = h.submit("m", input(8)).unwrap();
        assert_eq!(h.dispatch_once(), 1);
        let out = next.wait().expect("the next request is served");
        assert_eq!(out.dims(), &[2, 8, 8]);
        assert!(out.all_finite());
    }

    #[test]
    fn session_matches_rollout() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let hist = input(8);
        let id = h.open_session("m", &hist).unwrap();
        let served = h.session_step(id, 5).unwrap();
        let reg = tiny_registry();
        let direct = fno_core::rollout::rollout(&reg.get("m").unwrap().model, &hist, 5);
        assert!(served.allclose(&direct, 1e-12));
        assert!(h.close_session(id));
        assert!(matches!(
            h.session_step(id, 1).unwrap_err(),
            ServeError::UnknownSession(_)
        ));
    }

    #[test]
    fn panicking_session_step_is_a_typed_error_and_the_store_keeps_serving() {
        ft_obs::set_enabled(true);
        let engine = ServeEngine::new(
            registry_with_broken_model(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let hist = input(8);
        let good = h.open_session("m", &hist).unwrap();
        let bad = h.open_session("broken", &hist).unwrap();
        match h.session_step(bad, 2) {
            Err(ServeError::BadInput(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected the typed panic error, got {other:?}"),
        }
        // The half-advanced session is gone, and its removal is recorded.
        assert!(matches!(h.session_step(bad, 1).unwrap_err(), ServeError::UnknownSession(_)));
        assert!(ft_obs::flight::events().iter().any(|e| {
            let j = e.to_json();
            j.contains("\"kind\":\"session_evicted\"")
                && j.contains(&format!("\"session\":{bad}"))
                && j.contains("\"reason\":\"model_panic\"")
        }));
        // The store lock is not poisoned: the healthy session, the stats
        // and new sessions all keep working.
        let served = h.session_step(good, 3).unwrap();
        let direct = fno_core::rollout::rollout(&tiny_registry().get("m").unwrap().model, &hist, 3);
        assert_eq!(served.data(), direct.data());
        assert_eq!(h.stats().sessions, 1);
        let again = h.open_session("m", &hist).unwrap();
        assert_eq!(h.session_step(again, 3).unwrap().data(), direct.data());
    }

    fn tiny_3d_registry() -> ModelRegistry {
        let cfg = FnoConfig { kind: FnoKind::ThreeD, in_channels: 1, out_channels: 1, ..tiny_cfg() };
        let mut reg = ModelRegistry::new();
        reg.insert("m3", Fno::new(cfg, 5)).unwrap();
        reg
    }

    /// A `[T, H, W]` block whose values differ per `seed`.
    fn block_3d(seed: usize) -> Tensor {
        Tensor::from_fn(&[4, 6, 6], |i| {
            (seed as f64 + i[0] as f64 * 0.7 + i[1] as f64 * 0.3 - i[2] as f64 * 0.5).sin()
        })
    }

    #[test]
    fn queued_3d_predicts_equal_single_blocks_bit_for_bit() {
        let engine = ServeEngine::new(
            tiny_3d_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let pending: Vec<_> = (0..3).map(|s| h.submit("m3", block_3d(s)).unwrap()).collect();
        for _ in 0..3 {
            assert_eq!(h.dispatch_once(), 1);
        }
        let model = &tiny_3d_registry().get("m3").unwrap().model;
        for (s, p) in pending.into_iter().enumerate() {
            let served = p.wait().unwrap();
            let direct = fno_core::rollout::predict_block_3d(model, &block_3d(s));
            assert_eq!(served.dims(), direct.dims());
            assert_eq!(served.data(), direct.data(), "request {s}");
        }
    }

    #[test]
    fn zero_frame_3d_blocks_are_rejected_at_admission() {
        let engine = ServeEngine::new(
            tiny_3d_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let empty = Tensor::zeros(&[0, 6, 6]);
        assert!(matches!(h.submit("m3", empty.clone()).unwrap_err(), ServeError::BadInput(_)));
        assert!(matches!(h.open_session("m3", &empty).unwrap_err(), ServeError::BadInput(_)));
    }

    #[test]
    fn session_3d_steps_continue_the_block_trajectory() {
        let engine = ServeEngine::new(
            tiny_3d_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let hist = block_3d(0);
        let id = h.open_session("m3", &hist).unwrap();
        let mut served = Vec::new();
        for steps in [1, 4, 2, 9] {
            let out = h.session_step(id, steps).unwrap();
            assert_eq!(out.dims(), &[steps, 6, 6]);
            served.extend_from_slice(out.data());
        }
        // 16 frames = four consecutive 4-frame blocks, each predicted from
        // the one before it.
        let model = &tiny_3d_registry().get("m3").unwrap().model;
        let mut block = hist;
        let mut direct = Vec::new();
        for _ in 0..4 {
            block = fno_core::rollout::predict_block_3d(model, &block);
            direct.extend_from_slice(block.data());
        }
        assert_eq!(served, direct);
    }

    #[test]
    fn session_2d_discards_the_surplus_of_a_short_step() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let hist = input(8);
        let id = h.open_session("m", &hist).unwrap();
        let first = h.session_step(id, 1).unwrap();
        let second = h.session_step(id, 4).unwrap();
        let model = &tiny_registry().get("m").unwrap().model;
        let direct_first = fno_core::rollout::rollout(model, &hist, 1);
        assert_eq!(first.data(), direct_first.data());
        // The window slid by the one frame taken; the model's second
        // output frame was not kept.
        let mut slid = hist.data()[64..].to_vec();
        slid.extend_from_slice(direct_first.data());
        let direct_second = fno_core::rollout::rollout(model, &Tensor::from_vec(&[4, 8, 8], slid), 4);
        assert_eq!(second.data(), direct_second.data());
    }

    #[test]
    fn oversized_session_step_is_rejected_and_the_session_continues() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig { auto_dispatch: false, ..Default::default() },
        );
        let h = engine.handle();
        let hist = input(8);
        let id = h.open_session("m", &hist).unwrap();
        // Buffering 1e11 frames would ask for ~5e13 bytes; the allocation
        // failure would abort the process.
        for steps in [100_000_000_000, crate::session::MAX_SESSION_STEPS + 1] {
            assert!(matches!(h.session_step(id, steps).unwrap_err(), ServeError::BadInput(_)));
        }
        let served = h.session_step(id, 1).unwrap();
        let direct = fno_core::rollout::rollout(&tiny_registry().get("m").unwrap().model, &hist, 1);
        assert_eq!(served.data(), direct.data());
    }
}
