//! The serving core: admission, one forward per predict on the calling
//! thread, and a draining flag.
//!
//! # Life of a request
//!
//! 1. **Admission** — [`ServeHandle::submit`] looks the model up, checks
//!    the input shape against it ([`ModelEntry::check_input`], the check
//!    sessions use too) and refuses new work once the engine is draining
//!    ([`ServeError::ShuttingDown`]).
//! 2. **Execution** — on the same thread, the input is stacked into a
//!    one-sample model tensor ([`fno_core::rollout::stack`], which owns the
//!    2D and 3D layouts) and run through one
//!    [`ForecastModel::forward_inference`] call (no gradient tape), which
//!    parallelizes internally via rayon. A panic in the model is caught and
//!    converted into the request's error, so the caller and the server
//!    outlive bad inputs. Requests are never coalesced: a batched forward
//!    measured no cheaper per sample by more than the run-to-run spread
//!    (DESIGN.md §12b), so a request never waits for company.
//!
//! There is no queue and no dispatcher thread: predicts from different
//! threads run their forwards concurrently. (A session step also runs on
//! its caller's thread, under the session-store lock.) Over TCP
//! each connection has at most one request in flight, so
//! [`crate::server::MAX_CONNECTIONS`] bounds the predicts running at once.
//!
//! # Shutdown
//!
//! [`ServeEngine::shutdown`] sets the draining flag: new predicts and
//! sessions get [`ServeError::ShuttingDown`]. A predict already past
//! admission finishes on its own thread; `serve_tcp` joins its connection
//! threads, so the TCP server completes every admitted request before it
//! returns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ft_tensor::Tensor;
use fno_core::rollout::{stack, unstack};
use fno_core::ForecastModel;

use crate::metrics;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::session::{SessionConfig, SessionStore};
use crate::ServeError;

/// Engine settings.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {
    /// Session-store limits.
    pub session: SessionConfig,
}

/// A point-in-time view of engine state, for health endpoints and tests.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Live rollout sessions.
    pub sessions: usize,
    /// Whether the engine is draining.
    pub shutting_down: bool,
}

/// The outcome of a submitted predict. [`ServeHandle::submit`] runs the
/// forward before it returns, so this is always filled.
#[derive(Debug)]
pub struct PendingResponse {
    result: Result<Tensor, ServeError>,
}

impl PendingResponse {
    /// The prediction, or the error its forward raised.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.result
    }
}

struct Shared {
    registry: ModelRegistry,
    sessions: SessionStore,
    /// Set once by [`ServeEngine::shutdown`]; it publishes no other data,
    /// so loads and the store are `Relaxed`.
    shutting_down: AtomicBool,
}

impl Shared {
    /// The model registered as `model`.
    fn entry(&self, model: &str) -> Result<Arc<ModelEntry>, ServeError> {
        self.registry.get(model).ok_or_else(|| ServeError::UnknownModel(model.to_string()))
    }
}

/// A serving engine. Hand out [`ServeHandle`]s via [`ServeEngine::handle`]
/// and call [`ServeEngine::shutdown`] (or drop it) to stop admitting work.
pub struct ServeEngine {
    shared: Arc<Shared>,
}

/// Cloneable, thread-safe client handle to a [`ServeEngine`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeEngine {
    /// An engine over `registry` with `cfg`.
    pub fn new(registry: ModelRegistry, cfg: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            registry,
            sessions: SessionStore::new(cfg.session),
            shutting_down: AtomicBool::new(false),
        });
        ServeEngine { shared }
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Stops admitting predicts and sessions. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Relaxed);
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServeHandle {
    /// Validates a request against model `model` and runs its forward on
    /// the calling thread. Admission failures are this call's error; a
    /// model panic is the returned response's.
    pub fn submit(&self, model: &str, input: Tensor) -> Result<PendingResponse, ServeError> {
        let entry = self.shared.entry(model)?;
        entry.check_input(&input)?;
        if self.shared.shutting_down.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        metrics::REQUESTS.inc();
        let _sp = ft_obs::span("serve/forward");
        let t0 = Instant::now();
        let kind = entry.config().kind;
        let result = entry.guarded(format_args!("a {:?} input", input.dims()), |m| {
            let y = m.forward_inference(&stack(kind, &[&input]));
            unstack(kind, &y).pop().expect("one block in, one block out")
        });
        metrics::FORWARD.observe(t0.elapsed().as_secs_f64());
        Ok(PendingResponse { result })
    }

    /// The admission check of [`ServeHandle::submit`] and
    /// [`ServeHandle::open_session`] on an input's dims alone: `model` must
    /// be registered ([`ServeError::UnknownModel`]) and take inputs of
    /// `dims` ([`ModelEntry::check_dims`]). The TCP server runs it on a
    /// request header before it reads the payload.
    pub fn check_dims(&self, model: &str, dims: &[usize]) -> Result<(), ServeError> {
        self.shared.entry(model)?.check_dims(dims)
    }

    /// Synchronous predict: [`ServeHandle::submit`] + wait.
    pub fn predict(&self, model: &str, input: Tensor) -> Result<Tensor, ServeError> {
        self.submit(model, input)?.wait()
    }

    /// Opens a rollout session for `model` from `history`.
    pub fn open_session(&self, model: &str, history: &Tensor) -> Result<u64, ServeError> {
        let entry = self.shared.entry(model)?;
        if self.shared.shutting_down.load(Ordering::Relaxed) {
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
        ServeStats {
            sessions: self.shared.sessions.len(),
            shutting_down: self.shared.shutting_down.load(Ordering::Relaxed),
        }
    }
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
    fn predicts_equal_direct_forwards_bit_for_bit() {
        let engine = ServeEngine::new(tiny_registry(), ServeConfig::default());
        let h = engine.handle();
        let model = &tiny_registry().get("m").unwrap().model;
        for s in 0..3 {
            let served = h.predict("m", input_seeded(8, s)).unwrap();
            let direct = model.forward_inference(&input_seeded(8, s).reshape(&[1, 4, 8, 8]));
            assert_eq!(served.dims(), &[2, 8, 8]);
            assert_eq!(served.data(), direct.data(), "request {s}");
        }
    }

    #[test]
    fn mixed_shapes_are_each_served_at_their_own_grid() {
        let engine = ServeEngine::new(tiny_registry(), ServeConfig::default());
        let h = engine.handle();
        for g in [8, 16, 8, 16] {
            assert_eq!(h.predict("m", input(g)).unwrap().dims(), &[2, g, g]);
        }
    }

    #[test]
    fn typed_rejections() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig::default(),
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
    fn shutdown_refuses_new_work_and_keeps_what_was_served() {
        let mut engine = ServeEngine::new(tiny_registry(), ServeConfig::default());
        let h = engine.handle();
        let served = h.submit("m", input(8)).unwrap();
        engine.shutdown();
        assert!(h.stats().shutting_down);
        assert_eq!(served.wait().unwrap().dims(), &[2, 8, 8]);
        assert!(matches!(h.predict("m", input(8)).unwrap_err(), ServeError::ShuttingDown));
        assert!(matches!(h.open_session("m", &input(8)).unwrap_err(), ServeError::ShuttingDown));
    }

    /// [`tiny_registry`] plus `broken`, a model whose every forward
    /// panics: the lifting layer's bias is emptied, so every one of its 64
    /// output planes, which the pool splits across its threads, indexes
    /// past the end and panics inside the parallel call.
    fn registry_with_broken_model() -> ModelRegistry {
        let mut broken = Fno::new(FnoConfig { lifting_channels: 64, ..tiny_cfg() }, 7);
        let mut k = 0;
        ft_nn::Layer::visit_params(&mut broken, &mut |p| {
            if let ft_nn::ParamMut::Real(p) = p {
                if k == 1 {
                    p.value = Tensor::zeros(&[0]);
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
        let engine = ServeEngine::new(reg, ServeConfig::default());
        let h = engine.handle();
        let broken = h.submit("broken", input(8)).expect("the panic stays inside the forward");
        match broken.wait() {
            Err(ServeError::BadInput(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected the typed panic error, got {other:?}"),
        }
        let out = h.predict("m", input(8)).expect("the next request is served");
        assert_eq!(out.dims(), &[2, 8, 8]);
        assert!(out.all_finite());
    }

    #[test]
    fn session_matches_rollout() {
        let engine = ServeEngine::new(
            tiny_registry(),
            ServeConfig::default(),
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
            ServeConfig::default(),
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

    fn tiny_3d_model() -> Fno {
        let cfg = FnoConfig { kind: FnoKind::ThreeD, in_channels: 1, out_channels: 1, ..tiny_cfg() };
        Fno::new(cfg, 5)
    }

    fn tiny_3d_registry() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.insert("m3", tiny_3d_model()).unwrap();
        reg
    }

    /// A `[T, H, W]` block whose values differ per `seed`.
    fn block_3d(seed: usize) -> Tensor {
        Tensor::from_fn(&[4, 6, 6], |i| {
            (seed as f64 + i[0] as f64 * 0.7 + i[1] as f64 * 0.3 - i[2] as f64 * 0.5).sin()
        })
    }

    #[test]
    fn predicts_3d_equal_single_blocks_bit_for_bit() {
        let engine = ServeEngine::new(tiny_3d_registry(), ServeConfig::default());
        let h = engine.handle();
        let model = &tiny_3d_registry().get("m3").unwrap().model;
        for s in 0..3 {
            let served = h.predict("m3", block_3d(s)).unwrap();
            let direct = fno_core::rollout::predict_block_3d(model, &block_3d(s));
            assert_eq!(served.dims(), direct.dims());
            assert_eq!(served.data(), direct.data(), "request {s}");
        }
    }

    /// Predicts from several threads, released together by a barrier, run
    /// their forwards at the same time against a 2D and a 3D model; each
    /// answer is its own input's direct forward, bit for bit.
    #[test]
    fn concurrent_predicts_equal_direct_calls_bit_for_bit() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 6;
        let mut reg = tiny_registry();
        reg.insert("m3", tiny_3d_model()).unwrap();
        let engine = ServeEngine::new(reg, ServeConfig::default());
        let (model, model_3d) = (&Fno::new(tiny_cfg(), 42), &tiny_3d_model());
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (h, start) = (engine.handle(), &start);
                scope.spawn(move || {
                    start.wait();
                    for k in 0..PER_THREAD {
                        let seed = t * PER_THREAD + k;
                        if (t + k) % 2 == 0 {
                            let served = h.predict("m", input_seeded(8, seed)).unwrap();
                            let x = input_seeded(8, seed).reshape(&[1, 4, 8, 8]);
                            let direct = model.forward_inference(&x);
                            assert_eq!(served.data(), direct.data(), "2D request {seed}");
                        } else {
                            let served = h.predict("m3", block_3d(seed)).unwrap();
                            let direct =
                                fno_core::rollout::predict_block_3d(model_3d, &block_3d(seed));
                            assert_eq!(served.dims(), direct.dims());
                            assert_eq!(served.data(), direct.data(), "3D request {seed}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn zero_frame_3d_blocks_are_rejected_at_admission() {
        let engine = ServeEngine::new(
            tiny_3d_registry(),
            ServeConfig::default(),
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
            ServeConfig::default(),
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
            ServeConfig::default(),
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
            ServeConfig::default(),
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
