//! Stateful autoregressive rollout sessions.
//!
//! A client that wants a long forecast should not re-send the growing
//! history every step. Instead it opens a session with the initial
//! history once; the server keeps the autoregressive state, a
//! [`Window`], and streams successive predicted frames on demand. A step
//! is [`Window::advance`], the code [`fno_core::rollout::rollout`] runs,
//! so one `step(n)` call returns the frames a fresh `rollout(n)` from the
//! current window would, under the same 2D and 3D window rules. A history
//! must pass [`ModelEntry::check_input`], the admission check of a
//! predict.
//!
//! Sessions are bounded two ways:
//!
//! * **TTL** — a session idle longer than [`SessionConfig::ttl`] is
//!   dropped at the next store access;
//! * **LRU capacity** — opening a session beyond
//!   [`SessionConfig::max_sessions`] evicts the least-recently-used one.
//!
//! A session whose model panics during a step is removed too, because its
//! window may be half-advanced; the step is a typed `BadInput` error and
//! the store keeps serving. Each of these removals is a flight-recorder
//! `session_evicted` event with its reason (`ttl`, `lru_capacity` or
//! `model_panic`) and ticks the `serve.sessions.evicted` counter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ft_tensor::Tensor;
use fno_core::rollout::Window;

use crate::metrics;
use crate::registry::ModelEntry;
use crate::ServeError;

/// Limits on the session store.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Maximum live sessions; opening past this evicts the LRU session.
    pub max_sessions: usize,
    /// Idle time after which a session may be reclaimed.
    pub ttl: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { max_sessions: 64, ttl: Duration::from_secs(300) }
    }
}

/// Most frames one [`SessionStore::step`] call may ask for. The frames are
/// buffered before the reply, so this bounds that buffer: 512 MiB at 256²,
/// and the reply stays within [`crate::proto::MAX_PAYLOAD_ELEMS`] up to
/// 512² grids.
pub const MAX_SESSION_STEPS: usize = 1024;

/// One live rollout: the model it runs and its autoregressive state.
struct Session {
    entry: Arc<ModelEntry>,
    window: Window,
    last_used: Instant,
}

/// Thread-safe session store keyed by server-assigned ids.
pub struct SessionStore {
    cfg: SessionConfig,
    next_id: AtomicU64,
    sessions: Mutex<HashMap<u64, Session>>,
}

impl SessionStore {
    /// An empty store under `cfg`.
    pub fn new(cfg: SessionConfig) -> Self {
        SessionStore { cfg, next_id: AtomicU64::new(1), sessions: Mutex::new(HashMap::new()) }
    }

    /// Opens a session for `entry` from `history` (`[C_in, H, W]` for 2D
    /// models, `[T, H, W]` for 3D). Returns the new session id.
    pub fn open(&self, entry: Arc<ModelEntry>, history: &Tensor) -> Result<u64, ServeError> {
        entry.check_input(history)?;
        let now = Instant::now();
        let mut map = self.sessions.lock().unwrap();
        self.evict_expired(&mut map, now);
        while map.len() >= self.cfg.max_sessions {
            // Evict the least-recently-used session to admit the new one.
            let Some((&lru, _)) = map.iter().min_by_key(|(_, s)| s.last_used) else { break };
            map.remove(&lru);
            note_eviction(lru, "lru_capacity");
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        map.insert(
            id,
            Session {
                window: Window::new(entry.config().kind, history),
                entry,
                last_used: now,
            },
        );
        metrics::SESSIONS_OPENED.inc();
        metrics::LIVE_SESSIONS.set(map.len() as f64);
        Ok(id)
    }

    /// Advances session `id` by `steps` predicted frames, returning them
    /// as `[steps, H, W]` (oldest first). The window slides server-side,
    /// so consecutive calls continue the same trajectory. `steps` must be
    /// in `1..=MAX_SESSION_STEPS`; the check comes before the store lock
    /// is taken, and a rejected call leaves the session as it was.
    pub fn step(&self, id: u64, steps: usize) -> Result<Tensor, ServeError> {
        if steps == 0 || steps > MAX_SESSION_STEPS {
            return Err(ServeError::BadInput(format!(
                "steps must be in 1..={MAX_SESSION_STEPS}, got {steps}"
            )));
        }
        let now = Instant::now();
        let mut map = self.sessions.lock().unwrap();
        self.evict_expired(&mut map, now);
        let s = map.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
        s.last_used = now;
        let out = s
            .entry
            .guarded(format_args!("step {steps} of session {id}"), |m| s.window.advance(m, steps));
        if out.is_err() {
            map.remove(&id);
            note_eviction(id, "model_panic");
            metrics::LIVE_SESSIONS.set(map.len() as f64);
        }
        out
    }

    /// Closes session `id`; returns whether it existed.
    pub fn close(&self, id: u64) -> bool {
        let mut map = self.sessions.lock().unwrap();
        let existed = map.remove(&id).is_some();
        metrics::LIVE_SESSIONS.set(map.len() as f64);
        existed
    }

    /// Number of live sessions (expired ones included until next access).
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict_expired(&self, map: &mut HashMap<u64, Session>, now: Instant) {
        let ttl = self.cfg.ttl;
        let expired: Vec<u64> = map
            .iter()
            .filter(|(_, s)| now.duration_since(s.last_used) > ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            map.remove(&id);
            note_eviction(id, "ttl");
        }
        metrics::LIVE_SESSIONS.set(map.len() as f64);
    }
}

fn note_eviction(id: u64, reason: &str) {
    metrics::SESSIONS_EVICTED.inc();
    ft_obs::flight::event_with(|| {
        ft_obs::Record::new("event")
            .str("kind", "session_evicted")
            .u64("session", id)
            .str("reason", reason)
    });
}
