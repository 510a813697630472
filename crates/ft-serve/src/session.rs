//! Stateful autoregressive rollout sessions.
//!
//! A client that wants a long forecast should not re-send the growing
//! history every step. Instead it opens a session with the initial
//! history once; the server keeps the autoregressive state — the sliding
//! `C_in`-frame temporal-channel window for the 2D variant, the
//! `[T, H, W]` space-time block for the 3D variant — and streams
//! successive predicted frames on demand. Stepping a session advances
//! exactly like [`fno_core::rollout::rollout`]: each forward yields up to
//! `C_out` frames, the window slides by the frames actually consumed, so
//! one `step(n)` call returns the same frames a fresh `rollout(n)` from
//! the current window would.
//!
//! Sessions are bounded two ways, both surfaced as flight-recorder
//! `session_evicted` events and the `serve.sessions.evicted` counter:
//!
//! * **TTL** — a session idle longer than [`SessionConfig::ttl`] is
//!   dropped at the next store access;
//! * **LRU capacity** — opening a session beyond
//!   [`SessionConfig::max_sessions`] evicts the least-recently-used one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ft_tensor::Tensor;
use fno_core::rollout::predict_block_3d;
use fno_core::{FnoKind, ForecastModel};

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
    /// Newest `C_in` frames (2D) or the current `[T, H, W]` block (3D),
    /// flattened row-major, oldest frame first.
    window: Vec<f64>,
    /// 3D only: predicted frames not yet handed to the client (the model
    /// produces whole blocks; clients may consume fewer per step).
    pending: Vec<f64>,
    h: usize,
    w: usize,
    /// Frames held in `window` (= `C_in` for 2D, the block length for 3D).
    frames: usize,
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
        let dims = history.dims();
        if dims.len() != 3 {
            return Err(ServeError::BadInput(format!(
                "session history must be rank 3 {}, got {dims:?}",
                entry.input_rank_hint()
            )));
        }
        let frames = dims[0];
        if entry.config().kind == FnoKind::TwoDChannels && frames != entry.config().in_channels {
            return Err(ServeError::BadInput(format!(
                "2D session history needs C_in = {} frames, got {frames}",
                entry.config().in_channels
            )));
        }
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
                entry,
                window: history.data().to_vec(),
                pending: Vec::new(),
                h: dims[1],
                w: dims[2],
                frames,
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
        let frame = s.h * s.w;
        let mut produced: Vec<f64> = Vec::with_capacity(steps * frame);
        match s.entry.config().kind {
            FnoKind::TwoDChannels => {
                let c_out = s.entry.config().out_channels;
                while produced.len() < steps * frame {
                    let input =
                        Tensor::from_vec(&[1, s.frames, s.h, s.w], s.window.clone());
                    let pred = s.entry.model.forward_inference(&input); // [1, c_out, h, w]
                    let take = (steps - produced.len() / frame).min(c_out);
                    produced.extend_from_slice(&pred.data()[..take * frame]);
                    s.window.drain(..take * frame);
                    s.window.extend_from_slice(&pred.data()[..take * frame]);
                }
            }
            FnoKind::ThreeD => {
                // The 3D model maps whole blocks; buffer surplus frames so a
                // client consuming one frame at a time still sees the block
                // trajectory in order.
                while s.pending.len() < steps * frame {
                    let block =
                        Tensor::from_vec(&[s.frames, s.h, s.w], s.window.clone());
                    let next = predict_block_3d(&s.entry.model, &block);
                    s.pending.extend_from_slice(next.data());
                    s.window.copy_from_slice(next.data());
                }
                produced.extend(s.pending.drain(..steps * frame));
            }
        }
        Ok(Tensor::from_vec(&[steps, s.h, s.w], produced))
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
