//! Anomaly flight recorder: a bounded in-memory ring of `event` records
//! plus the `run_manifest` that opens every JSONL stream.
//!
//! Training and solver anomalies (NaN rollback, LR halving, solver
//! blow-up, checkpoint write/restore) are recorded as structured `event`
//! [`Record`]s via [`event_with`]. Each event goes two places: it is
//! appended to the open JSONL sink (if any), and it is pushed into a
//! fixed-size ring buffer ([`RING_CAPACITY`] most recent events). When
//! something goes badly wrong — the training health monitor fires, or a
//! solver reports a blow-up — [`dump`] writes the manifest plus the whole
//! ring to `results/flightrec_<ts>.jsonl`, so the moments *leading up to*
//! the failure survive even when no metrics sink was open.
//!
//! [`set_manifest`] records the run's identity (config, seed, thread
//! count, build profile); [`run_manifest`] pre-fills the environment
//! fields. The manifest is emitted to the sink immediately and re-emitted
//! as the first line of every dump.
//!
//! Like the rest of the crate, everything is a no-op while
//! instrumentation is disabled: [`event_with`] never invokes its closure,
//! and [`dump`] writes nothing.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::sink::{self, Record};

/// Maximum number of events retained in the ring (oldest evicted first).
pub const RING_CAPACITY: usize = 256;

static RING: Mutex<VecDeque<Record>> = Mutex::new(VecDeque::new());
static MANIFEST: Mutex<Option<Record>> = Mutex::new(None);
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Monotonic suffix so two dumps within the same second get distinct files.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Builds a `run_manifest` [`Record`] pre-filled with the environment:
/// the workload name, the host's core count (`nproc`), the worker-pool
/// width and the build profile. Size the pool first (`--threads`) so
/// `pool_width` is the width the run uses. Callers append their
/// config/seed fields and pass the result to [`set_manifest`].
pub fn run_manifest(name: &str) -> Record {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Record::new("run_manifest")
        .str("name", name)
        .u64("nproc", nproc)
        .u64("pool_width", rayon::current_num_threads() as u64)
        .str("build", if cfg!(debug_assertions) { "debug" } else { "release" })
}

/// Installs `manifest` as the run's identity record: emits it to the open
/// sink (if any) and re-emits it as the first line of every [`dump`].
pub fn set_manifest(manifest: Record) {
    sink::emit(&manifest);
    *MANIFEST.lock().unwrap() = Some(manifest);
}

/// The currently installed manifest, if any.
pub fn manifest() -> Option<Record> {
    MANIFEST.lock().unwrap().clone()
}

/// Records one anomaly event. The closure builds the [`Record`] (use
/// `Record::new("event").str("kind", ...)` plus context fields) and is
/// only invoked while instrumentation is enabled, so disabled runs pay
/// one atomic load and allocate nothing. The event is pushed into the
/// ring and, when a sink is open, also streamed to it.
pub fn event_with(f: impl FnOnce() -> Record) {
    if !crate::enabled() {
        return;
    }
    let rec = f();
    sink::emit(&rec);
    let mut ring = RING.lock().unwrap();
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// Number of events currently held in the ring.
pub fn event_count() -> usize {
    RING.lock().unwrap().len()
}

/// A copy of the ring's events, oldest first.
pub fn events() -> Vec<Record> {
    RING.lock().unwrap().iter().cloned().collect()
}

/// Overrides the directory [`dump`] writes into (default `results/`).
/// Tests point this at a temp dir.
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    *DUMP_DIR.lock().unwrap() = Some(dir.into());
}

/// Clears the ring, the manifest and any dump-directory override.
pub fn reset() {
    RING.lock().unwrap().clear();
    *MANIFEST.lock().unwrap() = None;
    *DUMP_DIR.lock().unwrap() = None;
}

/// Dumps the flight recorder to `<dir>/flightrec_<unix-ts>_<seq>.jsonl`:
/// the manifest (if set), every ringed event oldest-first, and a trailing
/// `flight_dump` record carrying `reason` and the event count. Returns
/// the path written, or `None` while instrumentation is disabled.
///
/// Missing directories are created; I/O failures are reported, never
/// panicked on, since a dump races an already-failing run.
pub fn dump(reason: &str) -> Option<io::Result<PathBuf>> {
    if !crate::enabled() {
        return None;
    }
    let dir = DUMP_DIR.lock().unwrap().clone().unwrap_or_else(|| PathBuf::from("results"));
    Some(write_dump(&dir, reason))
}

fn write_dump(dir: &Path, reason: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flightrec_{ts}_{seq}.jsonl"));
    let mut f = io::BufWriter::new(fs::File::create(&path)?);
    if let Some(m) = MANIFEST.lock().unwrap().as_ref() {
        writeln!(f, "{}", m.to_json())?;
    }
    let events: Vec<Record> = RING.lock().unwrap().iter().cloned().collect();
    for e in &events {
        writeln!(f, "{}", e.to_json())?;
    }
    let trailer = Record::new("flight_dump")
        .str("reason", reason)
        .u64("events", events.len() as u64);
    writeln!(f, "{}", trailer.to_json())?;
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_with_is_inert_when_disabled() {
        crate::set_enabled(false);
        event_with(|| unreachable!("closure must not run while disabled"));
        assert!(dump("nope").is_none());
    }
}
