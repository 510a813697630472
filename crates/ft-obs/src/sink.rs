//! Structured records and the process-global JSONL sink.
//!
//! A [`Record`] is an insertion-ordered list of `key → value` pairs that
//! serializes to one JSON object per line (JSONL) through the crate's one
//! writer ([`crate::json`]): strings are escaped per RFC 8259, floats use
//! Rust's shortest-roundtrip formatting, and non-finite floats encode as
//! `null` so the output is always valid JSON.
//!
//! The sink is process-global: [`open_jsonl`] points it at a file,
//! [`emit`] appends one record per line (flushing each line, so a killed
//! run keeps everything emitted so far), [`close_jsonl`] drops it.
//! Producers on hot paths should use [`emit_with`], which builds the
//! record only when a sink is actually open.
//!
//! # Schema stability
//!
//! Field order is insertion order and every record's first field is
//! `"record"` naming its type. The `train_epoch` record emitted by
//! `fno_core::Trainer` is pinned by a golden test (`tests/obs.rs`); do
//! not reorder or rename fields without bumping the record name.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::{self, Json};

/// One structured metrics record: an ordered list of fields serializing
/// to a single JSON object. The first field is always `"record"` (the
/// record type), set by [`Record::new`].
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    fields: Vec<(String, Json)>,
}

impl Record {
    /// A record of type `kind` (becomes the leading `"record"` field).
    pub fn new(kind: &str) -> Self {
        Record { fields: vec![("record".to_string(), Json::Str(kind.to_string()))] }
    }

    fn with(mut self, key: &str, v: Json) -> Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Appends an unsigned-integer field.
    pub fn u64(self, key: &str, v: u64) -> Self {
        self.with(key, Json::Int(v))
    }

    /// Appends a float field (`null` if non-finite).
    pub fn f64(self, key: &str, v: f64) -> Self {
        self.with(key, Json::Num(v))
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.with(key, Json::Bool(v))
    }

    /// Appends a string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.with(key, Json::Str(v.to_string()))
    }

    /// Serializes to a single-line JSON object with fields in insertion
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        json::write_obj(&self.fields, &mut out);
        out
    }
}

static SINK_OPEN: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Opens (truncating) `path` as the process-global JSONL sink, creating
/// missing parent directories. Subsequent [`emit`] calls append one JSON
/// object per line.
pub fn open_jsonl(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let f = File::create(path)?;
    *SINK.lock().unwrap() = Some(BufWriter::new(f));
    SINK_OPEN.store(true, Ordering::Release);
    Ok(())
}

/// Whether a JSONL sink is currently open — one atomic load, suitable for
/// gating record construction on hot paths (or use [`emit_with`]).
#[inline]
pub fn sink_open() -> bool {
    SINK_OPEN.load(Ordering::Acquire)
}

/// Writes `rec` as one line to the sink, if open; flushes the line so a
/// killed process loses nothing already emitted. Silently drops records
/// when no sink is open.
pub fn emit(rec: &Record) {
    if !sink_open() {
        return;
    }
    let line = rec.to_json();
    let mut guard = SINK.lock().unwrap();
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Builds and emits a record only when a sink is open — the closure is
/// never invoked (and thus nothing is allocated) otherwise.
pub fn emit_with(f: impl FnOnce() -> Record) {
    if sink_open() {
        emit(&f());
    }
}

/// Flushes and closes the JSONL sink. No-op when none is open.
pub fn close_jsonl() {
    SINK_OPEN.store(false, Ordering::Release);
    if let Some(mut w) = SINK.lock().unwrap().take() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encodes_in_insertion_order() {
        let r = Record::new("demo")
            .u64("epoch", 3)
            .f64("loss", 0.25)
            .bool("ok", true)
            .str("note", "a\"b\\c\n");
        assert_eq!(
            r.to_json(),
            r#"{"record":"demo","epoch":3,"loss":0.25,"ok":true,"note":"a\"b\\c\n"}"#
        );
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let r = Record::new("x").f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        assert_eq!(r.to_json(), r#"{"record":"x","nan":null,"inf":null}"#);
    }

    #[test]
    fn emit_without_sink_is_silent() {
        emit(&Record::new("dropped"));
        emit_with(|| unreachable!("closure must not run without a sink"));
    }
}
