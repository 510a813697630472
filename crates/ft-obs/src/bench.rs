//! Stable-schema `BENCH_*.json` emission.
//!
//! [`write_bench_json`] writes one machine-readable benchmark file
//! combining caller-supplied [`Record`]s with a snapshot of every
//! registered counter, gauge and span aggregate. The file is written
//! atomically (temp file + rename), matching the workspace's
//! crash-consistency conventions.
//!
//! # Schema (`ft-obs/bench-v1`)
//!
//! ```json
//! {
//!   "schema": "ft-obs/bench-v1",
//!   "kind": "train",                  // "train" | "solver" | "experiment"
//!   "name": "fno2dturb-train",        // emitting binary / workload
//!   "wall_seconds": 12.5,             // caller-measured wall clock
//!   "records": [ { "record": "train_epoch", ... }, ... ],
//!   "counters": { "fft.plan_cache.hits": 1024, ... },
//!   "gauges":   { "lbm.mlups": 141.2, ... },
//!   "spans": [
//!     { "path": "train/epoch", "count": 20,
//!       "total_ms": 12011.0, "mean_ms": 600.6 }
//!   ],
//!   "histograms": {
//!     "train.batch_loss": { "count": 640, "mean": 0.31,
//!       "p50": 0.28, "p90": 0.55, "p99": 1.1, "max": 1.73 }
//!   }
//! }
//! ```
//!
//! The `histograms` section was added after the first `bench-v1` files
//! shipped; consumers ignore unknown keys, so it is an additive (schema
//! suffix unchanged) extension.
//!
//! The `schema` field is the compatibility contract: consumers must
//! ignore unknown keys, and any breaking change bumps the suffix. The
//! meaning of `records` depends on `kind` — `train` files carry one
//! `train_epoch` record per epoch (see `fno_core::EpochMetrics`),
//! `solver` files carry one record per measured solver workload, and
//! `experiment` files (the `ft-bench` binaries) carry one summary record.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::hist::histogram_snapshot;
use crate::json::{write_str, Json};
use crate::metrics::{counter_snapshot, gauge_snapshot};
use crate::sink::Record;
use crate::span;

/// Current schema identifier written to every bench file.
pub const BENCH_SCHEMA: &str = "ft-obs/bench-v1";

/// Writes a `BENCH_*.json` file at `path` (atomically) with the given
/// `kind`/`name`, caller-measured `wall_seconds`, the `records`, and a
/// snapshot of all counters, gauges and spans.
pub fn write_bench_json(
    path: impl AsRef<Path>,
    kind: &str,
    name: &str,
    wall_seconds: f64,
    records: &[Record],
) -> io::Result<()> {
    let json = render(kind, name, wall_seconds, records);
    write_atomic(path.as_ref(), json.as_bytes())
}

/// Pretty layout: one top-level field per line, one record, counter,
/// gauge, span or histogram per line; every scalar goes through the
/// [`crate::json`] writer.
fn render(kind: &str, name: &str, wall_seconds: f64, records: &[Record]) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    for (key, v) in [
        ("schema", BENCH_SCHEMA.into()),
        ("kind", kind.into()),
        ("name", name.into()),
        ("wall_seconds", Json::Num(wall_seconds)),
    ] {
        out.push_str("\n  ");
        field(&mut out, key, &v);
        out.push(',');
    }
    out.push_str("\n  \"records\": ");
    section(&mut out, '[', records, |out, r| out.push_str(&r.to_json()));
    out.push_str(",\n  \"counters\": ");
    section(&mut out, '{', &counter_snapshot(), |out, (n, v)| field(out, n, &Json::Int(*v)));
    out.push_str(",\n  \"gauges\": ");
    section(&mut out, '{', &gauge_snapshot(), |out, (n, v)| field(out, n, &Json::Num(*v)));
    out.push_str(",\n  \"spans\": ");
    section(&mut out, '[', &span::stats(), |out, (path, stat)| {
        let total_ms = stat.total_ns as f64 / 1e6;
        let mean_ms = total_ms / stat.count.max(1) as f64;
        let (path, n) = (path.as_str().into(), Json::Int(stat.count));
        let (total, mean) = (Json::Num(total_ms), Json::Num(mean_ms));
        inline_obj(out, &[("path", path), ("count", n), ("total_ms", total), ("mean_ms", mean)]);
    });
    out.push_str(",\n  \"histograms\": ");
    section(&mut out, '{', &histogram_snapshot(), |out, (n, s)| {
        write_str(n, out);
        out.push_str(": ");
        let names = ["mean", "p50", "p90", "p99", "max"];
        let mut fields = vec![("count", Json::Int(s.count))];
        fields.extend(names.into_iter().zip([s.mean, s.p50, s.p90, s.p99, s.max].map(Json::Num)));
        inline_obj(out, &fields);
    });
    out.push_str("\n}\n");
    out
}

/// `"key": value`.
fn field(out: &mut String, key: &str, v: &Json) {
    write_str(key, out);
    out.push_str(": ");
    v.write(out);
}

/// `{ "key": value, ... }` on one line.
fn inline_obj(out: &mut String, fields: &[(&str, Json)]) {
    out.push_str("{ ");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        field(out, k, v);
    }
    out.push_str(" }");
}

/// A `[`- or `{`-opened section with one item per line, indented four
/// spaces; an empty section stays on one line (`[]`, `{}`).
fn section<T>(out: &mut String, open: char, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        item(out, it);
    }
    if !items.is_empty() {
        out.push_str("\n  ");
    }
    out.push(if open == '[' { ']' } else { '}' });
}

/// Writes `bytes` to `path` crash-consistently: into a hidden
/// `.<name>.tmp` sibling, synced, then renamed over `path` (the temp file
/// is removed if the rename fails). Missing parent directories are
/// created. A reader sees the old file or the new one, never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!(".{name}.tmp")),
        None => return Err(io::Error::new(io::ErrorKind::InvalidInput, "invalid path")),
    };
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_shaped_json() {
        let recs = vec![Record::new("train_epoch").u64("epoch", 0).f64("loss", 0.5)];
        let s = render("train", "unit", 1.25, &recs);
        assert!(s.starts_with("{\n  \"schema\": \"ft-obs/bench-v1\""));
        assert!(s.contains("\"kind\": \"train\""));
        assert!(s.contains("\"wall_seconds\": 1.25"));
        assert!(s.contains(r#"{"record":"train_epoch","epoch":0,"loss":0.5}"#));
        assert!(s.contains("\"histograms\": {"));
        assert!(s.ends_with("}\n}\n") || s.ends_with("{}\n}\n"));
        // Balanced braces/brackets — a cheap structural validity check.
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
