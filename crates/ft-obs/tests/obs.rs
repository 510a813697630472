//! Integration tests for the observability substrate: span nesting and
//! aggregation, counter atomicity under rayon parallelism, and JSONL /
//! bench-file schema stability (golden records).
//!
//! All tests here run with instrumentation **enabled** and never turn it
//! off, so they can share the process-global state safely under the
//! default parallel test harness. The disabled-mode guarantees live in
//! `tests/no_alloc.rs` (its own process).

use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// The JSONL sink is process-global; tests that open/close it serialize
/// through this lock so the parallel harness cannot interleave them.
static SINK_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn span_nesting_builds_hierarchical_paths() {
    ft_obs::set_enabled(true);
    {
        let _outer = ft_obs::span("nest_outer");
        for _ in 0..3 {
            let _inner = ft_obs::span("nest_inner");
        }
    }
    let stats = ft_obs::span::stats();
    let outer = stats.iter().find(|(p, _)| p == "nest_outer").expect("outer span");
    let inner = stats
        .iter()
        .find(|(p, _)| p == "nest_outer/nest_inner")
        .expect("inner span aggregates under the outer path");
    assert_eq!(outer.1.count, 1);
    assert_eq!(inner.1.count, 3);
    assert!(outer.1.total_ns >= inner.1.total_ns, "parent covers children");
    // A sibling entered after the outer guard dropped is a root again.
    {
        let _root = ft_obs::span("nest_root_again");
    }
    assert!(ft_obs::span::stats().iter().any(|(p, _)| p == "nest_root_again"));
}

#[test]
fn span_aggregation_accumulates_across_reentry() {
    ft_obs::set_enabled(true);
    for _ in 0..10 {
        let _g = ft_obs::span("reentrant");
    }
    let stats = ft_obs::span::stats();
    let (_, s) = stats.iter().find(|(p, _)| p == "reentrant").unwrap();
    assert_eq!(s.count, 10);
}

static PAR_COUNTER: ft_obs::Counter = ft_obs::Counter::new("test.par_counter");

#[test]
fn counter_is_atomic_under_rayon_parallelism() {
    ft_obs::set_enabled(true);
    let n: u64 = 100_000;
    // Well above the compat-rayon inline threshold, so this genuinely
    // splits across std::thread::scope workers.
    (0..n).into_par_iter().for_each(|_| PAR_COUNTER.inc());
    assert_eq!(PAR_COUNTER.get(), n, "no increments may be lost");
    assert!(ft_obs::metrics::counter_snapshot()
        .iter()
        .any(|(name, v)| *name == "test.par_counter" && *v == n));
}

static GOLD_GAUGE: ft_obs::Gauge = ft_obs::Gauge::new("test.gold_gauge");

#[test]
fn gauge_holds_last_value() {
    ft_obs::set_enabled(true);
    GOLD_GAUGE.set(1.5);
    GOLD_GAUGE.set(-2.25);
    assert_eq!(GOLD_GAUGE.get(), -2.25);
}

/// Golden record: the exact serialized form of the `train_epoch` JSONL
/// record. `fno_core::Trainer` emits this schema; changing field names,
/// order, or types must update this test *and* the documented schema in
/// the README ("Observability").
#[test]
fn train_epoch_jsonl_schema_is_stable() {
    let rec = ft_obs::Record::new("train_epoch")
        .u64("epoch", 7)
        .f64("wall_seconds", 0.5)
        .u64("samples", 160)
        .f64("samples_per_sec", 320.0)
        .f64("loss", 0.125)
        .f64("grad_norm", 2.5)
        .f64("lr", 0.001)
        .u64("recoveries", 0);
    assert_eq!(
        rec.to_json(),
        r#"{"record":"train_epoch","epoch":7,"wall_seconds":0.5,"samples":160,"samples_per_sec":320,"loss":0.125,"grad_norm":2.5,"lr":0.001,"recoveries":0}"#
    );
}

#[test]
fn jsonl_sink_writes_one_record_per_line() {
    ft_obs::set_enabled(true);
    let _sink = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!("ft_obs_sink_{}.jsonl", std::process::id()));
    ft_obs::open_jsonl(&path).unwrap();
    ft_obs::emit(&ft_obs::Record::new("a").u64("i", 1));
    ft_obs::emit_with(|| ft_obs::Record::new("b").str("s", "two"));
    ft_obs::close_jsonl();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0], r#"{"record":"a","i":1}"#);
    assert_eq!(lines[1], r#"{"record":"b","s":"two"}"#);
    // After close, emission is dropped silently.
    ft_obs::emit(&ft_obs::Record::new("c"));
    assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_emit_produces_no_torn_lines() {
    ft_obs::set_enabled(true);
    let _sink = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!("ft_obs_par_sink_{}.jsonl", std::process::id()));
    ft_obs::open_jsonl(&path).unwrap();
    let n = 500u64;
    // Genuinely parallel emitters (above the compat-rayon inline
    // threshold); every record must land as exactly one intact line.
    (0..n).into_par_iter().for_each(|i| {
        ft_obs::emit_with(|| ft_obs::Record::new("par").u64("i", i).str("payload", "xyzw"));
    });
    ft_obs::close_jsonl();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n as usize, "one line per emitted record");
    let mut seen: Vec<u64> = lines
        .iter()
        .map(|l| {
            assert!(l.starts_with(r#"{"record":"par","i":"#), "torn line: {l}");
            assert!(l.ends_with(r#","payload":"xyzw"}"#), "torn line: {l}");
            let body = &l[r#"{"record":"par","i":"#.len()..];
            body[..body.find(',').unwrap()].parse().unwrap()
        })
        .collect();
    seen.sort_unstable();
    let expect: Vec<u64> = (0..n).collect();
    assert_eq!(seen, expect, "every record appears exactly once");
    std::fs::remove_file(&path).ok();
}

static H_EMPTY: ft_obs::Histogram = ft_obs::Histogram::new("test.hist_empty");
static H_SINGLE: ft_obs::Histogram = ft_obs::Histogram::new("test.hist_single");
static H_BOUND: ft_obs::Histogram = ft_obs::Histogram::new("test.hist_bound");
static H_MONO: ft_obs::Histogram = ft_obs::Histogram::new("test.hist_mono");

#[test]
fn empty_histogram_snapshot_is_all_zero() {
    ft_obs::set_enabled(true);
    let s = H_EMPTY.snapshot();
    assert_eq!(s.count, 0);
    assert_eq!((s.mean, s.p50, s.p90, s.p99, s.max), (0.0, 0.0, 0.0, 0.0, 0.0));
}

#[test]
fn single_sample_histogram_pins_all_quantiles() {
    ft_obs::set_enabled(true);
    H_SINGLE.observe(3.7);
    let s = H_SINGLE.snapshot();
    assert_eq!(s.count, 1);
    assert!((s.mean - 3.7).abs() < 1e-12, "mean is exact: {}", s.mean);
    assert_eq!(s.max, 3.7, "max is the exact sample");
    // Quantiles all land in the single occupied bucket; the log-bucket
    // representative is within one sub-bucket (±12.5%) of the sample.
    assert_eq!(s.p50, s.p90);
    assert_eq!(s.p90, s.p99);
    assert!(s.p50 > 3.7 * 0.8 && s.p50 < 3.7 * 1.25, "p50 {}", s.p50);
}

#[test]
fn bucket_boundaries_and_degenerate_samples() {
    ft_obs::set_enabled(true);
    // Exact powers of two sit on bucket boundaries; each must land in its
    // own bucket with a representative within the bucket's span.
    for v in [0.25, 1.0, 2.0, 1024.0] {
        H_BOUND.observe(v);
    }
    // Zero, negatives and NaN all collapse into the underflow bucket
    // (representative 0) without poisoning max or crashing.
    H_BOUND.observe(0.0);
    H_BOUND.observe(-7.0);
    H_BOUND.observe(f64::NAN);
    let s = H_BOUND.snapshot();
    assert_eq!(s.count, 7);
    assert_eq!(s.max, 1024.0, "non-finite/negative samples never become max");
    // 3 of 7 samples are in the underflow bucket, so the rank-4 median is
    // the smallest positive bucket's representative (0.25's bucket) and
    // p99 the largest one's.
    assert!(s.p50 >= 0.25 && s.p50 < 0.3125, "p50 {}", s.p50);
    assert!(s.p99 >= 1024.0 && s.p99 < 1280.0, "p99 {}", s.p99);
}

#[test]
fn histogram_percentiles_are_monotone() {
    ft_obs::set_enabled(true);
    for i in 1..=1000 {
        H_MONO.observe(i as f64);
    }
    let s = H_MONO.snapshot();
    assert_eq!(s.count, 1000);
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    assert_eq!(s.max, 1000.0);
    assert!((s.mean - 500.5).abs() < 1e-9, "mean {}", s.mean);
    // The median of 1..=1000 is ~500; the bucket representative must be
    // within one sub-bucket of it.
    assert!(s.p50 > 400.0 && s.p50 < 640.0, "p50 {}", s.p50);
}

/// Golden format test for the `--profile` report: header lines, section
/// order, the two-space-per-depth indent and the 28-column span name
/// field. Durations are machine-dependent and not pinned.
#[test]
fn profile_report_format_is_stable() {
    ft_obs::set_enabled(true);
    {
        let _outer = ft_obs::span("gold_report_outer");
        let _inner = ft_obs::span("gold_report_inner");
    }
    let report = ft_obs::profile_report();
    assert!(
        report.starts_with("span tree (count, total, mean):\n"),
        "header changed:\n{report}"
    );
    let outer = report
        .lines()
        .find(|l| l.contains("gold_report_outer"))
        .expect("outer span line");
    let inner = report
        .lines()
        .find(|l| l.contains("gold_report_inner"))
        .expect("inner span line");
    // Root spans indent 2, children 2 more; the name field is padded to
    // 28 columns, then count / total / mean columns.
    assert!(outer.starts_with("  gold_report_outer"), "indent changed: {outer:?}");
    assert!(inner.starts_with("    gold_report_inner"), "indent changed: {inner:?}");
    let cols: Vec<&str> = outer.split_whitespace().collect();
    assert_eq!(cols[1], "1", "count column: {outer:?}");
    assert_eq!(cols.len(), 4, "name count total mean: {outer:?}");
    // Histogram section: appears when any histogram holds samples (the
    // parallel test harness guarantees at least our own statics above),
    // one `name: count=.. mean=.. p50=..` line each.
    if let Some(h) = report.lines().find(|l| l.contains("test.hist_single")) {
        assert!(h.trim_start().starts_with("test.hist_single: count="), "{h:?}");
        for key in ["mean=", "p50=", "p90=", "p99=", "max="] {
            assert!(h.contains(key), "missing {key} in {h:?}");
        }
    }
}

#[test]
fn bench_json_has_stable_envelope() {
    ft_obs::set_enabled(true);
    let path = std::env::temp_dir().join(format!("ft_obs_bench_{}.json", std::process::id()));
    let recs = vec![ft_obs::Record::new("train_epoch").u64("epoch", 0).f64("loss", 0.5)];
    ft_obs::bench::write_bench_json(&path, "train", "golden", 2.0, &recs).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    for needle in [
        "\"schema\": \"ft-obs/bench-v1\"",
        "\"kind\": \"train\"",
        "\"name\": \"golden\"",
        "\"wall_seconds\": 2",
        "\"records\": [",
        "\"counters\": {",
        "\"gauges\": {",
        "\"spans\": [",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    std::fs::remove_file(&path).ok();
}
