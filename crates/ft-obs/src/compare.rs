//! Benchmark regression gating: parse and diff `ft-obs/bench-v1` files.
//!
//! [`parse_bench_file`] reads a `BENCH_*.json` file (written by
//! [`crate::bench::write_bench_json`]) through the crate's one JSON reader
//! ([`crate::json::parse`]) into a flat list of named metrics,
//! and [`compare`] diffs a candidate run against a committed baseline with
//! per-class relative tolerances. The `bench_compare` binary wraps this
//! into a CLI that exits nonzero on regression, which is how `ci.sh`
//! gates every change against `BENCH_baseline.json`.
//!
//! # Metric classes and directions
//!
//! Each metric is classified by name so the comparison knows which
//! direction is "worse":
//!
//! * **Counter** — work counts (`counters.*`, span/histogram `count`s).
//!   Deterministic for a pinned workload; any relative change beyond the
//!   tolerance is flagged (two-sided: both lost *and* phantom work are
//!   regressions).
//! * **Timing** — lower is better: `wall_seconds`, span `mean_ms`, and
//!   gauges/histogram stats named `*_seconds`/`*_ms`/`*_ns`.
//! * **Throughput** — higher is better: gauges named `*_per_sec` or
//!   `*mlups*`.
//! * **Value** — two-sided, like Counter but with its own (looser)
//!   tolerance: everything else (loss quantiles, gradient norms, …).
//!
//! A metric present in the baseline but missing from the candidate is a
//! regression (coverage loss); a metric only the candidate has is
//! reported but never fails the gate.

use crate::bench::BENCH_SCHEMA;
use crate::json::{self, Json};

/// How a metric's delta maps to "better" / "worse".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricClass {
    /// Deterministic work count — two-sided, tight tolerance.
    Counter,
    /// Lower is better (durations).
    Timing,
    /// Higher is better (rates).
    Throughput,
    /// Two-sided, loose tolerance (losses, norms, quantiles).
    Value,
}

/// One named scalar extracted from a bench file.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Flattened name, e.g. `counters.train.epochs` or `span.train/epoch.mean_ms`.
    pub name: String,
    /// The metric's value.
    pub value: f64,
    /// Comparison direction/tolerance class.
    pub class: MetricClass,
}

/// A parsed `ft-obs/bench-v1` file, flattened to comparable metrics.
#[derive(Clone, Debug)]
pub struct BenchFile {
    /// The emitting workload (`name` field).
    pub name: String,
    /// The file kind (`train` | `solver` | `experiment`).
    pub kind: String,
    /// Every comparable metric in the file.
    pub metrics: Vec<Metric>,
}

/// Classifies a gauge or histogram statistic by its name suffix.
fn classify_stat(name: &str) -> MetricClass {
    if name.ends_with("_per_sec") || name.contains("mlups") {
        MetricClass::Throughput
    } else if name.ends_with("_seconds") || name.ends_with("_ms") || name.ends_with("_ns") {
        MetricClass::Timing
    } else {
        MetricClass::Value
    }
}

/// Parses the text of a `BENCH_*.json` file. Fails on malformed JSON or a
/// schema other than [`BENCH_SCHEMA`].
pub fn parse_bench_file(text: &str) -> Result<BenchFile, String> {
    let root = json::parse(text)?;
    let schema = root.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BENCH_SCHEMA {
        return Err(format!("unsupported bench schema {schema:?} (want {BENCH_SCHEMA:?})"));
    }
    let mut metrics = Vec::new();
    if let Some(w) = root.get("wall_seconds").and_then(Json::as_f64) {
        metrics.push(Metric { name: "wall_seconds".into(), value: w, class: MetricClass::Timing });
    }
    if let Some(Json::Obj(fields)) = root.get("counters") {
        for (k, v) in fields {
            if let Some(v) = v.as_f64() {
                metrics.push(Metric { name: format!("counters.{k}"), value: v, class: MetricClass::Counter });
            }
        }
    }
    if let Some(Json::Obj(fields)) = root.get("gauges") {
        for (k, v) in fields {
            if let Some(v) = v.as_f64() {
                metrics.push(Metric { name: format!("gauges.{k}"), value: v, class: classify_stat(k) });
            }
        }
    }
    if let Some(Json::Arr(spans)) = root.get("spans") {
        for s in spans {
            let Some(path) = s.get("path").and_then(Json::as_str) else { continue };
            if let Some(c) = s.get("count").and_then(Json::as_f64) {
                metrics.push(Metric { name: format!("span.{path}.count"), value: c, class: MetricClass::Counter });
            }
            if let Some(m) = s.get("mean_ms").and_then(Json::as_f64) {
                metrics.push(Metric { name: format!("span.{path}.mean_ms"), value: m, class: MetricClass::Timing });
            }
        }
    }
    if let Some(Json::Obj(hists)) = root.get("histograms") {
        for (name, h) in hists {
            if let Some(c) = h.get("count").and_then(Json::as_f64) {
                metrics.push(Metric { name: format!("hist.{name}.count"), value: c, class: MetricClass::Counter });
            }
            for stat in ["mean", "p50", "p90", "p99", "max"] {
                if let Some(v) = h.get(stat).and_then(Json::as_f64) {
                    metrics.push(Metric {
                        name: format!("hist.{name}.{stat}"),
                        value: v,
                        class: classify_stat(name),
                    });
                }
            }
        }
    }
    Ok(BenchFile {
        name: root.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
        kind: root.get("kind").and_then(Json::as_str).unwrap_or("").to_string(),
        metrics,
    })
}

/// Relative tolerances per [`MetricClass`], plus per-metric overrides.
#[derive(Clone, Debug)]
pub struct CompareConfig {
    /// Two-sided tolerance for [`MetricClass::Counter`] metrics.
    pub counter_tol: f64,
    /// One-sided slowdown tolerance for Timing/Throughput metrics. Loose
    /// by default — wall-clock noise across machines dwarfs real
    /// single-digit-percent regressions at smoke scale.
    pub timing_tol: f64,
    /// Two-sided tolerance for [`MetricClass::Value`] metrics.
    pub value_tol: f64,
    /// `(metric name, tolerance)` overrides taking precedence over the
    /// class defaults.
    pub overrides: Vec<(String, f64)>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig { counter_tol: 0.1, timing_tol: 3.0, value_tol: 1.0, overrides: Vec::new() }
    }
}

impl CompareConfig {
    fn tolerance_for(&self, m: &Metric) -> f64 {
        if let Some((_, t)) = self.overrides.iter().find(|(n, _)| *n == m.name) {
            return *t;
        }
        match m.class {
            MetricClass::Counter => self.counter_tol,
            MetricClass::Timing | MetricClass::Throughput => self.timing_tol,
            MetricClass::Value => self.value_tol,
        }
    }
}

/// Outcome of one metric's baseline/candidate comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowStatus {
    /// Within tolerance.
    Ok,
    /// Beyond tolerance in the "worse" direction — fails the gate.
    Regressed,
    /// In the baseline but not the candidate — fails the gate.
    MissingInCandidate,
    /// Only in the candidate — informational.
    NewInCandidate,
}

/// One metric's comparison result.
#[derive(Clone, Debug)]
pub struct Row {
    /// The metric name.
    pub name: String,
    /// Baseline value, if present.
    pub base: Option<f64>,
    /// Candidate value, if present.
    pub cand: Option<f64>,
    /// The tolerance applied.
    pub tol: f64,
    /// The verdict.
    pub status: RowStatus,
}

/// The full comparison of two bench files.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// One row per metric (union of both files), baseline order first.
    pub rows: Vec<Row>,
    /// Number of rows failing the gate.
    pub regressions: usize,
}

/// Whether `cand` regresses relative to `base` for the given class and
/// relative tolerance.
fn regressed(class: MetricClass, base: f64, cand: f64, tol: f64) -> bool {
    let scale = base.abs().max(1e-12);
    match class {
        // Lower is better: flag only slowdowns.
        MetricClass::Timing => cand - base > tol * scale,
        // Higher is better: flag only losses of rate.
        MetricClass::Throughput => base - cand > tol * scale,
        // Two-sided.
        MetricClass::Counter | MetricClass::Value => (cand - base).abs() > tol * scale,
    }
}

/// Diffs `cand` against `base` under `cfg`. Metrics missing from the
/// candidate count as regressions; metrics new in the candidate do not.
pub fn compare(base: &BenchFile, cand: &BenchFile, cfg: &CompareConfig) -> Comparison {
    let mut rows = Vec::new();
    let mut regressions = 0;
    for m in &base.metrics {
        let tol = cfg.tolerance_for(m);
        let row = match cand.metrics.iter().find(|c| c.name == m.name) {
            None => Row {
                name: m.name.clone(),
                base: Some(m.value),
                cand: None,
                tol,
                status: RowStatus::MissingInCandidate,
            },
            Some(c) => {
                let status = if regressed(m.class, m.value, c.value, tol) {
                    RowStatus::Regressed
                } else {
                    RowStatus::Ok
                };
                Row { name: m.name.clone(), base: Some(m.value), cand: Some(c.value), tol, status }
            }
        };
        if matches!(row.status, RowStatus::Regressed | RowStatus::MissingInCandidate) {
            regressions += 1;
        }
        rows.push(row);
    }
    for c in &cand.metrics {
        if !base.metrics.iter().any(|m| m.name == c.name) {
            rows.push(Row {
                name: c.name.clone(),
                base: None,
                cand: Some(c.value),
                tol: cfg.tolerance_for(c),
                status: RowStatus::NewInCandidate,
            });
        }
    }
    Comparison { rows, regressions }
}

impl Comparison {
    /// Whether any row fails the gate.
    pub fn regressed(&self) -> bool {
        self.regressions > 0
    }

    /// Renders an aligned human-readable table; failing rows are marked
    /// `REGRESSED`/`MISSING`, new metrics `new`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0).max(6);
        out.push_str(&format!("{:<width$} {:>14} {:>14} {:>8}  status\n", "metric", "baseline", "candidate", "tol"));
        for r in &self.rows {
            let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
            let status = match r.status {
                RowStatus::Ok => "ok",
                RowStatus::Regressed => "REGRESSED",
                RowStatus::MissingInCandidate => "MISSING",
                RowStatus::NewInCandidate => "new",
            };
            out.push_str(&format!(
                "{:<width$} {:>14} {:>14} {:>8}  {status}\n",
                r.name,
                fmt(r.base),
                fmt(r.cand),
                format!("{:.2}", r.tol),
            ));
        }
        out.push_str(&format!(
            "{} metrics, {} regressed\n",
            self.rows.len(),
            self.regressions
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(metrics: Vec<Metric>) -> BenchFile {
        BenchFile { name: "t".into(), kind: "train".into(), metrics }
    }

    fn m(name: &str, value: f64, class: MetricClass) -> Metric {
        Metric { name: name.into(), value, class }
    }

    #[test]
    fn parses_own_emitter_output() {
        let text = r#"{
  "schema": "ft-obs/bench-v1",
  "kind": "train",
  "name": "unit",
  "wall_seconds": 1.5,
  "records": [ {"record":"train_epoch","epoch":0} ],
  "counters": { "train.epochs": 2 },
  "gauges": { "ns.steps_per_sec": 100.5, "train.loss": 0.25 },
  "spans": [ { "path": "train/epoch", "count": 2, "total_ms": 10.0, "mean_ms": 5.0 } ],
  "histograms": { "lbm.step_seconds": { "count": 8, "mean": 0.1, "p50": 0.1, "p90": 0.1, "p99": 0.1, "max": 0.2 } }
}"#;
        let f = parse_bench_file(text).unwrap();
        assert_eq!(f.name, "unit");
        let get = |n: &str| f.metrics.iter().find(|m| m.name == n).unwrap();
        assert_eq!(get("wall_seconds").class, MetricClass::Timing);
        assert_eq!(get("counters.train.epochs").class, MetricClass::Counter);
        assert_eq!(get("gauges.ns.steps_per_sec").class, MetricClass::Throughput);
        assert_eq!(get("gauges.train.loss").class, MetricClass::Value);
        assert_eq!(get("span.train/epoch.mean_ms").class, MetricClass::Timing);
        assert_eq!(get("hist.lbm.step_seconds.count").class, MetricClass::Counter);
        assert_eq!(get("hist.lbm.step_seconds.p99").class, MetricClass::Timing);
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_bench_file(r#"{"schema":"other/v9"}"#).is_err());
    }

    #[test]
    fn direction_aware_gating() {
        let cfg = CompareConfig::default();
        let base = file(vec![
            m("gauges.x_per_sec", 100.0, MetricClass::Throughput),
            m("wall_seconds", 1.0, MetricClass::Timing),
            m("counters.steps", 1000.0, MetricClass::Counter),
        ]);
        // Faster + more throughput: never a regression, however large.
        let better = file(vec![
            m("gauges.x_per_sec", 1e6, MetricClass::Throughput),
            m("wall_seconds", 0.001, MetricClass::Timing),
            m("counters.steps", 1000.0, MetricClass::Counter),
        ]);
        assert!(!compare(&base, &better, &cfg).regressed());
        // 5x slower trips the default timing tolerance of 3.0 (=4x).
        let slower = file(vec![
            m("gauges.x_per_sec", 100.0, MetricClass::Throughput),
            m("wall_seconds", 5.0, MetricClass::Timing),
            m("counters.steps", 1000.0, MetricClass::Counter),
        ]);
        assert!(compare(&base, &slower, &cfg).regressed());
        // Counter drift beyond 10% trips two-sided.
        let drifted = file(vec![
            m("gauges.x_per_sec", 100.0, MetricClass::Throughput),
            m("wall_seconds", 1.0, MetricClass::Timing),
            m("counters.steps", 1200.0, MetricClass::Counter),
        ]);
        assert!(compare(&base, &drifted, &cfg).regressed());
    }

    #[test]
    fn missing_metric_fails_new_metric_passes() {
        let cfg = CompareConfig::default();
        let base = file(vec![m("counters.a", 1.0, MetricClass::Counter)]);
        let cand = file(vec![m("counters.b", 1.0, MetricClass::Counter)]);
        let cmp = compare(&base, &cand, &cfg);
        assert_eq!(cmp.regressions, 1);
        assert!(cmp.rows.iter().any(|r| r.status == RowStatus::MissingInCandidate));
        assert!(cmp.rows.iter().any(|r| r.status == RowStatus::NewInCandidate));
    }

    #[test]
    fn per_metric_override_wins() {
        let mut cfg = CompareConfig::default();
        cfg.overrides.push(("counters.steps".into(), 10.0));
        let base = file(vec![m("counters.steps", 100.0, MetricClass::Counter)]);
        let cand = file(vec![m("counters.steps", 500.0, MetricClass::Counter)]);
        assert!(!compare(&base, &cand, &cfg).regressed());
    }
}
