//! Hierarchical wall-clock timing spans.
//!
//! [`span()`] returns an RAII guard that times the enclosing scope. Guards
//! nest through a thread-local stack: a span entered while another is live
//! on the same thread aggregates under the parent's path joined with `/`
//! (`train/epoch/eval`). A pool task starts from the path that was live
//! where it was spawned (installed through `rayon::set_task_context` by
//! [`crate::set_enabled`]), so its spans nest the same whichever thread
//! runs it. On drop, the elapsed time is merged into a
//! process-global table keyed by path, so repeated entries of the same
//! scope accumulate `count` and `total_ns` rather than growing a log.
//!
//! Aggregation locks a global mutex only on guard *drop*; spans are meant
//! for coarse scopes (an epoch, a solver run, a forward pass), not
//! per-element loops, so contention is negligible. When instrumentation is
//! disabled ([`crate::enabled`]), [`span()`] performs no clock read, no
//! thread-local access and no allocation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Aggregate statistics of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered and dropped.
    pub count: u64,
    /// Total wall-clock nanoseconds across all entries.
    pub total_ns: u128,
}

static AGG: Mutex<Option<HashMap<String, SpanStat>>> = Mutex::new(None);

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct ActiveSpan {
    path: String,
    start: Instant,
}

/// RAII guard returned by [`span()`]; merges the elapsed time into the
/// global aggregate on drop. Inert (a no-op wrapper around `None`) when
/// instrumentation was disabled at entry.
pub struct SpanGuard(Option<ActiveSpan>);

/// Enters a timing span named `name`, nested under any span already live
/// on this thread — or, inside a pool task, under the span that was live
/// where the task was spawned. Returns the guard whose drop ends the span.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let path = match s.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        s.push(path.clone());
        path
    });
    SpanGuard(Some(ActiveSpan { path, start: Instant::now() }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let elapsed = active.start.elapsed().as_nanos();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards are scoped, so the top of the stack is ours; the
            // check tolerates a guard moved across threads.
            if s.last() == Some(&active.path) {
                s.pop();
            }
        });
        let mut agg = AGG.lock().unwrap();
        let stat = agg
            .get_or_insert_with(HashMap::new)
            .entry(active.path)
            .or_default();
        stat.count += 1;
        stat.total_ns += elapsed;
    }
}

/// The innermost live span path of this thread, for a pool task spawned
/// here to nest under (empty while instrumentation is off).
pub(crate) fn capture_context() -> Vec<String> {
    if !crate::enabled() {
        return Vec::new();
    }
    STACK.with(|s| s.borrow().last().cloned().into_iter().collect())
}

/// Replaces this thread's span stack for the length of a pool task and
/// returns the displaced one, so span paths do not depend on which thread
/// runs the task.
pub(crate) fn swap_context(stack: Vec<String>) -> Vec<String> {
    STACK.with(|s| s.replace(stack))
}

/// Snapshot of every span aggregate, sorted by path (so children follow
/// their parents).
pub fn stats() -> Vec<(String, SpanStat)> {
    let agg = AGG.lock().unwrap();
    let mut v: Vec<(String, SpanStat)> = agg
        .as_ref()
        .map(|m| m.iter().map(|(k, s)| (k.clone(), *s)).collect())
        .unwrap_or_default();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Clears every span aggregate (the thread-local nesting stacks are left
/// alone — live guards still pop correctly).
pub fn reset() {
    if let Some(m) = AGG.lock().unwrap().as_mut() {
        m.clear();
    }
}

/// Renders the span aggregates as an indented tree:
///
/// ```text
/// span tree (count, total, mean):
///   train                 1      12.512s     12.512s
///     epoch              20     12.011s    600.55ms
/// ```
pub fn report() -> String {
    let stats = stats();
    if stats.is_empty() {
        return "span tree: (empty — run with instrumentation enabled)\n".to_string();
    }
    let mut out = String::from("span tree (count, total, mean):\n");
    for (path, stat) in &stats {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let mean_ns = stat.total_ns / u128::from(stat.count.max(1));
        out.push_str(&format!(
            "{:indent$}{:<28} {:>8} {:>12} {:>12}\n",
            "",
            leaf,
            stat.count,
            fmt_ns(stat.total_ns),
            fmt_ns(mean_ns),
            indent = 2 + 2 * depth,
        ));
    }
    out
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        crate::set_enabled(false);
        let before = stats().len();
        {
            let _g = span("never_recorded");
        }
        let after = stats();
        assert!(!after.iter().any(|(p, _)| p == "never_recorded"));
        assert!(after.len() >= before.min(after.len()));
    }

    #[test]
    fn fmt_ns_ranges() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
