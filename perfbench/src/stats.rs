//! Order statistics over raw per-operation samples.
//!
//! Every timing the benchmark reports is computed here from the samples
//! themselves, never from the program's log-bucketed histograms.

use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of the middle 80% of `v` (the lowest and highest tenth dropped);
/// NaN if empty. On a host whose speed swings between states, this tracks
/// the run's typical cost more steadily than the median, which jumps
/// between the states, while still ignoring one-off stalls.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    let s = sorted(v);
    let cut = s.len() / 10;
    let mid = &s[cut..s.len() - cut];
    if mid.is_empty() {
        return f64::NAN;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `p` (0–100) of `v`; NaN if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    s[rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(percentile, value)`. `None` below 20 samples.
pub fn supported_tail(v: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| v.len().saturating_sub(rank(p, v.len())) >= 10)
        .map(|p| (p, percentile(v, p)))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Adds a line with the highest supported tail percentile of `v` (ms).
pub fn tail_line(rep: &mut crate::common::Report, name: &str, v: &[f64]) {
    match supported_tail(v) {
        Some((p, x)) => rep.line(format!(
            "{name}_p{p}_ms = {x:.4} ms (highest percentile with ≥10 samples beyond it, n={})",
            v.len()
        )),
        None => rep.line(format!(
            "{name}: too few samples for a tail percentile (n={})",
            v.len()
        )),
    }
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times `f` at least `min_reps` times and until `budget_s` seconds have
/// passed; returns the per-call wall times in milliseconds.
pub fn time_calls(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        out.push(ms_since(t0));
    }
    out
}

/// Median per-call milliseconds of `f` (see [`time_calls`]).
pub fn median_ms(min_reps: usize, budget_s: f64, f: impl FnMut()) -> f64 {
    median(&time_calls(min_reps, budget_s, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(supported_tail(&v), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&v[..19]), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&big), Some((99.0, 990.0)));
        assert_eq!(trimmed_mean(&v), 50.5);
        assert_eq!(
            trimmed_mean(&[1.0, 2.0, 3.0, 1000.0, 4.0, 5.0, 6.0, 7.0, 8.0, -1000.0]),
            4.5
        );
    }
}
