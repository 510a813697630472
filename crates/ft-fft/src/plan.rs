//! Transform planning and caching.
//!
//! [`Fft`] picks the right algorithm for a size (radix-2 for powers of two,
//! mixed-radix for 7-smooth composites, Bluestein otherwise). [`shared_plan`]
//! serves them from one process-wide cache, so no thread ever re-derives a
//! twiddle table another thread already built.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

use ft_tensor::Complex64;

use crate::bluestein::Bluestein;
use crate::mixed::{smooth_factors, MixedRadix};
use crate::radix2::{Radix2, LINES};
use crate::Direction;

/// A planned 1D transform of a fixed size.
pub enum Fft {
    /// Power-of-two size.
    Radix2(Radix2),
    /// 7-smooth composite size.
    Mixed(MixedRadix),
    /// Any other size (contains a large prime factor).
    Bluestein(Bluestein),
}

impl Fft {
    /// Plans the best algorithm for size `n > 0`.
    pub fn plan(n: usize) -> Self {
        assert!(n > 0, "FFT size must be positive");
        if n.is_power_of_two() {
            Fft::Radix2(Radix2::new(n))
        } else if smooth_factors(n).is_some() {
            Fft::Mixed(MixedRadix::new(n))
        } else {
            Fft::Bluestein(Bluestein::new(n))
        }
    }

    /// The planned size.
    pub fn len(&self) -> usize {
        match self {
            Fft::Radix2(p) => p.len(),
            Fft::Mixed(p) => p.len(),
            Fft::Bluestein(p) => p.len(),
        }
    }

    /// `true` when the planned size is zero (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place transform; `data.len()` must equal the planned size.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        match self {
            Fft::Radix2(p) => p.process(data, dir),
            Fft::Mixed(p) => p.process(data, dir),
            Fft::Bluestein(p) => p.process(data, dir),
        }
    }

    /// Most lines one [`Fft::process_lines`] call takes: [`LINES`] for a
    /// radix-2 plan, whose kernel runs over a block of lines, else 1.
    pub fn block_lines(&self) -> usize {
        match self {
            Fft::Radix2(_) => LINES,
            _ => 1,
        }
    }

    /// Working values [`Fft::process_lines`] needs: the planned size for a
    /// mixed-radix plan, else none.
    pub fn work_len(&self) -> usize {
        match self {
            Fft::Mixed(p) => p.len(),
            _ => 0,
        }
    }

    /// In-place transform of the `lines` signals of a `[n][lines]` block
    /// (line index fastest, see [`crate::radix2`]). Only a radix-2 plan
    /// takes more than one line. `work` holds at least
    /// [`Fft::work_len`] values of the caller's working space, so a
    /// mixed-radix line allocates nothing.
    pub fn process_lines(
        &self,
        data: &mut [Complex64],
        lines: usize,
        dir: Direction,
        work: &mut [Complex64],
    ) {
        assert!(
            lines == 1 || matches!(self, Fft::Radix2(_)),
            "only a radix-2 plan transforms a block of lines"
        );
        match self {
            Fft::Radix2(p) => p.process_lines(data, lines, dir),
            Fft::Mixed(p) => p.process_in(data, dir, work),
            Fft::Bluestein(p) => p.process(data, dir),
        }
    }
}

/// Plan-cache hits across the process (complex plans and the real-transform
/// plans in `crate::real`). Only ticks while `ft-obs` instrumentation is
/// enabled.
pub(crate) static PLAN_CACHE_HITS: ft_obs::Counter = ft_obs::Counter::new("fft.plan_cache.hits");
/// Plan-cache misses (a twiddle-table derivation) across the process.
pub(crate) static PLAN_CACHE_MISSES: ft_obs::Counter =
    ft_obs::Counter::new("fft.plan_cache.misses");

/// A process-wide by-size cache of immutable plans, shared by every thread.
/// A hit takes the read lock only; a miss plans under the write lock, so
/// each size is planned, and counted as a miss, exactly once. The counters
/// then depend on the sequence of lookups alone, not on the thread count.
pub(crate) struct PlanCache<P>(RwLock<BTreeMap<usize, Arc<P>>>);

impl<P> PlanCache<P> {
    pub(crate) const fn new() -> Self {
        PlanCache(RwLock::new(BTreeMap::new()))
    }

    /// The cached plan for size `n`, made by `plan` on first use.
    pub(crate) fn get(&self, n: usize, plan: impl FnOnce(usize) -> P) -> Arc<P> {
        if let Some(p) = self.0.read().unwrap_or_else(PoisonError::into_inner).get(&n) {
            PLAN_CACHE_HITS.inc();
            return Arc::clone(p);
        }
        match self.0.write().unwrap_or_else(PoisonError::into_inner).entry(n) {
            Entry::Occupied(e) => {
                PLAN_CACHE_HITS.inc();
                Arc::clone(e.get())
            }
            Entry::Vacant(v) => {
                PLAN_CACHE_MISSES.inc();
                Arc::clone(v.insert(Arc::new(plan(n))))
            }
        }
    }
}

static PLANS: PlanCache<Fft> = PlanCache::new();

/// Returns the cached plan for size `n` as a shareable handle.
///
/// Batched call sites hoist this out of their per-slice loops: one cache
/// lookup (and one hit/miss tick) covers the whole batch, and because plans
/// are immutable the `Arc` crosses worker threads freely.
pub fn shared_plan(n: usize) -> Arc<Fft> {
    PLANS.get(n, Fft::plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    #[test]
    fn plan_selects_expected_algorithm() {
        assert!(matches!(Fft::plan(256), Fft::Radix2(_)));
        assert!(matches!(Fft::plan(10), Fft::Mixed(_)));
        assert!(matches!(Fft::plan(13), Fft::Bluestein(_)));
        assert!(matches!(Fft::plan(1), Fft::Radix2(_)));
    }

    #[test]
    fn all_paths_agree_with_oracle() {
        for &n in &[8usize, 12, 13, 30, 37] {
            let plan = Fft::plan(n);
            let x: Vec<Complex64> =
                (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.5)).collect();
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            let oracle = dft(&x, Direction::Forward);
            for (a, b) in y.iter().zip(&oracle) {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn shared_plans_are_cached_by_size_across_threads() {
        let a = shared_plan(64);
        let b = std::thread::spawn(|| shared_plan(64)).join().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one plan per size for the whole process");
        assert_eq!(shared_plan(48).len(), 48);
    }

    #[test]
    fn shared_plan_roundtrip() {
        let x: Vec<Complex64> = (0..24).map(|i| Complex64::from_re(i as f64)).collect();
        let mut y = x.clone();
        shared_plan(24).process(&mut y, Direction::Forward);
        shared_plan(24).process(&mut y, Direction::Inverse);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }
}
