//! Recursive mixed-radix Cooley-Tukey transform for smooth composite sizes.
//!
//! Handles any `n` whose prime factors are all ≤ [`MAX_RADIX`] — in this
//! workspace chiefly the temporal axis of the 3D FNO (10 snapshots = 2·5).
//! Larger prime factors are routed to Bluestein by the planner.
//!
//! [`MixedRadix::process_in`] runs on a caller's working line, so a batch
//! of rows that reuses one buffer allocates nothing per row.

use ft_tensor::Complex64;

use crate::Direction;

/// Largest prime radix handled directly; anything bigger goes to Bluestein.
pub const MAX_RADIX: usize = 7;

/// Returns the ascending prime factorization of `n` when all factors are
/// ≤ `MAX_RADIX`, otherwise `None`.
pub fn smooth_factors(mut n: usize) -> Option<Vec<usize>> {
    assert!(n > 0, "size must be positive");
    let mut factors = Vec::new();
    for p in [2usize, 3, 5, 7] {
        while n % p == 0 {
            factors.push(p);
            n /= p;
        }
    }
    if n == 1 {
        Some(factors)
    } else {
        None
    }
}

/// Precomputed state for a mixed-radix transform.
pub struct MixedRadix {
    n: usize,
    factors: Vec<usize>,
    /// Forward twiddle table of every recursion level: level `i` transforms
    /// size `m = n / (factors[0]·…·factors[i−1])` and combines with
    /// `tables[i][t] = e^{-2πi t/m}`. Sizes fall strictly from level to
    /// level, so each size has exactly one table.
    tables: Vec<Vec<Complex64>>,
}

impl MixedRadix {
    /// Plans a transform of size `n`. Panics when `n` has a prime factor
    /// larger than [`MAX_RADIX`].
    pub fn new(n: usize) -> Self {
        let factors = smooth_factors(n)
            .unwrap_or_else(|| panic!("{n} has prime factors > {MAX_RADIX}; use Bluestein"));
        let mut m = n;
        let tables = factors
            .iter()
            .map(|&r| {
                let table = (0..m)
                    .map(|t| Complex64::cis(-2.0 * std::f64::consts::PI * t as f64 / m as f64))
                    .collect();
                m /= r;
                table
            })
            .collect();
        MixedRadix { n, factors, tables }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the planned size is zero (never; kept for API symmetry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place transform of `data` (length must equal the planned size).
    /// Allocates its working line; batched callers use
    /// [`MixedRadix::process_in`].
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        self.process_in(data, dir, &mut vec![Complex64::ZERO; self.n]);
    }

    /// [`MixedRadix::process`] on the caller's working line `work` of at
    /// least the planned size (its contents are overwritten); allocates
    /// nothing.
    pub fn process_in(&self, data: &mut [Complex64], dir: Direction, work: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan size");
        if self.n <= 1 {
            return;
        }
        self.recurse(data, &mut work[..self.n], 0, dir);
        if dir == Direction::Inverse {
            let inv = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z *= inv;
            }
        }
    }

    /// Decimation-in-time recursion: split into `r` interleaved subsequences,
    /// transform each, then combine with size-`n` twiddles. The combine step
    /// is O(r·n), which is optimal-enough for the small radices involved.
    fn recurse(&self, x: &mut [Complex64], scratch: &mut [Complex64], level: usize, dir: Direction) {
        let n = x.len();
        if n == 1 {
            return;
        }
        let r = self.factors[level];
        let m = n / r;

        // Gather the j-th subsequence (indices ≡ j mod r) into scratch.
        for j in 0..r {
            for t in 0..m {
                scratch[j * m + t] = x[t * r + j];
            }
        }
        // Transform each subsequence, using x's halves as nested scratch.
        for j in 0..r {
            let (sub, rest) = scratch[j * m..].split_at_mut(m);
            let _ = rest;
            self.recurse(sub, &mut x[..m], level + 1, dir);
        }

        // Combine: X[k] = Σ_j ω_n^{jk} S_j[k mod m].
        let table = &self.tables[level];
        let conj = dir == Direction::Inverse;
        for k in 0..n {
            let mut acc = scratch[k % m];
            for j in 1..r {
                let idx = (j * k) % n;
                let w = if conj { table[idx].conj() } else { table[idx] };
                acc += scratch[j * m + (k % m)] * w;
            }
            x[k] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect()
    }

    #[test]
    fn smooth_factor_detection() {
        assert_eq!(smooth_factors(1), Some(vec![]));
        assert_eq!(smooth_factors(10), Some(vec![2, 5]));
        assert_eq!(smooth_factors(360), Some(vec![2, 2, 2, 3, 3, 5]));
        assert_eq!(smooth_factors(11), None);
        assert_eq!(smooth_factors(26), None);
    }

    #[test]
    fn matches_dft_on_smooth_sizes() {
        for &n in &[2usize, 3, 5, 6, 7, 9, 10, 12, 15, 20, 30, 35, 49, 60, 105, 210] {
            let plan = MixedRadix::new(n);
            let x = signal(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            let oracle = dft(&x, Direction::Forward);
            for (k, (a, b)) in y.iter().zip(&oracle).enumerate() {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "n={n} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[6usize, 10, 45, 100, 126] {
            let plan = MixedRadix::new(n);
            let x = signal(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "prime factors")]
    fn rejects_large_primes() {
        MixedRadix::new(22);
    }
}
