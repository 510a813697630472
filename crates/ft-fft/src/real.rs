//! Real-input transforms with the `torch.fft.rfft` half-spectrum layout.
//!
//! `rfft` maps `n` reals to the `n/2 + 1` non-redundant complex bins;
//! `irfft` inverts it given the original length. Even sizes use the classic
//! pack-into-half-size-complex trick (one complex FFT of size `n/2`); odd
//! sizes fall back to a full complex transform.

use std::sync::Arc;

use ft_tensor::Complex64;

use crate::plan::{shared_plan, Fft, PlanCache};
use crate::Direction;

/// Number of non-redundant spectrum bins for a real signal of length `n`.
#[inline]
pub fn rfft_len(n: usize) -> usize {
    n / 2 + 1
}

/// Process-wide [`RealPlan`] cache behind [`shared_real_plan`]. Sizes recur
/// across every row of every batch, so re-deriving the twiddle table per
/// call would dominate small transforms.
static REAL_PLANS: PlanCache<RealPlan> = PlanCache::new();

/// Empties the caller's scratch buffer and makes room for `n` values.
fn cleared(scratch: &mut Vec<Complex64>, n: usize) -> &mut Vec<Complex64> {
    scratch.clear();
    scratch.reserve(n);
    scratch
}

/// A planned real transform of a fixed length: the complex plan plus the
/// pack/unpack twiddle table, bundled so a batched n-d transform resolves
/// them **once** and shares the handle across worker threads (everything
/// inside is immutable). Row scratch is the caller's: a batched transform
/// keeps one buffer per parallel batch (`for_each_init`), so its rows
/// allocate nothing once that buffer has grown, and how much it allocates
/// does not depend on which thread runs which batch.
pub struct RealPlan {
    n: usize,
    /// Even `n`: the half-size complex plan; odd `n`: the full-size plan.
    plan: Arc<Fft>,
    /// Forward twiddles `cis(-2πk/n)` for `k ∈ 0..n/2` (even path only;
    /// the inverse path conjugates the same table). Empty for odd `n`.
    twiddles: Arc<[Complex64]>,
}

impl RealPlan {
    /// Plans a real transform of length `n > 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "real transform length must be positive");
        if n > 1 && n % 2 == 0 {
            let twiddles: Arc<[Complex64]> = (0..n / 2)
                .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            RealPlan { n, plan: shared_plan(n / 2), twiddles }
        } else {
            RealPlan { n, plan: shared_plan(n), twiddles: Arc::from([]) }
        }
    }

    /// The planned (time-domain) length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the planned length is zero (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// [`rfft`] of one row, writing into a buffer of length `n/2 + 1`;
    /// `scratch` is working space, reused across rows.
    pub fn rfft_into(&self, input: &[f64], out: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        let n = self.n;
        assert_eq!(input.len(), n, "rfft input length");
        assert_eq!(out.len(), rfft_len(n), "rfft output buffer length");
        if n == 1 {
            out[0] = Complex64::from_re(input[0]);
            return;
        }
        if n % 2 == 0 {
            self.rfft_even(input, out, cleared(scratch, n / 2));
        } else {
            // Odd length: embed into a complex transform and keep half.
            let buf = cleared(scratch, n);
            buf.extend(input.iter().map(|&x| Complex64::from_re(x)));
            self.plan.process(buf, Direction::Forward);
            out.copy_from_slice(&buf[..rfft_len(n)]);
        }
    }

    /// [`irfft`] of one row, writing the `n` reals into `out`; `scratch` is
    /// working space, reused across rows.
    pub fn irfft_into(
        &self,
        spectrum: &[Complex64],
        out: &mut [f64],
        scratch: &mut Vec<Complex64>,
    ) {
        let n = self.n;
        assert_eq!(
            spectrum.len(),
            rfft_len(n),
            "spectrum length {} does not match rfft_len({n}) = {}",
            spectrum.len(),
            rfft_len(n)
        );
        assert_eq!(out.len(), n, "irfft output buffer length");
        if n == 1 {
            out[0] = spectrum[0].re;
            return;
        }
        if n % 2 == 0 {
            self.irfft_even(spectrum, out, cleared(scratch, n / 2));
        } else {
            // Reconstruct the full Hermitian spectrum, then complex inverse.
            let full = cleared(scratch, n);
            full.resize(n, Complex64::ZERO);
            full[0] = Complex64::from_re(spectrum[0].re);
            for k in 1..spectrum.len() {
                full[k] = spectrum[k];
                full[n - k] = spectrum[k].conj();
            }
            self.plan.process(full, Direction::Inverse);
            for (o, z) in out.iter_mut().zip(full.iter()) {
                *o = z.re;
            }
        }
    }

    fn rfft_even(&self, input: &[f64], out: &mut [Complex64], z: &mut Vec<Complex64>) {
        let n = self.n;
        let h = n / 2;
        let tw = &self.twiddles;
        // Pack even samples into the real part, odd into the imaginary part.
        z.extend((0..h).map(|j| Complex64::new(input[2 * j], input[2 * j + 1])));
        self.plan.process(z, Direction::Forward);

        for (k, (o, &w)) in out[..h].iter_mut().zip(tw.iter()).enumerate() {
            let zk = z[k];
            let zc = z[(h - k) % h].conj();
            let e = (zk + zc) * 0.5;
            let od = (zk - zc).mul_neg_i() * 0.5;
            *o = e + w * od;
        }
        // Nyquist bin: X[n/2] = E[0] − O[0].
        let z0 = z[0];
        out[h] = Complex64::from_re(z0.re - z0.im);
    }

    fn irfft_even(&self, spectrum: &[Complex64], out: &mut [f64], z: &mut Vec<Complex64>) {
        let n = self.n;
        let h = n / 2;
        let tw = &self.twiddles;
        // Recover the packed half-size spectrum Z[k] = E[k] + i·W^{-k}·O-part.
        for (k, &w) in tw.iter().enumerate() {
            // Force the Hermitian-redundant components to their consistent
            // values so stray imaginary parts in bins 0 and n/2 cannot leak.
            let xk = if k == 0 { Complex64::from_re(spectrum[0].re) } else { spectrum[k] };
            let xc = if k == 0 {
                Complex64::from_re(spectrum[h].re)
            } else {
                spectrum[h - k].conj()
            };
            let e = (xk + xc) * 0.5;
            let o = (xk - xc) * 0.5 * w.conj();
            z.push(e + o.mul_i());
        }
        self.plan.process(z, Direction::Inverse);

        for (j, zj) in z.iter().enumerate() {
            out[2 * j] = zj.re;
            out[2 * j + 1] = zj.im;
        }
    }
}

/// Returns the process-wide cached [`RealPlan`] for length `n`. Feeds the
/// same `fft.plan_cache.{hits,misses}` counters as [`crate::shared_plan`],
/// so the hit rate reflects every planning decision in the process.
pub fn shared_real_plan(n: usize) -> Arc<RealPlan> {
    REAL_PLANS.get(n, RealPlan::new)
}

/// Forward real transform: `n` reals → `n/2 + 1` complex bins
/// (unnormalized, matching `torch.fft.rfft`).
pub fn rfft(input: &[f64]) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; rfft_len(input.len())];
    rfft_into(input, &mut out);
    out
}

/// [`rfft`] writing into a caller-provided buffer of length `n/2 + 1`;
/// allocates only its working space.
///
/// Batched call sites should hoist [`shared_real_plan`] instead so the
/// plan-cache lookup happens once per batch, not once per row.
pub fn rfft_into(input: &[f64], out: &mut [Complex64]) {
    assert!(!input.is_empty(), "rfft of empty signal");
    shared_real_plan(input.len()).rfft_into(input, out, &mut Vec::new());
}

/// Inverse real transform: half spectrum (length `n/2 + 1`) → `n` reals,
/// carrying the `1/n` normalization (matching `torch.fft.irfft`).
///
/// The redundant imaginary parts of the DC and (for even `n`) Nyquist bins
/// are ignored, as in reference implementations.
pub fn irfft(spectrum: &[Complex64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; n];
    irfft_into(spectrum, n, &mut out);
    out
}

/// [`irfft`] writing into a caller-provided buffer of length `n`;
/// allocates only its working space.
///
/// Batched call sites should hoist [`shared_real_plan`] instead so the
/// plan-cache lookup happens once per batch, not once per row.
pub fn irfft_into(spectrum: &[Complex64], n: usize, out: &mut [f64]) {
    assert!(n > 0, "irfft target length must be positive");
    shared_real_plan(n).irfft_into(spectrum, out, &mut Vec::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.9).sin() + 0.3 * (i as f64 * 2.7).cos()).collect()
    }

    #[test]
    fn rfft_matches_complex_dft_half() {
        for &n in &[2usize, 4, 7, 8, 9, 10, 16, 33, 64] {
            let x = signal(n);
            let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
            let oracle = dft(&cx, Direction::Forward);
            let half = rfft(&x);
            assert_eq!(half.len(), rfft_len(n));
            for (k, h) in half.iter().enumerate() {
                assert!((*h - oracle[k]).abs() < 1e-9 * n as f64, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn roundtrip_even_and_odd() {
        for &n in &[2usize, 5, 6, 10, 11, 32, 100, 101] {
            let x = signal(n);
            let back = irfft(&rfft(&x), n);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn hermitian_symmetry_of_forward() {
        let n = 16;
        let x = signal(n);
        let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
        let full = dft(&cx, Direction::Forward);
        for k in 1..n / 2 {
            assert!((full[k] - full[n - k].conj()).abs() < 1e-9);
        }
        // DC and Nyquist bins of a real signal are purely real.
        let half = rfft(&x);
        assert!(half[0].im.abs() < 1e-12);
        assert!(half[n / 2].im.abs() < 1e-12);
    }

    #[test]
    fn constant_signal_concentrates_in_dc() {
        let n = 12;
        let x = vec![2.5; n];
        let half = rfft(&x);
        assert!((half[0].re - 2.5 * n as f64).abs() < 1e-10);
        for h in &half[1..] {
            assert!(h.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_for_real_transform() {
        let n = 64;
        let x = signal(n);
        let half = rfft(&x);
        let time: f64 = x.iter().map(|v| v * v).sum();
        // Interior bins count twice (conjugate pair), DC and Nyquist once.
        let mut freq = half[0].norm_sqr() + half[n / 2].norm_sqr();
        for h in &half[1..n / 2] {
            freq += 2.0 * h.norm_sqr();
        }
        freq /= n as f64;
        assert!((time - freq).abs() < 1e-9 * time);
    }

    #[test]
    fn irfft_ignores_redundant_imaginary_parts() {
        let n = 8;
        let x = signal(n);
        let mut half = rfft(&x);
        half[0].im = 42.0;
        half[n / 2].im = -7.0;
        let back = irfft(&half, n);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
