//! Real-input transforms with the `torch.fft.rfft` half-spectrum layout.
//!
//! `rfft` maps `n` reals to the `n/2 + 1` non-redundant complex bins;
//! `irfft` inverts it given the original length. Even sizes use the classic
//! pack-into-half-size-complex trick (one complex FFT of size `n/2`); odd
//! sizes fall back to a full complex transform.
//!
//! [`RealPlan::rfft_rows`] and [`RealPlan::irfft_rows`] transform a batch
//! of rows. When the even path's half-size plan is radix-2, they take
//! [`LINES`](crate::radix2::LINES) rows at a time: the pack writes, and the unpack reads, the
//! transposed `[n/2][lines]` block the line-blocked kernel runs on, so a
//! row is never gathered into a line of its own. Each row gets exactly the
//! operations a lone row gets; the one-row calls
//! ([`RealPlan::rfft_into`], [`RealPlan::irfft_into`]) are the same code.
//! [`RealPlan::par_rfft_rows`] and [`RealPlan::par_irfft_rows`] split a
//! batch across the pool once it holds [`MIN_PARALLEL_POINTS`] points.

use std::sync::Arc;

use ft_tensor::Complex64;
use rayon::prelude::*;

use crate::plan::{shared_plan, Fft, PlanCache};
use crate::Direction;

/// Number of non-redundant spectrum bins for a real signal of length `n`.
#[inline]
pub fn rfft_len(n: usize) -> usize {
    n / 2 + 1
}

/// Fewest points a batched transform must hold (its line count times the
/// line length) before it splits across the pool; a smaller call runs as
/// one task on the calling thread. A fork-join wakes a sleeping worker,
/// and below this floor the wake costs more than the half of the work it
/// takes away.
///
/// Measured on a 2-vCPU AVX-512 host shared with other tenants: batches of
/// real rows through [`RealPlan::rfft_rows`], inline against 64 tasks on a
/// width-2 pool, 500 µs between calls (the worker idle), medians of 200 calls in each
/// of three runs:
///
/// | points (rows × n) | inline | 64 tasks |
/// |---|---|---|
/// | 8,192 (256 × 32, a 32² batch-1 layer) | 69–77 µs | 92–103 µs |
/// | 16,384 (512 × 32) | 134–147 µs | 126–133 µs |
/// | 16,384 (256 × 64) | 150–155 µs | 150–155 µs |
/// | 16,384 (128 × 128) | 144–160 µs | 178–197 µs |
/// | 32,768 (1024 × 32) | 287–321 µs | 192–217 µs |
/// | 32,768 (512 × 64) | 280–299 µs | 214–216 µs |
///
/// The two tie near 16,384 points; the floor sits one doubling above, where
/// the split wins clearly. The spectral layer's mode-mix loops count one
/// point per complex multiply-add against the same floor.
pub const MIN_PARALLEL_POINTS: usize = 1 << 15;

/// Rows per parallel task for a batch of `rows` rows of `n` points: all of
/// them (one task, run inline) when the batch holds fewer than
/// [`MIN_PARALLEL_POINTS`] points, else enough tasks
/// (`rayon::MIN_PARALLEL_ITEMS`) for the pool to share them out, each task
/// a run of adjacent rows the batched row transforms take
/// [`LINES`](crate::radix2::LINES) at a time.
pub fn rows_per_task(rows: usize, n: usize) -> usize {
    if rows * n < MIN_PARALLEL_POINTS {
        rows.max(1)
    } else {
        (rows / rayon::MIN_PARALLEL_ITEMS).max(1)
    }
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

/// Splits a scratch buffer holding `len` filled values into those values
/// and `work` more values of working space behind them.
fn with_work(buf: &mut Vec<Complex64>, work: usize) -> (&mut [Complex64], &mut [Complex64]) {
    let len = buf.len();
    buf.resize(len + work, Complex64::ZERO);
    buf.split_at_mut(len)
}

/// A planned real transform of a fixed length: the complex plan plus the
/// pack/unpack twiddle table, bundled so a batched n-d transform resolves
/// them **once** and shares the handle across worker threads (everything
/// inside is immutable). Row scratch is the caller's, and it also holds a
/// mixed-radix plan's working line: a batched transform keeps one buffer
/// per parallel batch (`for_each_init`), so its rows allocate nothing once
/// that buffer has grown, and how much it allocates does not depend on
/// which thread runs which batch.
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
        assert_eq!(input.len(), self.n, "rfft input length");
        assert_eq!(out.len(), rfft_len(self.n), "rfft output buffer length");
        self.rfft_rows(input, out, rfft_len(self.n), scratch);
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
        self.irfft_rows(spectrum, rfft_len(n), out, scratch);
    }

    /// [`RealPlan::rfft_rows`] split into [`rows_per_task`] tasks over the
    /// pool, one scratch per parallel batch; a batch below
    /// [`MIN_PARALLEL_POINTS`] runs on the calling thread.
    pub fn par_rfft_rows(&self, input: &[f64], out: &mut [Complex64], cols: usize) {
        let n = self.n;
        let rows = input.len() / n;
        let task = rows_per_task(rows, n);
        if task >= rows {
            self.rfft_rows(input, out, cols, &mut Vec::new());
            return;
        }
        out.par_chunks_mut(task * cols)
            .zip(input.par_chunks(task * n))
            .for_each_init(Vec::new, |scratch, (dst, src)| self.rfft_rows(src, dst, cols, scratch));
    }

    /// [`RealPlan::irfft_rows`] split into [`rows_per_task`] tasks over the
    /// pool, one scratch per parallel batch; a batch below
    /// [`MIN_PARALLEL_POINTS`] runs on the calling thread.
    pub fn par_irfft_rows(&self, spectrum: &[Complex64], cols: usize, out: &mut [f64]) {
        let n = self.n;
        let rows = out.len() / n;
        let task = rows_per_task(rows, n);
        if task >= rows {
            self.irfft_rows(spectrum, cols, out, &mut Vec::new());
            return;
        }
        out.par_chunks_mut(task * n)
            .zip(spectrum.par_chunks(task * cols))
            .for_each_init(Vec::new, |scratch, (dst, src)| self.irfft_rows(src, cols, dst, scratch));
    }

    /// [`rfft`] of every length-`n` row of `input`, keeping the first
    /// `cols ≤ n/2 + 1` bins of each: row `r`'s bins go to
    /// `out[r·cols..(r+1)·cols]`. `scratch` is working space.
    pub fn rfft_rows(
        &self,
        input: &[f64],
        out: &mut [Complex64],
        cols: usize,
        scratch: &mut Vec<Complex64>,
    ) {
        let n = self.n;
        let rows = self.row_count(input.len(), out.len(), cols);
        if rows == 0 {
            return;
        }
        let (lines, work) = (self.plan.block_lines(), self.plan.work_len());
        let batches = input.chunks(lines * n).zip(out.chunks_mut(lines * cols));
        if n == 1 {
            for (&x, o) in input.iter().zip(out.chunks_exact_mut(cols)) {
                o[0] = Complex64::from_re(x);
            }
        } else if n % 2 == 0 {
            for (src, dst) in batches {
                self.rfft_even(src, dst, cols, cleared(scratch, src.len() / 2 + work));
            }
        } else {
            // Odd length: embed into a complex transform and keep half.
            for (src, dst) in batches {
                let buf = cleared(scratch, n + work);
                buf.extend(src.iter().map(|&x| Complex64::from_re(x)));
                let (line, work) = with_work(buf, work);
                self.plan.process_lines(line, 1, Direction::Forward, work);
                dst.copy_from_slice(&line[..cols]);
            }
        }
    }

    /// [`irfft`] of every row of `spectrum`, each holding the first
    /// `cols ≤ n/2 + 1` bins of a half spectrum whose later bins are zero:
    /// row `r`'s `n` reals go to `out[r·n..(r+1)·n]`. `scratch` is working
    /// space.
    pub fn irfft_rows(
        &self,
        spectrum: &[Complex64],
        cols: usize,
        out: &mut [f64],
        scratch: &mut Vec<Complex64>,
    ) {
        let n = self.n;
        let rows = self.row_count(out.len(), spectrum.len(), cols);
        if rows == 0 {
            return;
        }
        let (lines, work) = (self.plan.block_lines(), self.plan.work_len());
        let batches = spectrum.chunks(lines * cols).zip(out.chunks_mut(lines * n));
        if n == 1 {
            for (o, s) in out.iter_mut().zip(spectrum) {
                *o = s.re;
            }
        } else if n % 2 == 0 {
            for (src, dst) in batches {
                self.irfft_even(src, cols, dst, cleared(scratch, dst.len() / 2 + work));
            }
        } else {
            // Reconstruct the full Hermitian spectrum, then complex inverse.
            for (src, dst) in batches {
                let buf = cleared(scratch, n + work);
                buf.resize(n, Complex64::ZERO);
                let (full, work) = with_work(buf, work);
                full[0] = Complex64::from_re(bin(src, cols, 0, 0).re);
                for k in 1..rfft_len(n) {
                    full[k] = bin(src, cols, 0, k);
                    full[n - k] = bin(src, cols, 0, k).conj();
                }
                self.plan.process_lines(full, 1, Direction::Inverse, work);
                for (o, z) in dst.iter_mut().zip(full.iter()) {
                    *o = z.re;
                }
            }
        }
    }

    /// Row count of a batched call with `real` reals and `spectral` bins in
    /// rows of `cols`, checking that the two agree.
    fn row_count(&self, real: usize, spectral: usize, cols: usize) -> usize {
        let n = self.n;
        assert!(cols <= rfft_len(n), "{cols} columns exceed rfft_len({n}) = {}", rfft_len(n));
        assert_eq!(real % n, 0, "real buffer of {real} is not whole rows of {n}");
        let rows = real / n;
        assert_eq!(spectral, rows * cols, "spectral buffer does not hold {rows} rows of {cols}");
        assert!(cols > 0 || rows == 0, "rows need at least one column");
        rows
    }

    /// Even-length forward of `src.len() / n` rows through the transposed
    /// `[n/2][lines]` block `z`.
    fn rfft_even(&self, src: &[f64], dst: &mut [Complex64], cols: usize, z: &mut Vec<Complex64>) {
        let n = self.n;
        let h = n / 2;
        let lines = src.len() / n;
        let tw = &self.twiddles;
        // Pack even samples into the real part, odd into the imaginary part.
        for j in 0..h {
            z.extend(src.chunks_exact(n).map(|x| Complex64::new(x[2 * j], x[2 * j + 1])));
        }
        let (z, work) = with_work(z, self.plan.work_len());
        self.plan.process_lines(z, lines, Direction::Forward, work);

        for (l, o) in dst.chunks_exact_mut(cols).enumerate() {
            for (k, (o, &w)) in o.iter_mut().zip(tw.iter()).enumerate() {
                let zk = z[k * lines + l];
                let zc = z[(h - k) % h * lines + l].conj();
                let e = (zk + zc) * 0.5;
                let od = (zk - zc).mul_neg_i() * 0.5;
                *o = e + w * od;
            }
            // Nyquist bin: X[n/2] = E[0] − O[0].
            if cols > h {
                let z0 = z[l];
                o[h] = Complex64::from_re(z0.re - z0.im);
            }
        }
    }

    /// Even-length inverse of `dst.len() / n` rows through the transposed
    /// `[n/2][lines]` block `z`.
    fn irfft_even(&self, src: &[Complex64], cols: usize, dst: &mut [f64], z: &mut Vec<Complex64>) {
        let n = self.n;
        let h = n / 2;
        let lines = dst.len() / n;
        let tw = &self.twiddles;
        // Recover the packed half-size spectrum Z[k] = E[k] + i·W^{-k}·O-part.
        for (k, &w) in tw.iter().enumerate() {
            for l in 0..lines {
                // Force the Hermitian-redundant components to their
                // consistent values so stray imaginary parts in bins 0 and
                // n/2 cannot leak.
                let xk = if k == 0 {
                    Complex64::from_re(bin(src, cols, l, 0).re)
                } else {
                    bin(src, cols, l, k)
                };
                let xc = if k == 0 {
                    Complex64::from_re(bin(src, cols, l, h).re)
                } else {
                    bin(src, cols, l, h - k).conj()
                };
                let e = (xk + xc) * 0.5;
                let o = (xk - xc) * 0.5 * w.conj();
                z.push(e + o.mul_i());
            }
        }
        let (z, work) = with_work(z, self.plan.work_len());
        self.plan.process_lines(z, lines, Direction::Inverse, work);

        for (j, block_row) in z.chunks_exact(lines).enumerate() {
            for (l, zj) in block_row.iter().enumerate() {
                dst[l * n + 2 * j] = zj.re;
                dst[l * n + 2 * j + 1] = zj.im;
            }
        }
    }
}

/// Bin `k` of row `row` in a batch of `cols`-bin rows: zero past `cols`.
#[inline(always)]
fn bin(rows: &[Complex64], cols: usize, row: usize, k: usize) -> Complex64 {
    if k < cols {
        rows[row * cols + k]
    } else {
        Complex64::ZERO
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

    fn assert_same_bits(got: &[Complex64], want: &[Complex64], what: &str) {
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}, bin {k}: {g:?} != {w:?}"
            );
        }
    }

    #[test]
    fn batched_rows_equal_single_rows_bit_for_bit() {
        // Even lengths with a radix-2 half plan (2, 16, 64) and a mixed-radix
        // one (12, 20), odd lengths (1, 7, 15), and row counts on both sides
        // of the 8-row block; all bins kept, and a cropped few.
        let mut scratch = Vec::new();
        for n in [1usize, 2, 7, 12, 15, 16, 20, 64] {
            let rp = RealPlan::new(n);
            let full = rfft_len(n);
            for rows in [1usize, 3, 8, 9, 13, 17] {
                let input: Vec<f64> =
                    (0..rows * n).map(|i| (i as f64 * 0.61).sin() + (i % 5) as f64 * 0.3).collect();
                for cols in [1, full.div_ceil(2), full] {
                    let what = format!("n={n} rows={rows} cols={cols}");
                    let mut spec = vec![Complex64::ZERO; rows * cols];
                    rp.rfft_rows(&input, &mut spec, cols, &mut scratch);
                    let mut back = vec![0.0; rows * n];
                    rp.irfft_rows(&spec, cols, &mut back, &mut scratch);
                    for r in 0..rows {
                        let mut one = vec![Complex64::ZERO; full];
                        rp.rfft_into(&input[r * n..][..n], &mut one, &mut Vec::new());
                        assert_same_bits(&spec[r * cols..][..cols], &one[..cols], &what);

                        // The single-row inverse reads the cropped row
                        // zero-padded to the full half spectrum.
                        let mut padded = vec![Complex64::ZERO; full];
                        padded[..cols].copy_from_slice(&spec[r * cols..][..cols]);
                        let mut line = vec![0.0; n];
                        rp.irfft_into(&padded, &mut line, &mut Vec::new());
                        for (t, (g, w)) in back[r * n..][..n].iter().zip(&line).enumerate() {
                            assert_eq!(g.to_bits(), w.to_bits(), "{what}, row {r}, sample {t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_rows_equal_one_batch_bit_for_bit() {
        // Below the parallel floor (one inline task) and above it (split
        // into tasks), radix-2 and mixed-radix half plans, cropped columns.
        for (n, rows) in [(32usize, 256usize), (32, 2048), (12, 4096)] {
            assert_eq!(rows * n >= MIN_PARALLEL_POINTS, rows > 256, "n={n} rows={rows}");
            let rp = RealPlan::new(n);
            let cols = rfft_len(n) - 1;
            let input: Vec<f64> = (0..rows * n).map(|i| (i as f64 * 0.29).sin()).collect();
            let mut want = vec![Complex64::ZERO; rows * cols];
            rp.rfft_rows(&input, &mut want, cols, &mut Vec::new());
            let mut got = vec![Complex64::ZERO; rows * cols];
            rp.par_rfft_rows(&input, &mut got, cols);
            assert_same_bits(&got, &want, &format!("n={n} rows={rows}"));

            let mut want_back = vec![0.0; rows * n];
            rp.irfft_rows(&want, cols, &mut want_back, &mut Vec::new());
            let mut back = vec![0.0; rows * n];
            rp.par_irfft_rows(&want, cols, &mut back);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&want_back), "n={n} rows={rows}");
        }
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
