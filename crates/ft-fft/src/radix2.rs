//! Iterative radix-2 Cooley-Tukey transform for power-of-two sizes, run
//! over a block of lines at once.
//!
//! The kernel transforms `lines` signals stored as one `[n][lines]` block,
//! the line index fastest: sample `t` of line `l` is `data[t * lines + l]`.
//! A strided tensor axis is already in that layout (`crate::nd::fft_axis`
//! transforms each `[n][inner]` chunk in place); contiguous rows are
//! gathered into it [`LINES`] at a time. The bit-reversal swaps whole rows
//! of `lines` values, and each butterfly applies one twiddle to `lines`
//! adjacent values with unit stride, so the innermost loop vectorizes
//! across lines. [`Radix2::process`] is the one-line case of the same
//! kernel.
//!
//! Every line gets exactly the operations a lone line gets, in the same
//! order, whatever `lines` is and whichever [`Isa`] level runs: the block
//! only changes which independent values sit side by side.

use ft_tensor::{Complex64, Isa};

use crate::Direction;

/// Lines a contiguous axis (or a batch of real rows) gathers into one
/// `[n][LINES]` block. A block row is then 8 complex values (128 bytes,
/// two AVX-512 registers): one whole iteration of the butterfly loop at
/// the widest `Isa` level.
pub const LINES: usize = 8;

/// Precomputed state for a radix-2 transform of size `n = 2^k`.
pub struct Radix2 {
    n: usize,
    /// Index pairs `(i, bitrev(i))` with `i < bitrev(i)`: the rows the
    /// bit-reversal permutation swaps.
    swaps: Vec<(usize, usize)>,
    /// Forward twiddles, stage after stage: the stage of length `len` owns
    /// `e^{-2πi j/len}` for `j < len/2`, at offset `len/2 − 1`.
    forward: Vec<Complex64>,
    /// The same table conjugated, for the inverse.
    inverse: Vec<Complex64>,
}

impl Radix2 {
    /// Plans a transform of size `n`. Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "Radix2 requires a power-of-two size, got {n}");
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                let j = if n == 1 { 0 } else { i.reverse_bits() >> (usize::BITS - bits) };
                (i < j).then_some((i, j))
            })
            .collect();

        // Each twiddle is exactly `cis(-2πj/len)`, j = 0 and the −i point
        // included: `cis(-π/2).re` is 6.1e-17, not 0, so a special case
        // for either would move bits.
        let mut forward = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            for j in 0..len / 2 {
                let theta = -2.0 * std::f64::consts::PI * j as f64 / len as f64;
                forward.push(Complex64::cis(theta));
            }
            len *= 2;
        }
        let inverse = forward.iter().map(|w| w.conj()).collect();

        Radix2 { n, swaps, forward, inverse }
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
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        self.process_lines(data, 1, dir);
    }

    /// In-place transform of the `lines` signals of a `[n][lines]` block
    /// (see the module doc); `data.len()` must be `n · lines`.
    pub fn process_lines(&self, data: &mut [Complex64], lines: usize, dir: Direction) {
        self.process_lines_with(Isa::host(), data, lines, dir);
    }

    /// [`Radix2::process_lines`] compiled for `isa`.
    fn process_lines_with(&self, isa: Isa, data: &mut [Complex64], lines: usize, dir: Direction) {
        assert_eq!(data.len(), self.n * lines, "buffer length must be the plan size times lines");
        if self.n <= 1 || lines == 0 {
            return;
        }
        let (table, scale) = match dir {
            Direction::Forward => (&self.forward[..], None),
            Direction::Inverse => (&self.inverse[..], Some(1.0 / self.n as f64)),
        };
        isa.run(
            #[inline(always)]
            || butterflies(data, lines, &self.swaps, table, scale),
        );
    }
}

/// One radix-2 butterfly: `(a, b) ← (a + w·b, a − w·b)`.
#[inline(always)]
fn butterfly(a: &mut Complex64, b: &mut Complex64, w: Complex64) {
    let x = *a;
    let y = *b * w;
    *a = x + y;
    *b = x - y;
}

/// The whole transform of a `[n][lines]` block: bit-reversal by rows, the
/// butterfly stages with `table`'s twiddles, then the inverse's `1/n`.
#[inline(always)]
fn butterflies(
    data: &mut [Complex64],
    lines: usize,
    swaps: &[(usize, usize)],
    table: &[Complex64],
    scale: Option<f64>,
) {
    let n = data.len() / lines;
    for &(i, j) in swaps {
        let (head, tail) = data.split_at_mut(j * lines);
        head[i * lines..][..lines].swap_with_slice(&mut tail[..lines]);
    }

    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let tw = &table[half - 1..len - 1];
        for group in data.chunks_exact_mut(len * lines) {
            let (lo, hi) = group.split_at_mut(half * lines);
            if lines == 1 {
                // A lone line: the same butterflies, looped along the line
                // rather than across a block of one.
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    butterfly(a, b, w);
                }
            } else {
                for ((a_row, b_row), &w) in
                    lo.chunks_exact_mut(lines).zip(hi.chunks_exact_mut(lines)).zip(tw)
                {
                    for (a, b) in a_row.iter_mut().zip(b_row.iter_mut()) {
                        butterfly(a, b, w);
                    }
                }
            }
        }
        len *= 2;
    }

    if let Some(inv) = scale {
        for z in data.iter_mut() {
            *z *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Small deterministic LCG; avoids pulling rand into this crate.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                Complex64::new(a, b)
            })
            .collect()
    }

    #[test]
    fn matches_dft_all_pow2_sizes() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let plan = Radix2::new(n);
            let x = rand_signal(n, n as u64);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            let oracle = dft(&x, Direction::Forward);
            for (a, b) in y.iter().zip(&oracle) {
                assert!((*a - *b).abs() < 1e-8 * (n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[2usize, 16, 64, 512] {
            let plan = Radix2::new(n);
            let x = rand_signal(n, 99 + n as u64);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let plan = Radix2::new(n);
        let x = rand_signal(n, 3);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = Radix2::new(n);
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x * 2.0 + y).collect();
        plan.process(&mut fa, Direction::Forward);
        plan.process(&mut fb, Direction::Forward);
        plan.process(&mut fab, Direction::Forward);
        for i in 0..n {
            let expect = fa[i] * 2.0 + fb[i];
            assert!((fab[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn every_isa_blocked_transform_equals_per_line_process_bit_for_bit() {
        for bits in 0..=10 {
            let n = 1usize << bits;
            let plan = Radix2::new(n);
            for lines in [1usize, 2, 3, 7, 8, 9, 17, 64] {
                let signals: Vec<Vec<Complex64>> =
                    (0..lines).map(|l| rand_signal(n, (1000 * n + l) as u64)).collect();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let want: Vec<Vec<Complex64>> = signals
                        .iter()
                        .map(|s| {
                            let mut s = s.clone();
                            plan.process(&mut s, dir);
                            s
                        })
                        .collect();
                    for isa in Isa::supported() {
                        let mut block: Vec<Complex64> =
                            (0..n * lines).map(|i| signals[i % lines][i / lines]).collect();
                        plan.process_lines_with(isa, &mut block, lines, dir);
                        for (i, got) in block.iter().enumerate() {
                            let want = want[i % lines][i / lines];
                            assert!(
                                got.re.to_bits() == want.re.to_bits()
                                    && got.im.to_bits() == want.im.to_bits(),
                                "{isa:?} n={n} lines={lines} {dir:?} line {} sample {}: \
                                 {got:?} != {want:?}",
                                i % lines,
                                i / lines
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        Radix2::new(12);
    }
}
