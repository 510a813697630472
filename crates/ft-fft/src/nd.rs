//! Batched multi-dimensional transforms over the trailing axes of tensors.
//!
//! All functions treat leading axes as batch dimensions and parallelize over
//! them with rayon once a call holds [`MIN_PARALLEL_POINTS`] values; a
//! smaller call runs on the calling thread. Real-input variants (`rfft*`)
//! use the half-spectrum layout along the **last** axis, matching
//! `torch.fft.rfftn` / `irfftn`.

use ft_tensor::{CTensor, Complex64, Tensor};
use rayon::prelude::*;

use crate::plan::{shared_plan, Fft};
use crate::radix2::LINES;
use crate::real::{rfft_len, shared_real_plan, MIN_PARALLEL_POINTS};
use crate::Direction;

/// In-place 1D transform along `axis` of a complex tensor, batched over all
/// other axes.
///
/// A power-of-two length runs the line-blocked radix-2 kernel
/// ([`crate::radix2`]). A strided axis transforms each `[n][inner]` chunk
/// in place as one block of `inner` lines: no gather, no scatter, no line
/// buffer; the chunks run in parallel. A contiguous last axis gathers
/// [`LINES`] rows at a time, transposed, into one scratch per parallel
/// batch. Other lengths (mixed-radix, Bluestein) transform a contiguous
/// row in place and gather a strided line into a scratch line, which also
/// holds a mixed-radix plan's working line.
pub fn fft_axis(ct: &mut CTensor, axis: usize, dir: Direction) {
    let dims = ct.dims();
    assert!(axis < dims.len(), "axis {axis} out of range for rank {}", dims.len());
    let n = dims[axis];
    if n <= 1 {
        // A length-1 transform is the identity in both directions.
        return;
    }
    let block: usize = dims[axis..].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();

    // One cache lookup covers the whole batch; workers share the handle
    // instead of paying a plan-cache probe per line.
    let plan = shared_plan(n);
    let data = ct.data_mut();
    let work = plan.work_len();
    match &*plan {
        Fft::Radix2(r) if inner > 1 => {
            for_each_chunk(data, block, |_, chunk| r.process_lines(chunk, inner, dir));
        }
        Fft::Radix2(r) => for_each_chunk(data, LINES * n, |scratch, rows| {
            let lines = rows.len() / n;
            scratch.clear();
            scratch.reserve(n * lines);
            for t in 0..n {
                scratch.extend(rows.iter().skip(t).step_by(n));
            }
            r.process_lines(scratch, lines, dir);
            for (t, block_row) in scratch.chunks_exact(lines).enumerate() {
                for (l, &z) in block_row.iter().enumerate() {
                    rows[l * n + t] = z;
                }
            }
        }),
        _ if inner == 1 => for_each_chunk(data, n, |scratch, row| {
            scratch.resize(work, Complex64::ZERO);
            plan.process_lines(row, 1, dir, scratch);
        }),
        _ => for_each_chunk(data, block, |scratch, chunk| {
            scratch.resize(n + work, Complex64::ZERO);
            let (line, work) = scratch.split_at_mut(n);
            for i in 0..inner {
                for t in 0..n {
                    line[t] = chunk[i + t * inner];
                }
                plan.process_lines(line, 1, dir, work);
                for t in 0..n {
                    chunk[i + t * inner] = line[t];
                }
            }
        }),
    }
}

/// Runs `f` on every `size`-chunk of `data` with one scratch buffer per
/// batch of chunks: across the pool when `data` holds at least
/// [`MIN_PARALLEL_POINTS`] values, else on the calling thread.
fn for_each_chunk(
    data: &mut [Complex64],
    size: usize,
    f: impl Fn(&mut Vec<Complex64>, &mut [Complex64]) + Sync,
) {
    if data.len() < MIN_PARALLEL_POINTS {
        let mut scratch = Vec::new();
        data.chunks_mut(size).for_each(|chunk| f(&mut scratch, chunk));
    } else {
        data.par_chunks_mut(size).for_each_init(Vec::new, f);
    }
}

/// Full complex transform over the last `ndim` axes (batched over the rest).
pub fn fftn(ct: &CTensor, ndim: usize, dir: Direction) -> CTensor {
    let rank = ct.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "fftn over {ndim} axes of rank-{rank} tensor");
    let mut out = ct.clone();
    for a in (rank - ndim)..rank {
        fft_axis(&mut out, a, dir);
    }
    out
}

/// Inverse counterpart of [`fftn`].
pub fn ifftn(ct: &CTensor, ndim: usize) -> CTensor {
    fftn(ct, ndim, Direction::Inverse)
}

/// Forward 2D transform over the last two axes.
pub fn fft2(ct: &CTensor) -> CTensor {
    fftn(ct, 2, Direction::Forward)
}

/// Inverse 2D transform over the last two axes.
pub fn ifft2(ct: &CTensor) -> CTensor {
    fftn(ct, 2, Direction::Inverse)
}

/// Real-input transform over the last `ndim` axes: rfft along the last axis
/// (half spectrum), full complex transforms along the other `ndim − 1`.
pub fn rfftn(x: &Tensor, ndim: usize) -> CTensor {
    let rank = x.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "rfftn over {ndim} axes of rank-{rank} tensor");
    let dims = x.dims().to_vec();
    let w = dims[rank - 1];
    let wh = rfft_len(w);

    let mut out_dims = dims.clone();
    out_dims[rank - 1] = wh;
    let rows = x.len() / w;
    let mut out_data = vec![Complex64::ZERO; rows * wh];

    // Resolve the real plan once for the whole batch of rows.
    shared_real_plan(w).par_rfft_rows(x.data(), &mut out_data, wh);

    let mut out = CTensor::from_vec(&out_dims, out_data);
    for a in (rank - ndim)..(rank - 1) {
        fft_axis(&mut out, a, Direction::Forward);
    }
    out
}

/// Inverse of [`rfftn`]: `last_dim` is the original length of the last axis.
pub fn irfftn(c: &CTensor, last_dim: usize, ndim: usize) -> Tensor {
    let rank = c.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "irfftn over {ndim} axes of rank-{rank} tensor");
    let dims = c.dims().to_vec();
    let wh = dims[rank - 1];
    assert_eq!(
        wh,
        rfft_len(last_dim),
        "half-spectrum axis {wh} does not match rfft_len({last_dim})"
    );

    let mut work = c.clone();
    for a in (rank - ndim)..(rank - 1) {
        fft_axis(&mut work, a, Direction::Inverse);
    }

    let mut out_dims = dims;
    out_dims[rank - 1] = last_dim;
    let rows = work.len() / wh;
    let mut out_data = vec![0.0f64; rows * last_dim];
    // Resolve the real plan once for the whole batch of rows.
    shared_real_plan(last_dim).par_irfft_rows(work.data(), wh, &mut out_data);
    Tensor::from_vec(&out_dims, out_data)
}

/// Real 2D transform over the last two axes (`torch.fft.rfft2` layout).
pub fn rfft2(x: &Tensor) -> CTensor {
    rfftn(x, 2)
}

/// Inverse real 2D transform; `last_dim` is the original width.
pub fn irfft2(c: &CTensor, last_dim: usize) -> Tensor {
    irfftn(c, last_dim, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn field(h: usize, w: usize) -> Tensor {
        Tensor::from_fn(&[h, w], |i| {
            ((i[0] as f64) * 0.7).sin() + ((i[1] as f64) * 1.1).cos() + (i[0] * i[1]) as f64 * 0.01
        })
    }

    /// O(n⁴) 2D DFT oracle.
    fn dft2_oracle(x: &Tensor) -> CTensor {
        let (h, w) = (x.dims()[0], x.dims()[1]);
        let mut rows = Vec::with_capacity(h);
        for i in 0..h {
            let row: Vec<Complex64> =
                (0..w).map(|j| Complex64::from_re(x.at(&[i, j]))).collect();
            rows.push(dft(&row, Direction::Forward));
        }
        let mut out = CTensor::zeros(&[h, w]);
        for kx in 0..h {
            for ky in 0..w {
                let col: Vec<Complex64> = (0..h).map(|i| rows[i][ky]).collect();
                out[&[kx, ky][..]] = dft(&col, Direction::Forward)[kx];
            }
        }
        out
    }

    #[test]
    fn fft2_matches_oracle() {
        let x = field(8, 6);
        let full = fft2(&CTensor::from_real(&x));
        let oracle = dft2_oracle(&x);
        assert!(full.allclose(&oracle, 1e-8));
    }

    #[test]
    fn rfft2_matches_full_fft2_half() {
        for &(h, w) in &[(8usize, 8usize), (6, 10), (5, 7), (16, 12)] {
            let x = field(h, w);
            let full = fft2(&CTensor::from_real(&x));
            let half = rfft2(&x);
            assert_eq!(half.dims(), &[h, rfft_len(w)]);
            for kx in 0..h {
                for ky in 0..rfft_len(w) {
                    let a = half.at(&[kx, ky]);
                    let b = full.at(&[kx, ky]);
                    assert!((a - b).abs() < 1e-8, "({h},{w}) bin ({kx},{ky})");
                }
            }
        }
    }

    #[test]
    fn rfft2_roundtrip() {
        for &(h, w) in &[(8usize, 8usize), (9, 6), (10, 15), (32, 32)] {
            let x = field(h, w);
            let back = irfft2(&rfft2(&x), w);
            assert!(back.allclose(&x, 1e-9), "({h},{w})");
        }
    }

    #[test]
    fn batched_rfft2_equals_per_sample() {
        let a = field(8, 8);
        let b = field(8, 8).scale(-2.0);
        let batch = Tensor::stack(&[a.clone(), b.clone()]);
        let spec = rfft2(&batch);
        assert_eq!(spec.dims(), &[2, 8, 5]);
        let sa = rfft2(&a);
        let sb = rfft2(&b);
        for kx in 0..8 {
            for ky in 0..5 {
                assert!((spec.at(&[0, kx, ky]) - sa.at(&[kx, ky])).abs() < 1e-10);
                assert!((spec.at(&[1, kx, ky]) - sb.at(&[kx, ky])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let (h, w) = (16usize, 16usize);
        let (kx0, ky0) = (3usize, 5usize);
        let x = Tensor::from_fn(&[h, w], |i| {
            (2.0 * std::f64::consts::PI
                * (kx0 as f64 * i[0] as f64 / h as f64 + ky0 as f64 * i[1] as f64 / w as f64))
                .cos()
        });
        let spec = rfft2(&x);
        // cos splits between (kx0, ky0) and its conjugate (h−kx0, w−ky0);
        // only the first lies in the half spectrum.
        let peak = spec.at(&[kx0, ky0]).abs();
        assert!((peak - (h * w) as f64 / 2.0).abs() < 1e-8);
        let mut total = 0.0;
        for kx in 0..h {
            for ky in 0..rfft_len(w) {
                if (kx, ky) != (kx0, ky0) && (kx, ky) != (h - kx0, ky0) {
                    total += spec.at(&[kx, ky]).abs();
                }
            }
        }
        assert!(total < 1e-7, "spectral leakage {total}");
    }

    #[test]
    fn rfftn3_roundtrip() {
        let x = Tensor::from_fn(&[2, 4, 6, 10], |i| {
            (i[0] as f64 + 1.0) * ((i[1] as f64 * 0.5).sin() + (i[2] as f64 * 0.3).cos())
                + i[3] as f64 * 0.1
        });
        let spec = rfftn(&x, 3);
        assert_eq!(spec.dims(), &[2, 4, 6, 6]);
        let back = irfftn(&spec, 10, 3);
        assert!(back.allclose(&x, 1e-9));
    }

    #[test]
    fn parseval_2d() {
        let x = field(16, 16);
        let spec = fft2(&CTensor::from_real(&x));
        let time: f64 = x.data().iter().map(|v| v * v).sum();
        let freq = spec.data().iter().map(|z| z.norm_sqr()).sum::<f64>() / (16.0 * 16.0);
        assert!((time - freq).abs() < 1e-9 * time);
    }

    #[test]
    fn fft_axis_middle_axis() {
        // Transforming axis 1 of a [2, 6, 3] tensor must equal per-column DFTs.
        let x = CTensor::from_fn(&[2, 6, 3], |i| {
            Complex64::new((i[0] * 100 + i[1] * 10 + i[2]) as f64, 0.0)
        });
        let mut y = x.clone();
        fft_axis(&mut y, 1, Direction::Forward);
        for b in 0..2 {
            for c in 0..3 {
                let line: Vec<Complex64> = (0..6).map(|t| x.at(&[b, t, c])).collect();
                let oracle = dft(&line, Direction::Forward);
                for t in 0..6 {
                    assert!((y.at(&[b, t, c]) - oracle[t]).abs() < 1e-9);
                }
            }
        }
    }
}
