//! Fourier-space convolution layers (the heart of the FNO).
//!
//! Forward: `x → rfftn → per-mode complex channel mix on a truncated block
//! of low modes → irfftn`. The layer keeps **two** complex weight tensors,
//! acting on the non-negative and negative frequency blocks of the *first*
//! transformed axis (the `weights1`/`weights2` convention of the reference
//! `fourier_2d.py`); this is exactly the parameter layout that reproduces
//! the paper's Table I counts.
//!
//! # The compact kept-mode spectrum
//!
//! Truncation keeps a small block (at 256² with modes 32: 17 of 129
//! half-spectrum columns and 64 of 256 rows), so the layer never forms the
//! full spectrum. For an input `[B, C, n1, (n2,) w]` with effective modes
//! `e1, (e2,) kc` it works on a `[B, C, 2·e1, (e2,) kc]` tensor laid out
//! like the weight blocks: the first `kc` half-spectrum columns; along the
//! first transformed axis the non-negative rows `0..e1` followed by the
//! negative rows `n1−e1..n1`; along a 3D middle axis the non-negative rows
//! `0..e2`. The mode mix, the training cache and the backward all run on it.
//!
//! * Forward transform: rfft the rows and keep `kc` columns; then, axis by
//!   axis in the order `rfftn` uses, FFT the kept lines at full length and
//!   crop to the kept rows.
//! * Inverse transform: axis by axis in the order `irfftn` uses, zero-embed
//!   to full length and inverse-FFT only the lines that hold kept modes;
//!   zero-fill the columns past `kc` and run the row irfft.
//!
//! # FFT adjoints
//!
//! With the real-pair gradient convention (`g = ∂L/∂Re + i·∂L/∂Im`) and the
//! unnormalized-forward / `1/N`-inverse FFT convention (`N` = product of the
//! transformed extents), the backward pass uses two identities on the
//! compact spectrum, both through real transforms (derived in closed form
//! from the transform sums; checked by dot-product tests and finite
//! differences in this module's tests):
//!
//! * adjoint of the inverse: `grad_Ŷ = F(s_k/N ⊙ rfft_rows(G))`, where `F`
//!   is the forward transform of the kept columns (FFT and crop, as above),
//!   `s_k = 2` on columns with a distinct conjugate partner and `s_k = 1`,
//!   with the imaginary part projected out, on the self-conjugate DC/Nyquist
//!   columns. The projection is not complex-linear, so it comes before `F`;
//! * adjoint of the forward: `grad_X = irfft_rows(N·h_k ⊙ F⁻¹(ĝ))`, where
//!   `F⁻¹` is the inverse transform above without the row step, `h_k = ½` on
//!   columns with a conjugate partner and `h_k = 1` on self-conjugate ones.
//!   This is `N·Re(ifftn(zero-pad(ĝ)))`: a c2r row transform of the
//!   half-weighted bins sums each partner bin twice and drops the imaginary
//!   parts of the self-conjugate ones.
//!
//! # Bit identity
//!
//! Every 1D line transform the compact path runs sees exactly the values it
//! would see in a full-spectrum `rfftn`/`irfftn`, in the same axis order;
//! the path only skips all-zero input lines and lines whose output is
//! cropped away. So `infer`/`forward` outputs and the weight gradients are
//! bit-identical to the full-spectrum computation, which this module's
//! tests keep as their oracle. Only the input gradient differs (within
//! 1e-13 relative), because a c2r row transform replaces a complex inverse
//! FFT of the full last axis.

use ft_fft::nd::fft_axis;
use ft_fft::{rows_per_task, shared_real_plan, Direction};
use ft_tensor::{CTensor, Complex64, Tensor};
use rand::distributions::Uniform;
use rand::Rng;
use rayon::prelude::*;

use crate::param::{CParam, ParamMut};
use crate::Layer;

/// Truncated spectral convolution over the trailing `ndim` axes (2 or 3).
#[derive(Clone)]
pub struct SpectralConv {
    c_in: usize,
    c_out: usize,
    /// Number of transformed trailing axes (2 or 3).
    ndim: usize,
    /// Allocated mode extents per transformed axis; the last entry is in
    /// half-spectrum units. Runtime clamps to what the grid supports while
    /// the allocation keeps the full (Table I) size.
    modes: Vec<usize>,
    /// Weights for the non-negative block of the first transformed axis:
    /// `[c_in, c_out, modes...]`.
    pub weights1: CParam,
    /// Weights for the negative block of the first transformed axis.
    pub weights2: CParam,
    cache: Option<Cache>,
}

#[derive(Clone)]
struct Cache {
    /// Compact kept-mode spectrum of the input.
    x_hat: CTensor,
    trunc: Truncation,
}

impl SpectralConv {
    /// 2D spectral convolution with "modes = m" in the paper's notation:
    /// weight blocks of shape `[c_in, c_out, m, m/2 + 1]`.
    pub fn new_2d(c_in: usize, c_out: usize, m: usize, rng: &mut impl Rng) -> Self {
        Self::with_modes(c_in, c_out, vec![m, m / 2 + 1], 2, rng)
    }

    /// 3D spectral convolution with "modes = m": weight blocks of shape
    /// `[c_in, c_out, m, m, m/2 + 1]`.
    pub fn new_3d(c_in: usize, c_out: usize, m: usize, rng: &mut impl Rng) -> Self {
        Self::with_modes(c_in, c_out, vec![m, m, m / 2 + 1], 3, rng)
    }

    fn with_modes(
        c_in: usize,
        c_out: usize,
        modes: Vec<usize>,
        ndim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(ndim == 2 || ndim == 3, "SpectralConv supports 2 or 3 transform dims");
        assert_eq!(modes.len(), ndim, "one mode extent per transformed axis");
        assert!(modes.iter().all(|&m| m >= 1), "mode extents must be positive");
        let mut wdims = vec![c_in, c_out];
        wdims.extend_from_slice(&modes);
        // Classic FNO initialization: scale · U(0, 1) for both components.
        let scale = 1.0 / (c_in * c_out) as f64;
        let dist = Uniform::new(0.0, 1.0);
        let mut init = || {
            let len: usize = wdims.iter().product();
            let data: Vec<Complex64> = (0..len)
                .map(|_| Complex64::new(scale * rng.sample(dist), scale * rng.sample(dist)))
                .collect();
            CParam::new(CTensor::from_vec(&wdims, data))
        };
        let weights1 = init();
        let weights2 = init();
        SpectralConv { c_in, c_out, ndim, modes, weights1, weights2, cache: None }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Allocated mode extents (last axis in half-spectrum units).
    pub fn modes(&self) -> &[usize] {
        &self.modes
    }

    /// The kept-mode geometry for an input `[B, c_in, spatial...]`, with
    /// the mode extents clamped to what the grid supports.
    fn truncation(&self, x_dims: &[usize]) -> Truncation {
        assert_eq!(x_dims.len(), 2 + self.ndim, "expected [B, C, {} spatial dims]", self.ndim);
        assert_eq!(x_dims[1], self.c_in, "input channels");
        let dims = x_dims[2..].to_vec();
        let last = self.ndim - 1;
        // The first axis carries two sign blocks and a middle axis (3D) the
        // non-negative one: each at most half the axis. The last axis is
        // in half-spectrum units.
        let eff = (0..self.ndim)
            .map(|a| self.modes[a].min(if a == last { dims[a] / 2 + 1 } else { dims[a] / 2 }))
            .collect();
        Truncation { dims, eff }
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let trunc = self.truncation(x.dims());
        let (y, _) = self.forward_impl(x, &trunc);
        y
    }

    fn forward_impl(&self, x: &Tensor, trunc: &Truncation) -> (Tensor, CTensor) {
        let x_hat = trunc.rfft(x);
        let plane = trunc.plane_len();

        let mut y_dims = x_hat.dims().to_vec();
        y_dims[1] = self.c_out;
        let mut y_hat = CTensor::zeros(&y_dims);

        let w1 = self.weights1.value.data();
        let w2 = self.weights2.value.data();
        let wlen: usize = self.modes.iter().product();
        let kept = trunc.weight_indices(&self.modes);
        let xd = x_hat.data();
        let (c_in, c_out) = (self.c_in, self.c_out);

        // Ŷ = Σ_i X̂·W per (sample, output channel) plane, summed over
        // input channels in order.
        if plane > 0 {
            y_hat.data_mut().par_chunks_mut(plane).enumerate().for_each(|(bo, yp)| {
                let (bi, o) = (bo / c_out, bo % c_out);
                for i in 0..c_in {
                    let xp = &xd[(bi * c_in + i) * plane..][..plane];
                    let wi = (i * c_out + o) * wlen;
                    for ((y, x), &(w_idx, neg)) in yp.iter_mut().zip(xp).zip(&kept) {
                        let w = if neg { w2 } else { w1 };
                        *y = x.mul_add(w[wi + w_idx], *y);
                    }
                }
            });
        }
        (trunc.irfft(y_hat), x_hat)
    }
}

/// The compact kept-mode spectrum of one input shape (see the module doc).
#[derive(Clone)]
struct Truncation {
    /// Physical extents of the transformed axes.
    dims: Vec<usize>,
    /// Effective modes per transformed axis: rows per sign block on the
    /// first axis, non-negative rows on a middle axis, half-spectrum
    /// columns (`kc`) on the last.
    eff: Vec<usize>,
}

impl Truncation {
    /// Physical length of the last transformed axis (the rows).
    fn w(&self) -> usize {
        self.dims[self.dims.len() - 1]
    }

    /// Kept half-spectrum columns.
    fn kc(&self) -> usize {
        self.eff[self.eff.len() - 1]
    }

    /// Entries per `[B, C]` plane of the compact spectrum.
    fn plane_len(&self) -> usize {
        2 * self.eff.iter().product::<usize>()
    }

    /// For every entry of a `[B, C]` plane of the compact spectrum, in
    /// order: its flattened index into a weight block of extents `modes`,
    /// and whether the negative-frequency block (weights2) applies.
    fn weight_indices(&self, modes: &[usize]) -> Vec<(usize, bool)> {
        let ndim = self.eff.len();
        let e1 = self.eff[0];
        // Extents of the trailing axes in the compact plane and in a weight
        // block; a 2D layer has a unit middle axis.
        let (e_mid, m_mid) = if ndim == 3 { (self.eff[1], modes[1]) } else { (1, 1) };
        let (kc, m_last) = (self.kc(), modes[ndim - 1]);
        let mut out = Vec::with_capacity(self.plane_len());
        for r in 0..2 * e1 {
            // Compact rows `e1..2·e1` are the negative block; the last `e1`
            // rows of its weight block apply.
            let (wr, neg) = if r < e1 { (r, false) } else { (modes[0] + r - 2 * e1, true) };
            for k2 in 0..e_mid {
                for k3 in 0..kc {
                    out.push(((wr * m_mid + k2) * m_last + k3, neg));
                }
            }
        }
        out
    }

    /// The indices of transformed axis `a` that the compact spectrum keeps.
    fn kept(&self, a: usize) -> Vec<usize> {
        let (n, e) = (self.dims[a], self.eff[a]);
        if a == 0 {
            (0..e).chain(n - e..n).collect()
        } else {
            (0..e).collect()
        }
    }

    /// `true` for the half-spectrum columns without a distinct conjugate
    /// partner (DC and, for an even last axis, Nyquist).
    fn self_conjugate(&self, col: usize) -> bool {
        let w = self.w();
        col == 0 || (w % 2 == 0 && col == w / 2)
    }

    /// Row rfft of `x [.., w]`, keeping the first `kc` columns.
    fn rfft_rows(&self, x: &Tensor) -> CTensor {
        let (w, kc) = (self.w(), self.kc());
        let mut dims = x.dims().to_vec();
        *dims.last_mut().expect("rank ≥ 3") = kc;
        let mut out = CTensor::zeros(&dims);
        let rp = shared_real_plan(w);
        let task = rows_per_task(x.len() / w);
        out.data_mut()
            .par_chunks_mut(task * kc)
            .zip(x.data().par_chunks(task * w))
            .for_each_init(Vec::new, |scratch, (dst, src)| rp.rfft_rows(src, dst, kc, scratch));
        out
    }

    /// Row irfft of `t [.., kc]`, the half-spectrum columns past `kc` zero.
    fn irfft_rows(&self, t: &CTensor) -> Tensor {
        let (w, kc) = (self.w(), self.kc());
        let mut dims = t.dims().to_vec();
        *dims.last_mut().expect("rank ≥ 3") = w;
        let mut out = Tensor::zeros(&dims);
        let rp = shared_real_plan(w);
        let task = rows_per_task(t.len() / kc);
        out.data_mut()
            .par_chunks_mut(task * w)
            .zip(t.data().par_chunks(task * kc))
            .for_each_init(Vec::new, |scratch, (dst, src)| rp.irfft_rows(src, kc, dst, scratch));
        out
    }

    /// Forward transform of the kept columns: FFT each remaining axis in
    /// turn and crop it to its kept rows.
    fn fft_kept(&self, mut t: CTensor) -> CTensor {
        for a in 0..self.dims.len() - 1 {
            fft_lines(&mut t, 2 + a, Direction::Forward);
            t = gather_axis(t, 2 + a, &self.kept(a));
        }
        t
    }

    /// `x [B, C, spatial...]` → its compact spectrum.
    fn rfft(&self, x: &Tensor) -> CTensor {
        self.fft_kept(self.rfft_rows(x))
    }

    /// Compact spectrum → `[B, C, spatial...]`, as `irfftn` of the spectrum
    /// zero outside the kept modes.
    fn irfft(&self, mut t: CTensor) -> Tensor {
        let last = self.dims.len() - 1;
        for a in 0..last {
            t = scatter_axis(t, 2 + a, &self.kept(a), self.dims[a]);
            fft_lines(&mut t, 2 + a, Direction::Inverse);
        }
        self.irfft_rows(&t)
    }

    /// Adjoint of [`Truncation::irfft`]: `F(s_k/N ⊙ rfft_rows(G))`.
    fn irfft_adjoint(&self, g: &Tensor) -> CTensor {
        let mut t = self.rfft_rows(g);
        let kc = self.kc();
        let inv = 1.0 / self.dims.iter().product::<usize>() as f64;
        for (idx, z) in t.data_mut().iter_mut().enumerate() {
            if self.self_conjugate(idx % kc) {
                *z = Complex64::from_re(z.re * inv);
            } else {
                *z *= 2.0 * inv;
            }
        }
        self.fft_kept(t)
    }

    /// Adjoint of [`Truncation::rfft`]: `irfft_rows(N·h_k ⊙ F⁻¹(ĝ))`.
    fn rfft_adjoint(&self, mut g_hat: CTensor) -> Tensor {
        let kc = self.kc();
        let n_total = self.dims.iter().product::<usize>() as f64;
        for (idx, z) in g_hat.data_mut().iter_mut().enumerate() {
            *z *= if self.self_conjugate(idx % kc) { n_total } else { 0.5 * n_total };
        }
        self.irfft(g_hat)
    }
}

/// In-place FFT along `axis`, skipping a tensor that holds no lines (a grid
/// too small to keep any mode on some axis).
fn fft_lines(t: &mut CTensor, axis: usize, dir: Direction) {
    if !t.is_empty() {
        fft_axis(t, axis, dir);
    }
}

/// The entries of `t` at indices `keep` (ascending) along `axis`.
fn gather_axis(t: CTensor, axis: usize, keep: &[usize]) -> CTensor {
    let dims = t.dims();
    let (n, inner) = (dims[axis], dims[axis + 1..].iter().product::<usize>());
    if keep.len() == n {
        return t;
    }
    let mut out_dims = dims.to_vec();
    out_dims[axis] = keep.len();
    let mut out = Vec::with_capacity(out_dims.iter().product());
    if inner > 0 {
        for src in t.data().chunks_exact(n * inner) {
            for &k in keep {
                out.extend_from_slice(&src[k * inner..(k + 1) * inner]);
            }
        }
    }
    CTensor::from_vec(&out_dims, out)
}

/// Embeds `t` at indices `keep` (ascending) along `axis` of a zero tensor
/// whose `axis` extent is `n`: the adjoint of [`gather_axis`].
fn scatter_axis(t: CTensor, axis: usize, keep: &[usize], n: usize) -> CTensor {
    let dims = t.dims();
    let inner: usize = dims[axis + 1..].iter().product();
    if keep.len() == n {
        return t;
    }
    let mut out_dims = dims.to_vec();
    out_dims[axis] = n;
    let mut out = CTensor::zeros(&out_dims);
    if !t.is_empty() {
        for (dst, src) in out
            .data_mut()
            .chunks_exact_mut(n * inner)
            .zip(t.data().chunks_exact(keep.len() * inner))
        {
            for (s, &k) in src.chunks_exact(inner).zip(keep) {
                dst[k * inner..(k + 1) * inner].copy_from_slice(s);
            }
        }
    }
    out
}

impl Layer for SpectralConv {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let _span = ft_obs::span("spectral_conv.forward");
        let trunc = self.truncation(x.dims());
        let (y, x_hat) = self.forward_impl(x, &trunc);
        self.cache = Some(Cache { x_hat, trunc });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _span = ft_obs::span("spectral_conv.backward");
        let Cache { x_hat, trunc } =
            self.cache.take().expect("backward called without a cached forward");

        // Gradient into Ŷ.
        let gy_hat = trunc.irfft_adjoint(grad_out);
        let plane = trunc.plane_len();
        let wlen: usize = self.modes.iter().product();

        let w1 = self.weights1.value.data();
        let w2 = self.weights2.value.data();
        let kept = trunc.weight_indices(&self.modes);
        let xd = x_hat.data();
        let gyd = gy_hat.data();
        let (b, c_in, c_out) = (x_hat.dims()[0], self.c_in, self.c_out);

        // grad_X̂ = Σ_o conj(W)·grad_Ŷ per (sample, input channel) plane,
        // and grad_W = Σ_b conj(X̂)·grad_Ŷ per (input, output channel)
        // plane, each summed in index order.
        let mut gx_hat = CTensor::zeros(x_hat.dims());
        if plane > 0 {
            gx_hat.data_mut().par_chunks_mut(plane).enumerate().for_each(|(bi_i, gxp)| {
                let (bi, i) = (bi_i / c_in, bi_i % c_in);
                for o in 0..c_out {
                    let gyp = &gyd[(bi * c_out + o) * plane..][..plane];
                    let wi = (i * c_out + o) * wlen;
                    for ((g, gy), &(w_idx, neg)) in gxp.iter_mut().zip(gyp).zip(&kept) {
                        let w = if neg { w2 } else { w1 };
                        *g += w[wi + w_idx].conj() * *gy;
                    }
                }
            });
            let mut gw = vec![Complex64::ZERO; c_in * c_out * plane];
            gw.par_chunks_mut(plane).enumerate().for_each(|(io, gwp)| {
                let (i, o) = (io / c_out, io % c_out);
                for bi in 0..b {
                    let xp = &xd[(bi * c_in + i) * plane..][..plane];
                    let gyp = &gyd[(bi * c_out + o) * plane..][..plane];
                    for ((g, x), gy) in gwp.iter_mut().zip(xp).zip(gyp) {
                        *g += x.conj() * *gy;
                    }
                }
            });
            // Entries of the weight blocks past the kept modes get no gradient.
            let (g1, g2) = (self.weights1.grad.data_mut(), self.weights2.grad.data_mut());
            for (io, gwp) in gw.chunks_exact(plane).enumerate() {
                for (g, &(w_idx, neg)) in gwp.iter().zip(&kept) {
                    let dst =
                        if neg { &mut g2[io * wlen + w_idx] } else { &mut g1[io * wlen + w_idx] };
                    *dst += *g;
                }
            }
        }

        trunc.rfft_adjoint(gx_hat)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut::Complex { value: &mut self.weights1.value, grad: &mut self.weights1.grad });
        f(ParamMut::Complex { value: &mut self.weights2.value, grad: &mut self.weights2.grad });
    }

    fn param_count(&self) -> usize {
        2 * self.c_in * self.c_out * self.modes.iter().product::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_input(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(dims, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    /// Random compact spectra and real fields for the dot-product tests.
    fn rand_complex(dims: &[usize], rng: &mut StdRng) -> CTensor {
        CTensor::from_fn(dims, |_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
    }

    /// Real inner product `⟨a, z⟩_R = Σ Re(a)Re(z) + Im(a)Im(z)`.
    fn dot_r(a: &CTensor, z: &CTensor) -> f64 {
        a.data().iter().zip(z.data()).map(|(a, b)| a.re * b.re + a.im * b.im).sum()
    }

    /// Truncations for the dot-product tests: cropped on every axis, and
    /// keeping the full first axis with the Nyquist column (even `w`).
    fn dot_test_truncations() -> Vec<Truncation> {
        vec![
            Truncation { dims: vec![6, 8], eff: vec![2, 3] },
            Truncation { dims: vec![6, 8], eff: vec![3, 5] },
            Truncation { dims: vec![4, 5], eff: vec![1, 2] },
            Truncation { dims: vec![4, 6, 5], eff: vec![2, 2, 2] },
            Truncation { dims: vec![4, 6, 6], eff: vec![2, 3, 4] },
        ]
    }

    fn with_lead(lead: &[usize], t: &[usize]) -> Vec<usize> {
        lead.iter().chain(t).copied().collect()
    }

    #[test]
    fn irfft_adjoint_identity_dot_test() {
        // ⟨G, irfft(Z)⟩_R must equal ⟨adj(G), Z⟩_R for arbitrary G and
        // compact Z.
        let mut rng = StdRng::seed_from_u64(11);
        for trunc in dot_test_truncations() {
            let g = Tensor::random(
                &with_lead(&[1, 1], &trunc.dims),
                &Uniform::new(-1.0, 1.0),
                &mut rng,
            );
            let mut zdims = with_lead(&[1, 1], &trunc.eff);
            zdims[2] *= 2;
            let z = rand_complex(&zdims, &mut rng);
            let lhs = g.dot(&trunc.irfft(z.clone()));
            let rhs = dot_r(&trunc.irfft_adjoint(&g), &z);
            // The self-conjugate columns' imaginary parts are ignored by the
            // row irfft, so the identity holds exactly because the adjoint
            // projects them to zero.
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "{:?}: {lhs} vs {rhs}",
                trunc.eff
            );
        }
    }

    #[test]
    fn rfft_adjoint_identity_dot_test() {
        // ⟨ĝ, rfft(X)⟩_R must equal ⟨adj(ĝ), X⟩ for arbitrary X and compact ĝ.
        let mut rng = StdRng::seed_from_u64(12);
        for trunc in dot_test_truncations() {
            let x = Tensor::random(
                &with_lead(&[1, 1], &trunc.dims),
                &Uniform::new(-1.0, 1.0),
                &mut rng,
            );
            let mut gdims = with_lead(&[1, 1], &trunc.eff);
            gdims[2] *= 2;
            let ghat = rand_complex(&gdims, &mut rng);
            let lhs = dot_r(&ghat, &trunc.rfft(&x));
            let rhs = trunc.rfft_adjoint(ghat).dot(&x);
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "{:?}: {lhs} vs {rhs}",
                trunc.eff
            );
        }
    }

    #[test]
    fn forward_output_is_real_and_shaped() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = SpectralConv::new_2d(2, 3, 4, &mut rng);
        let x = rand_input(&[2, 2, 8, 8], 1);
        let y = conv.forward(&x);
        assert_eq!(y.dims(), &[2, 3, 8, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn acts_as_convolution_translation_equivariance() {
        // A spectral multiply is a circular convolution: translating the
        // input must translate the output identically.
        let mut rng = StdRng::seed_from_u64(7);
        let conv = SpectralConv::new_2d(1, 1, 3, &mut rng);
        let n = 8;
        let x = rand_input(&[1, 1, n, n], 2);
        let y = conv.infer(&x);
        // Shift by (2, 3).
        let xs = Tensor::from_fn(&[1, 1, n, n], |i| {
            x.at(&[0, 0, (i[2] + n - 2) % n, (i[3] + n - 3) % n])
        });
        let ys = conv.infer(&xs);
        let expect = Tensor::from_fn(&[1, 1, n, n], |i| {
            y.at(&[0, 0, (i[2] + n - 2) % n, (i[3] + n - 3) % n])
        });
        assert!(ys.allclose(&expect, 1e-9), "not translation equivariant");
    }

    #[test]
    fn resolution_invariance_of_low_modes() {
        // Evaluating the same operator on a finer grid of the same
        // band-limited function must give the same function values
        // (discretization-agnostic property of the FNO).
        let mut rng = StdRng::seed_from_u64(8);
        let conv = SpectralConv::new_2d(1, 1, 2, &mut rng);
        use std::f64::consts::PI;
        let f = |x: f64, y: f64| (2.0 * PI * x).sin() + (2.0 * PI * y).cos();
        let sample = |n: usize| {
            Tensor::from_fn(&[1, 1, n, n], |i| {
                f(i[3] as f64 / n as f64, i[2] as f64 / n as f64)
            })
        };
        let y8 = conv.infer(&sample(8));
        let y16 = conv.infer(&sample(16));
        // Compare on the coarse points (every 2nd fine point), accounting
        // for the FFT normalization: unnormalized forward + 1/n inverse
        // makes the spectral multiply resolution-independent for
        // band-limited inputs.
        for yy in 0..8 {
            for xx in 0..8 {
                let a = y8.at(&[0, 0, yy, xx]);
                let b = y16.at(&[0, 0, 2 * yy, 2 * xx]);
                assert!((a - b).abs() < 1e-9, "({yy},{xx}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn gradcheck_2d_params_and_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = SpectralConv::new_2d(2, 2, 3, &mut rng);
        let x = rand_input(&[2, 2, 6, 6], 4);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn gradcheck_3d_params_and_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = SpectralConv::new_3d(2, 2, 2, &mut rng);
        let x = rand_input(&[1, 2, 4, 4, 4], 6);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn gradcheck_odd_last_axis() {
        // Odd last dimension exercises the no-Nyquist branch of the adjoint.
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = SpectralConv::new_2d(1, 2, 2, &mut rng);
        let x = rand_input(&[1, 1, 4, 5], 10);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn batched_forward_matches_per_sample_bitwise() {
        // The batched path (one planned transform over all samples and
        // channels) must be bit-identical to running each sample alone —
        // the property that lets the trainer shard batches per sample
        // without perturbing results.
        let mut rng = StdRng::seed_from_u64(21);
        let conv = SpectralConv::new_2d(2, 3, 3, &mut rng);
        let x = rand_input(&[4, 2, 8, 8], 22);
        let y = conv.infer(&x);
        let per_sample = 3 * 8 * 8;
        for b in 0..4 {
            let xb = x.index_axis0(b).reshape(&[1, 2, 8, 8]);
            let yb = conv.infer(&xb);
            let batch_slice = &y.data()[b * per_sample..(b + 1) * per_sample];
            for (i, (a, s)) in yb.data().iter().zip(batch_slice).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    s.to_bits(),
                    "sample {b} element {i}: batched {s} vs solo {a}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_batched_b4() {
        // Gradients through the batched spectral path (B = 4 goes through
        // the same shared-plan transforms as B = 1).
        let mut rng = StdRng::seed_from_u64(23);
        let mut conv = SpectralConv::new_2d(2, 2, 3, &mut rng);
        let x = rand_input(&[4, 2, 6, 6], 24);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn param_count_matches_table_one_convention() {
        let mut rng = StdRng::seed_from_u64(1);
        // 2D, width 40, modes 32: 2 · 40 · 40 · 32 · 17 per layer.
        let conv = SpectralConv::new_2d(40, 40, 32, &mut rng);
        assert_eq!(conv.param_count(), 2 * 40 * 40 * 32 * 17);
        // 3D, width 8, modes 32: 2 · 8 · 8 · 32 · 32 · 17.
        let conv3 = SpectralConv::new_3d(8, 8, 32, &mut rng);
        assert_eq!(conv3.param_count(), 2 * 8 * 8 * 32 * 32 * 17);
    }

    #[test]
    fn modes_clamp_to_small_grids() {
        // Asking for more modes than the grid supports must not panic and
        // must still produce finite output (the paper's 3D FNO allocates 17
        // temporal modes but runs on 10 snapshots).
        let mut rng = StdRng::seed_from_u64(2);
        let conv = SpectralConv::new_3d(1, 1, 8, &mut rng);
        let x = rand_input(&[1, 1, 8, 8, 5], 3);
        let y = conv.infer(&x);
        assert_eq!(y.dims(), &[1, 1, 8, 8, 5]);
        assert!(y.all_finite());
    }

    /// The full-spectrum computation the compact path replaced: a full
    /// `rfftn`, the mode mix on the full half spectrum, a full `irfftn`, and
    /// the generic full-spectrum adjoints (a complex inverse FFT over the
    /// zero-padded full last axis). The oracle of the parity tests.
    mod full_spectrum {
        use super::*;
        use ft_fft::nd::{irfftn, rfftn};

        fn effective_modes(conv: &SpectralConv, spec: &[usize]) -> Vec<usize> {
            let nd = conv.ndim;
            let mut eff = vec![conv.modes[0].min(spec[0] / 2)];
            for a in 1..nd - 1 {
                eff.push(conv.modes[a].min(spec[a] / 2));
            }
            eff.push(conv.modes[nd - 1].min(spec[nd - 1]));
            eff
        }

        /// Calls `f(spec_idx, w_idx, neg)` for every kept mode of a full
        /// half-spectrum plane.
        fn for_each_mode(
            spec: &[usize],
            eff: &[usize],
            modes: &[usize],
            mut f: impl FnMut(usize, usize, bool),
        ) {
            let (e1, m1) = (eff[0], modes[0]);
            let (e_mid, d_mid, m_mid) =
                if spec.len() == 3 { (eff[1], spec[1], modes[1]) } else { (1, 1, 1) };
            let (e_last, d_last, m_last) =
                (eff[eff.len() - 1], spec[spec.len() - 1], modes[modes.len() - 1]);
            for k1 in 0..e1 {
                for k2 in 0..e_mid {
                    for k3 in 0..e_last {
                        f((k1 * d_mid + k2) * d_last + k3, (k1 * m_mid + k2) * m_last + k3, false);
                        f(
                            ((spec[0] - e1 + k1) * d_mid + k2) * d_last + k3,
                            ((m1 - e1 + k1) * m_mid + k2) * m_last + k3,
                            true,
                        );
                    }
                }
            }
        }

        /// Full-spectrum forward: the output and the full `rfftn` of `x`.
        pub fn forward(conv: &SpectralConv, x: &Tensor) -> (Tensor, CTensor) {
            let (b, nd) = (x.dims()[0], conv.ndim);
            let last = x.dims()[x.dims().len() - 1];
            let x_hat = rfftn(x, nd);
            let spec: Vec<usize> = x_hat.dims()[2..].to_vec();
            let spec_len: usize = spec.iter().product();
            let eff = effective_modes(conv, &spec);
            let wlen: usize = conv.modes.iter().product();
            let (c_in, c_out) = (conv.c_in, conv.c_out);
            let mut y_dims = vec![b, c_out];
            y_dims.extend_from_slice(&spec);
            let mut y_hat = CTensor::zeros(&y_dims);
            let (w1, w2) = (conv.weights1.value.data(), conv.weights2.value.data());
            let xd = x_hat.data();
            for (bi, yb) in y_hat.data_mut().chunks_mut(c_out * spec_len).enumerate() {
                let xb = &xd[bi * c_in * spec_len..(bi + 1) * c_in * spec_len];
                for_each_mode(&spec, &eff, &conv.modes, |s, w_idx, neg| {
                    let w = if neg { w2 } else { w1 };
                    for o in 0..c_out {
                        let mut acc = Complex64::ZERO;
                        for i in 0..c_in {
                            acc = xb[i * spec_len + s]
                                .mul_add(w[(i * c_out + o) * wlen + w_idx], acc);
                        }
                        yb[o * spec_len + s] = acc;
                    }
                });
            }
            (irfftn(&y_hat, last, nd), x_hat)
        }

        /// Adjoint of `irfftn`: `(1/N) · s ⊙ rfftn(G)`.
        fn irfftn_adjoint(g: &Tensor, ndim: usize) -> CTensor {
            let dims = g.dims();
            let rank = dims.len();
            let last = dims[rank - 1];
            let n_total: usize = dims[rank - ndim..].iter().product();
            let mut out = rfftn(g, 1);
            let half = out.dims()[rank - 1];
            let inv = 1.0 / n_total as f64;
            for (idx, z) in out.data_mut().iter_mut().enumerate() {
                let kl = idx % half;
                if kl == 0 || (last % 2 == 0 && kl == last / 2) {
                    *z = Complex64::from_re(z.re * inv);
                } else {
                    *z *= 2.0 * inv;
                }
            }
            for a in (rank - ndim)..(rank - 1) {
                fft_axis(&mut out, a, Direction::Forward);
            }
            out
        }

        /// Adjoint of `rfftn`: `N · Re(ifftn(zero-pad(ĝ)))`.
        fn rfftn_adjoint(g_hat: &CTensor, last_dim: usize, ndim: usize) -> Tensor {
            let dims = g_hat.dims();
            let rank = dims.len();
            let half = dims[rank - 1];
            let mut full_dims = dims.to_vec();
            full_dims[rank - 1] = last_dim;
            let mut full = CTensor::zeros(&full_dims);
            for (dst, src) in full.data_mut().chunks_mut(last_dim).zip(g_hat.data().chunks(half)) {
                dst[..half].copy_from_slice(src);
            }
            for a in (rank - ndim)..rank {
                fft_axis(&mut full, a, Direction::Inverse);
            }
            let n_total: usize = full_dims[rank - ndim..].iter().product();
            full.re().scale(n_total as f64)
        }

        /// Full-spectrum backward: accumulates the weight gradients into
        /// `conv` and returns the input gradient.
        pub fn backward(conv: &mut SpectralConv, x_hat: &CTensor, grad_out: &Tensor) -> Tensor {
            let last = grad_out.dims()[grad_out.dims().len() - 1];
            let gy_hat = irfftn_adjoint(grad_out, conv.ndim);
            let spec: Vec<usize> = gy_hat.dims()[2..].to_vec();
            let spec_len: usize = spec.iter().product();
            let eff = effective_modes(conv, &spec);
            let wlen: usize = conv.modes.iter().product();
            let (c_in, c_out) = (conv.c_in, conv.c_out);
            let (w1, w2) = (conv.weights1.value.data(), conv.weights2.value.data());
            let (xd, gyd) = (x_hat.data(), gy_hat.data());
            let modes = &conv.modes;
            let per_w = c_in * c_out * wlen;
            let mut gx_hat = CTensor::zeros(x_hat.dims());
            // The same per-sample accumulators and reduction tree as the layer.
            let gx_chunks: Vec<&mut [Complex64]> =
                gx_hat.data_mut().chunks_mut(c_in * spec_len).collect();
            let (gw1, gw2) = gx_chunks
                .into_par_iter()
                .enumerate()
                .map(|(bi, gxb)| {
                    let xb = &xd[bi * c_in * spec_len..(bi + 1) * c_in * spec_len];
                    let gyb = &gyd[bi * c_out * spec_len..(bi + 1) * c_out * spec_len];
                    let mut gw1 = vec![Complex64::ZERO; per_w];
                    let mut gw2 = vec![Complex64::ZERO; per_w];
                    for_each_mode(&spec, &eff, modes, |s, w_idx, neg| {
                        let (w, gw) = if neg { (w2, &mut gw2) } else { (w1, &mut gw1) };
                        for o in 0..c_out {
                            let gyv = gyb[o * spec_len + s];
                            for i in 0..c_in {
                                let flat = (i * c_out + o) * wlen + w_idx;
                                gw[flat] += xb[i * spec_len + s].conj() * gyv;
                                gxb[i * spec_len + s] += w[flat].conj() * gyv;
                            }
                        }
                    });
                    (gw1, gw2)
                })
                .reduce(
                    || (vec![Complex64::ZERO; per_w], vec![Complex64::ZERO; per_w]),
                    |(mut a1, mut a2), (b1, b2)| {
                        a1.iter_mut().zip(&b1).for_each(|(x, y)| *x += *y);
                        a2.iter_mut().zip(&b2).for_each(|(x, y)| *x += *y);
                        (a1, a2)
                    },
                );
            conv.weights1.grad.data_mut().iter_mut().zip(&gw1).for_each(|(g, v)| *g += *v);
            conv.weights2.grad.data_mut().iter_mut().zip(&gw2).for_each(|(g, v)| *g += *v);
            rfftn_adjoint(&gx_hat, last, conv.ndim)
        }
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    fn assert_same_cbits(a: &CTensor, b: &CTensor, what: &str) {
        let re = |t: &CTensor| t.data().iter().flat_map(|z| [z.re, z.im]).collect::<Vec<f64>>();
        assert_same_bits(&re(a), &re(b), what);
    }

    /// `infer`/`forward` outputs and the weight gradients equal the
    /// full-spectrum computation bit for bit; the input gradient matches it
    /// within 1e-13 relative (max-norm).
    fn assert_matches_full_spectrum(mut conv: SpectralConv, dims: &[usize], seed: u64) {
        let x = rand_input(dims, seed);
        let (y_ref, x_hat_full) = full_spectrum::forward(&conv, &x);
        assert_same_bits(conv.infer(&x).data(), y_ref.data(), "infer");

        let mut reference = conv.clone();
        conv.zero_grad();
        reference.zero_grad();
        let y = conv.forward(&x);
        assert_same_bits(y.data(), y_ref.data(), "forward");
        let g = rand_input(y.dims(), seed + 1);
        let gx = conv.backward(&g);
        let gx_ref = full_spectrum::backward(&mut reference, &x_hat_full, &g);
        assert_same_cbits(&conv.weights1.grad, &reference.weights1.grad, "weights1 grad");
        assert_same_cbits(&conv.weights2.grad, &reference.weights2.grad, "weights2 grad");

        let scale = gx_ref.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err =
            gx.data().iter().zip(gx_ref.data()).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            scale > 0.0 && err <= 1e-13 * scale,
            "input gradient: max err {err} vs scale {scale}"
        );
    }

    #[test]
    fn matches_full_spectrum_2d_even() {
        let mut rng = StdRng::seed_from_u64(31);
        assert_matches_full_spectrum(SpectralConv::new_2d(2, 3, 4, &mut rng), &[1, 2, 16, 16], 32);
        // Every mode kept: the Nyquist column and all rows.
        assert_matches_full_spectrum(SpectralConv::new_2d(2, 2, 16, &mut rng), &[1, 2, 16, 16], 33);
    }

    #[test]
    fn matches_full_spectrum_2d_odd_last_axis() {
        let mut rng = StdRng::seed_from_u64(34);
        assert_matches_full_spectrum(SpectralConv::new_2d(1, 2, 2, &mut rng), &[1, 1, 4, 5], 35);
        // A prime width runs the rows through Bluestein, whose DC bin is
        // real only up to rounding: the adjoint's projection must act.
        assert_matches_full_spectrum(SpectralConv::new_2d(2, 2, 4, &mut rng), &[1, 2, 6, 11], 36);
    }

    #[test]
    fn matches_full_spectrum_2d_non_square() {
        let mut rng = StdRng::seed_from_u64(36);
        assert_matches_full_spectrum(SpectralConv::new_2d(2, 2, 3, &mut rng), &[1, 2, 8, 12], 37);
    }

    #[test]
    fn matches_full_spectrum_batch_3() {
        let mut rng = StdRng::seed_from_u64(38);
        assert_matches_full_spectrum(SpectralConv::new_2d(2, 3, 3, &mut rng), &[3, 2, 8, 8], 39);
    }

    #[test]
    fn matches_full_spectrum_3d() {
        let mut rng = StdRng::seed_from_u64(40);
        assert_matches_full_spectrum(SpectralConv::new_3d(2, 3, 2, &mut rng), &[1, 2, 8, 6, 5], 41);
    }

    #[test]
    fn matches_full_spectrum_clamped_modes() {
        // The `modes_clamp_to_small_grids` shape.
        let mut rng = StdRng::seed_from_u64(2);
        assert_matches_full_spectrum(SpectralConv::new_3d(1, 1, 8, &mut rng), &[1, 1, 8, 8, 5], 3);
    }

    #[test]
    fn grid_keeping_no_mode_gives_zero_output_and_gradient() {
        // A unit first axis (2D) or middle axis (3D) keeps no mode at all:
        // the layer is zero, without panicking on the empty spectrum.
        let mut rng = StdRng::seed_from_u64(42);
        for (mut conv, dims) in [
            (SpectralConv::new_2d(1, 2, 2, &mut rng), vec![2, 1, 1, 4]),
            (SpectralConv::new_3d(1, 2, 2, &mut rng), vec![1, 1, 4, 1, 4]),
        ] {
            let x = rand_input(&dims, 43);
            let y = conv.forward(&x);
            assert!(y.data().iter().all(|&v| v == 0.0), "{dims:?}: nonzero output");
            let gx = conv.backward(&y.map(|_| 1.0));
            assert_eq!(gx.dims(), &dims[..]);
            assert!(gx.data().iter().all(|&v| v == 0.0), "{dims:?}: nonzero input gradient");
        }
    }
}
