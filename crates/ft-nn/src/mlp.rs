//! Fused pointwise MLP `C_in → hidden → C_out` (`Linear → Gelu → Linear`).
//!
//! The FNO's lifting and projection MLPs are 256 wide at the paper's
//! shapes. Composed from separate layers, each writes a `[B, 256, *spatial]`
//! hidden tensor (134 MB at 256²), runs GELU over it, and reads it back
//! once per output channel. [`PointwiseMlp`] walks the grid in fixed tiles
//! of [`TILE`] points instead, tiles in parallel on the pool, and streams
//! the hidden channels through a few tile-sized rows: for each block of
//! hidden channels it forms the pre-activation rows, applies GELU in place,
//! and adds the rows' contribution to every output channel straight away.
//! No hidden tensor exists in the forward or in the backward, which caches
//! only the narrow input and recomputes each tile's pre-activation. A call
//! with fewer than `rayon::MIN_PARALLEL_ITEMS` tiles (a 32² batch of under
//! 16 samples) runs inline: spreading so few tiles over the pool made
//! served predicts slower.
//!
//! Every output point sees the operations of `Linear → Gelu → Linear` in
//! the same order — bias first, then input channels in index order,
//! skipping zero weights — so the forward output and the input gradient
//! are bit-identical to the unfused composition. Weight and bias gradients
//! are summed per tile and the tile partials are folded in (sample, tile)
//! index order: bit-identical for any pool width (DESIGN.md §13), within
//! rounding of `Linear`'s whole-plane sums.
//!
//! The tile kernels and their helpers are `#[inline(always)]` and run
//! through [`Isa::run`], so they vectorize at the host's width (AVX2,
//! AVX-512) with the bits of the baseline build (see `ft_tensor::isa`).
//! They are register-blocked without changing any association. Row
//! updates (`accumulate`) keep a 32-point stretch of running sums in
//! registers across all their terms, so each term issues several
//! independent adds. The backward keeps a block's GELU activations beside
//! its pre-activation gradients and forms both weight-gradient blocks with
//! `contract`: each loaded group of four points feeds a 4 × 2 block of dot
//! products, every one of them summed in `dot`'s four-accumulator order,
//! so the block's add chains overlap where a lone `dot` waits on each add.
//! The first-layer bias gradients are the rows' serial sums, run side by
//! side (`row_sums`).

use ft_tensor::{Isa, Tensor};
use rand::Rng;
use rayon::prelude::*;

use crate::activation::{self, Gelu};
use crate::linear::Linear;
use crate::param::ParamMut;
use crate::Layer;

/// Grid points per tile. A constant, so tile boundaries — and with them
/// the gradient partials — never depend on the pool width.
pub const TILE: usize = 256;

/// Pointwise two-layer MLP with a GELU between the layers, fused and tiled
/// (see the module docs). Parameters are visited as `fc1.w, fc1.b, fc2.w,
/// fc2.b`, the order of the unfused `Linear`, `Gelu`, `Linear` sequence.
#[derive(Clone)]
pub struct PointwiseMlp {
    /// Input → hidden map.
    pub fc1: Linear,
    /// Hidden → output map.
    pub fc2: Linear,
    cache_input: Option<Tensor>,
}

/// Sample, first point and length of tile `item` on a `p`-point grid.
fn tile_span(p: usize, item: usize) -> (usize, usize, usize) {
    let n_tiles = p.div_ceil(TILE);
    let (s, p0) = (item / n_tiles, (item % n_tiles) * TILE);
    (s, p0, TILE.min(p - p0))
}

/// Copies tile `item` of a `[B, channels, p]` buffer into one contiguous
/// `[channels, len]` block, the layout [`accumulate`] reads.
fn gather(data: &[f64], channels: usize, p: usize, item: usize) -> Vec<f64> {
    let (s, p0, len) = tile_span(p, item);
    let mut block = Vec::with_capacity(channels * len);
    for c in 0..channels {
        block.extend_from_slice(&data[(s * channels + c) * p + p0..][..len]);
    }
    block
}

/// Writes tile `item`'s `[channels, len]` block into a `[B, channels, p]`
/// buffer (the inverse of [`gather`]).
fn scatter(data: &mut [f64], channels: usize, p: usize, item: usize, block: &[f64]) {
    let (s, p0, len) = tile_span(p, item);
    for (c, row) in block.chunks(len).enumerate() {
        data[(s * channels + c) * p + p0..][..len].copy_from_slice(row);
    }
}

/// Hidden channels handled together: the output (forward) and input
/// gradient (backward) rows are updated once per block, not once per
/// channel.
const BLOCK: usize = 8;

/// Points per register-resident stretch in [`accumulate`]: 32 points are
/// 4 AVX-512 or 8 AVX2 registers, enough independent add chains to keep
/// the adders busy. At the SSE2 baseline they fill all 16 registers and
/// measured no slower than 8 points.
const LANES: usize = 32;

/// `dst[t] += w·rows[r][t]` for each `(w, r)` of `terms` in order, where
/// `rows` is a `[n, dst.len()]` block. Every point gets the additions a
/// run of `Linear`-style row updates gives it, in the same order, with the
/// running sum held in registers across the terms.
#[inline(always)]
fn accumulate(dst: &mut [f64], rows: &[f64], terms: &[(f64, usize)]) {
    let len = dst.len();
    let mut chunks = dst.chunks_exact_mut(LANES);
    for (c, d) in (&mut chunks).enumerate() {
        let mut acc = [0.0; LANES];
        acc.copy_from_slice(d);
        for &(w, r) in terms {
            let src = &rows[r * len + c * LANES..][..LANES];
            for j in 0..LANES {
                acc[j] += w * src[j];
            }
        }
        d.copy_from_slice(&acc);
    }
    let t0 = len - len % LANES;
    for (t, d) in (t0..).zip(chunks.into_remainder()) {
        for &(w, r) in terms {
            *d += w * rows[r * len + t];
        }
    }
}

/// Refills `terms` with the `(w, index)` pairs of the nonzero weights in
/// `weights` — `Linear` skips a zero weight, so this does too.
#[inline(always)]
fn nonzero(terms: &mut Vec<(f64, usize)>, weights: impl Iterator<Item = f64>) {
    terms.clear();
    terms.extend(
        weights
            .enumerate()
            .filter(|&(_, w)| w != 0.0)
            .map(|(r, w)| (w, r)),
    );
}

/// [`dot`]'s result from its four lane sums and the points past the last
/// full group of four (`a_tail`, `b_tail`).
#[inline(always)]
fn finish(acc: [f64; 4], a_tail: &[f64], b_tail: &[f64]) -> f64 {
    let tail: f64 = a_tail.iter().zip(b_tail).map(|(x, y)| x * y).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `Σ a·b` over four interleaved accumulators — a fixed association, so
/// the result depends on the inputs alone, and the loop vectorizes.
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let (a_tail, b_tail) = (ca.remainder(), cb.remainder());
    let mut acc = [0.0; 4];
    for (x, y) in ca.zip(cb) {
        for j in 0..4 {
            acc[j] += x[j] * y[j];
        }
    }
    finish(acc, a_tail, b_tail)
}

/// [`contract`]'s register block: `ROWS` rows of `u` by `COLS` rows of
/// `v`, so each loaded group of four points feeds eight independent
/// products. Its 32 accumulator lanes are 4 AVX-512 or 8 AVX2 registers;
/// 4 × 4 and 2 × 4 measured no faster at any [`Isa`] level.
const ROWS: usize = 4;
/// See [`ROWS`].
const COLS: usize = 2;

/// [`dot`]'s four lane sums for every pair of an `R`-row block `u` and a
/// `C`-row block `v` of equal-length rows, over their full groups of four
/// points: `R · C` accumulator sets in registers, each updated in `dot`'s
/// order.
#[inline(always)]
fn lane_sums<const R: usize, const C: usize>(u: [&[f64]; R], v: [&[f64]; C]) -> [[[f64; 4]; C]; R] {
    let n = u[0].len() / 4;
    let u = u.map(|row| &row.as_chunks::<4>().0[..n]);
    let v = v.map(|row| &row.as_chunks::<4>().0[..n]);
    let mut acc = [[[0.0; 4]; C]; R];
    for i in 0..n {
        for (acc, u) in acc.iter_mut().zip(&u) {
            for (acc, v) in acc.iter_mut().zip(&v) {
                for j in 0..4 {
                    acc[j] += u[i][j] * v[i][j];
                }
            }
        }
    }
    acc
}

/// `out[a·sa + b·sb] = dot(u[a], v[b])`, bit for bit, for every row `a` of
/// the `[nu, len]` block `u` and every row `b` of the `[nv, len]` block
/// `v`. Register-blocked: [`ROWS`] × [`COLS`] pairs share each load, and
/// their independent add chains hide the adder latency that serializes a
/// lone `dot`. Columns past the last full block go `ROWS` × 1, rows past
/// the last full block go through `dot`. The `ROWS` × 1 arm runs at odd
/// channel counts only, but it also steers code generation: in every
/// rewrite that sent those columns to `dot` instead, LLVM packed the
/// `ROWS` × `COLS` loop's accumulators across rows at one or both of the
/// backward's call sites, with 18–39 shuffles per group of four points,
/// and the backward measured up to 1.3× slower at AVX2 and AVX-512 (2-vCPU
/// AVX-512 host).
#[inline(always)]
fn contract(u: &[f64], v: &[f64], len: usize, out: &mut [f64], (sa, sb): (usize, usize)) {
    let (nu, nv) = (u.len() / len, v.len() / len);
    let (ur, vr) = (
        |a: usize| &u[a * len..][..len],
        |b: usize| &v[b * len..][..len],
    );
    let t0 = len - len % 4;
    let mut a = 0;
    while a + ROWS <= nu {
        let us: [&[f64]; ROWS] = std::array::from_fn(|r| ur(a + r));
        let mut b = 0;
        while b < nv {
            let cols = if b + COLS <= nv { COLS } else { 1 };
            let mut put = |r: usize, c: usize, acc: [f64; 4]| {
                out[(a + r) * sa + (b + c) * sb] = finish(acc, &us[r][t0..], &vr(b + c)[t0..]);
            };
            if cols == COLS {
                let acc = lane_sums(us, std::array::from_fn::<_, COLS, _>(|c| vr(b + c)));
                for (r, acc) in acc.into_iter().enumerate() {
                    for (c, acc) in acc.into_iter().enumerate() {
                        put(r, c, acc);
                    }
                }
            } else {
                for (r, [acc]) in lane_sums(us, [vr(b)]).into_iter().enumerate() {
                    put(r, 0, acc);
                }
            }
            b += cols;
        }
        a += ROWS;
    }
    for a in a..nu {
        for b in 0..nv {
            out[a * sa + b * sb] = dot(ur(a), vr(b));
        }
    }
}

/// `out[r] = Σ_t rows[r][t]` for each row of the `[out.len(), len]` block
/// `rows`, each summed point by point from `-0.0` as `Iterator::sum` sums
/// it, the rows' chains interleaved so their adds overlap.
#[inline(always)]
fn row_sums(rows: &[f64], len: usize, out: &mut [f64]) {
    let mut acc = [-0.0; BLOCK];
    let acc = &mut acc[..out.len()];
    for t in 0..len {
        for (r, s) in acc.iter_mut().enumerate() {
            *s += rows[r * len + t];
        }
    }
    out.copy_from_slice(acc);
}

impl PointwiseMlp {
    /// `Linear(c_in, hidden)` then `Linear(hidden, c_out)`, initialized in
    /// that order from `rng` (as the unfused pair would be).
    pub fn new(c_in: usize, hidden: usize, c_out: usize, rng: &mut impl Rng) -> Self {
        let fc1 = Linear::new(c_in, hidden, rng);
        let fc2 = Linear::new(hidden, c_out, rng);
        PointwiseMlp {
            fc1,
            fc2,
            cache_input: None,
        }
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_with(Isa::host(), x)
    }

    /// [`PointwiseMlp::infer`] with its tile kernel compiled for `isa`.
    pub(crate) fn infer_with(&self, isa: Isa, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert!(dims.len() >= 2, "PointwiseMlp expects [B, C, *spatial]");
        assert_eq!(
            dims[1],
            self.fc1.c_in(),
            "input channels {} != c_in {}",
            dims[1],
            self.fc1.c_in()
        );
        let (c_in, c_out) = (self.fc1.c_in(), self.fc2.c_out());
        let p: usize = dims[2..].iter().product();
        let blocks: Vec<Vec<f64>> = (0..dims[0] * p.div_ceil(TILE))
            .into_par_iter()
            .map(|item| {
                let xs = gather(x.data(), c_in, p, item);
                let mut y = vec![0.0; c_out * (xs.len() / c_in)];
                isa.run(
                    #[inline(always)]
                    || self.forward_tile(&xs, &mut y),
                );
                y
            })
            .collect();
        let mut out_dims = dims.to_vec();
        out_dims[1] = c_out;
        let mut out = Tensor::zeros(&out_dims);
        for (item, y) in blocks.iter().enumerate() {
            scatter(out.data_mut(), c_out, p, item, y);
        }
        out
    }

    /// Hidden channel `k`'s pre-activation over one tile, summed as
    /// `Linear::infer` sums it: bias, then input channels in order. `x` is
    /// the tile's `[C_in, len]` block, `h` one `len`-point row.
    #[inline(always)]
    fn pre_activation(&self, k: usize, x: &[f64], h: &mut [f64], terms: &mut Vec<(f64, usize)>) {
        let c_in = self.fc1.c_in();
        h.fill(self.fc1.bias.value.data()[k]);
        nonzero(
            terms,
            self.fc1.weight.value.data()[k * c_in..(k + 1) * c_in]
                .iter()
                .copied(),
        );
        accumulate(h, x, terms);
    }

    /// One tile's output `y` (`[C_out, len]`) from its input `x` (`[C_in, len]`).
    #[inline(always)]
    fn forward_tile(&self, x: &[f64], y: &mut [f64]) {
        let (hidden, c_out) = (self.fc2.c_in(), self.fc2.c_out());
        let w2 = self.fc2.weight.value.data();
        let len = y.len() / c_out;
        for (row, &b) in y.chunks_mut(len).zip(self.fc2.bias.value.data()) {
            row.fill(b);
        }
        let mut h = [0.0; BLOCK * TILE];
        let mut terms = Vec::new();
        for k0 in (0..hidden).step_by(BLOCK) {
            let kn = BLOCK.min(hidden - k0);
            let h = &mut h[..kn * len];
            for (j, row) in h.chunks_mut(len).enumerate() {
                self.pre_activation(k0 + j, x, row, &mut terms);
                activation::values(row);
            }
            for (o, row) in y.chunks_mut(len).enumerate() {
                nonzero(&mut terms, w2[o * hidden + k0..][..kn].iter().copied());
                accumulate(row, h, &terms);
            }
        }
    }

    /// One tile's backward from its input `x` (`[C_in, len]`) and output
    /// gradient `g` (`[C_out, len]`): accumulates the input gradient into
    /// `gx` (`[C_in, len]`, zeroed) and returns the tile's parameter-gradient
    /// partial, laid out as `[fc1.w | fc1.b | fc2.w | fc2.b]`.
    #[inline(always)]
    fn backward_tile(&self, x: &[f64], g: &[f64], gx: &mut [f64]) -> Vec<f64> {
        let (c_in, hidden, c_out) = (self.fc1.c_in(), self.fc2.c_in(), self.fc2.c_out());
        let (w1, w2) = (self.fc1.weight.value.data(), self.fc2.weight.value.data());
        let mut part = vec![0.0; self.param_count()];
        let (gw1, rest) = part.split_at_mut(hidden * c_in);
        let (gb1, rest) = rest.split_at_mut(hidden);
        let (gw2, gb2) = rest.split_at_mut(c_out * hidden);
        let len = x.len() / c_in;
        for (b, go) in gb2.iter_mut().zip(g.chunks(len)) {
            *b = go.iter().sum();
        }
        // Per block of hidden channels: their GELU activations and their
        // gradients ∂L/∂z, each a `[kn, len]` block.
        let (mut act, mut d, mut gz) = ([0.0; BLOCK * TILE], [0.0; TILE], [0.0; BLOCK * TILE]);
        let d = &mut d[..len];
        let mut terms = Vec::new();
        for k0 in (0..hidden).step_by(BLOCK) {
            let kn = BLOCK.min(hidden - k0);
            let (act, gz) = (&mut act[..kn * len], &mut gz[..kn * len]);
            for (j, (a, gzk)) in act.chunks_mut(len).zip(gz.chunks_mut(len)).enumerate() {
                let k = k0 + j;
                self.pre_activation(k, x, a, &mut terms);
                for (av, dv) in a.iter_mut().zip(d.iter_mut()) {
                    (*av, *dv) = Gelu::value_and_derivative(*av);
                }
                // ∂L/∂a as `Linear::backward` forms it (zero, then output
                // channels in order), then through the GELU.
                gzk.fill(0.0);
                nonzero(&mut terms, (0..c_out).map(|o| w2[o * hidden + k]));
                accumulate(gzk, g, &terms);
                for (gv, &dv) in gzk.iter_mut().zip(d.iter()) {
                    *gv *= dv;
                }
            }
            // gw2[o, k] = a_k·g_o and gw1[k, i] = gz_k·x_i (products
            // commute exactly, so either operand order gives `dot`'s bits).
            contract(act, g, len, &mut gw2[k0..], (1, hidden));
            contract(gz, x, len, &mut gw1[k0 * c_in..], (c_in, 1));
            row_sums(gz, len, &mut gb1[k0..k0 + kn]);
            for (i, row) in gx.chunks_mut(len).enumerate() {
                nonzero(&mut terms, (k0..k0 + kn).map(|k| w1[k * c_in + i]));
                accumulate(row, gz, &terms);
            }
        }
        part
    }

    /// [`Layer::backward`] with its tile kernel compiled for `isa`.
    pub(crate) fn backward_with(&mut self, isa: Isa, grad_out: &Tensor) -> Tensor {
        let _span = ft_obs::span("pointwise_mlp.backward");
        let x = self
            .cache_input
            .take()
            .expect("backward called without a cached forward");
        let dims = x.dims();
        let p: usize = dims[2..].iter().product();
        assert_eq!(grad_out.dims()[0], dims[0], "batch mismatch");
        assert_eq!(
            grad_out.dims()[1],
            self.fc2.c_out(),
            "output-channel mismatch"
        );

        let (c_in, c_out) = (self.fc1.c_in(), self.fc2.c_out());
        let tiles: Vec<(Vec<f64>, Vec<f64>)> = (0..dims[0] * p.div_ceil(TILE))
            .into_par_iter()
            .map(|item| {
                let xs = gather(x.data(), c_in, p, item);
                let gs = gather(grad_out.data(), c_out, p, item);
                let mut gx = vec![0.0; xs.len()];
                let part = isa.run(
                    #[inline(always)]
                    || self.backward_tile(&xs, &gs, &mut gx),
                );
                (gx, part)
            })
            .collect();

        // Tile partials fold into the accumulators in index order.
        let mut gx = Tensor::zeros(dims);
        for (item, (block, part)) in tiles.iter().enumerate() {
            scatter(gx.data_mut(), c_in, p, item, block);
            let mut rest = part.as_slice();
            self.visit_params(&mut |pm| {
                let ParamMut::Real { grad, .. } = pm else {
                    unreachable!("PointwiseMlp has real parameters only")
                };
                let (head, tail) = rest.split_at(grad.len());
                grad.data_mut()
                    .iter_mut()
                    .zip(head)
                    .for_each(|(g, &v)| *g += v);
                rest = tail;
            });
        }
        gx
    }
}

impl Layer for PointwiseMlp {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let _span = ft_obs::span("pointwise_mlp.forward");
        let y = self.infer(x);
        self.cache_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_with(Isa::host(), grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    fn param_count(&self) -> usize {
        self.fc1.param_count() + self.fc2.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_same_bits;
    use crate::gradcheck::{check_input_gradient, check_param_gradients};
    use crate::serialize::{snapshot_grads, ParamValue};
    use ft_tensor::bit_hash;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The unfused `Linear → Gelu → Linear` composition with `mlp`'s weights.
    struct Unfused {
        fc1: Linear,
        act: Gelu,
        fc2: Linear,
    }

    impl Unfused {
        fn of(mlp: &PointwiseMlp) -> Self {
            Unfused {
                fc1: mlp.fc1.clone(),
                act: Gelu::new(),
                fc2: mlp.fc2.clone(),
            }
        }
    }

    impl Layer for Unfused {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            let h = self.fc1.forward(x);
            self.fc2.forward(&self.act.forward(&h))
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            let g = self.fc2.backward(g);
            self.fc1.backward(&self.act.backward(&g))
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
            self.fc1.visit_params(f);
            self.fc2.visit_params(f);
        }
        fn param_count(&self) -> usize {
            self.fc1.param_count() + self.fc2.param_count()
        }
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(dims, &Uniform::new(-2.0, 2.0), &mut rng)
    }

    /// An MLP with some weights zeroed, so the zero-weight skip is exercised.
    fn mlp(c_in: usize, hidden: usize, c_out: usize, seed: u64) -> PointwiseMlp {
        let mut m = PointwiseMlp::new(c_in, hidden, c_out, &mut StdRng::seed_from_u64(seed));
        m.fc1.weight.value.data_mut()[1] = 0.0;
        m.fc2.weight.value.data_mut()[2] = 0.0;
        m
    }

    /// Shapes covering one partial tile, a ragged last tile, a batch of
    /// three, a 3D `[B, 1, X, Y, T]` input, and enough tiles (65) to fan
    /// out on the pool.
    fn cases() -> Vec<(PointwiseMlp, Tensor)> {
        vec![
            (mlp(3, 16, 2, 1), rand_tensor(&[1, 3, 5, 7], 11)),
            (mlp(2, 8, 3, 2), rand_tensor(&[1, 2, 23, 29], 12)),
            (mlp(4, 12, 4, 3), rand_tensor(&[3, 4, 20, 16], 13)),
            (mlp(1, 10, 1, 4), rand_tensor(&[2, 1, 9, 8, 6], 14)),
            (mlp(2, 6, 2, 7), rand_tensor(&[1, 2, 128, 130], 16)),
        ]
    }

    #[test]
    fn forward_and_infer_are_bit_identical_to_the_unfused_composition() {
        for (mut m, x) in cases() {
            let want = Unfused::of(&m).forward(&x);
            assert_eq!(m.infer(&x).data(), want.data(), "infer {:?}", x.dims());
            let got = m.forward(&x);
            assert_eq!(got.dims(), want.dims());
            assert_eq!(got.data(), want.data(), "forward {:?}", x.dims());
        }
    }

    #[test]
    fn backward_matches_the_unfused_composition() {
        for (mut m, x) in cases() {
            let mut reference = Unfused::of(&m);
            let y = reference.forward(&x);
            let g = rand_tensor(y.dims(), 99);
            let want_gx = reference.backward(&g);
            m.forward(&x);
            let gx = m.backward(&g);
            assert_eq!(gx.data(), want_gx.data(), "input gradient {:?}", x.dims());
            let (got, want) = (snapshot_grads(&mut m), snapshot_grads(&mut reference));
            for (a, b) in got.iter().zip(&want) {
                let (ParamValue::Real(a), ParamValue::Real(b)) = (a, b) else {
                    panic!("real parameters only")
                };
                let rel = a.sub(b).norm_l2() / b.norm_l2();
                assert!(
                    rel <= 1e-12,
                    "parameter gradient {:?}: rel {rel:e}",
                    a.dims()
                );
            }
        }
    }

    /// Every parameter gradient, flattened in visiting order.
    fn grads(m: &mut impl Layer) -> Vec<f64> {
        let mut all = Vec::new();
        for p in snapshot_grads(m) {
            let ParamValue::Real(t) = p else {
                panic!("real parameters only")
            };
            all.extend_from_slice(t.data());
        }
        all
    }

    /// [`cases`] plus tiles whose length leaves a tail shorter than the
    /// 8-point register stretch (1, 15, and a last tile of 33 points),
    /// hidden widths that are not a multiple of [`BLOCK`], and a hidden
    /// unit with every input and output weight zero.
    fn isa_cases() -> Vec<(PointwiseMlp, Tensor)> {
        let mut dead = mlp(3, 13, 2, 10);
        for i in 0..3 {
            dead.fc1.weight.value.data_mut()[4 * 3 + i] = 0.0;
        }
        for o in 0..2 {
            dead.fc2.weight.value.data_mut()[o * 13 + 4] = 0.0;
        }
        let mut all = cases();
        all.extend([
            (mlp(3, 13, 2, 8), rand_tensor(&[1, 3, 1, 1], 21)),
            (mlp(5, 9, 6, 9), rand_tensor(&[2, 5, 3, 5], 22)),
            (dead, rand_tensor(&[1, 3, 17, 17], 23)),
        ]);
        all
    }

    #[test]
    fn every_isa_gives_the_same_bits() {
        for (m, x) in isa_cases() {
            let g = rand_tensor(m.infer(&x).dims(), 98);
            let run = |isa| {
                let mut m = m.clone();
                let y = m.infer_with(isa, &x);
                m.forward(&x);
                let gx = m.backward_with(isa, &g);
                (y, gx, grads(&mut m))
            };
            let (want_y, want_gx, want_grads) = run(Isa::Base);
            for isa in Isa::supported() {
                let (y, gx, grads) = run(isa);
                let what = format!("{isa:?}, {:?}", x.dims());
                assert_same_bits(y.data(), want_y.data(), &format!("output at {what}"));
                assert_same_bits(gx.data(), want_gx.data(), &format!("input gradient at {what}"));
                assert_same_bits(&grads, &want_grads, &format!("parameter gradients at {what}"));
            }
        }
    }

    #[test]
    fn every_isa_contract_equals_dot_bit_for_bit() {
        // 1..=9 rows on each side cover full register blocks, leftover
        // columns and leftover rows; the lengths cover tails of 0–3 points.
        for len in [1, 3, 4, 5, 31, 33, 256] {
            for nu in 1..=9 {
                for nv in 1..=9 {
                    let u = rand_tensor(&[nu * len], (len * 100 + nu) as u64);
                    let v = rand_tensor(&[nv * len], (len * 100 + 50 + nv) as u64);
                    let (u, v) = (u.data(), v.data());
                    for isa in Isa::supported() {
                        // Both output layouts the backward uses.
                        for (sa, sb) in [(nv, 1), (1, nu)] {
                            let mut out = vec![f64::NAN; nu * nv];
                            isa.run(
                                #[inline(always)]
                                || contract(u, v, len, &mut out, (sa, sb)),
                            );
                            for a in 0..nu {
                                for b in 0..nv {
                                    let want = dot(&u[a * len..][..len], &v[b * len..][..len]);
                                    let got = out[a * sa + b * sb];
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "{isa:?}, len {len}, {nu}×{nv} rows, pair ({a}, {b}), \
                                         strides ({sa}, {sb}): {got:e} != {want:e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bits_are_pinned() {
        // Widths that are not multiples of 4 (nor `hidden` of `BLOCK`), two
        // weights zeroed, and 437-point planes: one full tile and a ragged
        // 181-point one per sample. The hashes were recorded before the
        // tile kernels were register-blocked; a kernel rewrite must leave
        // them as they are, as must every `Isa` level.
        let m = mlp(5, 21, 7, 31);
        let x = rand_tensor(&[2, 5, 19, 23], 32);
        let g = rand_tensor(&[2, 7, 19, 23], 33);
        for isa in Isa::supported() {
            let mut m = m.clone();
            let y = m.infer_with(isa, &x);
            m.forward(&x);
            let gx = m.backward_with(isa, &g);
            let mut hashes = vec![bit_hash(y.data()), bit_hash(gx.data())];
            for p in snapshot_grads(&mut m) {
                let ParamValue::Real(t) = p else {
                    panic!("real parameters only")
                };
                hashes.push(bit_hash(t.data()));
            }
            // output, input gradient, fc1.w, fc1.b, fc2.w, fc2.b
            let want: [u64; 6] = [
                0x71dd_52bd_3ff6_b0a7,
                0x44ef_a878_b39b_ee67,
                0x7c35_e019_1643_37a3,
                0x77f2_7364_92dc_a307,
                0xe832_3295_e846_b839,
                0x4dc8_ceb4_c2d1_028e,
            ];
            assert_eq!(hashes, want, "{isa:?}: {hashes:#x?}");
        }
    }

    #[test]
    fn gradcheck_params_and_input() {
        let mut m = mlp(2, 5, 3, 5);
        let x = rand_tensor(&[2, 2, 3, 4], 15);
        check_param_gradients(&mut m, &x, 1e-5, 2e-6);
        check_input_gradient(&mut m, &x, 1e-5, 2e-6);
    }

    #[test]
    fn param_order_and_count_match_the_unfused_pair() {
        let mut m = mlp(3, 7, 2, 6);
        let mut shapes = Vec::new();
        m.visit_params(&mut |p| {
            if let ParamMut::Real { value, .. } = p {
                shapes.push(value.dims().to_vec());
            }
        });
        assert_eq!(shapes, vec![vec![7, 3], vec![7], vec![2, 7], vec![2]]);
        assert_eq!(m.param_count(), 7 * 3 + 7 + 2 * 7 + 2);
    }
}
