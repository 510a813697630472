//! GELU activation (tanh form), used between the Fourier layers and inside
//! the lifting and projection MLPs (fused there, see [`crate::mlp`]), as in
//! the `neuraloperator` reference implementation.
//!
//! The tanh form is evaluated through `½(1 + tanh u) = σ(2u)`: with
//! `u = √(2/π)(x + 0.044715·x³)`, `e = exp(−2u)` and `s = 1/(1 + e)`,
//! `gelu(x) = x·s` and `gelu'(x) = s + 2·(x·s)·(e·s)·√(2/π)(1 + 3·0.044715·x²)`,
//! where `e·s` is `1 − s` without the cancellation. That is one `exp` and
//! one division per element, and the `exp` is computed in-tree as
//! straight-line arithmetic — no libm call, no branch, no table — so the
//! slice loops over it vectorize. Rust neither contracts nor reassociates
//! floating-point operations, so a vectorized loop gives the bits of the
//! scalar code, and those bits depend on the input alone, never on the
//! host's libm. The slice loops run through [`Isa::run`], at the host's
//! vector width, with the same bits at every level.

use ft_tensor::{Isa, Tensor};
use rayon::prelude::*;

use crate::param::ParamMut;
use crate::Layer;

/// `gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[derive(Clone, Default)]
pub struct Gelu {
    cache_input: Option<Tensor>,
}

const C: f64 = 0.797_884_560_802_865_4; // sqrt(2/π)
const A: f64 = 0.044715;

/// Elements per parallel chunk. Fixed, so the chunking — and whether a
/// call fans out at all (fewer than `rayon::MIN_PARALLEL_ITEMS` chunks
/// run inline) — depends on the tensor size alone, never on the pool.
const CHUNK: usize = 4096;

/// Range [`exp`] clamps its argument to: `2ⁿ` stays a normal number and
/// the result stays finite and nonzero.
const EXP_MIN: f64 = -708.0;
const EXP_MAX: f64 = 700.0;

/// `eʸ` for `y` clamped to `[EXP_MIN, EXP_MAX]` (NaN stays NaN), within
/// about 2 ulp. Cody–Waite reduction `y = n·ln2 + r`, `|r| ≤ ln2/2`, with
/// `n` rounded to nearest by adding and subtracting `1.5·2⁵²`; a degree-13
/// Taylor polynomial in `r` (truncation error below 1e-17) in Estrin form;
/// and `2ⁿ` built from its bits. Selects, not branches, and no `mul_add`:
/// without the FMA target feature that is a libm call, and with it (the
/// AVX-512 instantiation, see [`Isa`]) a fused op with other bits.
#[inline(always)]
fn exp(y: f64) -> f64 {
    // 1.5·2⁵², and ln 2 split so that `n·LN2_HI` is exact for |n| < 2²¹.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    let y = if y < EXP_MIN { EXP_MIN } else { y };
    let y = if y > EXP_MAX { EXP_MAX } else { y };
    let k = y * std::f64::consts::LOG2_E + SHIFT;
    let n = k - SHIFT;
    let r = (y - n * LN2_HI) - n * LN2_LO;
    // k's low mantissa bits hold n in two's complement, and the bits of
    // SHIFT vanish when shifted up by 52: this is (n + 1023) << 52, the
    // bits of 2ⁿ, for every n the clamp allows (−1021 ≤ n ≤ 1010).
    let two_n = f64::from_bits(k.to_bits().wrapping_add(1023) << 52);
    let r2 = r * r;
    let r4 = r2 * r2;
    let q0 = (1.0 + r) + r2 * (1.0 / 2.0 + r * (1.0 / 6.0));
    let q1 = (1.0 / 24.0 + r * (1.0 / 120.0)) + r2 * (1.0 / 720.0 + r * (1.0 / 5_040.0));
    let q2 = (1.0 / 40_320.0 + r * (1.0 / 362_880.0))
        + r2 * (1.0 / 3_628_800.0 + r * (1.0 / 39_916_800.0));
    let q3 = 1.0 / 479_001_600.0 + r * (1.0 / 6_227_020_800.0);
    let p = (q0 + r4 * q1) + (r4 * r4) * (q2 + r4 * q3);
    p * two_n
}

/// `(gelu(x), gelu'(x))` in the σ form of the module docs. Every entry
/// point goes through here, so values and derivatives agree bit for bit
/// however they are asked for.
#[inline(always)]
fn gelu(x: f64) -> (f64, f64) {
    let e = exp(-2.0 * (C * (x + A * x * x * x)));
    let s = 1.0 / (1.0 + e);
    let v = x * s;
    (v, s + 2.0 * v * (e * s) * C * (1.0 + 3.0 * A * x * x))
}

impl Gelu {
    /// A fresh activation layer (stateless apart from the backward cache).
    pub fn new() -> Self {
        Gelu::default()
    }

    /// Scalar forward value.
    #[inline(always)]
    pub fn value(x: f64) -> f64 {
        gelu(x).0
    }

    /// Scalar derivative.
    #[inline(always)]
    pub fn derivative(x: f64) -> f64 {
        gelu(x).1
    }

    /// `(value(x), derivative(x))` from one `exp`, bit-identical to the
    /// two separate calls.
    #[inline(always)]
    pub fn value_and_derivative(x: f64) -> (f64, f64) {
        gelu(x)
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_with(Isa::host(), x)
    }

    /// [`Gelu::infer`] with its chunk loop compiled for `isa`.
    pub(crate) fn infer_with(&self, isa: Isa, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        y.data_mut().par_chunks_mut(CHUNK).for_each(|c| {
            isa.run(
                #[inline(always)]
                || values(c),
            )
        });
        y
    }

    /// [`Layer::backward`] with its chunk loop compiled for `isa`.
    pub(crate) fn backward_with(&mut self, isa: Isa, grad_out: &Tensor) -> Tensor {
        // The cached input's buffer becomes the input gradient.
        let mut gx = self
            .cache_input
            .take()
            .expect("backward called without a cached forward");
        assert_eq!(gx.dims(), grad_out.dims(), "gradient shape mismatch");
        gx.data_mut()
            .par_chunks_mut(CHUNK)
            .zip(grad_out.data().par_chunks(CHUNK))
            .for_each(|(xs, gs)| {
                isa.run(
                    #[inline(always)]
                    || input_grads(xs, gs),
                )
            });
        gx
    }
}

/// `xs[i] = gelu(xs[i])`: the dispatched slice loop of [`Gelu::infer`].
#[inline(always)]
pub(crate) fn values(xs: &mut [f64]) {
    for v in xs {
        *v = gelu(*v).0;
    }
}

/// `xs[i] = gelu'(xs[i])·gs[i]`: the dispatched slice loop of
/// [`Gelu::backward`](Layer::backward).
#[inline(always)]
fn input_grads(xs: &mut [f64], gs: &[f64]) {
    for (v, &g) in xs.iter_mut().zip(gs) {
        *v = gelu(*v).1 * g;
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_input = Some(x.clone());
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_with(Isa::host(), grad_out)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamMut<'_>)) {}

    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_same_bits;
    use crate::gradcheck::check_input_gradient;

    #[test]
    fn known_values() {
        // gelu(0) = 0; gelu(+∞) → x; gelu is odd-ish around 0 only approximately.
        assert_eq!(Gelu::value(0.0), 0.0);
        assert!((Gelu::value(10.0) - 10.0).abs() < 1e-9);
        assert!(Gelu::value(-10.0).abs() < 1e-9);
        // Reference value (PyTorch tanh-approx gelu(1.0) ≈ 0.841192).
        assert!((Gelu::value(1.0) - 0.841192).abs() < 1e-5);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.2, 1.0, 2.5] {
            let eps = 1e-6;
            let num = (Gelu::value(x + eps) - Gelu::value(x - eps)) / (2.0 * eps);
            assert!(
                (Gelu::derivative(x) - num).abs() < 1e-8,
                "x={x}: {} vs {num}",
                Gelu::derivative(x)
            );
        }
    }

    #[test]
    fn value_and_derivative_match_the_separate_calls() {
        for i in -400..400 {
            let x = i as f64 * 0.0173;
            assert_eq!(
                Gelu::value_and_derivative(x),
                (Gelu::value(x), Gelu::derivative(x))
            );
        }
    }

    /// The tanh form, `0.5·x·(1 + tanh u)` and its derivative, with libm's
    /// `tanh`: the reference the σ form is held to.
    fn tanh_form(x: f64) -> (f64, f64) {
        let t = (C * (x + A * x * x * x)).tanh();
        let d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * A * x * x);
        (0.5 * x * (1.0 + t), d)
    }

    /// A dense grid over [−40, 40] (step 1e-3, with an irrational offset so
    /// the points are not all short binary fractions) and a sparse one over
    /// [−1000, 1000].
    fn grid() -> impl Iterator<Item = f64> {
        let dense = (-40_000..=40_000).map(|i| i as f64 * 1e-3 + 1e-4 * std::f64::consts::SQRT_2);
        let sparse = (-100_000..=100_000).map(|i| i as f64 * 0.01 + 1e-3 * std::f64::consts::PI);
        dense.chain(sparse)
    }

    #[test]
    fn matches_the_tanh_form() {
        let (mut worst_v, mut worst_d) = (0.0f64, 0.0f64);
        for x in grid() {
            let ((v, d), (rv, rd)) = (Gelu::value_and_derivative(x), tanh_form(x));
            let dv = (v - rv).abs() / x.abs().max(1.0);
            let dd = (d - rd).abs();
            assert!(dv <= 4.5e-16, "value at x = {x}: {v:e} vs {rv:e}");
            assert!(dd <= 3e-15, "derivative at x = {x}: {d:e} vs {rd:e}");
            (worst_v, worst_d) = (worst_v.max(dv), worst_d.max(dd));
        }
        // The grids reach the far tails, where both forms are exact.
        assert!(worst_v > 0.0 && worst_d > 0.0);
    }

    #[test]
    fn saturates_exactly_on_the_positive_side() {
        // As in the tanh form: gelu(x) = x and gelu'(x) = 1 exactly once
        // x ≥ 10, however far out. A lower clamp on the exp argument much
        // above −708 would leave `e` large enough to move gelu'(x) off 1.
        for x in (0..=2_000)
            .map(|i| 10.0 + i as f64 * 0.4995)
            .chain([1e4, 1e6, 1e12, 1e50])
        {
            assert_eq!(Gelu::value(x), x, "x = {x}");
            assert_eq!(Gelu::derivative(x), 1.0, "x = {x}");
            assert_eq!(tanh_form(x), (x, 1.0), "reference at x = {x}");
        }
    }

    #[test]
    fn non_finite_inputs_stay_non_finite() {
        let (v, d) = Gelu::value_and_derivative(f64::NAN);
        assert!(v.is_nan() && d.is_nan());
        // ±∞ may give ±∞ or NaN (the tanh form gives NaN for gelu(−∞) and
        // gelu'(+∞)); either trips the training loop's non-finite check.
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let (v, d) = Gelu::value_and_derivative(x);
            assert!(!v.is_finite() && !d.is_finite(), "x = {x}: ({v}, {d})");
        }
    }

    #[test]
    fn exp_is_accurate_over_the_clamp_range() {
        // Against libm's exp, relative: the Estrin sum, the reduction and
        // the final scaling keep within a few ulp across [−708, 700].
        for i in -70_800..70_000 {
            let y = i as f64 * 0.01 + 1e-3 * std::f64::consts::E;
            let rel = (exp(y) - y.exp()).abs() / y.exp();
            assert!(rel <= 4.5e-16, "exp({y}) = {:e} vs {:e}", exp(y), y.exp());
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-1e6), exp(EXP_MIN));
        assert_eq!(exp(1e6), exp(EXP_MAX));
        assert!(exp(EXP_MIN) > 0.0 && exp(EXP_MAX).is_finite());
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn bits_are_pinned() {
        // The kernel is straight-line IEEE arithmetic: no libm call, no
        // fused multiply-add, and Rust neither contracts nor reassociates
        // floating-point operations. So these bits are the same on every
        // host, libc and optimization level, and the layer's vectorized
        // loops give them too. A change here changes every model output.
        let pinned: [(f64, u64, u64); 9] = [
            (-1000.0, 0x8170_e750_0d5a_d95d, 0x828b_9b57_aaee_444a), // clamped at EXP_MAX
            (-21.5, 0x8117_4261_dd20_d92c, 0x8182_4325_6033_f1ae),   // clamped at EXP_MAX
            (-21.0, 0x8199_c99d_b33e_6af0, 0x8203_54a9_aa72_8af6),   // just inside
            (-3.0, 0xbf6d_cc2a_0116_12b8, 0xbf87_b970_86a6_c47e),
            (-0.5, 0xbfc3_bfa4_b104_180f, 0x3fc0_fa05_e364_5b4f),
            (0.3, 0x3fc7_ba3c_031f_6b7b, 0x3fe7_6ef6_def9_8ae3),
            (1.7, 0x3ff9_fc56_76aa_20cd, 0x3ff1_dac9_4cf3_7824),
            (4.0, 0x400f_ffdb_2bbf_9944, 0x3ff0_015f_66f2_bf95),
            (21.5, 0x4035_8000_0000_0000, 0x3ff0_0000_0000_0000), // clamped at EXP_MIN
        ];
        for (x, v, d) in pinned {
            assert_eq!(
                (Gelu::value(x).to_bits(), Gelu::derivative(x).to_bits()),
                (v, d),
                "x = {x}: {:e}, {:e}",
                Gelu::value(x),
                Gelu::derivative(x)
            );
        }
        // The same bits through the layer's slice loops, over enough copies
        // to run their vector bodies as well as their scalar tails.
        let x = Tensor::from_fn(&[4, 9], |i| pinned[i[1]].0);
        let mut layer = Gelu::new();
        let y = layer.forward(&x);
        let g = layer.backward(&Tensor::from_fn(&[4, 9], |_| 1.0));
        for (k, (y, g)) in y.data().iter().zip(g.data()).enumerate() {
            let (_, v, d) = pinned[k % 9];
            assert_eq!((y.to_bits(), g.to_bits()), (v, d), "layer, element {k}");
        }
    }

    #[test]
    fn every_isa_gives_the_scalar_bits() {
        // The inputs of `bits_are_pinned` (each copy a vector body or a
        // scalar tail, depending on the lane width), then the dense and
        // sparse accuracy grids, then several pool chunks with a ragged
        // tail: at every level the layer's loops must give the bits of the
        // scalar kernel, which `bits_are_pinned` pins.
        let pinned_x = [-1000.0, -21.5, -21.0, -3.0, -0.5, 0.3, 1.7, 4.0, 21.5];
        let inputs = [
            Tensor::from_fn(&[4, 9], |i| pinned_x[i[1]]),
            Tensor::from_vec(&[1, 1, grid().count()], grid().collect()),
            Tensor::from_fn(&[1, 3, 97, 101], |i| {
                (i[1] as f64 - 1.0) * 0.7 + (i[2] as f64 - 48.0) * 0.05 - i[3] as f64 * 0.011
            }),
        ];
        for x in inputs {
            let g = x.map(|v| 1.5 - v);
            let want_y = x.map(Gelu::value);
            let want_gx = x.zip_map(&g, |xv, gv| Gelu::derivative(xv) * gv);
            for isa in Isa::supported() {
                let mut layer = Gelu::new();
                let y = layer.infer_with(isa, &x);
                layer.forward(&x);
                let gx = layer.backward_with(isa, &g);
                let what = format!("{isa:?}, {:?}", x.dims());
                assert_same_bits(y.data(), want_y.data(), &format!("values at {what}"));
                assert_same_bits(gx.data(), want_gx.data(), &format!("gradients at {what}"));
            }
        }
    }

    #[test]
    fn chunked_layer_is_elementwise() {
        // Several chunks plus a ragged tail, enough to fan out on the pool.
        let x = Tensor::from_fn(&[1, 3, 300, 300], |i| {
            (i[1] as f64 - 1.0) * 0.7 + (i[2] as f64 - 150.0) * 0.01 - i[3] as f64 * 0.003
        });
        let g = x.map(|v| 1.5 - v);
        let mut layer = Gelu::new();
        let y = layer.forward(&x);
        assert_eq!(y.data(), x.map(Gelu::value).data());
        assert_eq!(layer.infer(&x).data(), y.data());
        let gx = layer.backward(&g);
        assert_eq!(
            gx.data(),
            x.zip_map(&g, |xv, gv| Gelu::derivative(xv) * gv).data()
        );
    }

    #[test]
    fn layer_gradcheck() {
        let mut layer = Gelu::new();
        let x = Tensor::from_fn(&[2, 3, 4], |i| {
            (i[0] as f64 - 0.5) * 0.8 + i[1] as f64 * 0.3 - i[2] as f64 * 0.2
        });
        check_input_gradient(&mut layer, &x, 1e-5, 1e-6);
    }

    #[test]
    fn monotone_on_positive_axis() {
        let mut prev = Gelu::value(0.0);
        for i in 1..100 {
            let v = Gelu::value(i as f64 * 0.1);
            assert!(v > prev);
            prev = v;
        }
    }
}
