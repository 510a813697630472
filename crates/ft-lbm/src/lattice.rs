//! The D2Q9 lattice and the product-form entropic equilibrium.

/// D2Q9 lattice constants.
///
/// Velocity ordering: rest, then the four axis directions, then the four
/// diagonals. `OPPOSITE[i]` gives the index of `-c_i` (used by tests and by
/// bounce-back boundaries, though this workspace is fully periodic).
pub struct D2Q9;

impl D2Q9 {
    /// Number of discrete velocities.
    pub const Q: usize = 9;
    /// x-components of the discrete velocities.
    pub const CX: [i32; 9] = [0, 1, 0, -1, 0, 1, -1, -1, 1];
    /// y-components of the discrete velocities.
    pub const CY: [i32; 9] = [0, 0, 1, 0, -1, 1, 1, -1, -1];
    /// Lattice weights.
    pub const W: [f64; 9] = [
        4.0 / 9.0,
        1.0 / 9.0,
        1.0 / 9.0,
        1.0 / 9.0,
        1.0 / 9.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
        1.0 / 36.0,
    ];
    /// Index of the opposite velocity.
    pub const OPPOSITE: [usize; 9] = [0, 3, 4, 1, 2, 7, 8, 5, 6];
    /// Squared lattice sound speed `c_s² = 1/3`.
    pub const CS2: f64 = 1.0 / 3.0;
}

/// Product-form entropic equilibrium (Ansumali–Karlin):
///
/// `f_i^eq = ρ w_i Π_a (2 − √(1+3u_a²)) ((2u_a + √(1+3u_a²))/(1 − u_a))^{c_ia}`.
///
/// This is the exact minimizer of the discrete H-function under the
/// mass/momentum constraints; to O(u²) it reduces to the polynomial BGK
/// equilibrium. Valid for `|u_a| < 1`.
#[inline]
pub fn equilibrium(rho: f64, ux: f64, uy: f64) -> [f64; 9] {
    // Finite out-of-range velocities are programming errors worth crashing
    // on in debug builds for a direct caller; the solver's collision never
    // passes one (it marks such a cell non-finite first, see
    // `Lbm::collide`), and non-finite values flow through as NaN
    // populations to the `Lbm::try_run` guard.
    debug_assert!(
        !(ux.is_finite() && uy.is_finite()) || (ux.abs() < 1.0 && uy.abs() < 1.0),
        "velocity outside lattice range"
    );
    let sx = (1.0 + 3.0 * ux * ux).sqrt();
    let sy = (1.0 + 3.0 * uy * uy).sqrt();
    let px = (2.0 * ux + sx) / (1.0 - ux);
    let py = (2.0 * uy + sy) / (1.0 - uy);
    let gx = 2.0 - sx;
    let gy = 2.0 - sy;
    let base = rho * gx * gy;

    let mut f = [0.0f64; 9];
    for i in 0..9 {
        let mut v = base * D2Q9::W[i];
        match D2Q9::CX[i] {
            1 => v *= px,
            -1 => v /= px,
            _ => {}
        }
        match D2Q9::CY[i] {
            1 => v *= py,
            -1 => v /= py,
            _ => {}
        }
        f[i] = v;
    }
    f
}

/// Density and momentum moments of a population vector.
#[inline]
pub fn moments(f: &[f64; 9]) -> (f64, f64, f64) {
    let mut rho = 0.0;
    let mut jx = 0.0;
    let mut jy = 0.0;
    for i in 0..9 {
        rho += f[i];
        jx += f[i] * D2Q9::CX[i] as f64;
        jy += f[i] * D2Q9::CY[i] as f64;
    }
    (rho, jx, jy)
}

/// Discrete H-function `H(f) = Σ f_i ln(f_i / w_i)`, with this crate's
/// own `ln` (no libm).
///
/// Returns `f64::INFINITY` when any population is non-positive, which the
/// entropic collision uses as a positivity barrier.
pub fn h_function(f: &[f64; 9]) -> f64 {
    entropy(&f.map(|v| [v]), &[[0.0]; 9]).0[0]
}

/// `H(g) = Σ gᵢ ln(gᵢ/wᵢ)` and `Σ dᵢ ln(gᵢ/wᵢ)` in each of `L` lanes,
/// population-major (`g[i][l]` is lane `l`'s population `i`), from one
/// [`ln`] per population. Both are `+∞` in a lane with a population
/// `≤ 0`. A lane's bits depend on its own populations alone, so `L` cells
/// at once give the bits of `L` one-lane calls.
#[inline(always)]
pub(crate) fn entropy<const L: usize>(
    g: &[[f64; L]; 9],
    d: &[[f64; L]; 9],
) -> ([f64; L], [f64; L]) {
    let mut h = [0.0; L];
    let mut slope = [0.0; L];
    let mut barrier = [false; L];
    for i in 0..9 {
        for l in 0..L {
            let log = ln(g[i][l] / D2Q9::W[i]);
            h[l] += g[i][l] * log;
            slope[l] += d[i][l] * log;
            barrier[l] |= g[i][l] <= 0.0;
        }
    }
    let bar = |v: [f64; L]| std::array::from_fn(|l| if barrier[l] { f64::INFINITY } else { v[l] });
    (bar(h), bar(slope))
}

/// `ln x` for positive finite `x`, subnormals included, within 1 ulp:
/// fdlibm's `__ieee754_log` (Sun Microsystems, 1993) in straight lines.
/// With `x = 2ᵏ(1 + f)`, `1 + f` in `[√2/2, √2)` and `s = f/(2 + f)`,
/// `ln(1 + f) = f − s(f − R)` (fdlibm's `hfsq` form near `f` = 0.4 and
/// −0.29), `R` a degree-14 minimax polynomial in `s`, plus `k·ln 2` in two
/// parts; a subnormal `x` is scaled by 2⁵⁴ first. IEEE `+ − × ÷` and bit
/// operations only, with no libm call, table, branch (selects) or `mul_add`
/// (see [`ft_tensor::Isa`]): a loop over it vectorizes with the scalar bits
/// at every width, and its bits do not depend on the host's libm. Zero,
/// negative, infinite and NaN inputs give unspecified values;
/// [`h_function`] and the α solve select their positivity barrier there.
#[inline(always)]
pub(crate) fn ln(x: f64) -> f64 {
    const TWO54: f64 = 18_014_398_509_481_984.0;
    // 2⁵² as an f64: `2⁵² + m` holds the integer `m < 2⁵²` in its mantissa.
    const TWO52: f64 = 4_503_599_627_370_496.0;
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
    const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
    const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
    const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
    const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);
    let subnormal = x < f64::MIN_POSITIVE;
    let x = if subnormal { x * TWO54 } else { x };
    let bits = x.to_bits();
    let mant = bits & 0x000F_FFFF_FFFF_FFFF;
    // 1 when the mantissa reaches √2 − 1 (fdlibm's `0x95f64` test on the
    // high word): then `1 + f` is the mantissa halved, in [√2/2, 1).
    let half = (mant + (0x95F64 << 32)) >> 52;
    let f = f64::from_bits(mant | ((0x3FF ^ half) << 52)) - 1.0;
    // k = biased exponent + half − 1023 (− 54 for a subnormal), exactly.
    let k_biased = ((bits >> 52) & 0x7FF) + half;
    let bias = if subnormal { TWO52 + 1077.0 } else { TWO52 + 1023.0 };
    let dk = f64::from_bits(TWO52.to_bits() | k_biased) - bias;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    // fdlibm's `i > 0`: the high word's mantissa bits in [0x6147a, 0x6b851].
    let tail = if (mant >> 32).wrapping_sub(0x6147A) <= 0x6B851 - 0x6147A {
        hfsq - (s * (hfsq + r) + dk * LN2_LO)
    } else {
        s * (f - r) - dk * LN2_LO
    };
    dk * LN2_HI - (tail - f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_moments_are_isotropic() {
        // Σ w_i = 1, Σ w_i c_ia = 0, Σ w_i c_ia c_ib = c_s² δ_ab.
        let w_sum: f64 = D2Q9::W.iter().sum();
        assert!((w_sum - 1.0).abs() < 1e-15);
        let mut m1 = [0.0f64; 2];
        let mut m2 = [[0.0f64; 2]; 2];
        for i in 0..9 {
            let c = [D2Q9::CX[i] as f64, D2Q9::CY[i] as f64];
            for a in 0..2 {
                m1[a] += D2Q9::W[i] * c[a];
                for b in 0..2 {
                    m2[a][b] += D2Q9::W[i] * c[a] * c[b];
                }
            }
        }
        assert!(m1[0].abs() < 1e-15 && m1[1].abs() < 1e-15);
        assert!((m2[0][0] - D2Q9::CS2).abs() < 1e-15);
        assert!((m2[1][1] - D2Q9::CS2).abs() < 1e-15);
        assert!(m2[0][1].abs() < 1e-15);
    }

    #[test]
    fn opposite_table_is_consistent() {
        for i in 0..9 {
            let j = D2Q9::OPPOSITE[i];
            assert_eq!(D2Q9::CX[i], -D2Q9::CX[j]);
            assert_eq!(D2Q9::CY[i], -D2Q9::CY[j]);
            assert_eq!(D2Q9::OPPOSITE[j], i);
        }
    }

    #[test]
    fn equilibrium_reproduces_moments() {
        for &(rho, ux, uy) in &[(1.0, 0.0, 0.0), (1.1, 0.05, -0.03), (0.9, -0.1, 0.08)] {
            let feq = equilibrium(rho, ux, uy);
            let (r, jx, jy) = moments(&feq);
            assert!((r - rho).abs() < 1e-12, "density");
            assert!((jx - rho * ux).abs() < 1e-12, "x momentum");
            assert!((jy - rho * uy).abs() < 1e-12, "y momentum");
        }
    }

    #[test]
    fn equilibrium_at_rest_is_weights() {
        let feq = equilibrium(1.0, 0.0, 0.0);
        for i in 0..9 {
            assert!((feq[i] - D2Q9::W[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn equilibrium_matches_polynomial_to_second_order() {
        // f_i^eq ≈ ρ w_i (1 + 3 c·u + 4.5 (c·u)² − 1.5 u²) for small u.
        let (rho, ux, uy) = (1.0, 0.01, -0.007);
        let feq = equilibrium(rho, ux, uy);
        for i in 0..9 {
            let cu = D2Q9::CX[i] as f64 * ux + D2Q9::CY[i] as f64 * uy;
            let u2 = ux * ux + uy * uy;
            let poly = rho * D2Q9::W[i] * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
            assert!(
                (feq[i] - poly).abs() < 1e-6 * rho,
                "direction {i}: {} vs {poly}",
                feq[i]
            );
        }
    }

    #[test]
    fn equilibrium_minimizes_h_under_constraints() {
        // Perturbing the equilibrium within the constraint manifold must not
        // decrease H. Use a moment-free perturbation direction.
        let feq = equilibrium(1.0, 0.03, 0.02);
        let h0 = h_function(&feq);
        // Perturbation with zero density and momentum: uses directions 1..4.
        let mut g = feq;
        let eps = 1e-4;
        g[1] += eps;
        g[3] += eps;
        g[2] -= eps;
        g[4] -= eps;
        let (r0, jx0, jy0) = moments(&feq);
        let (r1, jx1, jy1) = moments(&g);
        assert!((r0 - r1).abs() < 1e-12 && (jx0 - jx1).abs() < 1e-12 && (jy0 - jy1).abs() < 1e-12);
        assert!(h_function(&g) > h0);
    }

    /// Geometric over [1e-310, 1e300], subnormals included, then dense
    /// over [0.5, 2.5], where `ln` crosses 0 and fdlibm switches forms.
    fn ln_inputs() -> impl Iterator<Item = f64> {
        let geometric = (0..=100_000).map(|k| 10f64.powf(-310.0 + 610.0 * k as f64 / 100_000.0));
        let dense = (0..=100_000).map(|k| 0.5 + 2.0 * k as f64 / 100_000.0);
        geometric.chain(dense)
    }

    #[test]
    fn ln_within_one_ulp_of_libm() {
        for x in ln_inputs() {
            let (got, want) = (ln(x), x.ln());
            assert!(
                got.to_bits().abs_diff(want.to_bits()) <= 1,
                "ln({x:e}) = {got:e}, libm {want:e}"
            );
        }
    }

    #[test]
    fn ln_bits_are_pinned() {
        // Subnormals, 1, the barrier side of the collision's populations
        // near 1e-17, 1 ± 0.2, and 1.4 in fdlibm's `hfsq` form (one ulp
        // from this host's libm, 0x3fd588c2d913348f).
        let pinned = [
            (5e-324, 0xc087_4385_446d_71c3),
            (1e-310, 0xc086_4e69_394d_9508),
            (1.0, 0),
            (1e-17, 0xc043_926c_d770_aa67),
            (2.5e-17, 0xc043_1d23_d3ad_26e5),
            (0.8, 0xbfcc_8ff7_c79a_9a20),
            (1.2, 0x3fc7_5650_11e4_9675),
            (1.4, 0x3fd5_88c2_d913_348e),
        ];
        for (x, bits) in pinned {
            assert_eq!(
                ln(x).to_bits(),
                bits,
                "ln({x:e}) = {:e} ({:#018x})",
                ln(x),
                ln(x).to_bits()
            );
        }
    }

    #[test]
    fn every_isa_ln_gives_the_scalar_bits() {
        // `black_box` keeps the reference loop scalar; the dispatched one
        // vectorizes at each level's width, with a ragged tail.
        let x: Vec<f64> = ln_inputs().step_by(7).collect();
        let want: Vec<u64> = x.iter().map(|&v| ln(std::hint::black_box(v)).to_bits()).collect();
        for isa in ft_tensor::Isa::supported() {
            let got: Vec<u64> = isa.run(
                #[inline(always)]
                || x.iter().map(|&v| ln(v).to_bits()).collect(),
            );
            assert!(got == want, "{isa:?}");
        }
    }

    #[test]
    fn h_function_barrier_on_nonpositive() {
        let mut f = equilibrium(1.0, 0.0, 0.0);
        f[5] = 0.0;
        assert!(h_function(&f).is_infinite());
    }
}
