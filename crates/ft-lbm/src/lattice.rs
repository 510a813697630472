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

/// Discrete H-function `H(f) = Σ f_i ln(f_i / w_i)`.
///
/// Returns `f64::INFINITY` when any population is non-positive, which the
/// entropic collision uses as a positivity barrier.
#[inline]
pub fn h_function(f: &[f64; 9]) -> f64 {
    let mut h = 0.0;
    for i in 0..9 {
        if f[i] <= 0.0 {
            return f64::INFINITY;
        }
        h += f[i] * (f[i] / D2Q9::W[i]).ln();
    }
    h
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

    #[test]
    fn h_function_barrier_on_nonpositive() {
        let mut f = equilibrium(1.0, 0.0, 0.0);
        f[5] = 0.0;
        assert!(h_function(&f).is_infinite());
    }
}
