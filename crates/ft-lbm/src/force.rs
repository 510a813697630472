//! Body forces for the lattice Boltzmann solver (Guo et al. 2002 scheme),
//! enabling the forced-turbulence extension the paper points to.
//!
//! The Guo scheme adds a population source
//! `F_i = w_i (1 − β) [ (c_i − u)/c_s² + (c_i·u) c_i / c_s⁴ ] · F`
//! to the post-collision state and shifts the velocity used in the
//! equilibrium (and reported to observers) by `F/(2ρ)`, which removes the
//! discrete-lattice error terms to second order.

use ft_tensor::Tensor;

/// A stationary body-force field `(f_x, f_y)` per grid cell.
#[derive(Clone, Debug)]
pub struct BodyForce {
    /// x-component, `[n, n]`.
    pub fx: Tensor,
    /// y-component, `[n, n]`.
    pub fy: Tensor,
}

impl BodyForce {
    /// Spatially uniform force.
    pub fn uniform(n: usize, fx: f64, fy: f64) -> Self {
        BodyForce { fx: Tensor::full(&[n, n], fx), fy: Tensor::full(&[n, n], fy) }
    }

    /// Kolmogorov force `A sin(2π k y / n) x̂` — the classical shear forcing.
    pub fn kolmogorov(n: usize, k: usize, amplitude: f64) -> Self {
        let fx = Tensor::from_fn(&[n, n], |i| {
            amplitude * (2.0 * std::f64::consts::PI * k as f64 * i[0] as f64 / n as f64).sin()
        });
        BodyForce { fx, fy: Tensor::zeros(&[n, n]) }
    }
}

/// Guo population source for one cell.
///
/// `beta = ω/2` is the collision's over-relaxation parameter; `u` must be
/// the force-shifted velocity `(j + F/2)/ρ`.
#[inline]
pub fn guo_source(beta: f64, ux: f64, uy: f64, fx: f64, fy: f64) -> [f64; 9] {
    use crate::lattice::D2Q9;
    let inv_cs2 = 1.0 / D2Q9::CS2;
    let inv_cs4 = inv_cs2 * inv_cs2;
    let pref = 1.0 - beta;
    let mut out = [0.0f64; 9];
    for i in 0..9 {
        let cx = D2Q9::CX[i] as f64;
        let cy = D2Q9::CY[i] as f64;
        let cu = cx * ux + cy * uy;
        let gx = (cx - ux) * inv_cs2 + cu * cx * inv_cs4;
        let gy = (cy - uy) * inv_cs2 + cu * cy * inv_cs4;
        out[i] = pref * D2Q9::W[i] * (gx * fx + gy * fy);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::D2Q9;

    #[test]
    fn source_moments_carry_the_force() {
        // Σ F_i = 0 (mass-neutral) and Σ F_i c_i = (1 − β) F (momentum input).
        let beta = 0.9;
        let (ux, uy) = (0.03, -0.01);
        let (fx, fy) = (1e-4, -2e-4);
        let s = guo_source(beta, ux, uy, fx, fy);
        let mass: f64 = s.iter().sum();
        let mut jx = 0.0;
        let mut jy = 0.0;
        for i in 0..9 {
            jx += s[i] * D2Q9::CX[i] as f64;
            jy += s[i] * D2Q9::CY[i] as f64;
        }
        assert!(mass.abs() < 1e-18, "mass neutrality: {mass}");
        assert!((jx - (1.0 - beta) * fx).abs() < 1e-15);
        assert!((jy - (1.0 - beta) * fy).abs() < 1e-15);
    }

    #[test]
    fn constructors() {
        let u = BodyForce::uniform(8, 1e-5, 0.0);
        assert_eq!(u.fx.at(&[3, 4]), 1e-5);
        let k = BodyForce::kolmogorov(16, 2, 1e-4);
        assert!(k.fy.norm_l2() == 0.0);
        assert!(k.fx.mean().abs() < 1e-12, "zero-mean shear forcing");
    }
}
