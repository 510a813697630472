//! Maximum Lyapunov exponent estimation from twin trajectories (Fig. 4).
//!
//! Following Sec. IV of the paper: two initial conditions A and B with
//! separation `δx₀ = ‖x_A(0) − x_B(0)‖₂`, tracked over time. At each sample
//! `t_i` the finite-time exponent is `λ_i = (1/t_i) ln(δx(t_i)/δx₀)` and the
//! estimate is the time-weighted average of Eq. (1):
//! `Λ = Σ λ_i t_i / Σ t_i`, with Lyapunov time `T_L = 1/Λ`.

use ft_tensor::Tensor;

/// Result of a Lyapunov-exponent estimation.
#[derive(Clone, Debug)]
pub struct LyapunovEstimate {
    /// Finite-time exponents `λ_i` at each sample time.
    pub lambda_i: Vec<f64>,
    /// Sample times `t_i` (strictly positive).
    pub times: Vec<f64>,
    /// Eq. (1): time-weighted average exponent `Σ λ_i t_i / Σ t_i`.
    pub lambda: f64,
}

impl LyapunovEstimate {
    /// Lyapunov time `T_L = 1/Λ` (infinite for non-chaotic Λ ≤ 0).
    pub fn lyapunov_time(&self) -> f64 {
        if self.lambda > 0.0 {
            1.0 / self.lambda
        } else {
            f64::INFINITY
        }
    }
}

/// Computes Eq. (1) from a sampled separation history.
///
/// `separations[i]` is `δx(t_i)` at time `times[i] > 0`; `delta0` is the
/// initial separation. Entries with non-finite or non-positive separation
/// are skipped (the trajectories have fully merged or blown up there).
pub fn lyapunov_exponent(times: &[f64], separations: &[f64], delta0: f64) -> LyapunovEstimate {
    assert_eq!(times.len(), separations.len(), "length mismatch");
    assert!(delta0 > 0.0, "initial separation must be positive");
    let mut lambda_i = Vec::with_capacity(times.len());
    let mut kept_times = Vec::with_capacity(times.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (&t, &d) in times.iter().zip(separations) {
        // NaN-aware filtering: a NaN time or separation must be skipped,
        // so compare through `partial_cmp` rather than negated operators.
        let positive = |v: f64| matches!(v.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater));
        if !positive(t) || !positive(d) || !d.is_finite() {
            continue;
        }
        let l = (d / delta0).ln() / t;
        lambda_i.push(l);
        kept_times.push(t);
        num += l * t;
        den += t;
    }
    let lambda = if den > 0.0 { num / den } else { 0.0 };
    LyapunovEstimate { lambda_i, times: kept_times, lambda }
}

/// Perturbs a field so that the L2 distance to the original is exactly
/// `delta0`, using a deterministic smooth bump (seedless, reproducible).
pub fn perturb_field(field: &Tensor, delta0: f64) -> Tensor {
    let dims = field.dims().to_vec();
    let bump = Tensor::from_fn(&dims, |idx| {
        let mut acc = 0.0;
        for (axis, &i) in idx.iter().enumerate() {
            acc += ((i as f64 + 1.0) * (axis as f64 + 1.37)).sin();
        }
        acc
    });
    let norm = bump.norm_l2().max(1e-300);
    field.add(&bump.scale(delta0 / norm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_exponential_separation_recovers_lambda() {
        // δ(t) = δ0 e^{0.7 t} must give Λ = 0.7 exactly at every sample.
        let delta0 = 1e-2;
        let times: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
        let seps: Vec<f64> = times.iter().map(|&t| delta0 * (0.7 * t).exp()).collect();
        let est = lyapunov_exponent(&times, &seps, delta0);
        assert!((est.lambda - 0.7).abs() < 1e-12);
        for l in &est.lambda_i {
            assert!((l - 0.7).abs() < 1e-12);
        }
        assert!((est.lyapunov_time() - 1.0 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn saturation_pulls_estimate_down() {
        // Once separation saturates at the attractor size, later λ_i shrink;
        // the weighted average must fall below the early-time rate.
        let delta0 = 1e-2;
        let times: Vec<f64> = (1..=40).map(|i| i as f64 * 0.1).collect();
        let seps: Vec<f64> = times
            .iter()
            .map(|&t| (delta0 * (1.5 * t).exp()).min(0.5))
            .collect();
        let est = lyapunov_exponent(&times, &seps, delta0);
        assert!(est.lambda < 1.5);
        assert!(est.lambda > 0.0);
    }

    #[test]
    fn non_chaotic_gives_infinite_lyapunov_time() {
        let delta0 = 1e-2;
        let times = vec![0.5, 1.0, 1.5];
        let seps = vec![delta0 * 0.9, delta0 * 0.8, delta0 * 0.7];
        let est = lyapunov_exponent(&times, &seps, delta0);
        assert!(est.lambda < 0.0);
        assert!(est.lyapunov_time().is_infinite());
    }

    #[test]
    fn degenerate_samples_are_skipped() {
        let delta0 = 1e-2;
        let times = vec![0.0, 1.0, 2.0];
        let seps = vec![delta0, delta0 * 3.0, f64::NAN];
        let est = lyapunov_exponent(&times, &seps, delta0);
        assert_eq!(est.lambda_i.len(), 1);
        assert!((est.lambda - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn perturb_field_has_exact_norm() {
        let f = Tensor::from_fn(&[8, 8], |i| (i[0] * i[1]) as f64 * 0.1);
        let g = perturb_field(&f, 1e-2);
        let d = g.sub(&f).norm_l2();
        assert!((d - 1e-2).abs() < 1e-14);
    }
}
