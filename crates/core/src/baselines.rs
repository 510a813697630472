//! Non-neural forecasting baselines.
//!
//! Sec. IV of the paper warns that a forecast is only meaningful if it
//! beats trivial predictors: "one pitfall is to make extremely short time
//! predictions when the fields have evolved by such a tiny amount that even
//! the initial condition would be an acceptable prediction". These
//! baselines operationalize that check:
//!
//! * [`persistence_rollout`] — predicts the last observed frame forever
//!   (the "initial condition is acceptable" straw man);
//! * [`SpectralLinearModel`] — a dynamic-mode-decomposition-style per-mode
//!   linear propagator: each retained Fourier mode evolves as
//!   `ẑ(t+Δ) = λ_k ẑ(t)` with `λ_k` fitted by least squares over the
//!   training trajectories. This is the strongest *linear* competitor to
//!   the FNO on a quasi-linear decaying flow, and decaying turbulence at
//!   moderate amplitude is close enough to linear that beating it is a
//!   meaningful bar.

use ft_fft::{irfftn, rfftn};
use ft_tensor::{CTensor, Complex64, Tensor};

/// Predicts `horizon` frames by repeating the newest frame of `history`
/// (shape `[T, H, W]`).
pub fn persistence_rollout(history: &Tensor, horizon: usize) -> Tensor {
    let t = history.dims()[0];
    assert!(t > 0, "empty history");
    let last = history.index_axis0(t - 1);
    let frames: Vec<Tensor> = (0..horizon).map(|_| last.clone()).collect();
    Tensor::stack(&frames)
}

/// A per-Fourier-mode linear propagator fitted to one-step transitions.
pub struct SpectralLinearModel {
    n: usize,
    /// Retained modes per axis (kx signed block, ky half-spectrum block).
    modes: usize,
    /// Fitted one-step multiplier per retained spectral bin, stored on the
    /// `[n, n/2+1]` half-spectrum grid (unused bins hold 1).
    lambda: CTensor,
}

impl SpectralLinearModel {
    /// Fits per-mode multipliers from consecutive frame pairs of the given
    /// scalar trajectories (`[T, H, W]` each): for each retained bin,
    /// `λ = Σ conj(ẑ_t) ẑ_{t+1} / Σ |ẑ_t|²` over all transitions.
    pub fn fit(trajectories: &[Tensor], modes: usize) -> Self {
        assert!(!trajectories.is_empty(), "no trajectories to fit");
        let dims = trajectories[0].dims();
        assert_eq!(dims.len(), 3, "expected [T, H, W] trajectories");
        let n = dims[1];
        assert_eq!(dims[2], n, "square grids only");
        let half = n / 2 + 1;

        let mut num = CTensor::zeros(&[n, half]);
        let mut den = vec![0.0f64; n * half];
        for traj in trajectories {
            assert_eq!(&traj.dims()[1..], &[n, n], "inconsistent grid");
            let t = traj.dims()[0];
            let spec = rfftn(traj, 2); // [T, n, half] (batched over frames)
            for step in 0..t.saturating_sub(1) {
                let a = spec.data()[step * n * half..(step + 1) * n * half].to_vec();
                let b = spec.data()[(step + 1) * n * half..(step + 2) * n * half].to_vec();
                for (idx, (za, zb)) in a.iter().zip(&b).enumerate() {
                    num.data_mut()[idx] += za.conj() * *zb;
                    den[idx] += za.norm_sqr();
                }
            }
        }
        let mut lambda = CTensor::from_vec(&[n, half], vec![Complex64::ONE; n * half]);
        let e = Self::effective(n, modes);
        for (kx, ky) in Self::kept_bins(n, e) {
            let idx = kx * half + ky;
            if den[idx] > 1e-300 {
                lambda.data_mut()[idx] = num.data()[idx] / den[idx];
            }
        }
        SpectralLinearModel { n, modes, lambda }
    }

    fn effective(n: usize, modes: usize) -> usize {
        modes.min(n / 2)
    }

    /// Bins inside the retained low-mode block (both kx signs, ky ≥ 0).
    fn kept_bins(n: usize, e: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for kx in 0..e {
            for ky in 0..=e.min(n / 2) {
                out.push((kx, ky));
                if kx > 0 {
                    out.push((n - kx, ky));
                }
            }
        }
        out
    }

    /// Rolls the linear model forward from the newest frame of `history`
    /// (shape `[T, H, W]`), producing `[horizon, H, W]`. Modes outside the
    /// retained block are damped to zero after one step (the model carries
    /// no information about them).
    pub fn rollout(&self, history: &Tensor, horizon: usize) -> Tensor {
        let t = history.dims()[0];
        assert!(t > 0, "empty history");
        assert_eq!(&history.dims()[1..], &[self.n, self.n], "grid mismatch");
        let half = self.n / 2 + 1;
        let last = history.index_axis0(t - 1);
        let mut spec = rfftn(&last, 2);

        // Zero the unmodeled bins once, then iterate the diagonal map.
        let e = Self::effective(self.n, self.modes);
        let kept: std::collections::HashSet<usize> = Self::kept_bins(self.n, e)
            .into_iter()
            .map(|(kx, ky)| kx * half + ky)
            .collect();
        for (idx, z) in spec.data_mut().iter_mut().enumerate() {
            if !kept.contains(&idx) {
                *z = Complex64::ZERO;
            }
        }

        let mut frames = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            for (z, &l) in spec.data_mut().iter_mut().zip(self.lambda.data()) {
                *z *= l;
            }
            frames.push(irfftn(&spec, self.n, 2));
        }
        Tensor::stack(&frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn persistence_repeats_last_frame() {
        let hist = Tensor::from_fn(&[3, 4, 4], |i| (i[0] * 100 + i[1] * 4 + i[2]) as f64);
        let pred = persistence_rollout(&hist, 5);
        assert_eq!(pred.dims(), &[5, 4, 4]);
        for k in 0..5 {
            assert!(pred.index_axis0(k).allclose(&hist.index_axis0(2), 0.0));
        }
    }

    /// Builds a trajectory whose modes decay/rotate exactly linearly:
    /// z(t) = z(0)·λ^t with λ = ρ e^{iθ} per mode.
    fn linear_trajectory(n: usize, t: usize, rho: f64, theta: f64) -> Tensor {
        let frames: Vec<Tensor> = (0..t)
            .map(|step| {
                let amp = rho.powi(step as i32);
                let phase = theta * step as f64;
                Tensor::from_fn(&[n, n], |i| {
                    let x = 2.0 * PI * i[1] as f64 / n as f64;
                    amp * (2.0 * x + phase).cos()
                })
            })
            .collect();
        Tensor::stack(&frames)
    }

    #[test]
    fn linear_model_is_exact_on_linear_dynamics() {
        let n = 16;
        let traj = linear_trajectory(n, 12, 0.93, 0.4);
        let model = SpectralLinearModel::fit(std::slice::from_ref(&traj), 4);
        let hist = traj.slice_axis0(0, 6);
        let pred = model.rollout(&hist, 6);
        for k in 0..6 {
            let truth = traj.index_axis0(6 + k);
            let err = pred.index_axis0(k).sub(&truth).norm_l2() / truth.norm_l2();
            assert!(err < 1e-8, "frame {k}: err {err}");
        }
    }

    #[test]
    fn linear_model_beats_persistence_on_decaying_mode() {
        let n = 16;
        let traj = linear_trajectory(n, 12, 0.85, 0.0);
        let model = SpectralLinearModel::fit(std::slice::from_ref(&traj), 4);
        let hist = traj.slice_axis0(0, 6);
        let horizon = 5;
        let truth = traj.slice_axis0(6, horizon);
        let lin = model.rollout(&hist, horizon);
        let per = persistence_rollout(&hist, horizon);
        let lin_err = lin.sub(&truth).norm_l2();
        let per_err = per.sub(&truth).norm_l2();
        assert!(lin_err < 0.05 * per_err, "linear {lin_err} vs persistence {per_err}");
    }

    #[test]
    fn unmodeled_bins_are_zeroed_not_propagated() {
        let n = 16;
        // History has high-mode content; the model only retains 2 modes.
        let traj = Tensor::from_fn(&[4, n, n], |i| {
            let x = 2.0 * PI * i[2] as f64 / n as f64;
            (6.0 * x).sin()
        });
        let model = SpectralLinearModel::fit(std::slice::from_ref(&traj), 2);
        let pred = model.rollout(&traj, 2);
        assert!(pred.norm_l2() < 1e-9, "high modes must not leak through");
    }
}
