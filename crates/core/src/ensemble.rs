//! Ensemble forecasting: spread-aware rollouts for chaotic flows.
//!
//! Sec. IV establishes that beyond the Lyapunov time a deterministic
//! forecast is meaningless — operational practice (the weather/climate
//! setting the paper's introduction motivates) therefore runs *ensembles*:
//! perturb the initial history within the observation uncertainty, roll
//! each member out, and report the member mean with its spread. The spread
//! doubles as a data-driven predictability estimate: it grows with the
//! flow's Lyapunov exponent until it saturates at climatological variance.

use ft_tensor::Tensor;

use crate::model::ForecastModel;
use crate::rollout::rollout;

/// An ensemble forecast: per-frame mean and spread over members.
#[derive(Clone, Debug)]
pub struct EnsembleForecast {
    /// Member-mean prediction, `[horizon, H, W]`.
    pub mean: Tensor,
    /// Per-frame ensemble spread: RMS deviation of members from the mean.
    pub spread: Vec<f64>,
    /// Number of members.
    pub members: usize,
}

/// Rolls `members` perturbed copies of `history` forward and aggregates.
///
/// Member `m > 0` perturbs every history frame with a deterministic smooth
/// field of L2 amplitude `delta0` (member 0 is unperturbed), mirroring the
/// twin-trajectory protocol of Sec. IV. Members run concurrently, one
/// pool task each in a `rayon::scope`; each lands in its own slot and the
/// aggregation runs in member order, so the forecast is the same bit for
/// bit at any pool width.
pub fn ensemble_rollout<M: ForecastModel + Sync>(
    model: &M,
    history: &Tensor,
    horizon: usize,
    members: usize,
    delta0: f64,
) -> EnsembleForecast {
    assert!(members >= 1, "need at least one member");
    assert!(delta0 >= 0.0, "perturbation amplitude must be non-negative");
    let dims = history.dims().to_vec();
    let mut frames: Vec<Option<Tensor>> = vec![None; members];
    rayon::scope(|scope| {
        for (m, slot) in frames.iter_mut().enumerate() {
            scope.spawn(move |_| *slot = Some(member_rollout(model, history, horizon, delta0, m)));
        }
    });
    let frames: Vec<Tensor> =
        frames.into_iter().map(|f| f.expect("every member's task has run")).collect();

    // Mean over members.
    let mut mean = Tensor::zeros(frames[0].dims());
    for f in &frames {
        mean.add_scaled(f, 1.0 / members as f64);
    }

    // Per-frame RMS spread around the mean.
    let frame_len: usize = dims[1..].iter().product();
    let mut spread = vec![0.0f64; horizon];
    if members > 1 {
        for f in &frames {
            for (t, s) in spread.iter_mut().enumerate() {
                let d = f.slice_axis0(t, 1).sub(&mean.slice_axis0(t, 1));
                *s += d.dot(&d);
            }
        }
        for s in &mut spread {
            *s = (*s / (members as f64 * frame_len as f64)).sqrt();
        }
    }

    EnsembleForecast { mean, spread, members }
}

/// Member `m`'s roll-out: the unperturbed history for member 0.
fn member_rollout<M: ForecastModel>(
    model: &M,
    history: &Tensor,
    horizon: usize,
    delta0: f64,
    m: usize,
) -> Tensor {
    let hist = if m == 0 { history.clone() } else { perturb_history(history, delta0, m as u64) };
    rollout(model, &hist, horizon)
}

/// Perturbs every frame of a history stack with a smooth deterministic
/// field of exact L2 amplitude `delta0` (distinct per member seed).
fn perturb_history(history: &Tensor, delta0: f64, seed: u64) -> Tensor {
    let dims = history.dims().to_vec();
    let frame_dims = &dims[1..];
    let bump = Tensor::from_fn(frame_dims, |idx| {
        let mut acc = 0.0;
        for (axis, &i) in idx.iter().enumerate() {
            acc += ((i as f64 + 1.0) * (axis as f64 + 1.37) * (seed as f64 * 0.61 + 1.0)).sin();
        }
        acc
    });
    let scale = delta0 / bump.norm_l2().max(1e-300);
    let mut out = history.clone();
    for t in 0..dims[0] {
        let mut f = out.slice_axis0(t, 1).reshape(frame_dims);
        f.add_scaled(&bump, scale);
        out.set_axis0(t, &f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FnoConfig, FnoKind};
    use crate::model::Fno;

    fn tiny_model() -> Fno {
        let cfg = FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 4,
            out_channels: 2,
            lifting_channels: 3,
            projection_channels: 3,
            norm: false,
        };
        Fno::new(cfg, 0)
    }

    fn history() -> Tensor {
        Tensor::from_fn(&[4, 8, 8], |i| {
            (i[0] as f64 * 0.3 + i[1] as f64 * 0.5 + i[2] as f64 * 0.7).sin()
        })
    }

    #[test]
    fn single_member_equals_deterministic_rollout() {
        let model = tiny_model();
        let h = history();
        let ens = ensemble_rollout(&model, &h, 5, 1, 1e-3);
        let det = rollout(&model, &h, 5);
        assert!(ens.mean.allclose(&det, 0.0));
        assert!(ens.spread.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn pooled_members_equal_serial_rollouts_bit_for_bit() {
        let model = tiny_model();
        let h = history();
        let (horizon, members) = (3, 4);
        let ens = ensemble_rollout(&model, &h, horizon, members, 1e-2);
        let mut mean = Tensor::zeros(&[horizon, 8, 8]);
        for m in 0..members {
            mean.add_scaled(&member_rollout(&model, &h, horizon, 1e-2, m), 1.0 / members as f64);
        }
        assert_eq!(ft_tensor::bit_hash(ens.mean.data()), ft_tensor::bit_hash(mean.data()));
    }

    #[test]
    fn zero_perturbation_collapses_the_ensemble() {
        let model = tiny_model();
        let h = history();
        let ens = ensemble_rollout(&model, &h, 4, 5, 0.0);
        assert!(ens.spread.iter().all(|&s| s < 1e-14), "{:?}", ens.spread);
    }

    #[test]
    fn spread_is_positive_and_scales_with_delta() {
        let model = tiny_model();
        let h = history();
        let small = ensemble_rollout(&model, &h, 4, 4, 1e-4);
        let large = ensemble_rollout(&model, &h, 4, 4, 1e-2);
        assert!(small.spread.iter().all(|&s| s > 0.0));
        for (s, l) in small.spread.iter().zip(&large.spread) {
            assert!(l > s, "larger δ₀ must widen the spread: {s} vs {l}");
        }
    }

    #[test]
    fn members_are_deterministic() {
        let model = tiny_model();
        let h = history();
        let a = ensemble_rollout(&model, &h, 3, 4, 1e-3);
        let b = ensemble_rollout(&model, &h, 3, 4, 1e-3);
        assert!(a.mean.allclose(&b.mean, 0.0));
        assert_eq!(a.spread, b.spread);
    }
}
