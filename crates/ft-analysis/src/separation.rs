//! Separation-from-initial-condition measures (Figs. 2 and 3).

use ft_tensor::ops::correlation;
use ft_tensor::Tensor;

/// Fig. 2: relative L2 separation of each snapshot from the initial one,
/// `‖ω(t) − ω(0)‖₂ / ‖ω(0)‖₂`, for a trajectory of shape `[T, …]`.
pub fn l2_separation_from_initial(traj: &Tensor) -> Vec<f64> {
    let t = traj.dims()[0];
    assert!(t > 0, "empty trajectory");
    let first = traj.index_axis0(0);
    let norm0 = first.norm_l2().max(1e-300);
    (0..t)
        .map(|i| traj.index_axis0(i).sub(&first).norm_l2() / norm0)
        .collect()
}

/// Fig. 3: normalized projection (Pearson correlation coefficient) of each
/// snapshot on the initial one, for a trajectory of shape `[T, …]`.
pub fn correlation_with_initial(traj: &Tensor) -> Vec<f64> {
    let t = traj.dims()[0];
    assert!(t > 0, "empty trajectory");
    let first = traj.index_axis0(0);
    (0..t)
        .map(|i| correlation(&traj.index_axis0(i), &first))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drifting_trajectory() -> Tensor {
        // Snapshot i = base rotated progressively toward an orthogonal field.
        let n = 16;
        let base = Tensor::from_fn(&[n, n], |i| ((i[0] * 3 + i[1]) as f64 * 0.7).sin());
        let ortho = Tensor::from_fn(&[n, n], |i| ((i[0] + i[1] * 5) as f64 * 1.3).cos());
        let frames: Vec<Tensor> = (0..10)
            .map(|i| {
                let a = 1.0 - i as f64 * 0.1;
                let b = i as f64 * 0.1;
                base.scale(a).add(&ortho.scale(b))
            })
            .collect();
        Tensor::stack(&frames)
    }

    #[test]
    fn separation_starts_at_zero_and_grows() {
        let sep = l2_separation_from_initial(&drifting_trajectory());
        assert_eq!(sep[0], 0.0);
        for w in sep.windows(2) {
            assert!(w[1] >= w[0], "separation must be monotone for this trajectory");
        }
        assert!(sep[9] > 0.1);
    }

    #[test]
    fn correlation_starts_at_one_and_decays() {
        let corr = correlation_with_initial(&drifting_trajectory());
        assert!((corr[0] - 1.0).abs() < 1e-12);
        assert!(corr[9] < corr[0]);
        for c in &corr {
            assert!((-1.0..=1.0 + 1e-12).contains(c));
        }
    }

    #[test]
    fn identical_frames_stay_correlated() {
        let f = Tensor::from_fn(&[8, 8], |i| (i[0] + i[1]) as f64);
        let traj = Tensor::stack(&[f.clone(), f.clone(), f]);
        let corr = correlation_with_initial(&traj);
        for c in corr {
            assert!((c - 1.0).abs() < 1e-12);
        }
        let sep = l2_separation_from_initial(&traj);
        for s in sep {
            assert!(s.abs() < 1e-12);
        }
    }
}
