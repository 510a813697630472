//! Rollout-semantics tests: the sliding-window feedback mechanism itself
//! (checked against a probe model that records every input it is fed) and
//! shape/length properties over randomized geometry.

use std::cell::RefCell;

use ft_nn::{Layer, ParamMut};
use ft_tensor::Tensor;
use fno_core::rollout::rollout;
use fno_core::{FnoKind, ForecastModel};
use proptest::prelude::*;

/// A deterministic stand-in model: predicts `c_out` frames, each equal to
/// the newest `c_out` input frames plus 1, and records every input tensor
/// the rollout feeds it. The recording is what lets the tests check the
/// *window* semantics instead of re-deriving them.
struct Probe {
    c_in: usize,
    c_out: usize,
    seen: RefCell<Vec<Tensor>>,
}

impl Probe {
    fn new(c_in: usize, c_out: usize) -> Self {
        Probe { c_in, c_out, seen: RefCell::new(Vec::new()) }
    }
}

impl Layer for Probe {
    fn forward(&mut self, _x: &Tensor) -> Tensor {
        unreachable!("rollout only uses inference")
    }
    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        unreachable!("rollout only uses inference")
    }
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamMut<'_>)) {}
    fn param_count(&self) -> usize {
        0
    }
}

impl ForecastModel for Probe {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.seen.borrow_mut().push(x.clone());
        let dims = x.dims().to_vec();
        assert_eq!(dims[0], 1);
        assert_eq!(dims[1], self.c_in);
        let frame = dims[2] * dims[3];
        // Newest c_out input frames, shifted by +1.
        let newest = &x.data()[(self.c_in - self.c_out) * frame..];
        let out: Vec<f64> = newest.iter().map(|v| v + 1.0).collect();
        Tensor::from_vec(&[1, self.c_out, dims[2], dims[3]], out)
    }
    fn layout(&self) -> FnoKind {
        FnoKind::TwoDChannels
    }
    fn in_channels(&self) -> usize {
        self.c_in
    }
    fn out_channels(&self) -> usize {
        self.c_out
    }
    fn replicate(&self) -> Option<Box<dyn ForecastModel + Send>> {
        unreachable!("rollout never trains")
    }
}

/// The window the model sees at every step must be exactly the newest
/// `c_in` frames of (history ++ frames produced so far) — the Sec. VI-A
/// feedback rule. Checked on a tiny grid where every frame is labeled by
/// its index, so any off-by-one in the drain/extend logic shows up as a
/// wrong label, not a subtle numeric drift.
#[test]
fn window_shifts_over_observed_then_predicted_frames() {
    let (c_in, c_out, h, w) = (4, 2, 3, 3);
    let frame = h * w;
    let model = Probe::new(c_in, c_out);
    // Frame t is the constant field t.
    let history = Tensor::from_fn(&[c_in, h, w], |i| i[0] as f64);
    let horizon = 5;
    let pred = rollout(&model, &history, horizon);

    // With c_out = 2 and horizon = 5, rollout needs ceil(5/2) = 3 calls.
    let seen = model.seen.borrow();
    assert_eq!(seen.len(), 3);

    // Track the full timeline: observed frames 0..4, then predictions.
    // The probe adds 1 to the newest frames, so predicted frame values
    // are: step 1 sees [0,1,2,3] → predicts [3,4] (frames 2+1, 3+1);
    // the timeline in frame-values is 0,1,2,3,3,4,4,5,5,6,…
    let mut timeline: Vec<f64> = (0..c_in).map(|t| t as f64).collect();
    for step in 0..seen.len() {
        let expect: Vec<f64> = timeline[timeline.len() - c_in..].to_vec();
        let input = &seen[step];
        for (f, want) in expect.iter().enumerate() {
            for p in 0..frame {
                assert_eq!(
                    input.data()[f * frame + p],
                    *want,
                    "step {step}: window frame {f} should be the timeline frame valued {want}"
                );
            }
        }
        // Replay the probe's prediction rule to extend the timeline.
        let newest: Vec<f64> = timeline[timeline.len() - c_out..].to_vec();
        timeline.extend(newest.iter().map(|v| v + 1.0));
    }

    // And the returned frames are the first `horizon` predictions.
    let expect_values = [3.0, 4.0, 4.0, 5.0, 5.0];
    assert_eq!(pred.dims(), &[horizon, h, w]);
    for t in 0..horizon {
        for p in 0..frame {
            assert_eq!(pred.data()[t * frame + p], expect_values[t]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any window geometry and horizon, a rollout of length N returns
    /// exactly N frames of the right spatial shape, and the number of
    /// model evaluations is the minimal ceil(N / c_out).
    #[test]
    fn rollout_of_length_n_yields_n_wellformed_frames(
        c_out in 1usize..6,
        extra_in in 0usize..4,
        h in 2usize..6,
        w in 2usize..6,
        horizon in 1usize..12,
    ) {
        let c_in = c_out + extra_in;
        let model = Probe::new(c_in, c_out);
        let history = Tensor::from_fn(&[c_in, h, w], |i| {
            (i[0] as f64 * 0.31 + i[1] as f64 * 0.7 - i[2] as f64 * 0.11).sin()
        });
        let pred = rollout(&model, &history, horizon);
        prop_assert_eq!(pred.dims(), &[horizon, h, w]);
        prop_assert_eq!(pred.len(), horizon * h * w);
        prop_assert!(pred.all_finite());
        prop_assert_eq!(model.seen.borrow().len(), horizon.div_ceil(c_out));
    }
}
