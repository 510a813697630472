//! Autoregressive rollout, and the one mapping between frames and model
//! tensors.
//!
//! **Layout.** Outside the model, time is a `[F, H, W]` block of frames,
//! oldest first. [`stack`] and [`unstack`] are the only code that maps it
//! to and from the model's batch tensor (Sec. V): `[B, F, H, W]` for the 2D
//! FNO, whose channels are the frames, and `[B, 1, H, W, F]` for the 3D
//! FNO, whose trailing Fourier axis is time. Training batches, rollouts,
//! the hybrid scheme and the serving engine all go through them.
//!
//! **Window.** A model maps 10 input snapshots to `k ≤ 10` output
//! snapshots. To predict further, the newest frames (observed + predicted)
//! are fed back in — Sec. VI-A's "used iteratively by using the outputs of
//! the previous time as the input". The compound-error effect of Fig. 5
//! (small `k` → more iterations → more error accumulation at late frames)
//! falls out of this mechanism. [`Window`] holds that state, and
//! [`Window::advance`] has one rule per variant:
//! - 2D: each model call yields up to `C_out` frames. The window slides
//!   once per call, by the number of frames taken, and the surplus is
//!   discarded.
//! - 3D: each model call yields a whole block, and that block becomes the
//!   window. Frames not yet taken wait in a pending buffer.
//!
//! Observed frames (the hybrid scheme's PDE windows) enter through
//! [`Window::push`].

use ft_tensor::Tensor;

use crate::config::FnoKind;
use crate::model::ForecastModel;

/// Stacks `[F, H, W]` blocks of one shape into a model tensor:
/// `[B, F, H, W]` for [`FnoKind::TwoDChannels`], `[B, 1, H, W, F]` for
/// [`FnoKind::ThreeD`].
pub fn stack(kind: FnoKind, blocks: &[&Tensor]) -> Tensor {
    let dims = blocks.first().expect("stack needs at least one block").dims();
    let &[f, h, w] = dims else { panic!("expected [F, H, W] blocks, got {dims:?}") };
    let mut data = Vec::with_capacity(blocks.len() * f * h * w);
    for block in blocks {
        assert_eq!(block.dims(), dims, "blocks must share one shape");
        match kind {
            FnoKind::TwoDChannels => data.extend_from_slice(block.data()),
            FnoKind::ThreeD => data.extend(transposed(block.data(), f, h * w)),
        }
    }
    match kind {
        FnoKind::TwoDChannels => Tensor::from_vec(&[blocks.len(), f, h, w], data),
        FnoKind::ThreeD => Tensor::from_vec(&[blocks.len(), 1, h, w, f], data),
    }
}

/// The inverse of [`stack`]: one `[F, H, W]` block per sample of a model
/// tensor.
pub fn unstack(kind: FnoKind, y: &Tensor) -> Vec<Tensor> {
    let (f, h, w) = match (kind, y.dims()) {
        (FnoKind::TwoDChannels, &[_, f, h, w]) | (FnoKind::ThreeD, &[_, 1, h, w, f]) => (f, h, w),
        (_, dims) => panic!("not a {kind:?} model tensor: {dims:?}"),
    };
    let blocks = y.data().chunks_exact(f * h * w).map(|src| match kind {
        FnoKind::TwoDChannels => src.to_vec(),
        FnoKind::ThreeD => transposed(src, h * w, f).collect(),
    });
    blocks.map(|data| Tensor::from_vec(&[f, h, w], data)).collect()
}

/// `src` read as a row-major `rows × cols` matrix, in column-major order.
fn transposed(src: &[f64], rows: usize, cols: usize) -> impl Iterator<Item = f64> + '_ {
    (0..cols).flat_map(move |j| (0..rows).map(move |i| src[i * cols + j]))
}

/// One model call on one `[F, H, W]` block, returning the predicted block.
fn predict<M: ForecastModel>(kind: FnoKind, model: &M, block: &Tensor) -> Tensor {
    let y = model.infer(&stack(kind, &[block]));
    unstack(kind, &y).pop().expect("one block in, one block out")
}

/// The autoregressive state of one rollout: the newest frames, plus (3D
/// only) predicted frames not yet handed out. See the module docs for the
/// two sliding rules.
#[derive(Debug)]
pub struct Window {
    kind: FnoKind,
    /// The newest frames `[F, H, W]`, oldest first.
    frames: Tensor,
    /// Predicted frames, flattened, that `advance` has not returned yet.
    pending: Vec<f64>,
}

impl Window {
    /// A window over `history` (`[F, H, W]`, oldest first) for a model of
    /// layout `kind`. A 2D model needs `F = C_in`; a 3D model maps blocks
    /// of any length `F`.
    pub fn new(kind: FnoKind, history: &Tensor) -> Self {
        assert_eq!(history.dims().len(), 3, "expected an [F, H, W] history");
        Window { kind, frames: history.clone(), pending: Vec::new() }
    }

    /// Runs `model` until `steps` new frames exist and returns them as
    /// `[steps, H, W]`, oldest first. The window moves on past them, so
    /// consecutive calls continue one trajectory.
    pub fn advance<M: ForecastModel>(&mut self, model: &M, steps: usize) -> Tensor {
        let dims = self.frames.dims().to_vec();
        if self.kind == FnoKind::TwoDChannels {
            assert_eq!(dims[0], model.in_channels(), "history must hold C_in frames");
        }
        let need = steps * dims[1] * dims[2];
        let mut out = Vec::with_capacity(need);
        out.extend(self.pending.drain(..need.min(self.pending.len())));
        while out.len() < need {
            let block = predict(self.kind, model, &self.frames);
            let block = block.data();
            let take = (need - out.len()).min(block.len());
            // 2D keeps only the frames it takes; 3D keeps the whole block,
            // which becomes the window.
            let keep = if self.kind == FnoKind::ThreeD { block.len() } else { take };
            self.slide(&block[..keep]);
            out.extend_from_slice(&block[..take]);
            self.pending.extend_from_slice(&block[take..keep]);
        }
        Tensor::from_vec(&[steps, dims[1], dims[2]], out)
    }

    /// Appends an observed `[H, W]` frame, dropping the oldest. Pending
    /// predictions are dropped too: they came from a window this frame
    /// supersedes.
    pub fn push(&mut self, frame: &Tensor) {
        assert_eq!(frame.dims(), &self.frames.dims()[1..], "frame must be [H, W]");
        self.pending.clear();
        self.slide(frame.data());
    }

    /// Drops the oldest `new.len()` values of the window and appends `new`.
    fn slide(&mut self, new: &[f64]) {
        let win = self.frames.data_mut();
        let kept = win.len() - new.len();
        win.copy_within(new.len().., 0);
        win[kept..].copy_from_slice(new);
    }
}

/// Rolls a trained model forward from `history` (`[C_in, H, W]`, the ten
/// newest frames, oldest first; a `[T, H, W]` block for a 3D model) until
/// `horizon` new frames exist. Returns `[horizon, H, W]`.
pub fn rollout<M: ForecastModel>(model: &M, history: &Tensor, horizon: usize) -> Tensor {
    Window::new(model.layout(), history).advance(model, horizon)
}

/// Per-frame relative L2 error of a predicted rollout against the truth
/// (`pred` and `truth` both `[T, H, W]`). This is the error curve plotted
/// in Figs. 5–7.
pub fn frame_errors(pred: &Tensor, truth: &Tensor) -> Vec<f64> {
    assert_eq!(pred.dims(), truth.dims(), "prediction/truth shape mismatch");
    let t = pred.dims()[0];
    (0..t)
        .map(|i| {
            let p = pred.index_axis0(i);
            let tr = truth.index_axis0(i);
            p.sub(&tr).norm_l2() / tr.norm_l2().max(1e-300)
        })
        .collect()
}

/// 3D FNO prediction: maps a ten-frame block `[T, H, W]` to the next
/// ten-frame block using the space-time model.
pub fn predict_block_3d<M: ForecastModel>(model: &M, block: &Tensor) -> Tensor {
    predict(FnoKind::ThreeD, model, block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FnoConfig;
    use crate::config::FnoKind;
    use crate::model::Fno;

    fn tiny_model(c_in: usize, c_out: usize) -> Fno {
        let cfg = FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: c_in,
            out_channels: c_out,
            lifting_channels: 3,
            projection_channels: 3,
        norm: false,
        };
        Fno::new(cfg, 42)
    }

    fn history(c: usize, n: usize) -> Tensor {
        Tensor::from_fn(&[c, n, n], |i| {
            (i[0] as f64 * 0.1 + i[1] as f64 * 0.3 + i[2] as f64 * 0.7).sin()
        })
    }

    #[test]
    fn rollout_produces_requested_horizon() {
        let model = tiny_model(4, 2);
        let h = history(4, 8);
        for horizon in [1usize, 2, 3, 5, 7] {
            let out = rollout(&model, &h, horizon);
            assert_eq!(out.dims(), &[horizon, 8, 8], "horizon {horizon}");
            assert!(out.all_finite());
        }
    }

    #[test]
    fn rollout_prefix_property() {
        // The first frames of a longer rollout must equal a shorter rollout
        // (the iteration is deterministic and causal).
        let model = tiny_model(4, 2);
        let h = history(4, 8);
        let short = rollout(&model, &h, 2);
        let long = rollout(&model, &h, 6);
        for t in 0..2 {
            assert!(long.index_axis0(t).allclose(&short.index_axis0(t), 1e-12));
        }
    }

    #[test]
    fn single_output_channel_iterates_most() {
        // c_out = 1 must still fill any horizon (one frame per model call).
        let model = tiny_model(4, 1);
        let h = history(4, 8);
        let out = rollout(&model, &h, 5);
        assert_eq!(out.dims(), &[5, 8, 8]);
    }

    #[test]
    fn frame_errors_zero_for_perfect_prediction() {
        let truth = history(3, 8);
        let errs = frame_errors(&truth, &truth);
        assert_eq!(errs.len(), 3);
        assert!(errs.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn stack_places_frames_and_unstack_inverts_it() {
        let blocks = [history(3, 4), history(3, 4).scale(-2.0)];
        let refs: Vec<&Tensor> = blocks.iter().collect();
        let x2 = stack(FnoKind::TwoDChannels, &refs);
        assert_eq!(x2.dims(), &[2, 3, 4, 4]);
        assert_eq!(x2.at(&[1, 2, 1, 3]), blocks[1].at(&[2, 1, 3]));
        let x3 = stack(FnoKind::ThreeD, &refs);
        assert_eq!(x3.dims(), &[2, 1, 4, 4, 3]);
        assert_eq!(x3.at(&[1, 0, 1, 3, 2]), blocks[1].at(&[2, 1, 3]));
        for (kind, x) in [(FnoKind::TwoDChannels, &x2), (FnoKind::ThreeD, &x3)] {
            let back = unstack(kind, x);
            assert_eq!(back.len(), 2);
            for (b, block) in back.iter().zip(&blocks) {
                assert_eq!(b.dims(), block.dims());
                assert_eq!(b.data(), block.data(), "{kind:?}");
            }
        }
    }

    #[test]
    fn pushed_frames_slide_the_window() {
        let model = tiny_model(4, 2);
        let h = history(5, 8); // frames 0..4 as history, frame 4 observed later
        let mut window = Window::new(FnoKind::TwoDChannels, &h.slice_axis0(0, 4));
        window.push(&h.index_axis0(4));
        let direct = rollout(&model, &h.slice_axis0(1, 4), 3);
        assert_eq!(window.advance(&model, 3).data(), direct.data());
    }

    #[test]
    fn predict_block_3d_roundtrips_layout() {
        let cfg = FnoConfig {
            kind: FnoKind::ThreeD,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 1,
            out_channels: 1,
            lifting_channels: 3,
            projection_channels: 3,
        norm: false,
        };
        let model = Fno::new(cfg, 1);
        let block = history(4, 6); // [4, 6, 6] as [T, H, W]
        let out = predict_block_3d(&model, &block);
        assert_eq!(out.dims(), &[4, 6, 6]);
        assert!(out.all_finite());
    }
}
