//! `paper256`: Table I "2D FNO + Channels (10), w8" at 256² on seeded
//! synthetic fields. An autoregressive rollout phase, then batch-2
//! training steps. Few, large calls: the FFT (17 of 129 half-spectrum
//! columns kept), the 256-wide MLPs and activation memory dominate.

use std::time::Instant;

use fno_core::{rollout, Fno, ForecastModel, TrainConfig, Trainer};
use ft_data::Pair;
use ft_nn::Layer;
use ft_tensor::Tensor;

use crate::common::{paper_config, synthetic_frames, Headline, Report};
use crate::layers::Shape;
use crate::stats::trimmed_mean;
use crate::Workload;

pub const PAPER_GRID: usize = 256;
pub const PAPER_BATCH: usize = 2;
/// Most rounds of rollout then training per run; each round takes several
/// seconds, so a short run (the traced run's halves) does fewer.
const PAPER_ROUNDS: usize = 3;
/// Table I parameter count of the configuration.
const TABLE1_PARAMS: usize = 288_562;

pub struct Paper256 {
    model: Option<Fno>,
    history: Tensor,
    pairs: Vec<Pair>,
    seed: u64,
    /// Output of the first timed rollout call, checked in `verify`.
    first_rollout: Option<Tensor>,
}

impl Workload for Paper256 {
    fn setup(seed: u64) -> Self {
        let frames = synthetic_frames(seed, 21, PAPER_GRID);
        let history = frames.slice_axis0(0, 10);
        let pairs = (0..PAPER_BATCH)
            .map(|k| Pair {
                input: frames.slice_axis0(k, 10),
                target: frames.slice_axis0(k + 10, 10),
            })
            .collect();
        let model = Fno::new(paper_config(), seed);
        // Warm-up: one inference call before the first timed operation.
        let mut warm = history.clone();
        let dims = warm.dims().to_vec();
        warm = warm.reshape(&[1, dims[0], dims[1], dims[2]]);
        std::hint::black_box(model.forward_inference(&warm));
        Paper256 {
            model: Some(model),
            history,
            pairs,
            seed,
            first_rollout: None,
        }
    }

    fn measure(&mut self, seconds: f64, rep: &mut Report) -> Headline {
        let mut model = self.model.take().expect("model present between phases");
        rep.check(
            "paper256: Table I parameter count",
            model.param_count() == TABLE1_PARAMS,
        );
        let mut window = self.history.clone();
        let mut calls_s = Vec::new();
        let mut steps_ms = Vec::new();
        let mut finite = true;
        let rounds = ((seconds / 5.0).round() as usize).clamp(1, PAPER_ROUNDS);
        let round_s = seconds / rounds as f64;
        for _ in 0..rounds {
            rep.calibrate();
            // Autoregressive rollout, ten frames per call, each call
            // continuing from the previous call's output.
            let start = Instant::now();
            let first = calls_s.len();
            while calls_s.len() - first < 2 || start.elapsed().as_secs_f64() < 0.4 * round_s {
                let t0 = Instant::now();
                let out = rollout(&model, &window, 10);
                calls_s.push(t0.elapsed().as_secs_f64());
                finite &= out.all_finite();
                self.first_rollout.get_or_insert_with(|| out.clone());
                window = out;
            }

            // Batch-2 training: two pairs, so one step per epoch.
            let epochs = ((0.6 * round_s / 4.5).round() as usize).max(1);
            let cfg = TrainConfig {
                epochs,
                batch_size: PAPER_BATCH,
                lr: 1e-3,
                seed: self.seed,
                ..Default::default()
            };
            let mut trainer = Trainer::new(model, cfg);
            let report = trainer.train(&self.pairs, &[]);
            model = trainer.into_model();
            steps_ms.extend(report.epochs.iter().map(|e| e.wall_seconds * 1e3));
            rep.failed += report.recoveries.len() as u64;
            finite &= report.train_loss.iter().all(|l| l.is_finite());
        }
        rep.calibrate();
        self.model = Some(model);
        rep.attempted += (10 * calls_s.len() + steps_ms.len()) as u64;
        rep.check(
            "paper256: rollout frames and training losses are finite",
            finite,
        );
        let frames_per_s = 10.0 / trimmed_mean(&calls_s);
        rep.line(format!("rollout.frames_per_s = {frames_per_s:.4} 1/s (ten-frame calls, trimmed mean of {:.3?} s)", calls_s));
        let step_ms = trimmed_mean(&steps_ms);
        rep.line(format!(
            "train.step_ms = {step_ms:.2} ms, train.samples_per_s = {:.4} 1/s (batch-{PAPER_BATCH} steps: {steps_ms:.1?})",
            PAPER_BATCH as f64 * 1e3 / step_ms
        ));
        Headline {
            throughput_per_s: frames_per_s,
            latency_ms: step_ms,
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        // The first rollout call equals one direct inference of the window
        // (the model's ten output channels are the ten frames). The first
        // call ran the untrained seeded model, so rebuild that one.
        let d = self.history.dims().to_vec();
        let first = self.first_rollout.take().expect("measure ran first");
        let x = self.history.clone().reshape(&[1, d[0], d[1], d[2]]);
        let direct = Fno::new(paper_config(), self.seed).forward_inference(&x);
        rep.check(
            "paper256: first rollout call equals forward_inference",
            direct.data() == first.data(),
        );
    }

    fn shape(&self) -> Shape {
        Shape::new(
            "paper256",
            paper_config(),
            PAPER_GRID,
            PAPER_BATCH,
            self.seed,
        )
    }
}
