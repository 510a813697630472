//! `train-smoke32`: the ROADMAP training configuration on spectral-solver
//! data. Many small parallel calls per step, so pool fan-out, replica
//! sync, tree reduction and Adam dominate; the FFT does little.

use std::process::Command;
use std::time::Instant;

use fno_core::{rollout, Fno, TrainConfig, Trainer};
use ft_data::{Pair, TurbulenceDataset};

use crate::common::{
    smoke_config, smoke_dataset_config, smoke_pairs, Headline, Report, ROUNDS, SMOKE_BATCH,
    SMOKE_LR,
};
use crate::layers::Shape;
use crate::stats::{median, ms_since, tail_line, trimmed_mean};
use crate::Workload;

/// Mean training loss of the last epoch of [`canonical_loss`] on the
/// seed-0 inputs, as recorded from a release build on x86-64 (any pool
/// width gives these bits).
pub const REFERENCE_LOSS: f64 = 1.415506285510812;
/// Relative tolerance on [`REFERENCE_LOSS`]: loose enough for a
/// reassociated FFT or a different libm, tight enough to catch a wrong
/// gradient.
pub const REFERENCE_RTOL: f64 = 1e-8;

/// Frames forecast per timed rollout of the trained model.
const ROLLOUT_FRAMES: usize = 10;

pub struct TrainSmoke {
    pairs: Vec<Pair>,
    model: Option<Fno>,
    seed: u64,
    epoch_s: f64,
}

/// Fixed training run on the seed-0 inputs, independent of `--seed`:
/// two epochs at batch 8. Returns the last epoch's mean loss and the
/// median per-epoch throughput.
pub fn canonical_run(epochs: usize) -> (f64, f64) {
    let pairs = smoke_pairs(&TurbulenceDataset::generate(smoke_dataset_config(0)));
    let cfg = TrainConfig {
        epochs,
        batch_size: SMOKE_BATCH,
        lr: SMOKE_LR,
        ..Default::default()
    };
    let report = Trainer::new(Fno::new(smoke_config(), 7), cfg).train(&pairs, &[]);
    let rates: Vec<f64> = report.epochs.iter().map(|e| e.samples_per_sec).collect();
    (
        *report.train_loss.last().expect("at least one epoch"),
        median(&rates),
    )
}

/// Runs [`canonical_run`] in a child process at pool width `width`.
pub fn canonical_in_child(width: usize, epochs: usize) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child-canonical", &width.to_string(), &epochs.to_string()])
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    // The child prints the loss as its raw bits, then the rate.
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace();
    let bits = it.next().and_then(|v| v.parse::<u64>().ok());
    let rate = it.next().and_then(|v| v.parse::<f64>().ok());
    match (out.status.success(), bits, rate) {
        (true, Some(bits), Some(rate)) => Ok((f64::from_bits(bits), rate)),
        _ => Err(format!("child at width {width} failed: {text}")),
    }
}

impl Workload for TrainSmoke {
    fn setup(seed: u64) -> Self {
        let pairs = smoke_pairs(&TurbulenceDataset::generate(smoke_dataset_config(seed)));
        let model = Fno::new(smoke_config(), seed);
        // Warm-up: one epoch, which also sizes the measured phase.
        let t0 = Instant::now();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: SMOKE_BATCH,
            lr: SMOKE_LR,
            seed,
            ..Default::default()
        };
        let mut trainer = Trainer::new(model, cfg);
        trainer.train(&pairs, &[]);
        let epoch_s = t0.elapsed().as_secs_f64();
        TrainSmoke {
            pairs,
            model: Some(trainer.into_model()),
            seed,
            epoch_s,
        }
    }

    fn measure(&mut self, seconds: f64, rep: &mut Report) -> Headline {
        let mut model = self.model.take().expect("model present between phases");
        let mut epoch_s = Vec::new();
        let mut epochs = 0usize;
        let mut lat = Vec::new();
        let mut finite = true;
        let round_s = seconds / ROUNDS as f64;
        for _ in 0..ROUNDS {
            rep.calibrate();
            // Training: one Trainer::train call filling 70% of the round.
            let n = ((0.7 * round_s / self.epoch_s).round() as usize).max(1);
            let cfg = TrainConfig {
                epochs: n,
                batch_size: SMOKE_BATCH,
                lr: SMOKE_LR,
                seed: self.seed,
                ..Default::default()
            };
            let mut trainer = Trainer::new(model, cfg);
            let report = trainer.train(&self.pairs, &[]);
            model = trainer.into_model();
            epoch_s.extend(report.epochs.iter().map(|e| e.wall_seconds));
            epochs += n;
            rep.failed += report.recoveries.len() as u64;
            finite &= report.train_loss.iter().all(|l| l.is_finite());

            // Forecasting: 10-frame rollouts of the trained model from
            // rotating windows, for the rest of the round.
            let start = Instant::now();
            let first = lat.len();
            while lat.len() - first < 5 || start.elapsed().as_secs_f64() < 0.3 * round_s {
                let history = &self.pairs[lat.len() % self.pairs.len()].input;
                let t0 = Instant::now();
                let out = rollout(&model, history, ROLLOUT_FRAMES);
                lat.push(ms_since(t0));
                finite &= out.all_finite();
            }
        }
        rep.calibrate();
        self.model = Some(model);
        rep.attempted += (epochs * self.pairs.len().div_ceil(SMOKE_BATCH) + lat.len()) as u64;
        rep.check(
            "train-smoke32: training losses and rollouts are finite",
            finite,
        );
        let throughput = self.pairs.len() as f64 / trimmed_mean(&epoch_s);
        rep.line(format!(
            "train.samples_per_s = {throughput:.3} 1/s ({epochs} epochs of {} samples at batch {SMOKE_BATCH}, trimmed mean epoch time)",
            self.pairs.len()
        ));
        let latency = trimmed_mean(&lat);
        rep.line(format!(
            "rollout.latency_ms = {latency:.4} ms trimmed mean, p50 {:.4} ms ({ROLLOUT_FRAMES} frames per call, n={})",
            median(&lat),
            lat.len()
        ));
        tail_line(rep, "rollout.latency", &lat);
        Headline {
            throughput_per_s: throughput,
            latency_ms: latency,
        }
    }

    fn verify(&mut self, rep: &mut Report) {
        let (loss_n, _) = canonical_run(2);
        match canonical_in_child(1, 2) {
            Ok((loss_1, _)) => {
                rep.line(format!(
                    "canonical loss: width {} = {loss_n:e} ({:#018x}), width 1 = {loss_1:e} ({:#018x}), reference {REFERENCE_LOSS:e}",
                    rayon::current_num_threads(),
                    loss_n.to_bits(),
                    loss_1.to_bits()
                ));
                rep.check(
                    "train-smoke32: loss bit-identical at width 1 and width nproc",
                    loss_1.to_bits() == loss_n.to_bits(),
                );
            }
            Err(e) => {
                rep.line(e);
                rep.check("train-smoke32: width-1 child ran", false);
            }
        }
        rep.check(
            "train-smoke32: canonical loss matches the recorded reference",
            ((loss_n - REFERENCE_LOSS) / REFERENCE_LOSS).abs() <= REFERENCE_RTOL,
        );
    }

    fn shape(&self) -> Shape {
        Shape::new(
            "train-smoke32",
            smoke_config(),
            crate::common::SMOKE_GRID,
            SMOKE_BATCH,
            self.seed,
        )
    }
}
