//! The Sec. VI training loop: relative-L2 loss, Adam, StepLR, mini-batches.
//!
//! Data parallelism: there is one training path. Every mini-batch is
//! sharded per-sample across worker replicas ([`ForecastModel::replicate`])
//! that share the batch's parameter snapshot; the per-sample gradients are
//! reduced in a fixed, index-ordered tree ([`tree_reduce_grads`]) so
//! results are bit-identical for any worker count — see DESIGN.md §13 for
//! the determinism contract.
//!
//! Fault tolerance: the loop snapshots its full state at every epoch
//! boundary, optionally persists it as an `FTC1` checkpoint (see
//! [`crate::checkpoint`]), and guards every optimizer step with a health
//! monitor. A non-finite batch loss or gradient rolls the model and
//! optimizer back to the epoch-start snapshot, halves the learning rate
//! (folded into the scheduler's base rate via [`StepLr::scale_base`], so
//! the next scheduler step cannot revert it), and retries the epoch with
//! the poisoned batch excluded; each such event is recorded in
//! [`TrainReport::recoveries`].

use std::io;
use std::path::Path;
use std::time::Instant;

use ft_data::Pair;
use ft_nn::{Adam, Mse, RelativeL2, StepLr};
use ft_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::{save_periodic, Checkpoint, CheckpointConfig};
use crate::config::FnoKind;
use crate::model::ForecastModel;

/// Epochs completed by any [`Trainer`] in the process; ticks only while
/// `ft-obs` instrumentation is enabled.
static TRAIN_EPOCHS: ft_obs::Counter = ft_obs::Counter::new("train.epochs");
/// Training samples consumed (per-epoch batch sizes summed).
static TRAIN_SAMPLES: ft_obs::Counter = ft_obs::Counter::new("train.samples");
/// Health-monitor rollbacks performed.
static TRAIN_RECOVERIES: ft_obs::Counter = ft_obs::Counter::new("train.recoveries");
/// Distribution of per-batch training losses (finite batches only): the
/// tail quantiles expose straggler batches long before the epoch mean
/// moves.
static BATCH_LOSS: ft_obs::Histogram = ft_obs::Histogram::new("train.batch_loss");
/// End-of-run training throughput (total samples over summed epoch wall
/// time), exported into `BENCH_train.json` and gated one-sided in CI.
static TRAIN_RATE: ft_obs::Gauge = ft_obs::Gauge::new("train.samples_per_sec");

/// Which data-fit loss drives the optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LossKind {
    /// Per-sample relative L2 — the FNO literature's standard objective,
    /// scale-free across samples of different amplitude.
    #[default]
    RelativeL2,
    /// Plain mean-squared error (kept for the loss ablation).
    Mse,
}

/// Training hyperparameters (the knobs swept in Figs. 5–7).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (paper default 0.001).
    pub lr: f64,
    /// StepLR decay factor (paper default 0.5).
    pub scheduler_gamma: f64,
    /// StepLR period in epochs (paper default 100).
    pub scheduler_step: u64,
    /// Shuffle seed (epoch ordering is deterministic given this).
    pub seed: u64,
    /// Data-fit loss.
    pub loss: LossKind,
    /// Global-norm gradient clipping threshold (`None` disables clipping).
    pub grad_clip: Option<f64>,
    /// Evaluate on the held-out pairs every `eval_every` epochs (0 = only
    /// at the end). Enables validation tracking and early stopping.
    pub eval_every: usize,
    /// Stop when the held-out error has not improved for this many
    /// consecutive evaluations (0 disables); the best-seen weights are
    /// restored on exit.
    pub early_stop_patience: usize,
    /// Physics-informed divergence penalty weight (0 disables it). Requires
    /// paired-component pairs (`fno_core::physics::paired_windows`); the
    /// prediction's first half of channels is read as u_x frames and the
    /// second half as u_y frames.
    pub divergence_weight: f64,
    /// How many health-monitor rollbacks (non-finite loss or gradients)
    /// to tolerate before aborting training with the last good weights.
    pub max_recoveries: usize,
    /// Emit a `physics` JSONL record for the first held-out prediction
    /// every this many epochs (0 disables). The prediction's channels are
    /// read as paired components — first half `u_x` frames, second half
    /// `u_y` — and the newest frame of each half is measured; pairs with
    /// an odd channel count or non-square fields are skipped silently.
    /// Only active while `ft-obs` instrumentation is enabled.
    pub probe_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 8,
            lr: 1e-3,
            scheduler_gamma: 0.5,
            scheduler_step: 100,
            seed: 0,
            loss: LossKind::RelativeL2,
            grad_clip: None,
            eval_every: 0,
            early_stop_patience: 0,
            divergence_weight: 0.0,
            max_recoveries: 3,
            probe_every: 0,
        }
    }
}

/// Why the health monitor rolled a training run back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryCause {
    /// The batch loss came back NaN or infinite.
    NonFiniteLoss = 0,
    /// Backpropagation produced a non-finite gradient norm.
    NonFiniteGrad = 1,
}

/// One automatic recovery performed by the training health monitor.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch in which the fault was detected.
    pub epoch: usize,
    /// Batch ordinal (within the epoch's shuffled order) that faulted.
    pub batch: usize,
    /// What tripped the monitor.
    pub cause: RecoveryCause,
    /// Learning rate in effect after the recovery halving.
    pub lr: f64,
}

/// Per-epoch training telemetry, collected unconditionally (it costs one
/// clock read and a push per epoch) and mirrored as a `train_epoch` JSONL
/// record when an `ft-obs` sink is open.
#[derive(Clone, Copy, Debug)]
pub struct EpochMetrics {
    /// Epoch index (global across resumes).
    pub epoch: usize,
    /// Wall-clock seconds this epoch took (including any health-monitor
    /// retries and the periodic checkpoint write).
    pub wall_seconds: f64,
    /// Training samples consumed by the successful pass over the data.
    pub samples: usize,
    /// Throughput of this epoch (`samples / wall_seconds`).
    pub samples_per_sec: f64,
    /// Mean training loss of the epoch.
    pub loss: f64,
    /// Global gradient norm of the epoch's last batch (`NaN` when the
    /// epoch had no surviving batches).
    pub grad_norm: f64,
    /// Learning rate in effect during the epoch.
    pub lr: f64,
}

/// What a training run produced.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Mean one-shot relative-L2 error on the held-out pairs after training.
    pub test_error: f64,
    /// Wall-clock training time in seconds (the Table I "Time" analogue).
    pub wall_seconds: f64,
    /// `(epoch, held-out error)` at every intermediate evaluation.
    pub eval_history: Vec<(usize, f64)>,
    /// Epoch whose weights the returned model carries (differs from the
    /// last epoch when early stopping restored an earlier snapshot).
    pub best_epoch: usize,
    /// Every automatic rollback the health monitor performed. Empty for a
    /// healthy run; when `TrainConfig::max_recoveries` was exhausted the
    /// last entry is the fault that aborted training.
    pub recoveries: Vec<RecoveryEvent>,
    /// Per-epoch wall time, throughput, loss, gradient norm and learning
    /// rate. On a resumed run this covers only the epochs executed by
    /// this call (metrics are not persisted in `FTC1` checkpoints).
    pub epochs: Vec<EpochMetrics>,
}

/// Owns a model and drives its optimization.
pub struct Trainer<M: ForecastModel = crate::model::Fno> {
    model: M,
    cfg: TrainConfig,
    ckpt: Option<CheckpointConfig>,
    resume: Option<Checkpoint>,
}

impl<M: ForecastModel> Trainer<M> {
    /// Wraps a freshly initialized model.
    pub fn new(model: M, cfg: TrainConfig) -> Self {
        Trainer { model, cfg, ckpt: None, resume: None }
    }

    /// Enables periodic full-state checkpointing during [`Trainer::train`].
    pub fn with_checkpointing(mut self, ckpt: CheckpointConfig) -> Self {
        self.ckpt = Some(ckpt);
        self
    }

    /// Loads an `FTC1` checkpoint to continue from. The next
    /// [`Trainer::train`] call restores weights, optimizer moments,
    /// scheduler epoch, RNG state, and histories, then resumes at the
    /// checkpointed epoch — producing bit-identical results to a run that
    /// was never interrupted. Corrupt or truncated files, and files whose
    /// weights do not fit this model tensor by tensor, are rejected here
    /// with `InvalidData`.
    pub fn resume_from(mut self, path: impl AsRef<Path>) -> io::Result<Self> {
        let ck = Checkpoint::load_typed(path)?;
        ck.check_params(&mut self.model)?;
        self.resume = Some(ck);
        Ok(self)
    }

    /// Read access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Runs the full loop and reports losses, held-out error and wall time.
    pub fn train(&mut self, train_pairs: &[Pair], test_pairs: &[Pair]) -> TrainReport {
        assert!(!train_pairs.is_empty(), "no training pairs");
        let _train_span = ft_obs::span("train");
        let start = Instant::now();
        let mut opt = Adam::new(self.cfg.lr);
        let mut sched = StepLr::new(self.cfg.lr, self.cfg.scheduler_gamma, self.cfg.scheduler_step);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let kind = self.model.layout();
        // Spatial resolution of the training data, recorded (informational)
        // in checkpoint metadata. The trailing spatial axis is the grid for
        // both layouts ([C, H, W] and [1, X, Y, T] use square grids).
        let grid = train_pairs[0].input.dims().iter().rev().nth(1).copied().unwrap_or(0) as u64;

        let mut train_loss = Vec::with_capacity(self.cfg.epochs);
        let mut eval_history = Vec::new();
        let mut best: Option<(usize, f64, Vec<ft_nn::ParamValue>)> = None;
        let mut stale = 0usize;
        let mut last_epoch = 0usize;
        let mut recoveries: Vec<RecoveryEvent> = Vec::new();
        let mut epochs: Vec<EpochMetrics> = Vec::new();
        let mut start_epoch = 0usize;

        if let Some(ck) = self.resume.take() {
            ft_nn::restore_params(&mut self.model, &ck.params);
            opt.import_state(ck.adam);
            sched.set_epoch(ck.sched_epoch);
            sched.set_base_scale(ck.lr_scale);
            opt.lr = sched.lr();
            rng = StdRng::from_state(ck.rng_state);
            train_loss = ck.train_loss;
            eval_history = ck.eval_history.iter().map(|&(e, v)| (e as usize, v)).collect();
            best = ck.best.map(|(e, v, snap)| (e as usize, v, snap));
            stale = ck.stale as usize;
            recoveries = ck.recoveries;
            start_epoch = ck.epochs_done as usize;
            last_epoch = start_epoch.saturating_sub(1);
        }

        // Data-parallel worker replicas for batch sharding, built once and
        // re-synced from a parameter snapshot every batch. More replicas
        // than the batch size (or the pool width) would sit idle.
        let worker_cap = rayon::current_num_threads().clamp(1, self.cfg.batch_size.max(1));
        let mut replicas: Vec<Box<dyn ForecastModel + Send>> = (0..worker_cap)
            .map(|_| {
                self.model.replicate().unwrap_or_else(|| {
                    panic!("{} cannot replicate for training", std::any::type_name::<M>())
                })
            })
            .collect();

        'training: for epoch in start_epoch..self.cfg.epochs {
            last_epoch = epoch;
            let _epoch_span = ft_obs::span("epoch");
            let epoch_start = Instant::now();
            let epoch_lr = opt.lr;
            // Shuffle a fresh identity permutation so the epoch's order is a
            // pure function of the RNG state — a checkpointed `rng_state`
            // then reproduces it exactly on resume.
            let mut order: Vec<usize> = (0..train_pairs.len()).collect();
            order.shuffle(&mut rng);
            // Epoch-start snapshot the health monitor rolls back to.
            let guard_params = ft_nn::snapshot_params(&mut self.model);
            let guard_opt = opt.export_state();
            let mut skip: Vec<usize> = Vec::new();
            let (epoch_mean, epoch_samples, epoch_grad_norm) = loop {
                let mut epoch_loss = 0.0;
                let mut samples = 0usize;
                let mut last_grad_norm = f64::NAN;
                let mut fault: Option<(usize, RecoveryCause)> = None;
                for (bi, chunk) in order.chunks(self.cfg.batch_size).enumerate() {
                    if skip.contains(&bi) {
                        continue;
                    }
                    // Per-sample shards against a shared snapshot, then a
                    // fixed-order reduction that leaves the batch gradient
                    // (averaged over the chunk) in the main model's
                    // accumulators.
                    let snap = ft_nn::snapshot_params(&mut self.model);
                    let per_sample = sharded_batch_grads(
                        &mut replicas,
                        &snap,
                        train_pairs,
                        chunk,
                        kind,
                        self.cfg.loss,
                        self.cfg.divergence_weight,
                    );
                    if per_sample.iter().any(|(l, _)| !l.is_finite()) {
                        fault = Some((bi, RecoveryCause::NonFiniteLoss));
                        break;
                    }
                    // Index-ordered loss sum and gradient tree: the
                    // association is a function of the chunk alone, so any
                    // worker count gives the same bits.
                    let mut sum = 0.0;
                    let grads: Vec<Vec<ft_nn::ParamValue>> = per_sample
                        .into_iter()
                        .map(|(l, g)| {
                            sum += l;
                            g.expect("finite sample carries gradients")
                        })
                        .collect();
                    let mut reduced = tree_reduce_grads(grads).expect("non-empty batch");
                    ft_nn::scale_param_values(&mut reduced, 1.0 / chunk.len() as f64);
                    ft_nn::load_grads(&mut self.model, &reduced);
                    let loss = sum / chunk.len() as f64;
                    BATCH_LOSS.observe(loss);
                    let grad_norm = ft_nn::global_grad_norm(&mut self.model);
                    if !grad_norm.is_finite() {
                        fault = Some((bi, RecoveryCause::NonFiniteGrad));
                        break;
                    }
                    last_grad_norm = grad_norm;
                    if let Some(cap) = self.cfg.grad_clip {
                        ft_nn::clip_grad_norm(&mut self.model, cap);
                    }
                    opt.step(&mut self.model);
                    self.model.zero_grad();
                    // Weight by the chunk size so a short tail batch
                    // contributes per sample, not per batch, to the epoch
                    // mean.
                    epoch_loss += loss * chunk.len() as f64;
                    samples += chunk.len();
                }
                let Some((batch, cause)) = fault else {
                    break (epoch_loss / samples.max(1) as f64, samples, last_grad_norm);
                };
                // Roll back to the last good state, halve the learning
                // rate, and retry the epoch without the poisoned batch.
                ft_nn::restore_params(&mut self.model, &guard_params);
                opt.import_state(guard_opt.clone());
                self.model.zero_grad();
                // Fold the halving into the scheduler's base rate so the
                // next sched.step() re-derives — not reverts — it.
                sched.scale_base(0.5);
                opt.lr = sched.lr();
                TRAIN_RECOVERIES.inc();
                recoveries.push(RecoveryEvent { epoch, batch, cause, lr: opt.lr });
                // Flight-record the anomaly: the rollback itself, the LR
                // halving it caused, and a dump of the moments before it.
                ft_obs::flight::event_with(|| {
                    ft_obs::Record::new("event")
                        .str("kind", "nan_rollback")
                        .str("source", "train")
                        .u64("epoch", epoch as u64)
                        .u64("batch", batch as u64)
                        .str(
                            "cause",
                            match cause {
                                RecoveryCause::NonFiniteLoss => "non_finite_loss",
                                RecoveryCause::NonFiniteGrad => "non_finite_grad",
                            },
                        )
                });
                ft_obs::flight::event_with(|| {
                    ft_obs::Record::new("event")
                        .str("kind", "lr_halved")
                        .str("source", "train")
                        .u64("epoch", epoch as u64)
                        .f64("lr", opt.lr)
                        .f64("base_scale", sched.base_scale())
                        .f64("scheduler_lr", sched.lr())
                });
                if let Some(Err(e)) = ft_obs::flight::dump("health_monitor") {
                    eprintln!("warning: flight-recorder dump failed: {e}");
                }
                if recoveries.len() > self.cfg.max_recoveries {
                    // Retries exhausted: stop with the last good weights.
                    break 'training;
                }
                skip.push(batch);
            };
            sched.step(&mut opt);
            train_loss.push(epoch_mean);

            let epoch_wall = epoch_start.elapsed().as_secs_f64();
            let samples_per_sec =
                if epoch_wall > 0.0 { epoch_samples as f64 / epoch_wall } else { 0.0 };
            epochs.push(EpochMetrics {
                epoch,
                wall_seconds: epoch_wall,
                samples: epoch_samples,
                samples_per_sec,
                loss: epoch_mean,
                grad_norm: epoch_grad_norm,
                lr: epoch_lr,
            });
            TRAIN_EPOCHS.inc();
            TRAIN_SAMPLES.add(epoch_samples as u64);
            ft_obs::emit_with(|| {
                ft_obs::Record::new("train_epoch")
                    .u64("epoch", epoch as u64)
                    .f64("wall_seconds", epoch_wall)
                    .u64("samples", epoch_samples as u64)
                    .f64("samples_per_sec", samples_per_sec)
                    .f64("loss", epoch_mean)
                    .f64("grad_norm", epoch_grad_norm)
                    .f64("lr", epoch_lr)
                    .u64("recoveries", recoveries.len() as u64)
            });
            if self.cfg.probe_every > 0
                && !test_pairs.is_empty()
                && (epoch + 1) % self.cfg.probe_every == 0
                && ft_obs::enabled()
            {
                self.probe_physics(test_pairs, epoch);
            }

            // Validation tracking / early stopping. Skipped entirely when
            // there is no held-out data; a non-finite error is recorded in
            // the history but can neither become the best snapshot nor
            // advance the early-stopping counter.
            if self.cfg.eval_every > 0
                && !test_pairs.is_empty()
                && (epoch + 1) % self.cfg.eval_every == 0
            {
                let _eval_span = ft_obs::span("eval");
                let err = evaluate(&self.model, test_pairs);
                eval_history.push((epoch, err));
                let improved =
                    err.is_finite() && best.as_ref().map(|(_, b, _)| err < *b).unwrap_or(true);
                if improved {
                    best = Some((epoch, err, ft_nn::snapshot_params(&mut self.model)));
                    stale = 0;
                } else if err.is_finite() {
                    stale += 1;
                    if self.cfg.early_stop_patience > 0 && stale >= self.cfg.early_stop_patience {
                        break 'training;
                    }
                }
            }

            if let Some(ckc) = self.ckpt.clone() {
                if ckc.every > 0 && (epoch + 1) % ckc.every == 0 {
                    let ck = self.make_checkpoint(
                        epoch as u64 + 1,
                        grid,
                        &rng,
                        &opt,
                        &sched,
                        stale,
                        &train_loss,
                        &eval_history,
                        &best,
                        &recoveries,
                    );
                    save_periodic(&ck, &ckc).expect("failed to write training checkpoint");
                }
            }
        }

        // Final checkpoint so `latest.ftc` always reflects the run's end
        // state (written before the best-weights restore below, which is
        // re-derived on resume from the embedded best snapshot).
        if let Some(ckc) = self.ckpt.clone() {
            let ck = self.make_checkpoint(
                train_loss.len() as u64,
                grid,
                &rng,
                &opt,
                &sched,
                stale,
                &train_loss,
                &eval_history,
                &best,
                &recoveries,
            );
            save_periodic(&ck, &ckc).expect("failed to write training checkpoint");
        }

        // Restore the best-seen weights when validation tracking is on.
        let best_epoch = if let Some((epoch, _, snap)) = &best {
            ft_nn::restore_params(&mut self.model, snap);
            *epoch
        } else {
            last_epoch
        };
        // End-of-run throughput gauge: total samples over summed epoch wall
        // time (excludes evaluation and final-checkpoint overhead).
        let total_wall: f64 = epochs.iter().map(|e| e.wall_seconds).sum();
        let total_samples: usize = epochs.iter().map(|e| e.samples).sum();
        if total_wall > 0.0 && total_samples > 0 {
            TRAIN_RATE.set(total_samples as f64 / total_wall);
        }

        let test_error = evaluate(&self.model, test_pairs);
        TrainReport {
            train_loss,
            test_error,
            wall_seconds: start.elapsed().as_secs_f64(),
            eval_history,
            best_epoch,
            recoveries,
            epochs,
        }
    }

    /// Measures the physics of the model's prediction for the first
    /// held-out pair and emits a `physics` record (source `train.eval`,
    /// `step` = epoch). The channels are interpreted as paired components
    /// (first half `u_x`, second half `u_y`, newest frame of each half
    /// measured); odd channel counts, non-4D layouts and non-square
    /// fields are skipped — the probe must never fail a training run.
    fn probe_physics(&self, test_pairs: &[Pair], epoch: usize) {
        let (x, _) = batch_of(test_pairs, &[0], self.model.layout());
        let pred = self.model.infer(&x);
        let d = pred.dims().to_vec();
        if d.len() != 4 || d[1] % 2 != 0 || d[1] == 0 || d[2] != d[3] {
            return;
        }
        let k = d[1] / 2;
        let sample = pred.index_axis0(0);
        let ux = sample.index_axis0(k - 1);
        let uy = sample.index_axis0(2 * k - 1);
        let m = ft_analysis::PhysicsDiagnostics::measure(&ux, &uy);
        ft_obs::emit_with(|| {
            ft_obs::Record::new("physics")
                .str("source", "train.eval")
                .u64("step", epoch as u64)
                .f64("total_energy", m.total_energy)
                .f64("enstrophy", m.enstrophy)
                .f64("mean_vorticity", m.mean_vorticity)
                .f64("highk_fraction", m.highk_fraction)
                .f64("div_residual", m.div_residual)
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn make_checkpoint(
        &mut self,
        epochs_done: u64,
        grid: u64,
        rng: &StdRng,
        opt: &Adam,
        sched: &StepLr,
        stale: usize,
        train_loss: &[f64],
        eval_history: &[(usize, f64)],
        best: &Option<(usize, f64, Vec<ft_nn::ParamValue>)>,
        recoveries: &[RecoveryEvent],
    ) -> Checkpoint {
        Checkpoint {
            epochs_done,
            rng_state: rng.state(),
            // The checkpoint's `lr_scale` field stores the scheduler's
            // accumulated external multiplier (recovery halvings); resume
            // feeds it back through `StepLr::set_base_scale`.
            lr_scale: sched.base_scale(),
            stale: stale as u64,
            sched_epoch: sched.epoch(),
            adam: opt.export_state(),
            train_loss: train_loss.to_vec(),
            eval_history: eval_history.iter().map(|&(e, v)| (e as u64, v)).collect(),
            recoveries: recoveries.to_vec(),
            best: best
                .as_ref()
                .map(|(e, v, snap)| (*e as u64, *v, snap.clone())),
            params: ft_nn::snapshot_params(&mut self.model),
            meta: self.model.model_meta().map(|mut m| {
                m.grid = grid;
                m
            }),
        }
    }
}

/// Mean one-shot relative-L2 error of a model over a set of pairs.
pub fn evaluate<M: ForecastModel>(model: &M, pairs: &[Pair]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    let kind = model.layout();
    let idx: Vec<usize> = (0..pairs.len()).collect();
    let mut total = 0.0;
    for chunk in idx.chunks(16) {
        let (x, y) = batch_of(pairs, chunk, kind);
        // The serving-path entry point: shares the batched spectral kernels
        // (and their planned FFTs) with `ft-serve`'s dispatcher.
        let pred = model.forward_inference(&x);
        total += RelativeL2::value(&pred, &y) * chunk.len() as f64;
    }
    total / pairs.len() as f64
}

/// One sample's contribution from the sharded backward pass: its loss and,
/// when every intermediate stayed finite, its raw (un-normalized) gradients.
pub type SampleGrad = (f64, Option<Vec<ft_nn::ParamValue>>);

/// Per-sample losses and gradients for one mini-batch, computed by worker
/// `replicas` against the shared parameter snapshot `snap`.
///
/// The batch's sample indices (`chunk`) are split into contiguous shards,
/// one per worker; each worker restores the snapshot into its replica and
/// runs a single-sample forward/backward per entry. The returned vector is
/// indexed by the sample's position in `chunk` — the decomposition is a
/// function of the batch alone (never the thread count), which together
/// with [`tree_reduce_grads`] keeps training bit-deterministic for any
/// `--threads` setting (DESIGN.md §13). A non-finite sample carries `None`
/// gradients. Gradients are raw single-sample gradients (no `1/B` factor);
/// the caller normalizes after reduction.
#[allow(clippy::too_many_arguments)]
pub fn sharded_batch_grads(
    replicas: &mut [Box<dyn ForecastModel + Send>],
    snap: &[ft_nn::ParamValue],
    pairs: &[Pair],
    chunk: &[usize],
    kind: FnoKind,
    loss: LossKind,
    divergence_weight: f64,
) -> Vec<SampleGrad> {
    assert!(!replicas.is_empty(), "sharded path requires at least one replica");
    assert!(!chunk.is_empty(), "empty batch");
    let workers = replicas.len().min(chunk.len());
    let mut results: Vec<Option<SampleGrad>> = Vec::new();
    results.resize_with(chunk.len(), || None);
    if workers == 1 {
        // Single worker (or single-sample batch): run inline rather than
        // paying a thread spawn per batch.
        run_shard(
            replicas[0].as_mut(),
            snap,
            pairs,
            chunk,
            kind,
            loss,
            divergence_weight,
            &mut results,
        );
    } else {
        // Contiguous shard ranges: worker `w` takes `base` samples plus one
        // extra while `w < chunk.len() % workers`.
        let base = chunk.len() / workers;
        let extra = chunk.len() % workers;
        rayon::scope(|s| {
            let mut rem_ids = chunk;
            let mut rem_out = &mut results[..];
            for (w, rep) in replicas.iter_mut().take(workers).enumerate() {
                let take = base + usize::from(w < extra);
                let (ids, rest_ids) = rem_ids.split_at(take);
                rem_ids = rest_ids;
                let (out, rest_out) = std::mem::take(&mut rem_out).split_at_mut(take);
                rem_out = rest_out;
                s.spawn(move |_| {
                    run_shard(rep.as_mut(), snap, pairs, ids, kind, loss, divergence_weight, out);
                });
            }
        });
    }
    results.into_iter().map(|r| r.expect("every sample slot filled by its shard")).collect()
}

/// One worker's shard: restore `snap` into the replica, then per sample run
/// forward/loss/backward and snapshot the gradients into the matching `out`
/// slot.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    model: &mut (dyn ForecastModel + Send),
    snap: &[ft_nn::ParamValue],
    pairs: &[Pair],
    sample_ids: &[usize],
    kind: FnoKind,
    loss_kind: LossKind,
    divergence_weight: f64,
    out: &mut [Option<SampleGrad>],
) {
    assert_eq!(sample_ids.len(), out.len(), "shard output slice mismatch");
    ft_nn::restore_params(model, snap);
    model.zero_grad();
    for (slot, &i) in out.iter_mut().zip(sample_ids) {
        let (x, y) = batch_of(pairs, &[i], kind);
        let pred = model.forward(&x);
        let (mut loss, mut grad) = match loss_kind {
            LossKind::RelativeL2 => RelativeL2::value_and_grad(&pred, &y),
            LossKind::Mse => Mse::value_and_grad(&pred, &y),
        };
        if divergence_weight > 0.0 {
            // Normalize by the target's squared-vorticity scale so the
            // penalty is dimensionless and comparable to the data loss
            // regardless of field amplitude.
            let (pv, pg) = crate::physics::divergence_penalty(&pred);
            let scale = crate::physics::mean_sq_vorticity(&y).max(1e-300);
            let w = divergence_weight / scale;
            loss += w * pv;
            grad.add_scaled(&pg, w);
        }
        if loss.is_finite() {
            model.backward(&grad);
            *slot = Some((loss, Some(ft_nn::snapshot_grads(model))));
            model.zero_grad();
        } else {
            *slot = Some((loss, None));
        }
    }
}

/// Reduces per-sample gradient snapshots in a fixed, index-ordered pairwise
/// tree: the first level combines (0,1), (2,3), …; each level halves the
/// count. The association depends only on the number of gradients — never
/// on thread count or completion order — so the reduced sum is bit-identical
/// across `--threads` settings (the FTC1 determinism contract). Returns
/// `None` for an empty input.
pub fn tree_reduce_grads(mut grads: Vec<Vec<ft_nn::ParamValue>>) -> Option<Vec<ft_nn::ParamValue>> {
    if grads.is_empty() {
        return None;
    }
    while grads.len() > 1 {
        let mut next = Vec::with_capacity(grads.len().div_ceil(2));
        let mut it = grads.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                ft_nn::add_param_values(&mut a, &b);
            }
            next.push(a);
        }
        grads = next;
    }
    grads.pop()
}

/// Stacks selected pairs into model-shaped input/target batches.
///
/// 2D-with-channels: `[B, T, H, W]` directly. 3D: `[B, 1, H, W, T]`
/// (snapshots moved to the trailing temporal axis).
pub fn batch_of(pairs: &[Pair], indices: &[usize], kind: FnoKind) -> (Tensor, Tensor) {
    let to_model = |t: &Tensor| -> Tensor {
        match kind {
            FnoKind::TwoDChannels => {
                let mut dims = vec![1];
                dims.extend_from_slice(t.dims());
                t.clone().reshape(&dims)
            }
            FnoKind::ThreeD => {
                let d = t.dims().to_vec();
                let (tt, h, w) = (d[0], d[1], d[2]);
                let mut out = Tensor::zeros(&[1, 1, h, w, tt]);
                let src = t.data();
                let dst = out.data_mut();
                for ti in 0..tt {
                    for yy in 0..h {
                        for xx in 0..w {
                            dst[(yy * w + xx) * tt + ti] = src[(ti * h + yy) * w + xx];
                        }
                    }
                }
                out
            }
        }
    };
    let xs: Vec<Tensor> = indices.iter().map(|&i| to_model(&pairs[i].input)).collect();
    let ys: Vec<Tensor> = indices.iter().map(|&i| to_model(&pairs[i].target)).collect();
    (concat0(&xs), concat0(&ys))
}

fn concat0(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty());
    let inner = parts[0].dims()[1..].to_vec();
    let mut dims = vec![parts.len() * parts[0].dims()[0]];
    dims.extend_from_slice(&inner);
    let mut data = Vec::with_capacity(parts.iter().map(Tensor::len).sum());
    for p in parts {
        assert_eq!(&p.dims()[1..], &inner[..], "inner shape mismatch");
        data.extend_from_slice(p.data());
    }
    Tensor::from_vec(&dims, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FnoConfig;
    use crate::model::Fno;
    use std::f64::consts::PI;

    /// Synthetic operator-learning task: target frame = input frame shifted
    /// by one grid point (a linear, exactly representable spectral map).
    fn shift_pairs(n_pairs: usize, c_in: usize, c_out: usize, n: usize) -> Vec<Pair> {
        (0..n_pairs)
            .map(|p| {
                let phase = p as f64 * 0.61;
                let mk = |shift: usize| {
                    Tensor::from_fn(&[if shift == 0 { c_in } else { c_out }, n, n], |i| {
                        let x = 2.0 * PI * ((i[2] + shift) % n) as f64 / n as f64;
                        let y = 2.0 * PI * i[1] as f64 / n as f64;
                        (x + phase + i[0] as f64 * 0.2).sin() + 0.4 * (y + phase).cos()
                    })
                };
                Pair { input: mk(0), target: mk(1) }
            })
            .collect()
    }

    fn small_cfg(c_in: usize, c_out: usize) -> FnoConfig {
        FnoConfig {
            kind: crate::config::FnoKind::TwoDChannels,
            width: 4,
            layers: 2,
            modes: 4,
            in_channels: c_in,
            out_channels: c_out,
            lifting_channels: 8,
            projection_channels: 8,
        norm: false,
        }
    }

    #[test]
    fn training_reduces_loss_substantially() {
        let pairs = shift_pairs(12, 3, 3, 8);
        let (train, test) = pairs.split_at(10);
        let model = Fno::new(small_cfg(3, 3), 0);
        let cfg = TrainConfig { epochs: 40, batch_size: 4, lr: 4e-3, ..Default::default() };
        let mut trainer = Trainer::new(model, cfg);
        let report = trainer.train(train, test);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(
            last < 0.3 * first,
            "loss should drop substantially: {first} -> {last}"
        );
        assert!(report.test_error < 0.5, "test error {}", report.test_error);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let pairs = shift_pairs(6, 2, 2, 8);
        let run = || {
            let model = Fno::new(small_cfg(2, 2), 3);
            let cfg = TrainConfig { epochs: 3, batch_size: 2, seed: 9, ..Default::default() };
            Trainer::new(model, cfg).train(&pairs, &pairs).train_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_of_layout_3d() {
        let pairs = shift_pairs(2, 4, 4, 6);
        let (x, _) = batch_of(&pairs, &[0, 1], crate::config::FnoKind::ThreeD);
        assert_eq!(x.dims(), &[2, 1, 6, 6, 4]);
        // Entry (b=0, t=2, y=1, x=3) of the pair input must appear at
        // [0, 0, 1, 3, 2] of the model input.
        assert_eq!(x.at(&[0, 0, 1, 3, 2]), pairs[0].input.at(&[2, 1, 3]));
    }

    #[test]
    fn batch_of_layout_2d() {
        let pairs = shift_pairs(3, 2, 2, 4);
        let (x, y) = batch_of(&pairs, &[1, 2], crate::config::FnoKind::TwoDChannels);
        assert_eq!(x.dims(), &[2, 2, 4, 4]);
        assert_eq!(y.dims(), &[2, 2, 4, 4]);
        assert_eq!(x.at(&[0, 1, 2, 3]), pairs[1].input.at(&[1, 2, 3]));
        assert_eq!(x.at(&[1, 0, 0, 0]), pairs[2].input.at(&[0, 0, 0]));
    }

    #[test]
    fn evaluate_empty_is_nan() {
        let model = Fno::new(small_cfg(2, 2), 0);
        assert!(evaluate(&model, &[]).is_nan());
    }

    #[test]
    fn resume_with_wrong_architecture_is_an_error() {
        let pairs = shift_pairs(4, 2, 2, 8);
        let dir = std::env::temp_dir().join(format!("fno_resume_arch_{}", std::process::id()));
        let cfg = TrainConfig { epochs: 1, batch_size: 2, ..Default::default() };
        let mut narrow = small_cfg(2, 2);
        narrow.width = 2;
        Trainer::new(Fno::new(narrow, 0), cfg.clone())
            .with_checkpointing(CheckpointConfig::new(&dir, 1))
            .train(&pairs, &[]);
        let err = Trainer::new(Fno::new(small_cfg(2, 2), 0), cfg)
            .resume_from(dir.join("latest.ftc"))
            .err()
            .expect("a width-2 checkpoint must not resume a width-4 model");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let pairs = shift_pairs(8, 2, 2, 8);
        let (train, test) = pairs.split_at(6);
        let model = Fno::new(small_cfg(2, 2), 1);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 3,
            lr: 5e-3,
            eval_every: 2,
            early_stop_patience: 3,
            ..Default::default()
        };
        let mut trainer = Trainer::new(model, cfg);
        let report = trainer.train(train, test);
        assert!(!report.eval_history.is_empty());
        // The reported error must equal the best evaluation seen.
        let best = report
            .eval_history
            .iter()
            .map(|&(_, e)| e)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (report.test_error - best).abs() < 1e-12,
            "returned model must carry the best weights: {} vs {best}",
            report.test_error
        );
        assert!(report.eval_history.iter().any(|&(e, _)| e == report.best_epoch));
    }
}