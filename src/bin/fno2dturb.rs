//! `fno2dturb` — command-line interface to the fno2d-turbulence library.
//!
//! ```text
//! fno2dturb generate --out data.ftt [--grid 32] [--samples 8] [--snapshots 40]
//!                    [--reynolds 1000] [--solver spectral|lbm|bgk] [--seed 0]
//! fno2dturb train    --data data.ftt --model model.ftc [--width 8] [--layers 4]
//!                    [--modes 8] [--out-channels 5] [--epochs 20] [--lr 5e-3]
//!                    [--batch 8] [--div-weight 0] [--train-frac 0.8]
//!                    [--checkpoint-dir checkpoints] [--checkpoint-every 1]
//!                    [--resume checkpoints/latest.ftc]
//! fno2dturb rollout  --data data.ftt --model model.ftc [--sample 0] [--frames 10]
//!                    [--out pred.ftt]
//! fno2dturb hybrid   --data data.ftt --model model.ftc [--frames 60]
//!                    [--scheme hybrid|fno|pde] [--window 5] [--reynolds 1000]
//! ```
//!
//! `generate` writes a `[S, T, 2, H, W]` velocity tensor in the FTT1 format;
//! `train` fits a 2D FNO with temporal channels and writes an `FTC1` model
//! file (architecture metadata + weights); `rollout`, `hybrid` and
//! `ensemble` read that file or a training checkpoint's `latest.ftc`.
//! `rollout` autoregressively forecasts a sample and reports per-frame
//! errors; `hybrid` marches one of the three schemes and prints the Fig. 8
//! diagnostics.
//!
//! Every command accepts `--threads N`, which sizes the global rayon
//! pool once at startup (attempting to size it twice, or after implicit
//! initialization, is reported as a clean error rather than a panic).
//!
//! Every command additionally accepts the observability options
//! `--metrics-out FILE` (stream JSONL metric records — one `train_epoch`
//! record per epoch during `train`, opened by a `run_manifest` record
//! identifying the run) and `--profile` (print the aggregated span tree,
//! counters, gauges and histograms to stderr on exit). Either option enables
//! the `ft-obs` instrumentation; with both off the instrumented code paths
//! cost a single atomic load. With instrumentation on, `train` also writes
//! `BENCH_train.json` and `generate` writes `BENCH_solver.json`
//! (`ft-obs/bench-v1` schema; override the path with `--bench-out FILE`),
//! and `--probe-every N` streams `physics` diagnostics records — every N
//! solver steps during `generate`, every N epochs (measuring the first
//! held-out prediction) during `train`.

use std::collections::HashMap;
use std::process::ExitCode;

use fno2d_turbulence::data::{
    load_tensor, save_tensor, split_components, windows, DatasetConfig, SolverKind,
    TurbulenceDataset, WindowSpec,
};
use fno2d_turbulence::fno::rollout::{frame_errors, rollout};
use fno2d_turbulence::fno::{
    CheckpointConfig, Fno, FnoConfig, HybridConfig, HybridScheme, Scheme, TrainConfig, Trainer,
};
use fno2d_turbulence::lbm::IcSpec;
use fno2d_turbulence::ns::SpectralNs;
use fno2d_turbulence::tensor::Tensor;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", USAGE);
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(threads) = opts.get("threads") {
        let n: usize = match threads.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: --threads: cannot parse `{threads}`");
                return ExitCode::FAILURE;
            }
        };
        // The pool can only be sized once per process; a second attempt
        // (or an earlier implicit initialization) is a clean error.
        if let Err(e) = rayon::ThreadPoolBuilder::new().num_threads(n).build_global() {
            eprintln!("error: --threads {n}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let profile = opts.contains_key("profile");
    if profile {
        ft_obs::set_enabled(true);
    }
    if let Some(path) = opts.get("metrics-out") {
        ft_obs::set_enabled(true);
        if let Err(e) = ft_obs::open_jsonl(path) {
            eprintln!("error: --metrics-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ft_obs::enabled() {
        // Open every metric stream with the run's identity; the manifest
        // is also replayed as the first line of any flight-recorder dump.
        let mut manifest = ft_obs::flight::run_manifest(&format!("fno2dturb-{command}"));
        let mut keys: Vec<&String> = opts.keys().collect();
        keys.sort();
        for key in keys {
            manifest = manifest.str(key, &opts[key]);
        }
        ft_obs::flight::set_manifest(manifest);
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "train" => cmd_train(&opts),
        "rollout" => cmd_rollout(&opts),
        "hybrid" => cmd_hybrid(&opts),
        "ensemble" => cmd_ensemble(&opts),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    ft_obs::close_jsonl();
    if profile {
        eprint!("{}", ft_obs::profile_report());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fno2dturb generate --out data.ftt [--grid N] [--samples S] [--snapshots T]
                     [--reynolds RE] [--solver spectral|lbm|bgk] [--seed K]
  fno2dturb train    --data data.ftt --model model.ftc [--width W] [--layers L]
                     [--modes M] [--out-channels K] [--epochs E] [--lr LR]
                     [--batch B] [--div-weight WD] [--train-frac F]
                     [--checkpoint-dir DIR] [--checkpoint-every N]
                     [--resume DIR/latest.ftc]
  fno2dturb rollout  --data data.ftt --model model.ftc [--sample I] [--frames N]
                     [--out pred.ftt]
  fno2dturb hybrid   --data data.ftt --model model.ftc [--frames N]
                     [--scheme hybrid|fno|pde] [--window K] [--reynolds RE]
  fno2dturb ensemble --data data.ftt --model model.ftc [--sample I] [--frames N]
                     [--members M] [--delta D]

global options (any command):
  --threads N          size the global rayon pool once at startup (error if
                       the pool was already initialized)

observability (any command):
  --metrics-out FILE   stream JSONL metric records to FILE (opens with a
                       run_manifest record)
  --profile            print span/counter/gauge/histogram profile to stderr
                       on exit
  --bench-out FILE     override the BENCH_train.json / BENCH_solver.json path
  --probe-every N      generate/train: emit a `physics` record every N solver
                       steps (generate) or epochs (train); 0 disables";

type Opts = HashMap<String, String>;

/// Options that are boolean flags (present/absent, no value argument).
const FLAGS: &[&str] = &["profile"];

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got `{a}`"))?;
        if FLAGS.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            continue;
        }
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), val.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        None => Ok(default),
    }
}

fn require<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(|s| s.as_str()).ok_or_else(|| format!("--{key} is required"))
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let out = require(opts, "out")?;
    let grid: usize = get(opts, "grid", 32)?;
    let samples: usize = get(opts, "samples", 8)?;
    let snapshots: usize = get(opts, "snapshots", 40)?;
    let reynolds: f64 = get(opts, "reynolds", 1000.0)?;
    let seed: u64 = get(opts, "seed", 0)?;
    let probe_every: usize = get(opts, "probe-every", 0)?;
    let solver = match opts.get("solver").map(String::as_str).unwrap_or("spectral") {
        "spectral" => SolverKind::SpectralNs,
        "lbm" => SolverKind::EntropicLbm,
        "bgk" => SolverKind::BgkLbm,
        other => return Err(format!("--solver: unknown `{other}`")),
    };

    eprintln!("generating {samples} × {snapshots} snapshots on {grid}×{grid} (Re ≈ {reynolds})…");
    let cfg = DatasetConfig {
        n_grid: grid,
        samples,
        snapshots,
        dt_sample_tc: 0.005,
        burn_in_tc: if grid >= 128 { 0.5 } else { 0.1 },
        reynolds,
        ic: IcSpec { k_min: 2, k_max: (grid / 6).clamp(3, 8) },
        solver,
        seed,
        probe_every,
    };
    let start = std::time::Instant::now();
    let ds = TurbulenceDataset::generate(cfg);
    let wall = start.elapsed().as_secs_f64();
    save_tensor(out, &ds.velocity).map_err(|e| e.to_string())?;
    eprintln!("wrote {out} ({:?})", ds.velocity.dims());
    if ft_obs::enabled() {
        let solver_name = match solver {
            SolverKind::SpectralNs => "spectral",
            SolverKind::EntropicLbm => "lbm",
            SolverKind::BgkLbm => "bgk",
            SolverKind::ArakawaFd => "arakawa",
        };
        let record = ft_obs::Record::new("generate")
            .str("solver", solver_name)
            .u64("grid", grid as u64)
            .u64("samples", samples as u64)
            .u64("snapshots", snapshots as u64)
            .f64("reynolds", reynolds)
            .f64("wall_seconds", wall);
        let bench = opts.get("bench-out").map(String::as_str).unwrap_or("BENCH_solver.json");
        ft_obs::bench::write_bench_json(bench, "solver", "fno2dturb-generate", wall, &[record])
            .map_err(|e| format!("{bench}: {e}"))?;
        eprintln!("wrote {bench}");
    }
    Ok(())
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let data = require(opts, "data")?;
    let model_path = require(opts, "model")?;
    let width: usize = get(opts, "width", 8)?;
    let layers: usize = get(opts, "layers", 4)?;
    let modes: usize = get(opts, "modes", 8)?;
    let out_channels: usize = get(opts, "out-channels", 5)?;
    let epochs: usize = get(opts, "epochs", 20)?;
    let lr: f64 = get(opts, "lr", 5e-3)?;
    let batch: usize = get(opts, "batch", 8)?;
    let div_weight: f64 = get(opts, "div-weight", 0.0)?;
    let train_frac: f64 = get(opts, "train-frac", 0.8)?;
    let probe_every: usize = get(opts, "probe-every", 0)?;
    if probe_every > 0 && !out_channels.is_multiple_of(2) {
        eprintln!(
            "warning: --probe-every needs paired (ux, uy) output channels; \
             --out-channels {out_channels} is odd, so no physics records will be emitted"
        );
    }

    let velocity = load_tensor(data).map_err(|e| e.to_string())?;
    if velocity.shape().rank() != 5 {
        return Err(format!("--data: expected [S,T,2,H,W], got {:?}", velocity.dims()));
    }
    let flat = split_components(&velocity);
    let spec = WindowSpec { input_len: 10, output_len: out_channels, stride: out_channels };
    let total = flat.dims()[0];
    let split = ((total as f64 * train_frac).round() as usize).clamp(1, total - 1);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for s in 0..total {
        let pairs = windows(&flat.index_axis0(s), &spec);
        if s < split {
            train.extend(pairs);
        } else {
            test.extend(pairs);
        }
    }
    if train.is_empty() {
        return Err("no training pairs (too few snapshots for the window?)".into());
    }
    eprintln!("{} train pairs, {} test pairs", train.len(), test.len());

    let mut cfg = FnoConfig::fno2d(width, layers, modes, out_channels);
    if velocity.dims()[4] < 128 {
        cfg.lifting_channels = 32;
        cfg.projection_channels = 32;
    }
    eprintln!("model: {} parameters", cfg.param_count());
    let model = Fno::new(cfg, 7);
    let tcfg = TrainConfig {
        epochs,
        batch_size: batch,
        lr,
        scheduler_gamma: 0.5,
        scheduler_step: 100,
        seed: 0,
        divergence_weight: div_weight,
        probe_every,
        ..Default::default()
    };
    let mut trainer = Trainer::new(model, tcfg);
    if let Some(dir) = opts.get("checkpoint-dir") {
        let every: usize = get(opts, "checkpoint-every", 1)?;
        let mut ckpt = CheckpointConfig::new(dir, every);
        ckpt.keep_last = 5;
        trainer = trainer.with_checkpointing(ckpt);
        eprintln!("checkpointing to {dir}/ every {every} epoch(s)");
    }
    if let Some(path) = opts.get("resume") {
        trainer = trainer
            .resume_from(path)
            .map_err(|e| format!("--resume {path}: {e}"))?;
        eprintln!("resuming from {path}");
    }
    let report = trainer.train(&train, &test);
    eprintln!(
        "loss {:.4e} → {:.4e}, test error {:.4e}, {:.1}s",
        report.train_loss[0],
        report.train_loss.last().unwrap(),
        report.test_error,
        report.wall_seconds
    );
    for r in &report.recoveries {
        eprintln!(
            "recovered from {:?} at epoch {} batch {} (lr now {:.3e})",
            r.cause, r.epoch, r.batch, r.lr
        );
    }
    if ft_obs::enabled() {
        let records: Vec<ft_obs::Record> = report
            .epochs
            .iter()
            .map(|m| {
                let recoveries =
                    report.recoveries.iter().filter(|r| r.epoch <= m.epoch).count() as u64;
                ft_obs::Record::new("train_epoch")
                    .u64("epoch", m.epoch as u64)
                    .f64("wall_seconds", m.wall_seconds)
                    .u64("samples", m.samples as u64)
                    .f64("samples_per_sec", m.samples_per_sec)
                    .f64("loss", m.loss)
                    .f64("grad_norm", m.grad_norm)
                    .f64("lr", m.lr)
                    .u64("recoveries", recoveries)
            })
            .collect();
        let bench = opts.get("bench-out").map(String::as_str).unwrap_or("BENCH_train.json");
        ft_obs::bench::write_bench_json(
            bench,
            "train",
            "fno2dturb-train",
            report.wall_seconds,
            &records,
        )
        .map_err(|e| format!("{bench}: {e}"))?;
        eprintln!("wrote {bench}");
    }
    let mut model = trainer.into_model();
    model.save(model_path).map_err(|e| e.to_string())?;
    eprintln!("wrote {model_path}");
    Ok(())
}

fn load_sample_history(
    velocity: &Tensor,
    sample: usize,
) -> Result<(Vec<(Tensor, Tensor)>, usize), String> {
    let dims = velocity.dims().to_vec();
    if dims.len() != 5 {
        return Err(format!("--data: expected [S,T,2,H,W], got {dims:?}"));
    }
    if sample >= dims[0] {
        return Err(format!("--sample {sample} out of range ({} samples)", dims[0]));
    }
    if dims[1] < 10 {
        return Err("need at least 10 snapshots of history".into());
    }
    let traj = velocity.index_axis0(sample);
    let hist: Vec<(Tensor, Tensor)> = (0..10)
        .map(|t| {
            let snap = traj.index_axis0(t);
            (snap.index_axis0(0), snap.index_axis0(1))
        })
        .collect();
    Ok((hist, dims[4]))
}

fn cmd_rollout(opts: &Opts) -> Result<(), String> {
    let data = require(opts, "data")?;
    let model_path = require(opts, "model")?;
    let sample: usize = get(opts, "sample", 0)?;
    let frames: usize = get(opts, "frames", 10)?;

    let velocity = load_tensor(data).map_err(|e| e.to_string())?;
    let model = Fno::load(model_path).map_err(|e| e.to_string())?;
    let flat = split_components(&velocity);
    let comp = flat.index_axis0(sample * 2); // u_x component of the sample
    let t_avail = comp.dims()[0];
    if t_avail < 10 {
        return Err("need at least 10 snapshots of history".into());
    }

    let hist = comp.slice_axis0(0, 10);
    let pred = rollout(&model, &hist, frames);

    // Errors where truth exists.
    let have_truth = (t_avail - 10).min(frames);
    if have_truth > 0 {
        let truth = comp.slice_axis0(10, have_truth);
        let pred_head = pred.slice_axis0(0, have_truth);
        println!("frame,rel_l2_error");
        for (i, e) in frame_errors(&pred_head, &truth).iter().enumerate() {
            println!("{},{e:.6e}", i + 1);
        }
    }
    if let Some(out) = opts.get("out") {
        save_tensor(out, &pred).map_err(|e| e.to_string())?;
        eprintln!("wrote {out} ({:?})", pred.dims());
    }
    Ok(())
}

fn cmd_hybrid(opts: &Opts) -> Result<(), String> {
    let data = require(opts, "data")?;
    let model_path = require(opts, "model")?;
    let frames: usize = get(opts, "frames", 60)?;
    let window: usize = get(opts, "window", 5)?;
    let reynolds: f64 = get(opts, "reynolds", 1000.0)?;
    let scheme = match opts.get("scheme").map(String::as_str).unwrap_or("hybrid") {
        "hybrid" => Scheme::Hybrid,
        "fno" => Scheme::PureFno,
        "pde" => Scheme::PurePde,
        other => return Err(format!("--scheme: unknown `{other}`")),
    };
    let sample: usize = get(opts, "sample", 0)?;

    let velocity = load_tensor(data).map_err(|e| e.to_string())?;
    let model = Fno::load(model_path).map_err(|e| e.to_string())?;
    let (hist, n) = load_sample_history(&velocity, sample)?;

    let nu = 0.05 * n as f64 / reynolds;
    let mut solver = SpectralNs::new(n, n as f64, nu);
    let hcfg = HybridConfig { window_frames: window, dt_frame_tc: 0.005, t_c: n as f64 / 0.05 };
    let log = HybridScheme::new(&model, &mut solver, hcfg).run(&hist, frames, scheme);

    println!("t_tc,kinetic_energy,enstrophy,divergence_norm");
    for i in 0..log.times.len() {
        println!(
            "{:.4},{:.6e},{:.6e},{:.6e}",
            log.times[i], log.kinetic_energy[i], log.enstrophy[i], log.divergence[i]
        );
    }
    Ok(())
}

fn cmd_ensemble(opts: &Opts) -> Result<(), String> {
    use fno2d_turbulence::fno::ensemble::ensemble_rollout;
    let data = require(opts, "data")?;
    let model_path = require(opts, "model")?;
    let sample: usize = get(opts, "sample", 0)?;
    let frames: usize = get(opts, "frames", 10)?;
    let members: usize = get(opts, "members", 8)?;

    let velocity = load_tensor(data).map_err(|e| e.to_string())?;
    let model = Fno::load(model_path).map_err(|e| e.to_string())?;
    let flat = split_components(&velocity);
    if sample * 2 >= flat.dims()[0] {
        return Err(format!("--sample {sample} out of range"));
    }
    let comp = flat.index_axis0(sample * 2);
    if comp.dims()[0] < 10 {
        return Err("need at least 10 snapshots of history".into());
    }
    let hist = comp.slice_axis0(0, 10);
    let default_delta = 0.01 * hist.norm_l2();
    let delta: f64 = get(opts, "delta", default_delta)?;

    let ens = ensemble_rollout(&model, &hist, frames, members, delta);
    println!("frame,relative_spread{}", if comp.dims()[0] >= 10 + frames { ",mean_rel_error" } else { "" });
    for t in 0..frames {
        let mean_frame = ens.mean.slice_axis0(t, 1);
        let rms = mean_frame.norm_l2() / (mean_frame.len() as f64).sqrt();
        let rel_spread = ens.spread[t] / rms.max(1e-300);
        if comp.dims()[0] >= 10 + frames {
            let truth = comp.slice_axis0(10 + t, 1);
            let err = mean_frame.sub(&truth).norm_l2() / truth.norm_l2().max(1e-300);
            println!("{},{rel_spread:.6e},{err:.6e}", t + 1);
        } else {
            println!("{},{rel_spread:.6e}", t + 1);
        }
    }
    eprintln!("# {members} members, delta = {delta:.3e}");
    Ok(())
}
