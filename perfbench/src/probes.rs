//! Per-layer metrics at fixed shapes, the same in every traced run: the
//! pool shim, the serving engine and wire format, the solvers, analysis,
//! data preparation, and the machine's own ceilings.

use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fno_core::{Fno, ForecastModel, HybridScheme, Scheme};
use ft_analysis::GlobalDiagnostics;
use ft_data::TurbulenceDataset;
use ft_lbm::{IcSpec, Lbm, LbmConfig};
use ft_ns::PdeSolver;
use ft_serve::{proto, ModelRegistry, ServeConfig, ServeEngine};
use ft_tensor::{CTensor, Tensor};
use rayon::prelude::*;

use crate::common::{
    nproc, smoke_config, smoke_dataset_config, smoke_pairs, synthetic_frames, Report, SMOKE_GRID,
};
use crate::serve::ServeMix;
use crate::solve::{hybrid_config, spectral_solver, SOLVE_GRID, SOLVE_REYNOLDS};
use crate::stats::{median, median_ms, ms_since, time_calls};
use crate::Workload;

/// Seconds of serve-mix32 traffic behind the engine figures of the other
/// workloads' traced runs.
const SEGMENT_S: f64 = 2.0;
/// Predicts submitted one at a time for `engine.admit_us`.
const ADMITS: usize = 50;

/// Measured hardware ceilings for the roofline ratios.
pub struct Ceilings {
    pub stream_gbps: f64,
    pub fma_gflops: f64,
}

impl Ceilings {
    /// STREAM triad over arrays at least four times the last-level cache,
    /// and a multiply-add rate, both on `nproc` threads.
    pub fn measure(rep: &mut Report) -> Ceilings {
        let llc = llc_bytes();
        let len = (4 * llc).div_ceil(8).max(1 << 20);
        let threads = nproc();
        let mut a = vec![0.0f64; len];
        let b = vec![1.0f64; len];
        let c = vec![2.0f64; len];
        let chunk = len.div_ceil(threads);
        let mut best = 0.0f64;
        for _ in 0..4 {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                            *x = y + 3.0 * z;
                        }
                    });
                }
            });
            best = best.max(24.0 * len as f64 / t0.elapsed().as_secs_f64() / 1e9);
        }
        std::hint::black_box(&a);
        drop((a, b, c));

        let iters = 4_000_000u64;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    let mut acc = [1.0f64; 32];
                    let (m, k) = std::hint::black_box((0.999_999_9, 1e-9));
                    for _ in 0..iters {
                        for x in acc.iter_mut() {
                            *x = *x * m + k;
                        }
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        let fma_gflops =
            2.0 * 32.0 * iters as f64 * threads as f64 / t0.elapsed().as_secs_f64() / 1e9;

        rep.metric("hw.stream_gbps", best, "GB/s");
        rep.metric("hw.fma_gflops", fma_gflops, "GFLOP/s");
        rep.metric("hw.llc_mb", llc as f64 / 1e6, "MB");
        rep.metric("hw.stream_array_mb", 8.0 * len as f64 / 1e6, "MB");
        rep.line(format!(
            "ceilings: STREAM triad {best:.2} GB/s (3 arrays of {:.0} MB, LLC {:.1} MB, {threads} threads); mul+add {fma_gflops:.2} GFLOP/s",
            8.0 * len as f64 / 1e6,
            llc as f64 / 1e6
        ));
        Ceilings {
            stream_gbps: best,
            fma_gflops,
        }
    }

    /// The roofline bound at arithmetic intensity `ai` flops per byte.
    pub fn roofline_gflops(&self, ai: f64) -> f64 {
        self.fma_gflops.min(self.stream_gbps * ai)
    }
}

/// Size of the last-level cache from sysfs, 32 MiB when unknown.
fn llc_bytes() -> usize {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let dir = format!("{base}/index{i}");
            let level: u32 = std::fs::read_to_string(format!("{dir}/level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let kb: usize = size.strip_suffix('K')?.parse().ok()?;
            Some((level, kb * 1024))
        })
        .max()
        .map(|(_, bytes)| bytes)
        .unwrap_or(32 << 20)
}

/// Current value of the `ft-obs` counter `name` (0 if never touched).
pub fn counter(name: &str) -> u64 {
    ft_obs::metrics::counter_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

fn histogram(name: &str) -> ft_obs::HistogramSnapshot {
    ft_obs::hist::histogram_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s)
        .unwrap_or(ft_obs::HistogramSnapshot {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            max: 0.0,
        })
}

/// Runs the fixed probes. With `serve_segment`, the engine figures come
/// from a short serve-mix32 segment run here, for workloads whose own
/// traced phases served nothing.
pub fn measure(seed: u64, serve_segment: bool, rep: &mut Report) {
    pool(rep);
    serving(seed, serve_segment, rep);
    solvers(seed, rep);
    data(seed, rep);
}

/// The serving engine's own figures, from the `ft-obs` counters and
/// histograms of the serve-mix32 traffic that just ran with tracing on.
/// Queue-wait and forward quantiles are log-bucket values (±6%); the batch
/// size mean and the counters are exact.
pub fn engine_metrics(rep: &mut Report, source: &str) {
    let queue = histogram("serve.queue_wait_seconds");
    let forward = histogram("serve.forward_seconds");
    let batch = histogram("serve.batch_size");
    let requests = counter("serve.requests");
    let rejected = counter("serve.rejected");
    rep.metric("engine.queue_wait_ms_p50", queue.p50 * 1e3, "ms");
    rep.metric("engine.queue_wait_ms_p99", queue.p99 * 1e3, "ms");
    rep.metric("engine.batch_size_mean", batch.mean, "count");
    rep.metric("engine.forward_ms_p50", forward.p50 * 1e3, "ms");
    rep.metric(
        "engine.rejected_frac",
        rejected as f64 / (requests + rejected).max(1) as f64,
        "ratio",
    );
    rep.line(format!(
        "engine figures from {source}: {requests} predicts admitted, {rejected} rejected, {} batches (mean size {:.3}, largest {}), {} queue waits",
        batch.count, batch.mean, batch.max, queue.count
    ));
}

/// compat/rayon: one fan-out, and training throughput at width 2 over
/// width 1 (each in its own process).
fn pool(rep: &mut Report) {
    let mut v = vec![0u64; rayon::MIN_PARALLEL_ITEMS * nproc()];
    let fanout = median_ms(300, 0.2, || v.par_iter_mut().for_each(|x| *x += 1));
    rep.metric("rayon.fanout_us", fanout * 1e3, "us");
    match (
        crate::train::canonical_in_child(1, 3),
        crate::train::canonical_in_child(2, 3),
    ) {
        (Ok((loss1, rate1)), Ok((loss2, rate2))) => {
            rep.metric("rayon.train_speedup_w2", rate2 / rate1, "ratio");
            rep.check(
                "rayon: canonical loss bit-identical at width 1 and 2",
                loss1.to_bits() == loss2.to_bits(),
            );
        }
        (a, b) => {
            rep.line(format!(
                "width children failed: {:?} {:?}",
                a.err(),
                b.err()
            ));
            rep.check("rayon: width-1 and width-2 children ran", false);
        }
    }
}

/// ft-serve: wire encode/decode, batch-8 inference, the engine figures of
/// serve-mix32's traffic when asked for, admission to an idle engine, and
/// session steps alone and contended.
fn serving(seed: u64, serve_segment: bool, rep: &mut Report) {
    let n = SMOKE_GRID;
    let x = synthetic_frames(seed, 10, n);
    let mut buf = Vec::new();
    proto::write_predict(&mut buf, "default", &x).expect("encode into memory");
    let encode = median_ms(200, 0.2, || {
        let mut out = Vec::with_capacity(buf.len());
        proto::write_predict(&mut out, "default", &x).expect("encode into memory");
    });
    let decode = median_ms(200, 0.2, || {
        let frame = proto::read_frame(&mut BufReader::new(&buf[..])).expect("decode from memory");
        std::hint::black_box(frame);
    });
    rep.metric("proto.encode_us", encode * 1e3, "us");
    rep.metric("proto.decode_us", decode * 1e3, "us");

    let model = Fno::new(smoke_config(), seed);
    let batch8 = Tensor::from_vec(&[8, 10, n, n], synthetic_frames(seed, 80, n).into_vec());
    let b8 = median_ms(10, 0.3, || {
        drop(std::hint::black_box(model.forward_inference(&batch8)))
    });
    rep.metric("core.infer_b8_per_sample_ms", b8 / 8.0, "ms");

    if serve_segment {
        let mut mix = ServeMix::setup(seed);
        let mut segment = Report::default();
        ft_obs::reset();
        ft_obs::set_enabled(true);
        mix.measure(SEGMENT_S, &mut segment);
        ft_obs::set_enabled(false);
        mix.verify(&mut segment);
        drop(mix);
        engine_metrics(rep, &format!("a {SEGMENT_S} s serve-mix32 segment"));
        rep.checks.extend(
            segment
                .checks
                .into_iter()
                .map(|(what, ok)| (format!("serving segment: {what}"), ok)),
        );
    }

    // Admission alone: each predict goes to an idle engine and is awaited
    // before the next is submitted.
    let mut registry = ModelRegistry::new();
    registry.insert("default", model).expect("fresh registry");
    let mut engine = ServeEngine::new(registry, ServeConfig::default());
    let handle = engine.handle();
    let inputs: Vec<Tensor> = (0..4).map(|k| synthetic_frames(seed + k, 10, n)).collect();
    let admit_us: Vec<f64> = (0..ADMITS)
        .map(|k| {
            let input = inputs[k % inputs.len()].clone();
            let t0 = Instant::now();
            let pending = handle
                .submit("default", input)
                .expect("an idle engine admits");
            let us = ms_since(t0) * 1e3;
            pending.wait().expect("served predict");
            us
        })
        .collect();
    rep.metric("engine.admit_us", median(&admit_us), "us");

    // Sessions: the store lock is held across each step's forwards.
    let ids: Vec<u64> = inputs[..2]
        .iter()
        .map(|h| handle.open_session("default", h).expect("open session"))
        .collect();
    let alone = median_ms(20, 0.3, || {
        drop(handle.session_step(ids[0], 4).expect("session step"))
    });
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                handle.session_step(ids[1], 4).expect("session step");
            }
        });
        let v = time_calls(20, 0.3, || {
            drop(handle.session_step(ids[0], 4).expect("session step"))
        });
        stop.store(true, Ordering::Relaxed);
        median(&v)
    });
    rep.metric("session.step_ms", alone, "ms");
    rep.metric("session.step_ms_contended", contended, "ms");
    engine.shutdown();
}

/// ft-fft (solver shape), ft-ns, ft-lbm and ft-analysis at 64².
fn solvers(seed: u64, rep: &mut Report) {
    let n = SOLVE_GRID;
    let field = synthetic_frames(seed, 2, n);
    let c = CTensor::from_real(&field.index_axis0(0));
    rep.metric(
        "fft.complex2_ms",
        median_ms(50, 0.1, || drop(std::hint::black_box(ft_fft::fft2(&c)))),
        "ms",
    );

    let cfg = LbmConfig::with_reynolds(n, SOLVE_REYNOLDS);
    let (ux, uy) = IcSpec::default().generate(n, cfg.u0, seed);
    let mut lbm = Lbm::new(cfg);
    lbm.set_velocity(&ux, &uy);
    rep.metric("lbm.step_ms", median_ms(50, 0.3, || lbm.step()), "ms");

    let mut ns = spectral_solver(n);
    ns.set_velocity(&ux, &uy);
    let dt = hybrid_config(n).dt_frame_tc * hybrid_config(n).t_c / 4.0;
    rep.metric("ns.step_ms", median_ms(20, 0.3, || ns.step(dt)), "ms");
    let (vx, vy) = ns.velocity();
    rep.metric(
        "analysis.diagnostics_ms",
        median_ms(50, 0.1, || {
            std::hint::black_box(GlobalDiagnostics::of_velocity(&vx, &vy));
        }),
        "ms",
    );

    // Substeps per PDE frame, from the program's own step counter over a
    // hybrid march (frames alternate FNO and PDE windows of five).
    let history: Vec<(Tensor, Tensor)> = (0..10).map(|_| (ux.clone(), uy.clone())).collect();
    let model = Fno::new(crate::common::solve_config(), seed);
    let mut solver = spectral_solver(n);
    ft_obs::reset();
    ft_obs::set_enabled(true);
    let frames = 20;
    HybridScheme::new(&model, &mut solver, hybrid_config(n)).run(&history, frames, Scheme::Hybrid);
    let steps = counter("ns.steps");
    ft_obs::set_enabled(false);
    rep.metric(
        "ns.substeps_per_frame",
        steps as f64 / (frames / 2) as f64,
        "count",
    );
}

/// ft-data: generating and windowing the train-smoke32 dataset.
fn data(seed: u64, rep: &mut Report) {
    let t0 = Instant::now();
    let ds = TurbulenceDataset::generate(smoke_dataset_config(seed));
    rep.metric("data.generate_s", t0.elapsed().as_secs_f64(), "s");
    rep.metric(
        "data.windows_ms",
        median_ms(5, 0.1, || drop(smoke_pairs(&ds))),
        "ms",
    );
}
