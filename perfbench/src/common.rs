//! Shared pieces: result records, host-speed calibration, model
//! configurations and seeded inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use fno_core::FnoConfig;
use ft_data::{
    split_components, windows, DatasetConfig, Pair, SolverKind, TurbulenceDataset, WindowSpec,
};
use ft_lbm::IcSpec;
use ft_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produces: the gated metrics, human-readable lines
/// (each workload's named figures with their sample counts), operation counts
/// and correctness checks.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// The host-speed calibration bursts run so far.
    pub bursts: Vec<Burst>,
}

/// Time of one calibration unit on the quiet 2-vCPU host the benchmark was
/// tuned on, in ms; the end-to-end timings are reported at this speed.
pub const CALIBRATION_REF_MS: f64 = 0.75;

/// Units per calibration burst.
const BURST_UNITS: usize = 24;
/// A burst is used only if the rest of the process took less CPU time
/// while it ran than this share of the burst's own.
const MAX_FOREIGN_CPU: f64 = 0.02;
/// Multiply-add iterations per thread and unit.
const UNIT_FMA_ITERS: usize = 40_000;
/// Bytes of fresh pages each thread writes per unit.
const UNIT_TOUCH_BYTES: usize = 1 << 20;
/// Size of the block those pages come from: above glibc's largest mmap
/// threshold (32 MiB), so every unit maps a new block and faults its pages in.
const UNIT_MAP_BYTES: usize = 64 << 20;

/// CPU-time clocks from `clock_gettime` (64-bit Linux `timespec` layout).
mod cpu_clock {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const PROCESS_CPUTIME: i32 = 2;
    const THREAD_CPUTIME: i32 = 3;

    fn read(clock: i32) -> f64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable timespec for the whole call and
        // `clock` is one of the two clock ids defined above.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock})");
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    }

    /// CPU seconds used by every thread of the process, exited ones too.
    pub fn process_s() -> f64 {
        read(PROCESS_CPUTIME)
    }

    /// CPU seconds used by the calling thread.
    pub fn thread_s() -> f64 {
        read(THREAD_CPUTIME)
    }
}

/// One thread's share of a calibration unit: a fixed multiply-add loop,
/// then one write to each page of a freshly mapped block, which makes the
/// kernel fault in and zero those pages. It shares no code with the program
/// under test, so its time follows the host's compute speed, its page-fault
/// speed and its memory write speed.
fn unit_work() {
    let mut acc = [1.0f64; 8];
    let (m, k) = std::hint::black_box((0.999_999_9, 1e-9));
    for _ in 0..UNIT_FMA_ITERS {
        for x in acc.iter_mut() {
            *x = *x * m + k;
        }
    }
    std::hint::black_box(acc);
    let layout = Layout::from_size_align(UNIT_MAP_BYTES, 4096).expect("valid layout");
    // SAFETY: the layout has non-zero size; the pointer is checked for null,
    // written only below UNIT_TOUCH_BYTES < UNIT_MAP_BYTES, and freed with
    // the layout it was allocated with. `System` directly, so the
    // benchmark's heap counters do not see the block.
    unsafe {
        let p = System.alloc_zeroed(layout);
        assert!(!p.is_null(), "calibration block");
        for off in (0..UNIT_TOUCH_BYTES).step_by(4096) {
            p.add(off).write_volatile(1);
        }
        System.dealloc(p, layout);
    }
}

/// One burst of calibration units.
pub struct Burst {
    /// Wall time of each unit, in ms.
    pub unit_ms: Vec<f64>,
    /// CPU time the rest of the process used during the burst, as a share
    /// of the burst's own.
    pub foreign: f64,
}

impl Burst {
    /// `nproc` threads run [`BURST_UNITS`] units in lockstep; a unit's time
    /// runs from the threads' release to the last one's finish. The CPU
    /// accounting starts once every thread has started and ends before any
    /// exits, so thread start-up and exit are not counted on either side.
    fn run() -> Burst {
        let threads = nproc();
        let barrier = Barrier::new(threads + 1);
        let workers_ns = AtomicU64::new(0);
        let mut unit_ms = Vec::with_capacity(BURST_UNITS);
        let mut cpu = (0.0, 0.0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    barrier.wait();
                    let t0 = cpu_clock::thread_s();
                    for _ in 0..BURST_UNITS {
                        barrier.wait();
                        unit_work();
                        barrier.wait();
                    }
                    let ns = (cpu_clock::thread_s() - t0) * 1e9;
                    // The barrier after this publishes the sum to the reader.
                    workers_ns.fetch_add(ns as u64, Ordering::Relaxed);
                    barrier.wait();
                    barrier.wait();
                });
            }
            barrier.wait();
            let (p0, m0) = (cpu_clock::process_s(), cpu_clock::thread_s());
            for _ in 0..BURST_UNITS {
                let t0 = Instant::now();
                barrier.wait();
                barrier.wait();
                unit_ms.push(crate::stats::ms_since(t0));
            }
            barrier.wait();
            let own =
                workers_ns.load(Ordering::Relaxed) as f64 * 1e-9 + (cpu_clock::thread_s() - m0);
            cpu = (cpu_clock::process_s() - p0, own);
            barrier.wait();
        });
        let (total, own) = cpu;
        let foreign = (total - own).max(0.0) / own;
        Burst { unit_ms, foreign }
    }

    fn clean(&self) -> bool {
        self.foreign < MAX_FOREIGN_CPU
    }
}

/// How many times slower than the reference the host ran during the clean
/// bursts among `bursts`; NaN if none is clean.
pub fn host_factor(bursts: &[Burst]) -> f64 {
    let v: Vec<f64> = bursts
        .iter()
        .filter(|b| b.clean())
        .flat_map(|b| b.unit_ms.iter().copied())
        .collect();
    crate::stats::trimmed_mean(&v) / CALIBRATION_REF_MS
}

impl Report {
    /// Runs a calibration burst. Call it only where the program under test
    /// has nothing to do: before a set-up, after a teardown, and between a
    /// workload's phases. A short quiet gap first lets a worker that spins
    /// before it parks go to sleep; a burst during which the rest of the
    /// process still used CPU is kept out of the host factor.
    pub fn calibrate(&mut self) {
        std::thread::sleep(std::time::Duration::from_millis(5));
        self.bursts.push(Burst::run());
    }

    /// Host factor over every burst of the run, with a line saying how it
    /// was made and a check: at least half the bursts must have run with
    /// the program idle, or its background work would bias the factor.
    pub fn run_host_factor(&mut self) -> f64 {
        let clean = self.bursts.iter().filter(|b| b.clean()).count();
        let worst = self.bursts.iter().map(|b| b.foreign).fold(0.0, f64::max);
        let f = host_factor(&self.bursts);
        let per_burst: Vec<f64> = self
            .bursts
            .iter()
            .map(|b| crate::stats::trimmed_mean(&b.unit_ms))
            .collect();
        self.line(format!(
            "host factor {f:.4}: {clean} of {} calibration bursts clean ({BURST_UNITS} units each, {CALIBRATION_REF_MS} ms per unit at the reference speed); \
             most foreign CPU during a burst {:.3}% of its own; unit ms per burst {per_burst:.3?}",
            self.bursts.len(),
            100.0 * worst
        ));
        self.check(
            &format!(
                "host calibration: at least half the bursts ran with the rest of the process idle (< {}% foreign CPU)",
                100.0 * MAX_FOREIGN_CPU
            ),
            clean > 0 && 2 * clean >= self.bursts.len(),
        );
        f
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The end-to-end figures a workload's measured phase yields; every
/// workload fills both.
pub struct Headline {
    /// Work items completed per second over the throughput phase.
    pub throughput_per_s: f64,
    /// Trimmed mean wall time of the workload's unit operation, in ms.
    pub latency_ms: f64,
}

/// Measured phases alternate this many times in a run, so each metric
/// samples the whole run rather than one stretch of it.
pub const ROUNDS: usize = 8;

/// Worker threads the machine offers (the pool width every workload runs at).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:")
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn status_kb(key: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The ROADMAP training configuration: FNO2d w8 l4 m8, 10 → 2 channels,
/// 32-wide lifting/projection MLPs (the CLI's choice below 128²).
pub fn smoke_config() -> FnoConfig {
    small_mlp(FnoConfig::fno2d(8, 4, 8, 2))
}

/// The hybrid-marching model of `solve64`: 10 → 5 channels, as in the
/// paper's five-frame hybrid windows.
pub fn solve_config() -> FnoConfig {
    small_mlp(FnoConfig::fno2d(8, 4, 8, 5))
}

/// Table I "2D FNO + Channels (10), w8": 288,562 parameters.
pub fn paper_config() -> FnoConfig {
    FnoConfig::fno2d(8, 4, 32, 10)
}

fn small_mlp(mut cfg: FnoConfig) -> FnoConfig {
    cfg.lifting_channels = 32;
    cfg.projection_channels = 32;
    cfg
}

pub const SMOKE_GRID: usize = 32;
pub const SMOKE_BATCH: usize = 8;
pub const SMOKE_LR: f64 = 5e-3;

/// The spectral-generator dataset behind `train-smoke32`.
pub fn smoke_dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        n_grid: SMOKE_GRID,
        samples: 4,
        snapshots: 22,
        dt_sample_tc: 0.005,
        burn_in_tc: 0.1,
        reynolds: 1000.0,
        ic: IcSpec { k_min: 2, k_max: 5 },
        solver: SolverKind::SpectralNs,
        seed,
        probe_every: 0,
    }
}

/// Windows every scalar trajectory of `ds` into 10 → 2 training pairs.
pub fn smoke_pairs(ds: &TurbulenceDataset) -> Vec<Pair> {
    let flat = split_components(&ds.velocity);
    let spec = WindowSpec {
        input_len: 10,
        output_len: 2,
        stride: 2,
    };
    (0..flat.dims()[0])
        .flat_map(|s| windows(&flat.index_axis0(s), &spec))
        .collect()
}

/// Seeded smooth synthetic scalar frames `[frames, n, n]`: a handful of
/// low Fourier modes whose phases drift from frame to frame, standing in
/// for solver data where generating it would dominate the run.
pub fn synthetic_frames(seed: u64, frames: usize, n: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let modes: Vec<[f64; 5]> = (0..6)
        .map(|_| {
            [
                (1 + rng.gen_range(0..6)) as f64,
                (1 + rng.gen_range(0..6)) as f64,
                rng.gen::<f64>() * 0.5 + 0.1,
                rng.gen::<f64>() * std::f64::consts::TAU,
                (rng.gen::<f64>() - 0.5) * 0.2,
            ]
        })
        .collect();
    let tau = std::f64::consts::TAU / n as f64;
    let mut data = Vec::with_capacity(frames * n * n);
    for t in 0..frames {
        for y in 0..n {
            for x in 0..n {
                let (t, y, x) = (t as f64, y as f64, x as f64);
                data.push(
                    modes
                        .iter()
                        .map(|&[kx, ky, a, ph, drift]| {
                            a * (tau * (kx * x + ky * y) + ph + drift * t).sin()
                        })
                        .sum(),
                );
            }
        }
    }
    Tensor::from_vec(&[frames, n, n], data)
}

/// Rounds every entry through `f32`, so a field survives the serving wire
/// format unchanged.
pub fn f32_exact(t: &Tensor) -> Tensor {
    t.map(|v| v as f32 as f64)
}

/// Largest `|a − b| / (1 + |b|)` over two equally shaped tensors.
pub fn max_rel_diff(a: &Tensor, b: &Tensor) -> f64 {
    if a.dims() != b.dims() {
        return f64::INFINITY;
    }
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
        .fold(0.0, f64::max)
}
