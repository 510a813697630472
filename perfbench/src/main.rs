//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process at pool width `nproc` and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones. Human-readable
//! lines before it carry the run manifest, each workload's named figures with
//! their sample counts, and every correctness check. A failed check makes
//! `correct` false and the exit code 1. See `README.md` beside this crate.

mod common;
mod layers;
mod paper;
mod probes;
mod serve;
mod solve;
mod stats;
mod train;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use common::{host_factor, nproc, peak_rss_mb, Headline, Report};
use layers::Shape;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A workload: seeded set-up, a measured phase, correctness checks
/// outside the timed work, and the shapes its per-layer metrics use.
pub trait Workload: Sized {
    fn setup(seed: u64) -> Self;
    fn measure(&mut self, seconds: f64, rep: &mut Report) -> Headline;
    fn verify(&mut self, rep: &mut Report);
    fn shape(&self) -> Shape;
}

/// Counts every allocation in the process, for the per-step memory
/// metrics, and tracks the high-water mark of live heap bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    grow(size);
}

fn grow(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` since the process started.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Most heap bytes live at once since the process started, in MB.
fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / 1e6
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse `{val}`");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run<W: Workload>(args: &Args) -> Report {
    let mut rep = Report::default();
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut w: Option<W> = None;
        for _ in 0..SETUPS {
            drop(w.take());
            rep.calibrate();
            let t0 = Instant::now();
            w = Some(W::setup(args.seed));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut w = w.expect("at least one set-up");
        let h = w.measure(args.seconds, &mut rep);
        w.verify(&mut rep);
        drop(w);
        rep.calibrate();
        // Timings are reported at the reference host speed: the host's
        // speed drifts by up to 2x over minutes, and the calibration bursts
        // taken between the program's phases slow down with it.
        let f = rep.run_host_factor();
        let setup_s = stats::median(&setups);
        rep.line(format!(
            "as measured: setup_s {setup_s:.4} (samples {setups:.4?}), throughput_per_s {:.4}, latency_ms {:.4}",
            h.throughput_per_s, h.latency_ms
        ));
        rep.line(format!("peak_rss_mb = {:.3} MB (VmHWM)", peak_rss_mb()));
        rep.metric("setup_s", setup_s / f, "s");
        rep.metric("throughput_per_s", h.throughput_per_s * f, "1/s");
        rep.metric("latency_ms", h.latency_ms / f, "ms");
        rep.metric("peak_heap_mb", peak_heap_mb(), "MB");
        return rep;
    }
    let ceilings = probes::Ceilings::measure(&mut rep);
    let mut w = W::setup(args.seed);
    // Tracing off and on alternate as off, on, on, off, and each phase's
    // rate is put at the reference host speed by the calibration bursts
    // around it, so neither host drift nor phase order reads as tracing cost.
    let mut rates = [0.0f64; 2];
    ft_obs::reset();
    for traced in [false, true, true, false] {
        let first_burst = rep.bursts.len();
        ft_obs::set_enabled(traced);
        let h = w.measure(args.seconds / 4.0, &mut rep);
        ft_obs::set_enabled(false);
        let f = host_factor(&rep.bursts[first_burst..]);
        rates[usize::from(traced)] += h.throughput_per_s * f / 2.0;
    }
    let [off, on] = rates;
    let hits = probes::counter("fft.plan_cache.hits") as f64;
    let misses = probes::counter("fft.plan_cache.misses") as f64;
    rep.metric(
        "fft.plan_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    rep.metric("obs.trace_overhead_frac", off / on - 1.0, "ratio");
    rep.line(format!(
        "tracing off / on: throughput_per_s {off:.4} / {on:.4} at the reference host speed (phases off, on, on, off); \
         traced plan cache {hits} hits, {misses} misses"
    ));
    // The engine figures describe serve-mix32's traffic. A workload that
    // served none gets them from a short serve-mix32 segment in the probes.
    let served = probes::counter("serve.requests") > 0;
    if served {
        probes::engine_metrics(&mut rep, "serve-mix32's traced phases");
    }
    w.verify(&mut rep);
    let shape = w.shape();
    drop(w);
    layers::measure(&shape, &ceilings, &mut rep);
    probes::measure(args.seed, !served, &mut rep);
    rep.run_host_factor();
    rep
}

/// `git` commit of the working directory, or why there is none.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn manifest(args: &Args) -> String {
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git\":\"{}\",\"rustc\":\"{}\",\"profile\":\"release\",\"nproc\":{},\"pool_width\":{},\"llc\":\"{}\",\"loadavg\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_commit(),
        rustc_version(),
        nproc(),
        rayon::current_num_threads(),
        llc.trim(),
        load.trim()
    )
}

fn result_json(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    // Child mode: the canonical training run at a given pool width.
    if let [flag, width, epochs] = &argv[..] {
        if flag == "--child-canonical" {
            let (Ok(width), Ok(epochs)) = (width.parse(), epochs.parse()) else {
                return ExitCode::from(2);
            };
            rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build_global()
                .expect("fresh pool");
            let (loss, rate) = train::canonical_run(epochs);
            println!("{} {rate}", loss.to_bits());
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(nproc())
        .build_global()
        .expect("fresh pool");
    println!("manifest {}", manifest(&args));
    let mut rep = match args.workload.as_str() {
        "train-smoke32" => run::<train::TrainSmoke>(&args),
        "paper256" => run::<paper::Paper256>(&args),
        "serve-mix32" => run::<serve::ServeMix>(&args),
        "solve64" => run::<solve::Solve64>(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (train-smoke32, paper256, serve-mix32, solve64)");
            return ExitCode::from(2);
        }
    };
    for m in rep
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect::<Vec<_>>()
    {
        rep.check(&format!("metric {m} is finite"), false);
    }
    for m in rep.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        m.value = 0.0;
    }
    for line in &rep.lines {
        println!("  {line}");
    }
    for (what, ok) in &rep.checks {
        println!("  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for m in &rep.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&rep));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
