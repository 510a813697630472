//! `serve-bench` — load generator and batching benchmark for `fno-serve`.
//!
//! ```text
//! serve-bench --addr 127.0.0.1:7878 [--requests 50] [--clients 4]
//!             [--channels 10] [--grid 16] [--model-name default]
//!             [--rate R] [--shutdown] [--bench-out FILE]
//! serve-bench --inproc --model model.ftc --compare-batching
//!             [--requests 512] [--clients 16] [--max-batch 16]
//!             [--bench-out results/BENCH_serve.json]
//! ```
//!
//! **TCP mode** (`--addr`) drives a running `fno-serve` over loopback or
//! the network. The default is closed-loop: `--clients` connections each
//! send a predict request, wait for the response, and repeat until the
//! shared budget of `--requests` is spent — concurrency across
//! connections is what gives the server's dispatcher batching
//! opportunities. `--rate R` switches to open-loop Poisson arrivals:
//! exponential inter-send gaps at mean rate `R`/s per connection, with a
//! reader thread draining responses. `--shutdown` sends a `shutdown`
//! frame when done so scripted runs can stop the server. Client-side
//! outcomes are counted (`serve_bench.requests` / `.errors` /
//! `.rejected`) and end-to-end latency is recorded in
//! `serve_bench.e2e_seconds`; everything lands in an `ft-obs/bench-v1`
//! JSON (default `BENCH_serve.json`) for `bench_compare` gating.
//!
//! **In-process mode** (`--inproc --compare-batching`) loads the model
//! into this process and runs the same closed-loop workload twice through
//! a [`ServeEngine`] — once with `max_batch 1` (batching disabled), once
//! with `--max-batch` — and reports the sustained-throughput ratio. This
//! isolates the micro-batching win from network effects; the acceptance
//! demo in `results/BENCH_serve.json` comes from this mode.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fno2d_turbulence::fno::Fno;
use fno2d_turbulence::serve::{proto, ModelRegistry, ServeConfig, ServeEngine};
use fno2d_turbulence::tensor::Tensor;
use ft_obs::{Counter, Histogram, Record};

/// Requests that completed with an `ok` response.
static REQUESTS: Counter = Counter::new("serve_bench.requests");
/// Requests that failed for any reason other than admission rejection.
static ERRORS: Counter = Counter::new("serve_bench.errors");
/// Requests the server rejected with `overloaded`.
static REJECTED: Counter = Counter::new("serve_bench.rejected");
/// Client-observed end-to-end latency (send to decoded response).
static E2E: Histogram = Histogram::new("serve_bench.e2e_seconds");

const USAGE: &str = "usage:
  serve-bench --addr HOST:PORT [--requests 50] [--clients 4] [--channels 10]
              [--grid 16] [--model-name default] [--rate R] [--shutdown]
              [--bench-out BENCH_serve.json] [--metrics-out FILE] [--profile]
  serve-bench --inproc --model model.ftc --compare-batching [--requests 512]
              [--clients 16] [--max-batch 16] [--bench-out results/BENCH_serve.json]

TCP mode load-tests a running fno-serve (closed-loop by default, Poisson
open-loop with --rate). In-process mode measures the micro-batching
speedup (max_batch 1 vs --max-batch) on the same model and workload.";

type Opts = HashMap<String, String>;

const FLAGS: &[&str] = &["profile", "shutdown", "inproc", "compare-batching"];

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // The bench file needs live counters/histograms regardless of the
    // observability flags.
    ft_obs::set_enabled(true);
    if let Some(path) = opts.get("metrics-out") {
        if let Err(e) = ft_obs::open_jsonl(path) {
            eprintln!("error: --metrics-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut manifest = ft_obs::flight::run_manifest("serve-bench");
    let mut keys: Vec<&String> = opts.keys().collect();
    keys.sort();
    for key in keys {
        manifest = manifest.str(key, &opts[key]);
    }
    ft_obs::flight::set_manifest(manifest);

    let result = if opts.contains_key("inproc") {
        run_inproc(&opts)
    } else {
        run_tcp(&opts)
    };
    ft_obs::close_jsonl();
    if opts.contains_key("profile") {
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

/// A deterministic xorshift64* stream, for Poisson inter-arrival gaps.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        // 53 mantissa bits -> uniform in (0, 1].
        ((self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with mean `1/rate` seconds.
    fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.next_f64().ln() / rate)
    }
}

/// The synthetic predict input every client sends: shape
/// `[channels, grid, grid]`, varied per request so payloads are not
/// byte-identical.
fn bench_input(channels: usize, grid: usize, salt: u64) -> Tensor {
    let phase = (salt % 97) as f64 * 0.05;
    Tensor::from_fn(&[channels, grid, grid], |i| {
        (i[0] as f64 * 0.7 + i[1] as f64 * 0.31 + i[2] as f64 * 0.11 + phase).sin()
    })
}

fn connect_with_retry(addr: &str) -> Result<TcpStream, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e} (gave up after 5s)"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Sends one predict and classifies the outcome into the bench counters.
fn do_predict(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    model: &str,
    input: &Tensor,
) -> Result<(), String> {
    let t0 = Instant::now();
    proto::write_predict(writer, model, input).map_err(|e| format!("send: {e}"))?;
    let frame = proto::read_frame(reader)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("server closed the connection")?;
    E2E.observe(t0.elapsed().as_secs_f64());
    let (header, _payload) = frame;
    if header.get("ok") == Some(&proto::Value::Bool(true)) {
        REQUESTS.inc();
    } else if header.get("error").and_then(proto::Value::as_str) == Some("overloaded") {
        REJECTED.inc();
    } else {
        ERRORS.inc();
    }
    Ok(())
}

fn run_tcp(opts: &Opts) -> Result<(), String> {
    // Register the outcome counters up front so a clean run still reports
    // explicit zeros — the CI baseline pins `errors`/`rejected` to 0.
    REQUESTS.add(0);
    ERRORS.add(0);
    REJECTED.add(0);
    let addr = opts.get("addr").ok_or("--addr is required (or use --inproc)")?.clone();
    let total: u64 = get(opts, "requests", 50u64)?;
    let clients: usize = get(opts, "clients", 4)?.max(1);
    let channels: usize = get(opts, "channels", 10)?;
    let grid: usize = get(opts, "grid", 16)?;
    let model = opts.get("model-name").cloned().unwrap_or_else(|| "default".to_string());
    let rate: f64 = get(opts, "rate", 0.0)?;

    let budget = Arc::new(AtomicU64::new(total));
    let start = Instant::now();
    let mut workers = Vec::new();
    for c in 0..clients {
        let addr = addr.clone();
        let model = model.clone();
        let budget = Arc::clone(&budget);
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            let stream = connect_with_retry(&addr)?;
            stream.set_nodelay(true).ok();
            let mut reader = BufReader::new(
                stream.try_clone().map_err(|e| format!("clone stream: {e}"))?,
            );
            let mut writer = BufWriter::new(stream);
            let mut rng = XorShift(0x9E3779B97F4A7C15 ^ (c as u64 + 1));
            loop {
                // Claim one request from the shared budget.
                let prev = budget.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    n.checked_sub(1)
                });
                let Ok(n) = prev else { return Ok(()) };
                if rate > 0.0 {
                    std::thread::sleep(rng.exp_gap(rate));
                }
                let input = bench_input(channels, grid, n);
                do_predict(&mut reader, &mut writer, &model, &input)?;
            }
        }));
    }
    let mut first_err = None;
    for w in workers {
        if let Err(e) = w.join().map_err(|_| "client thread panicked".to_string())? {
            first_err.get_or_insert(e);
        }
    }
    let wall = start.elapsed().as_secs_f64();

    if opts.contains_key("shutdown") {
        let stream = connect_with_retry(&addr)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = BufWriter::new(stream);
        proto::write_bare(&mut writer, "shutdown").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let _ = proto::read_frame(&mut reader);
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let ok = REQUESTS.get();
    let throughput = ok as f64 / wall.max(1e-9);
    eprintln!(
        "serve-bench: {ok} ok, {} rejected, {} errors in {wall:.2}s ({throughput:.1} req/s, \
         {clients} clients{})",
        REJECTED.get(),
        ERRORS.get(),
        if rate > 0.0 { format!(", Poisson {rate}/s per client") } else { ", closed-loop".into() }
    );
    let record = Record::new("serve_load")
        .str("mode", if rate > 0.0 { "poisson" } else { "closed_loop" })
        .u64("clients", clients as u64)
        .u64("requests_ok", ok)
        .u64("rejected", REJECTED.get())
        .u64("errors", ERRORS.get())
        .f64("wall_seconds", wall)
        .f64("throughput_per_sec", throughput);
    let bench = opts.get("bench-out").map(String::as_str).unwrap_or("BENCH_serve.json");
    ft_obs::bench::write_bench_json(bench, "experiment", "serve-bench", wall, &[record])
        .map_err(|e| format!("{bench}: {e}"))?;
    eprintln!("wrote {bench}");
    Ok(())
}

/// One closed-loop phase against an in-process engine: `clients` worker
/// threads share a budget of `total` requests. Returns (wall, ok).
fn inproc_phase(
    model_path: &str,
    max_batch: usize,
    clients: usize,
    total: u64,
    channels: usize,
    grid: usize,
) -> Result<(f64, u64), String> {
    let mut reg = ModelRegistry::new();
    reg.load("bench", model_path).map_err(|e| format!("--model {model_path}: {e}"))?;
    let engine = ServeEngine::new(
        reg,
        ServeConfig {
            max_batch,
            queue_capacity: (clients * 2).max(16),
            ..Default::default()
        },
    );
    let budget = Arc::new(AtomicU64::new(total));
    let ok = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let h = engine.handle();
            let budget = Arc::clone(&budget);
            let ok = Arc::clone(&ok);
            scope.spawn(move || loop {
                if budget.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_err()
                {
                    return;
                }
                let input = bench_input(channels, grid, c as u64);
                match h.predict("bench", input) {
                    Ok(_) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => eprintln!("serve-bench: inproc predict failed: {e}"),
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, ok.load(Ordering::Acquire)))
}

fn run_inproc(opts: &Opts) -> Result<(), String> {
    if !opts.contains_key("compare-batching") {
        return Err("--inproc currently requires --compare-batching".into());
    }
    let model_path = opts.get("model").ok_or("--inproc needs --model model.ftc")?;
    let total: u64 = get(opts, "requests", 512u64)?;
    let clients: usize = get(opts, "clients", 16)?.max(2);
    let max_batch: usize = get(opts, "max-batch", 16)?.max(2);

    // Probe the model once for the input shape the phases should send.
    let cfg = Fno::load(model_path)
        .map_err(|e| format!("--model {model_path}: {e}"))?
        .config()
        .clone();
    let channels = cfg.in_channels;
    let grid = (2 * cfg.modes).max(8);

    eprintln!(
        "serve-bench: comparing max_batch 1 vs {max_batch} \
         ({clients} closed-loop clients × {total} requests, [{channels}, {grid}, {grid}] inputs)"
    );
    // Warm-up phase so allocator and cache state are comparable.
    inproc_phase(model_path, 1, clients, (total / 4).max(8), channels, grid)?;
    let (wall_1, ok_1) = inproc_phase(model_path, 1, clients, total, channels, grid)?;
    let (wall_b, ok_b) = inproc_phase(model_path, max_batch, clients, total, channels, grid)?;
    if ok_1 != total || ok_b != total {
        return Err(format!("phase dropped requests: {ok_1}/{total} and {ok_b}/{total} ok"));
    }
    let tput_1 = ok_1 as f64 / wall_1.max(1e-9);
    let tput_b = ok_b as f64 / wall_b.max(1e-9);
    let speedup = tput_b / tput_1.max(1e-9);
    eprintln!(
        "serve-bench: max_batch 1: {tput_1:.1} req/s | max_batch {max_batch}: {tput_b:.1} req/s \
         | speedup {speedup:.2}x"
    );

    let records = vec![
        Record::new("serve_phase")
            .u64("max_batch", 1)
            .u64("requests_ok", ok_1)
            .f64("wall_seconds", wall_1)
            .f64("throughput_per_sec", tput_1),
        Record::new("serve_phase")
            .u64("max_batch", max_batch as u64)
            .u64("requests_ok", ok_b)
            .f64("wall_seconds", wall_b)
            .f64("throughput_per_sec", tput_b),
        Record::new("batching_speedup")
            .u64("clients", clients as u64)
            .u64("requests_per_phase", total)
            .f64("speedup", speedup),
    ];
    let bench = opts
        .get("bench-out")
        .map(String::as_str)
        .unwrap_or("results/BENCH_serve.json");
    let wall = wall_1 + wall_b;
    ft_obs::bench::write_bench_json(bench, "experiment", "serve-bench-batching", wall, &records)
        .map_err(|e| format!("{bench}: {e}"))?;
    eprintln!("wrote {bench}");
    Ok(())
}
