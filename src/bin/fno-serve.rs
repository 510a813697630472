//! `fno-serve` — TCP inference server for trained FNO models.
//!
//! ```text
//! fno-serve --model model.ftc [--name default]
//!           [--addr 127.0.0.1:7878]
//!           [--max-sessions 64] [--session-ttl-secs 300] [--threads N]
//!           [--metrics-out FILE] [--profile]
//! ```
//!
//! Loads one model per process (`--model`, registered under `--name`,
//! default `default`), then serves the newline-delimited-JSON wire
//! protocol documented in `ft_serve::proto` until a client sends a
//! `shutdown` frame. Shutdown is graceful: the accept loop stops, open
//! connections are joined, and every request already admitted completes
//! before the process exits. At most 64 connections are served at once
//! (`ft_serve::server::MAX_CONNECTIONS`); one more is answered with the
//! typed `overloaded` error and closed.
//!
//! `--model` takes any `FTC1` file with model metadata: the
//! `fno2dturb train --model` output or a trainer's `latest.ftc`. The
//! architecture is rebuilt from the metadata and every stored weight is
//! checked against it before any is restored; a file that does not fit is
//! refused with an `error:` line and a non-zero exit.
//!
//! `--threads N` sizes the global rayon pool once at startup; each
//! request's forward parallelises across that pool. A predict runs one
//! forward on its connection's thread, so predicts on different
//! connections run at the same time. The observability options
//! mirror `fno2dturb`: `--metrics-out` opens a JSONL stream (first record
//! is the run manifest), `--profile` prints the span/counter/histogram
//! report to stderr on exit.

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use fno2d_turbulence::serve::{server, ModelRegistry, ServeConfig, ServeEngine, SessionConfig};
use fno2d_turbulence::{parse_opts, Opts};

const USAGE: &str = "usage:
  fno-serve --model model.ftc [--name default]
            [--addr 127.0.0.1:7878]
            [--max-sessions 64] [--session-ttl-secs 300] [--threads N]
            [--metrics-out FILE] [--profile]

Serves predict/session requests over TCP (newline-delimited JSON headers,
little-endian f32 payloads) until a client sends a `shutdown` frame.";

/// Options `fno-serve` takes a value for.
const OPTIONS: &[&str] = &[
    "model", "name", "addr", "max-sessions", "session-ttl-secs", "threads", "metrics-out",
];

/// Options that are boolean flags (present/absent, no value argument).
const FLAGS: &[&str] = &["profile"];

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
    let opts = match parse_opts(&args, OPTIONS, FLAGS) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Size the pool before anything runs on it, so the manifest records
    // the width the server uses.
    if let Err(e) = fno2d_turbulence::size_pool(opts.get("threads").map(String::as_str)) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
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
        let mut manifest = ft_obs::flight::run_manifest("fno-serve");
        let mut keys: Vec<&String> = opts.keys().collect();
        keys.sort();
        for key in keys {
            manifest = manifest.str(key, &opts[key]);
        }
        ft_obs::flight::set_manifest(manifest);
    }
    let result = run(&opts);
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

fn run(opts: &Opts) -> Result<(), String> {
    let name = opts.get("name").map(String::as_str).unwrap_or("default");
    let mut registry = ModelRegistry::new();
    let path = opts.get("model").ok_or("--model is required")?;
    registry.load(name, path).map_err(|e| format!("--model {path}: {e}"))?;
    let entry = registry.get(name).expect("model just registered");
    eprintln!(
        "fno-serve: model `{name}` ({:?}, C_in = {}, {} parameters)",
        entry.config().kind,
        entry.config().in_channels,
        entry.config().param_count()
    );

    let cfg = ServeConfig {
        session: SessionConfig {
            max_sessions: get(opts, "max-sessions", 64)?,
            ttl: Duration::from_secs(get(opts, "session-ttl-secs", 300u64)?),
        },
    };
    let mut engine = ServeEngine::new(registry, cfg);

    let addr = opts.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let listener = TcpListener::bind(addr).map_err(|e| format!("--addr {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("fno-serve: listening on {local}");

    server::serve_tcp(engine.handle(), listener).map_err(|e| format!("serve: {e}"))?;
    eprintln!("fno-serve: connections finished; shutting down");
    engine.shutdown();
    Ok(())
}
