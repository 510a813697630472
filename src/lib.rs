//! # fno2d-turbulence
//!
//! Rust reproduction of *"Fourier neural operators for spatiotemporal
//! dynamics in two-dimensional turbulence"* (Atif et al., SC 2024).
//!
//! This umbrella crate re-exports the whole workspace so downstream users
//! (and the `examples/` binaries) can depend on a single crate:
//!
//! * [`tensor`] — dense real/complex tensors,
//! * [`fft`] — from-scratch FFTs (radix-2, mixed-radix, Bluestein, real, N-d),
//! * [`lbm`] — entropic lattice Boltzmann D2Q9 data generator,
//! * [`ns`] — pseudo-spectral and finite-difference Navier-Stokes solvers,
//! * [`data`] — dataset generation, normalization, windowing, on-disk format,
//! * [`analysis`] — flow statistics, spectra, Lyapunov exponents,
//! * [`nn`] — neural-net substrate with hand-derived reverse-mode gradients,
//! * [`fno`] — the paper's contribution: FNO2d/FNO3d, training, rollout and
//!   the hybrid FNO-PDE orchestrator,
//! * [`obs`] — observability substrate: timing spans, counters/gauges,
//!   JSONL metric streaming and `BENCH_*.json` emission (off by default,
//!   zero overhead when disabled),
//! * [`serve`] — inference serving: model registry, a request engine
//!   with admission control that runs one forward per request, stateful
//!   rollout sessions, and the `fno-serve` wire protocol.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

pub use ft_analysis as analysis;
pub use ft_data as data;
pub use ft_fft as fft;
pub use ft_lbm as lbm;
pub use ft_nn as nn;
pub use ft_ns as ns;
pub use ft_obs as obs;
pub use ft_serve as serve;
pub use ft_tensor as tensor;
pub use fno_core as fno;

use std::collections::HashMap;

/// Workspace version, mirrored from the crate metadata.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Sizes the process's worker pool from a binary's `--threads` value. Call
/// it before anything runs on the pool: the width can be fixed only once,
/// so a second sizing is an error, as is a value that does not parse.
pub fn size_pool(threads: Option<&str>) -> Result<(), String> {
    let Some(threads) = threads else { return Ok(()) };
    let n: usize = threads
        .parse()
        .map_err(|_| format!("--threads: cannot parse `{threads}`"))?;
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| format!("--threads {n}: {e}"))
}

/// A binary's parsed options: `--key value` as `key → value`, a flag
/// `--key` as `key → "true"`.
pub type Opts = HashMap<String, String>;

/// Parses a binary's command line. `options` names every option the
/// command takes a value for and `flags` every option it takes bare; any
/// other `--option` is an error, so a mistyped name is refused instead of
/// silently ignored. The caller prints its usage text with the error.
pub fn parse_opts(args: &[String], options: &[&str], flags: &[&str]) -> Result<Opts, String> {
    let mut out = Opts::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got `{a}`"))?;
        if flags.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
        } else if options.contains(&key) {
            let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.insert(key.to_string(), val.clone());
        } else {
            return Err(format!("unknown option `--{key}`"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_opts_reads_options_and_flags() {
        let line = args("--epochs 5 --profile --lr 0.1");
        let opts = parse_opts(&line, &["epochs", "lr"], &["profile"]).unwrap();
        assert_eq!(opts["epochs"], "5");
        assert_eq!(opts["lr"], "0.1");
        assert_eq!(opts["profile"], "true");
    }

    #[test]
    fn parse_opts_refuses_what_the_command_does_not_take() {
        let err = parse_opts(&args("--epoch 5"), &["epochs"], &[]).unwrap_err();
        assert_eq!(err, "unknown option `--epoch`");
        assert!(parse_opts(&args("--profile"), &["epochs"], &[]).is_err());
        assert!(parse_opts(&args("--epochs"), &["epochs"], &[]).is_err(), "missing value");
        assert!(parse_opts(&args("epochs 5"), &["epochs"], &[]).is_err(), "missing dashes");
    }
}
