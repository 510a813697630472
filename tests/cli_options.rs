//! Every binary refuses an option its command does not take — a mistyped
//! `--epoch` is an `error:` with the usage text and a non-zero exit, never
//! a run with the default silently in its place.

use std::process::Command;

#[test]
fn mistyped_options_are_refused_with_the_usage_text() {
    let fno2dturb = env!("CARGO_BIN_EXE_fno2dturb");
    let runs: [(&str, &[&str]); 4] = [
        (fno2dturb, &["train", "--data", "d.ftt", "--model", "m.ftc", "--epoch", "5"]),
        // `--epochs` is a `train` option; `rollout` does not take it.
        (fno2dturb, &["rollout", "--data", "d.ftt", "--model", "m.ftc", "--epochs", "5"]),
        (env!("CARGO_BIN_EXE_fno-serve"), &["--modle", "m.ftc"]),
        (env!("CARGO_BIN_EXE_serve-bench"), &["--addr", "127.0.0.1:1", "--request", "5"]),
    ];
    for (bin, args) in runs {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let typo = args.iter().rev().nth(1).unwrap();
        assert!(!out.status.success(), "{bin} {args:?} succeeded");
        let refused = stderr.starts_with(&format!("error: unknown option `{typo}`"));
        assert!(refused && stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}
