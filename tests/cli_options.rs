//! Every binary refuses an option its command does not take — a mistyped
//! `--epoch` is an `error:` with the usage text and a non-zero exit, never
//! a run with the default silently in its place.

use std::process::Command;

#[test]
fn mistyped_options_are_refused_with_the_usage_text() {
    let fno2dturb = env!("CARGO_BIN_EXE_fno2dturb");
    let fno_serve = env!("CARGO_BIN_EXE_fno-serve");
    let serve_bench = env!("CARGO_BIN_EXE_serve-bench");
    // Each row: binary, arguments, and the option it must refuse.
    let runs: [(&str, &[&str], &str); 10] = [
        (fno2dturb, &["train", "--data", "d.ftt", "--model", "m.ftc", "--epoch", "5"], "--epoch"),
        // `--epochs` is a `train` option; `rollout` does not take it.
        (fno2dturb, &["rollout", "--data", "d.ftt", "--model", "m.ftc", "--epochs", "5"], "--epochs"),
        (fno_serve, &["--modle", "m.ftc"], "--modle"),
        (serve_bench, &["--addr", "127.0.0.1:1", "--request", "5"], "--request"),
        // Options of the removed request batching and in-process bench.
        (fno_serve, &["--model", "m.ftc", "--max-batch", "8"], "--max-batch"),
        (fno_serve, &["--model", "m.ftc", "--batch-window-us", "200"], "--batch-window-us"),
        (fno_serve, &["--model", "m.ftc", "--queue-capacity", "8"], "--queue-capacity"),
        (serve_bench, &["--addr", "127.0.0.1:1", "--inproc"], "--inproc"),
        (serve_bench, &["--addr", "127.0.0.1:1", "--compare-batching"], "--compare-batching"),
        (serve_bench, &["--addr", "127.0.0.1:1", "--threads", "1"], "--threads"),
    ];
    for (bin, args, refused) in runs {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?} succeeded");
        let named = stderr.starts_with(&format!("error: unknown option `{refused}`"));
        assert!(named && stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}

/// A loader error names the option and the file it came from: a cut
/// `--data` file and a missing `--model` file each give an `error: --data
/// <path>: …` / `error: --model <path>: …` line and a non-zero exit.
#[test]
fn loader_errors_name_their_option_and_path() {
    use fno2d_turbulence::data::save_tensor;
    use fno2d_turbulence::tensor::Tensor;

    let dir = std::env::temp_dir().join(format!("ft_cli_loaders_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (data, cut, model) = (dir.join("data.ftt"), dir.join("cut.ftt"), dir.join("missing.ftc"));
    save_tensor(&data, &Tensor::from_fn(&[1, 12, 2, 8, 8], |i| i[1] as f64)).expect("write data");
    let bytes = std::fs::read(&data).expect("read data");
    std::fs::write(&cut, &bytes[..100]).expect("write cut data");

    for (flag, data_file) in [("--data", &cut), ("--model", &data)] {
        let out = Command::new(env!("CARGO_BIN_EXE_fno2dturb"))
            .arg("rollout")
            .arg("--data")
            .arg(data_file)
            .arg("--model")
            .arg(&model)
            .output()
            .expect("run fno2dturb");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = if flag == "--data" { &cut } else { &model };
        let want = format!("error: {flag} {}: ", named.display());
        assert!(!out.status.success(), "rollout succeeded with a bad {flag}");
        assert!(stderr.lines().any(|l| l.starts_with(&want)), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
