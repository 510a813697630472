//! The determinism contract of DESIGN.md §13 covers counters as well as
//! weights: `fno2dturb train` at `--threads 1` and at `--threads 2` writes
//! bench files with equal `counters` objects and byte-identical models.

use std::path::Path;
use std::process::Command;

/// Runs `fno2dturb` with the whitespace-separated `flags`, then each
/// `(flag, path)` pair of `paths`.
fn fno2dturb(flags: &str, paths: &[(&str, &Path)]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fno2dturb"));
    cmd.args(flags.split_whitespace());
    for (flag, path) in paths {
        cmd.arg(flag).arg(path);
    }
    let out = cmd.output().expect("run fno2dturb");
    assert!(
        out.status.success(),
        "fno2dturb {flags} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The `"counters": {...}` object of a bench file, as written.
fn counters(bench: &Path) -> String {
    let text = std::fs::read_to_string(bench).expect("read bench file");
    let start = text.find("\"counters\"").expect("bench file has counters");
    let end = start + text[start..].find('}').expect("counters object closes");
    text[start..=end].to_string()
}

#[test]
fn train_counters_and_model_do_not_depend_on_threads() {
    let dir = std::env::temp_dir().join(format!("ft_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.ftt");
    fno2dturb(
        "generate --grid 16 --samples 2 --snapshots 20 --reynolds 500 --seed 1",
        &[("--out", &data)],
    );

    let train = |threads: &str| -> (String, Vec<u8>) {
        let model = dir.join(format!("model-{threads}.ftc"));
        let bench = dir.join(format!("bench-{threads}.json"));
        let metrics = dir.join(format!("train-{threads}.jsonl"));
        fno2dturb(
            &format!(
                "train --width 4 --layers 2 --modes 4 --out-channels 2 --epochs 2 \
                 --batch 4 --probe-every 1 --threads {threads}"
            ),
            &[
                ("--data", &data),
                ("--model", &model),
                ("--metrics-out", &metrics),
                ("--bench-out", &bench),
            ],
        );
        let model = std::fs::read(&model).expect("read model file");
        (counters(&bench), model)
    };
    let (counters_1, model_1) = train("1");
    let (counters_2, model_2) = train("2");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(counters_1.contains("fft.plan_cache.misses"), "{counters_1}");
    assert_eq!(counters_1, counters_2, "bench counters depend on --threads");
    assert!(model_1 == model_2, "model files depend on --threads");
}
