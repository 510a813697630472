#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from anywhere inside the repo.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --no-lint  # skip clippy (e.g. when only docs changed)
set -euo pipefail
cd "$(dirname "$0")/.."

LINT=1
for arg in "$@"; do
    case "$arg" in
        --no-lint) LINT=0 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

# The data-parallel determinism contract (DESIGN.md §13) is timing-
# sensitive by nature, so the bitwise parity proptest also runs under
# release optimizations, where reordering bugs are likeliest to surface.
echo "==> parallel-parity proptest (release)"
cargo test -q --release --offline -p fno-core --test parallel_parity

if [ "$LINT" = 1 ]; then
    echo "==> cargo clippy (workspace, warnings are errors)"
    cargo clippy --workspace --offline -- -D warnings
fi

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

# Smoke benchmark: a seconds-scale generate+train writing BENCH_tier1.json
# at the repo root, gated against the committed baseline. Counters are
# deterministic for the fixed seed/config; timings use the loose one-sided
# tolerance of `bench_compare` so only a >4x slowdown fails the gate.
echo "==> smoke benchmark (BENCH_tier1.json)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/fno2dturb generate --out "$SMOKE_DIR/data.ftt" \
    --grid 16 --samples 2 --snapshots 20 --reynolds 500 --seed 1 \
    --metrics-out "$SMOKE_DIR/generate.jsonl" --bench-out "$SMOKE_DIR/BENCH_gen.json"
# --threads 2 exercises the data-parallel batch sharding; the counters in
# the baseline are exact for the fixed seed because the training
# trajectory is thread-count invariant (DESIGN.md §13), and the
# train.samples_per_sec gauge is gated one-sided (throughput class).
./target/release/fno2dturb train --data "$SMOKE_DIR/data.ftt" \
    --model "$SMOKE_DIR/model.ftc" --width 4 --layers 2 --modes 4 \
    --out-channels 2 --epochs 2 --batch 4 --probe-every 1 --threads 2 \
    --metrics-out "$SMOKE_DIR/train.jsonl" --bench-out BENCH_tier1.json

echo "==> bench_compare gate (BENCH_baseline.json vs BENCH_tier1.json)"
./target/release/bench_compare BENCH_baseline.json BENCH_tier1.json

# Serve smoke: stand up fno-serve on a kernel-assigned loopback port, fire
# 50 closed-loop requests at the smoke model, then gate the client-side
# bench file. The committed baseline pins `serve_bench.errors` and
# `.rejected` to exactly 0 (zero-valued counter baselines are exact in
# bench_compare), so any failed or shed request fails CI.
echo "==> serve smoke (fno-serve + serve-bench, BENCH_serve.json)"
./target/release/fno-serve --model "$SMOKE_DIR/model.ftc" --addr 127.0.0.1:0 \
    2>"$SMOKE_DIR/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on //p' "$SMOKE_DIR/serve.log" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "fno-serve did not start:" >&2
    cat "$SMOKE_DIR/serve.log" >&2
    exit 1
fi
./target/release/serve-bench --addr "$ADDR" --requests 50 --clients 4 \
    --channels 10 --grid 16 --shutdown --bench-out "$SMOKE_DIR/BENCH_serve.json"
wait "$SERVE_PID"

echo "==> bench_compare gate (BENCH_serve_baseline.json vs BENCH_serve.json)"
./target/release/bench_compare BENCH_serve_baseline.json "$SMOKE_DIR/BENCH_serve.json"

# Negative serve step: a truncated model file must be refused with a
# clean `error:` line and a non-zero exit, never a panic.
echo "==> fno-serve refuses a truncated model file"
head -c 100 "$SMOKE_DIR/model.ftc" > "$SMOKE_DIR/truncated.ftc"
if ./target/release/fno-serve --model "$SMOKE_DIR/truncated.ftc" --addr 127.0.0.1:0 \
    2>"$SMOKE_DIR/truncated.log"; then
    echo "fno-serve accepted a truncated model file" >&2
    exit 1
fi
if ! grep -q '^error:' "$SMOKE_DIR/truncated.log" || grep -q 'panicked' "$SMOKE_DIR/truncated.log"; then
    echo "fno-serve did not fail cleanly on a truncated model file:" >&2
    cat "$SMOKE_DIR/truncated.log" >&2
    exit 1
fi

echo "CI OK"
