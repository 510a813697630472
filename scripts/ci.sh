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

# `cargo test` above builds only the root package's tests. The serving
# crate's suite and the whole fno-core package run here; fno-core's
# `loader_alloc` holds the FTT1, FTW1 and FTC1 loaders to a typed error and
# bounded heap on hostile bytes.
echo "==> ft-serve and fno-core suites"
cargo test -q --offline -p ft-serve
cargo test -q --offline -p fno-core

# The substrate suites: the binary codec (`ft-tensor`), FTT1 tensor files
# and the CSV writer (`ft-data`), and the FTW1 blob and the layers (`ft-nn`).
echo "==> ft-tensor, ft-data and ft-nn suites"
cargo test -q --offline -p ft-tensor -p ft-data -p ft-nn

# The observability crate: the one JSON codec against hostile text with a
# bounded heap (`json_proptests`), the disabled probes' allocation-free
# fast path (`no_alloc`) and the metric, span and bench-file tests (`obs`).
echo "==> ft-obs suite"
cargo test -q --offline -p ft-obs

# The counting-allocator tests are plain `main` binaries (`harness =
# false`): each counts every allocation in its process, so only its own
# threads may run in the measured window, and every count is exact. A
# count that depended on another thread's timing would show here as a
# failure in some of the runs.
echo "==> counting-allocator tests (no_alloc, alloc_stability, infer_no_tape_alloc, step_alloc), 20 runs each"
for _ in $(seq 1 20); do
    cargo test -q --offline -p ft-obs --test no_alloc >/dev/null
    cargo test -q --offline -p ft-fft --test alloc_stability >/dev/null
    cargo test -q --offline -p fno-core --test infer_no_tape_alloc >/dev/null
    cargo test -q --offline -p ft-ns --test step_alloc >/dev/null
done

# The in-tree stand-ins for rayon, rand and proptest are excluded from the
# workspace, so neither `cargo test` nor `-p` reaches their suites: among
# them the pool's panic-propagation and nested-scope tests. They build into
# the shared target directory. The bench crate's library tests run here too.
echo "==> compat shims (rayon, rand, proptest) and ft-bench suites"
for shim in rayon rand proptest; do
    cargo test -q --offline --manifest-path "crates/compat/$shim/Cargo.toml" --target-dir target
done
cargo test -q --offline -p ft-bench

# The FFT, spectral Navier-Stokes and analysis suites, optimized: the FFT
# oracles and plan-cache counters, the solver checks and the flow
# diagnostics. One of them takes minutes unoptimized.
echo "==> ft-fft, ft-ns and ft-analysis suites (release)"
cargo test -q --release --offline -p ft-fft -p ft-ns -p ft-analysis

# The transforms' and the spectral solver's output bits are pinned
# (`ft-fft/tests/bits.rs`, `ft-ns/tests/bits.rs`, hashes recorded before
# the radix-2 kernel was line-blocked). The release run is in the suites
# above; the pins must hold unoptimized as well.
echo "==> pinned FFT and spectral-solver bits (debug)"
cargo test -q --offline -p ft-fft --test bits
cargo test -q --offline -p ft-ns --test bits

# The LBM solver's unit tests: the entropic α solve against its bisection
# oracle (a proptest over near- and far-from-equilibrium cells) and the
# physics checks, optimized, as the solver runs in data generation.
echo "==> ft-lbm unit tests (release)"
cargo test -q --release --offline -p ft-lbm

# The data-parallel determinism contract (DESIGN.md §13) is timing-
# sensitive by nature, so the bitwise parity proptest also runs under
# release optimizations, where reordering bugs are likeliest to surface.
echo "==> parallel-parity proptest (release)"
cargo test -q --release --offline -p fno-core --test parallel_parity

# The GELU kernel's bits are pinned (activation::tests), and so are the
# fused pointwise MLP's outputs and gradients (mlp::tests): check them on
# the optimized build too, where their loops are vectorized.
echo "==> GELU accuracy and pinned bits, pointwise MLP (release)"
cargo test -q --release --offline -p ft-nn --lib activation::
cargo test -q --release --offline -p ft-nn --lib mlp::

# The GELU, fused-MLP and radix-2 FFT kernels run compiled for the host's
# vector width (`ft_tensor::Isa`: AVX2, AVX-512 where the host reports
# them). Every level the host supports must give the baseline build's bits:
# the `every_isa` tests run each level on the same inputs, optimized, where
# the wide instantiations are vectorized (the FFT's compares a block of
# lines with one `process` call per line).
echo "==> ISA dispatch: every supported level gives the same bits (release)"
cargo test -q --release --offline -p ft-tensor --lib isa::
cargo test -q --release --offline -p ft-nn --lib every_isa
cargo test -q --release --offline -p ft-fft --lib every_isa

# The compact-spectrum SpectralConv must match its full-spectrum oracle bit
# for bit (outputs and weight gradients) on the optimized build as well.
echo "==> spectral layer: full-spectrum parity and adjoints (release)"
cargo test -q --release --offline -p ft-nn --lib spectral::

# Pinned to one core, `available_parallelism` (which honours the affinity
# mask) sizes a width-1 pool: the plan-cache diagnostics, the parity
# proptest, the fused pointwise-MLP tests, the spectral-layer parity tests,
# the ISA parity tests, the pinned FFT and solver bits, the batched real
# rows and the serving engine's tests (concurrent predicts included) must
# hold there as well as at the host's width.
echo "==> diagnostics + parallel-parity proptest + pointwise MLP + spectral layer + ISA parity + FFT bits + serving engine on one core (taskset -c 0)"
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo test -q --offline --test diagnostics
    taskset -c 0 cargo test -q --release --offline -p fno-core --test parallel_parity
    taskset -c 0 cargo test -q --offline -p ft-nn --lib mlp::
    taskset -c 0 cargo test -q --release --offline -p ft-nn --lib spectral::
    taskset -c 0 cargo test -q --release --offline -p ft-nn --lib every_isa
    taskset -c 0 cargo test -q --release --offline -p ft-fft --lib every_isa
    taskset -c 0 cargo test -q --release --offline -p ft-fft --lib real::
    taskset -c 0 cargo test -q --release --offline -p ft-fft --test bits
    taskset -c 0 cargo test -q --release --offline -p ft-ns --test bits
    taskset -c 0 cargo test -q --offline -p ft-serve --lib engine::
else
    echo "taskset not found: one-core step skipped"
fi

# Every target: libraries, binaries, tests, examples and benches, so lints
# in test code fail here too.
if [ "$LINT" = 1 ]; then
    echo "==> cargo clippy (workspace, all targets, warnings are errors)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
    # The compat shims are outside the workspace, so `--workspace` skips them.
    echo "==> cargo clippy (compat shims, all targets, warnings are errors)"
    for shim in rayon rand proptest; do
        cargo clippy --all-targets --offline --manifest-path "crates/compat/$shim/Cargo.toml" \
            --target-dir target -- -D warnings
    done
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
# Create the log first: the backgrounded server may not have opened it
# yet when the polling loop below first reads it.
: > "$SMOKE_DIR/serve.log"
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

# Malformed clients, before the good ones: a non-JSON header line and a
# 64 KiB line of `[` (a nesting bomb the depth-bounded reader must refuse)
# must each get a `protocol` error reply, and the server must keep
# accepting. These never touch serve-bench's counters, so its gate below
# is unchanged.
echo "==> serve smoke: malformed clients get protocol errors"
# Sends stdin on a fresh connection and prints the first reply line.
wire_reply() {
    local reply=""
    exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
    cat >&3
    IFS= read -r -t 10 reply <&3 || true
    exec 3<&-
    printf '%s\n' "$reply"
}
for probe in not-json bracket-bomb; do
    case "$probe" in
        not-json) REPLY_LINE=$(printf 'this is not json\n' | wire_reply) ;;
        bracket-bomb) REPLY_LINE=$({ head -c 65536 /dev/zero | tr '\0' '['; echo; } | wire_reply) ;;
    esac
    case "$REPLY_LINE" in
        *'"error":"protocol"'*) echo "$probe: $REPLY_LINE" ;;
        *) echo "fno-serve answered $probe with: '$REPLY_LINE'" >&2; exit 1 ;;
    esac
done
REPLY_LINE=$(printf '{"type":"ping"}\n' | wire_reply)
if [ "$REPLY_LINE" != '{"ok":true}' ]; then
    echo "fno-serve stopped accepting after malformed clients: '$REPLY_LINE'" >&2
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
