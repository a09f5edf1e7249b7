#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test suite.
#
# Usage: scripts/check.sh
# Runs from the repo root regardless of the caller's cwd.
#
# Optional: set ARC_CHECK_BENCH=1 to also run scripts/bench_ecc.sh, which
# fails if Reed-Solomon encode throughput regresses >20% against the
# committed BENCH_ecc.json. Off by default — wall-clock throughput is too
# noisy for shared CI machines, so run it locally before perf-sensitive
# changes land.
#
# Optional: set ARC_CHECK_TELEMETRY=1 to also build and test with the
# `telemetry` feature on. The golden container/stream suites run in both
# modes, proving instrumentation never changes any encoded byte.
#
# Optional: set ARC_SKIP_LINT=1 to skip the arc-lint gate (on by default).
# The gate fails on any violation beyond lint-baseline.json and on stale
# baseline entries; regenerate with scripts/lint_baseline.sh after paying
# debt down.
#
# Optional: set ARC_SKIP_HOSTILE=1 to skip the hostile-input sweep (on by
# default). The sweep mutates every golden stream (bit flips, truncations,
# length inflation, header/garbage splices) and fails on any decode panic,
# hang, or over-budget allocation; see DESIGN.md §11.
#
# Optional: set ARC_SKIP_TRAFFIC=1 to skip the traffic_sim smoke run (on
# by default). The smoke shrinks every phase of the streaming/traffic
# harness but keeps its sanity assertions (peak-memory fraction, per-class
# latency ordering); absolute throughput gates live in
# scripts/bench_traffic.sh, which is not run here.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The benchmark (perfbench/) is its own package with path dependencies on
# crates/*; building it here makes an arc-core API change that breaks the
# benchmark fail this gate.
echo "==> benchmark build: cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# One short checkpoint_sz run end to end. The benchmark byte-compares its
# streaming and one-shot containers and checks every decoded error bound,
# so a slip in the shared bit I/O or LZ77 stage fails here too. Its last
# line is a JSON summary whose "correct" field must be true.
echo "==> benchmark smoke: perfbench --workload checkpoint_sz --seconds 1 --trace 0"
smoke=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload checkpoint_sz --seconds 1 --trace 0 | tail -n 1)
if [[ "$smoke" != *'"correct": true'* ]]; then
    echo "error: perfbench smoke run was not correct: ${smoke}" >&2
    exit 1
fi

echo "==> workspace tests: cargo test --workspace -q"
cargo test --workspace -q

echo "==> shard-geometry properties: cargo test -q -p arc-core --test shard_geometry"
cargo test -q -p arc-core --test shard_geometry

echo "==> streaming equivalence properties: cargo test -q -p arc-core --test stream_equiv"
cargo test -q -p arc-core --test stream_equiv

echo "==> streaming determinism + memory bound: cargo test -q -p arc-core --test stream_memory"
cargo test -q -p arc-core --test stream_memory

if [[ "${ARC_SKIP_HOSTILE:-0}" != "1" ]]; then
    echo "==> hostile-input sweep: cargo run --release -q -p arc-bench --bin hostile_corpus"
    cargo run --release -q -p arc-bench --bin hostile_corpus
fi

if [[ "${ARC_SKIP_TRAFFIC:-0}" != "1" ]]; then
    echo "==> traffic smoke: cargo run --release -q -p arc-bench --features telemetry --bin traffic_sim -- --smoke"
    cargo run --release -q -p arc-bench --features telemetry --bin traffic_sim -- --smoke > /dev/null
fi

if [[ "${ARC_SKIP_LINT:-0}" != "1" ]]; then
    echo "==> arc-lint: arc-lint --deny --strict-baseline (10 s budget)"
    # Build outside the timed region: the budget is for the analysis —
    # lexing, call-graph construction, cone rules — not the compiler.
    cargo build -q -p arc-lint
    lint_start_ns=$(date +%s%N)
    ./target/debug/arc-lint --deny --strict-baseline
    lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
    echo "    arc-lint wall clock: ${lint_ms} ms"
    if (( lint_ms >= 10000 )); then
        echo "error: arc-lint took ${lint_ms} ms; the interprocedural gate must stay under 10 s" >&2
        exit 1
    fi
fi

if [[ "${ARC_CHECK_TELEMETRY:-0}" == "1" ]]; then
    echo "==> telemetry: cargo build --release --features telemetry"
    cargo build --release --features telemetry
    echo "==> telemetry: cargo test -q --features telemetry"
    cargo test -q --features telemetry
    echo "==> telemetry: cargo test -q -p arc-core --features telemetry"
    cargo test -q -p arc-core --features telemetry
    echo "==> telemetry: cargo test -q -p arc-ecc --features telemetry"
    cargo test -q -p arc-ecc --features telemetry
fi

if [[ "${ARC_CHECK_BENCH:-0}" == "1" ]]; then
    echo "==> throughput gate: scripts/bench_ecc.sh"
    scripts/bench_ecc.sh
fi

echo "All checks passed."
