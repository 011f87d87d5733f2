#!/usr/bin/env bash
# Build the `helios` launcher and the benchmark (release, offline), then run
# the benchmark with the arguments given. See README.md.
#
#   bash benchmark/run.sh --workload serve_small --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh                      # all workloads, untraced + traced
#   bash benchmark/run.sh compare benchmark/out/base.json benchmark/out/result.json
set -euo pipefail

# Paths below are relative to the repository root, wherever we are called from.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# One resolve builds both: the system under test and its load generator.
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml \
    -p helios -p helios-benchmark --bins

exec "$CARGO_TARGET_DIR/release/helios-benchmark" \
    --helios "$CARGO_TARGET_DIR/release/helios" \
    --out benchmark/out \
    --bounds BENCHMARK.json \
    "$@"
