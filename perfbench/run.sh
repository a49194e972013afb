#!/usr/bin/env bash
# Build autosens and its benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the root of an autosens checkout. Builds go to $CARGO_TARGET_DIR
# (default .bench_build). The last line of stdout is the JSON result; see
# perfbench/README.md for the workloads, metrics and the other flags.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f BENCHMARK.json ]]; then
  echo "perfbench/run.sh: run from the root of an autosens checkout" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p autosens-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
# The traced pass links the repository's crates; only traced runs build it.
if [[ " $* " == *" --trace 1 "* ]]; then
  cargo build --release --offline --quiet --manifest-path perfbench/layers/Cargo.toml
fi
exec "$CARGO_TARGET_DIR/release/autosens-bench" run "$@"
