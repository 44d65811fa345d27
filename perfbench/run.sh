#!/usr/bin/env bash
# Builds the `ceps` server and this benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire_hubs --seed 1 --seconds 30 --trace 0
#
# The last line of standard output is the JSON result; build output,
# progress and the metric table go to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
cargo build --release --quiet -p ceps-cli --bin ceps >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --ceps "$CARGO_TARGET_DIR/release/ceps" "$@"
