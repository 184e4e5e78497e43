#!/bin/sh
# Builds neatd and the benchmark from source, then runs the benchmark.
# Usage, from the repository root:
#   sh neatbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh neatbench/run.sh --self-check
set -eu
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin neatd
cargo build --release --offline --quiet --manifest-path neatbench/Cargo.toml
exec "$target/release/neatbench" --neatd "$target/release/neatd" "$@"
