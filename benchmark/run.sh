#!/usr/bin/env bash
# Builds the benchmark and the server binary it starts, then runs the
# benchmark with the given arguments. From the repository root:
#
#   bash benchmark/run.sh --workload edit-loop --seed 1 --seconds 25 --trace 0
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest" --bins
exec cargo run --release --offline --quiet --manifest-path "$manifest" \
    --bin seqavf-benchmark -- "$@"
