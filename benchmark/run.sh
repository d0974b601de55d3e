#!/usr/bin/env bash
# One command: build warpd, warpd-worker and the benchmark in release
# mode, then run what the arguments say (see README.md):
#
#   bash benchmark/run.sh --workload heavy --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh selftest
#   bash benchmark/run.sh compare A.jsonl B.jsonl
#
# Everything is built from this checkout and lands in one target
# directory (the driver sets CARGO_TARGET_DIR; .bench_build otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# --manifest-path: never pick up a Cargo.toml from a parent directory.
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p warp-service -p parcc --bin warpd --bin warpd-worker
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/warp-benchmark" "$@"
