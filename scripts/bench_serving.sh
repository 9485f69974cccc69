#!/usr/bin/env bash
# Serving A/B trajectory: builds bench_serving and records BENCH_serving.json
# at nproc shards with 5 interleaved repetitions per mode (sequential, the
# one- and N-shard router, the recorder off, WAL batched / every record).
# The bench exits nonzero and writes nothing if any run's assignments differ
# from sequential AddPaper. Extra arguments pass through to the binary,
# e.g. `scripts/bench_serving.sh --reps 9`.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build --target bench_bench_serving -j "$(nproc)" >/dev/null
./build/bench_bench_serving --json BENCH_serving.json "$@"
