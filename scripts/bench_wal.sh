#!/usr/bin/env bash
# Durability-overhead trajectory (ROADMAP: accumulate BENCH_*.json).
# Runs bench_wal: fits the pipeline on a history corpus, saves/reloads a
# snapshot, then streams the held-out papers through a one-shard
# shard::ShardRouter three times over the same stream — WAL off, WAL with
# batched group-commit fsync (the shipping defaults), and WAL with
# fsync-every-record — and writes BENCH_wal.json with papers/s for each
# plus the batched-mode overhead percentage (acceptance: <= 10% vs WAL
# off). The bench itself
# verifies all three runs produce identical assignments and fails
# otherwise, so a recorded data point is also a determinism check.
#
# Env knobs:
#   BENCH_PAPERS  corpus size (default: 6000)
#   BENCH_STREAM  held-out stream size (default: 400)
#   BENCH_OUT     output path (default: BENCH_wal.json in repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

PAPERS="${BENCH_PAPERS:-6000}"
STREAM="${BENCH_STREAM:-400}"
OUT="${BENCH_OUT:-BENCH_wal.json}"

cmake -B build -S . >/dev/null
cmake --build build --target bench_bench_wal -j "$(nproc)" >/dev/null
./build/bench_bench_wal --papers "$PAPERS" --stream "$STREAM" --json "$OUT"
