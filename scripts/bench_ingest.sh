#!/usr/bin/env bash
# Ingestion-throughput trajectory (ROADMAP: accumulate BENCH_*.json).
# Runs bench_ingest: fits the pipeline on a history corpus, saves/reloads a
# snapshot, then streams the held-out papers sequentially and through a
# one-shard shard::ShardRouter with 1 and with BENCH_PRODUCERS producers, and
# writes BENCH_ingest.json with papers/s for each. The bench itself verifies
# all three runs produce identical assignments and fails otherwise, so a
# recorded data point is also a determinism check.
#
# Env knobs:
#   BENCH_PRODUCERS  producer thread count (default: nproc)
#   BENCH_PAPERS     corpus size (default: 6000)
#   BENCH_STREAM     held-out stream size (default: 400)
#   BENCH_OUT        output path (default: BENCH_ingest.json in repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

PRODUCERS="${BENCH_PRODUCERS:-$(nproc)}"
PAPERS="${BENCH_PAPERS:-6000}"
STREAM="${BENCH_STREAM:-400}"
OUT="${BENCH_OUT:-BENCH_ingest.json}"

cmake -B build -S . >/dev/null
cmake --build build --target bench_bench_ingest -j "$(nproc)" >/dev/null
./build/bench_bench_ingest --papers "$PAPERS" --stream "$STREAM" \
  --producers "$PRODUCERS" --json "$OUT"
