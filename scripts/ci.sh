#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (library, tests, bench,
# examples, CLI), run the full test suite, build the perfbench benchmark
# and run its tests, then smoke bench_serving and the CLI. This is the
# merge gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# IUAD_SANITIZE=1 switches the whole gate to an ASan+UBSan build;
# IUAD_SANITIZE=tsan to a ThreadSanitizer build. Each sanitizer gets its own
# build tree, so the regular ./build stays warm. Heavier and slower — run
# them when touching memory layout, concurrency, or raw-byte io paths. The
# TSan preset runs only the concurrent suites (the pipelined shard router,
# which serves every shard count and whose scatter tasks fill each shard's
# WL ball cache on first score, its one-shard Frontend contract suite, the
# API server, and graph_test, whose WL kernel prewarm writes per-vertex
# feature slots from pool workers) rather than the whole gate: that is where
# the thread schedules live, and TSan's ~10x slowdown on the fit-heavy
# suites buys nothing.
BUILD_DIR=build
CMAKE_EXTRA=()
TSAN_ONLY=0
if [[ "${IUAD_SANITIZE:-0}" == "1" ]]; then
  BUILD_DIR=build-asan
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
  CMAKE_EXTRA=(
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS"
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  )
  echo "ci: ASan+UBSan preset (IUAD_SANITIZE=1) -> $BUILD_DIR"
elif [[ "${IUAD_SANITIZE:-0}" == "tsan" ]]; then
  BUILD_DIR=build-tsan
  TSAN_ONLY=1
  SAN_FLAGS="-fsanitize=thread -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
  CMAKE_EXTRA=(
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS"
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  )
  echo "ci: ThreadSanitizer preset (IUAD_SANITIZE=tsan) -> $BUILD_DIR"
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_EXTRA[@]}"
if [[ "$TSAN_ONLY" == "1" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target shard_test serve_test api_test obs_test util_test wal_test \
    graph_test
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" \
    -R '^(shard_test|serve_test|api_test|obs_test|util_test|wal_test|graph_test)$')
  echo "tsan gate (shard_test serve_test api_test obs_test util_test wal_test graph_test): OK"
  exit 0
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

# The benchmark of record (perfbench/, BENCHMARK.json) builds the library
# from this checkout with its own CMake project, so an src/ API change can
# break it without breaking the build above. Configure it into its own tree
# (inside the build directory, same preset flags), build the benchmark
# binary and its tests, and run the tests.
PERFBENCH_DIR="$BUILD_DIR/perfbench"
cmake -B "$PERFBENCH_DIR" -S perfbench "${CMAKE_EXTRA[@]}"
cmake --build "$PERFBENCH_DIR" -j "$(nproc)" \
  --target iuad_perfbench perfbench_test
"./$PERFBENCH_DIR/perfbench_test"
echo "perfbench build + perfbench_test: OK"

# Serving-bench smoke: one repetition of every bench_serving mode on a small
# corpus, no JSON. The bench exits nonzero if any router or WAL mode assigns
# differently from sequential AddPaper (score bits included), so its
# divergence oracle runs on every change, not only when BENCH_serving.json
# is recorded. The 160-paper stream crosses two similarity refreshes (every
# 64 papers), so the oracle also covers profiles carried across them.
"./$BUILD_DIR"/bench_bench_serving --papers 1500 --stream 160 --reps 1
echo "bench_serving smoke: OK"

# Snapshot persistence smoke: a pipeline run saved with --save-snapshot must
# reload cleanly into the serving path and ingest a stream (end-to-end check
# of src/io + the one-shard ShardRouter through the CLI, beyond the unit
# suites).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"./$BUILD_DIR"/iuad_main generate "$SMOKE_DIR/corpus.tsv" --papers 1500 --seed 5
"./$BUILD_DIR"/iuad_main generate "$SMOKE_DIR/stream.tsv" --papers 60 --seed 55
"./$BUILD_DIR"/iuad_main run "$SMOKE_DIR/corpus.tsv" \
  --save-snapshot "$SMOKE_DIR/corpus.snap"
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" \
  --stream "$SMOKE_DIR/stream.tsv" --producers 4
echo "snapshot save/load smoke: OK"

# Numeric-flag smoke: a value that is not wholly a number is refused with
# the usage and a nonzero exit, never truncated ("12x" -> 12) or zeroed
# ("two" -> 0 = all cores).
if "./$BUILD_DIR"/iuad_main generate "$SMOKE_DIR/bad.tsv" --papers 12x \
    2> "$SMOKE_DIR/bad_flag.txt"; then
  exit 1
fi
test ! -e "$SMOKE_DIR/bad.tsv"
grep -q '^usage:' "$SMOKE_DIR/bad_flag.txt"
if "./$BUILD_DIR"/iuad_main run "$SMOKE_DIR/corpus.tsv" --threads two \
    2> "$SMOKE_DIR/bad_flag.txt"; then
  exit 1
fi
grep -q '^usage:' "$SMOKE_DIR/bad_flag.txt"
echo "numeric flag smoke: OK"

# Sharded-serving smoke: the same snapshot serves through the 4-shard
# ShardRouter, checkpoints the post-ingestion state on stop (a 4-section
# snapshot + post-ingestion corpus), and that checkpoint must reload cleanly — the
# fit-once / serve / checkpoint / resume loop through the CLI.
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" \
  --stream "$SMOKE_DIR/stream.tsv" --shards 4 --producers 4 \
  --save-snapshot-on-stop "$SMOKE_DIR/post.snap" \
  --save-corpus "$SMOKE_DIR/post.tsv"
test -s "$SMOKE_DIR/post.snap" && test -s "$SMOKE_DIR/post.tsv"
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/post.tsv" \
  --load-snapshot "$SMOKE_DIR/post.snap"
echo "sharded serve + checkpoint-on-stop smoke: OK"

# Query-API smoke: drive a scripted NDJSON ingest+query session through
# `iuad serve --stdio` (the socket-free transport of the same dispatcher the
# TCP server uses) and assert on the responses. The ingest-response lines
# must be byte-identical between the 1-shard and 2-shard front ends — the
# serve::Frontend equivalence contract, end to end through the CLI.
cat > "$SMOKE_DIR/session.ndjson" <<'EOF'
{"id":1,"op":"stats"}
{"id":2,"op":"ingest","papers":[{"title":"smoke paper one","venue":"VenueX","year":2024,"authors":["Api Smoke Author","Second Smoke Author"]},{"title":"smoke paper two","venue":"VenueY","year":2025,"authors":["Api Smoke Author"]}]}
{"id":3,"op":"flush"}
{"id":4,"op":"query_authors","name":"Api Smoke Author"}
{"id":5,"op":"not_an_op"}
{"id":6,"op":"metrics"}
EOF
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio \
  < "$SMOKE_DIR/session.ndjson" > "$SMOKE_DIR/out1.txt"
grep '"op":"ingest","ok":true,"assignments":' "$SMOKE_DIR/out1.txt" >/dev/null
grep -F '{"id":3,"op":"flush","ok":true,"applied":2}' "$SMOKE_DIR/out1.txt" \
  >/dev/null
grep '"op":"query_authors","ok":true,"authors":\[{"vertex":' \
  "$SMOKE_DIR/out1.txt" >/dev/null
grep '"id":-1,.*"ok":false,.*InvalidArgument' "$SMOKE_DIR/out1.txt" >/dev/null
grep '"id":6,"op":"metrics","ok":true,"metrics":{"counters":\[{"name":' \
  "$SMOKE_DIR/out1.txt" >/dev/null
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio --shards 2 \
  < "$SMOKE_DIR/session.ndjson" > "$SMOKE_DIR/out2.txt"
diff <(grep '"op":"ingest"' "$SMOKE_DIR/out1.txt") \
     <(grep '"op":"ingest"' "$SMOKE_DIR/out2.txt")
echo "query API stdio smoke: OK"

# Metrics scrape smoke: a live --stdio session with --metrics-port 0 must
# be scrapeable over plain HTTP while the service is up, and the scrape
# must be internally consistent — the papers we ingested equal the
# iuad_papers_applied counter equal the commit-latency histogram count.
mkfifo "$SMOKE_DIR/in.fifo"
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio --metrics-port 0 \
  < "$SMOKE_DIR/in.fifo" > "$SMOKE_DIR/out3.txt" 2> "$SMOKE_DIR/err3.txt" &
SERVE_PID=$!
exec 9> "$SMOKE_DIR/in.fifo"  # hold the write end open across requests
METRICS_PORT=""
for _ in $(seq 1 200); do
  METRICS_PORT=$(sed -n \
    's/.*metrics exposition listening on port \([0-9]*\).*/\1/p' \
    "$SMOKE_DIR/err3.txt" | head -1)
  [[ -n "$METRICS_PORT" ]] && break
  sleep 0.05
done
test -n "$METRICS_PORT"
printf '%s\n' '{"id":1,"op":"ingest","papers":[{"title":"scrape paper one","venue":"VenueX","year":2024,"authors":["Scrape Smoke Author"]},{"title":"scrape paper two","venue":"VenueY","year":2025,"authors":["Scrape Smoke Author"]}]}' >&9
printf '%s\n' '{"id":2,"op":"flush"}' >&9
for _ in $(seq 1 200); do
  grep -q '"id":2,"op":"flush","ok":true,"applied":2' "$SMOKE_DIR/out3.txt" \
    && break
  sleep 0.05
done
grep '"id":2,"op":"flush","ok":true,"applied":2' "$SMOKE_DIR/out3.txt" \
  >/dev/null
exec 8<>"/dev/tcp/127.0.0.1/$METRICS_PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&8
cat <&8 > "$SMOKE_DIR/scrape.txt"
exec 8<&- 8>&-
grep -q 'iuad_papers_applied 2' "$SMOKE_DIR/scrape.txt"
grep -q 'iuad_commit_latency_us_count 2' "$SMOKE_DIR/scrape.txt"
grep -q 'iuad_requests ' "$SMOKE_DIR/scrape.txt"
grep -q '# TYPE iuad_commit_latency_us histogram' "$SMOKE_DIR/scrape.txt"
exec 9>&-  # EOF on stdin shuts the session down cleanly
wait "$SERVE_PID"
echo "metrics scrape smoke: OK"

# Tracing smoke: a live session with --trace-out must answer the trace op
# and the /trace scrape path with valid Chrome trace JSON, surface a
# slow-commit exemplar through GetStats (threshold forced to ~1ns so every
# commit breaches), and on shutdown write a Perfetto-loadable trace file
# holding at least one complete "paper" span per ingested paper.
mkfifo "$SMOKE_DIR/in4.fifo"
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio --metrics-port 0 \
  --trace-out "$SMOKE_DIR/trace.json" --slow-commit-ms 0.000001 \
  < "$SMOKE_DIR/in4.fifo" > "$SMOKE_DIR/out4.txt" 2> "$SMOKE_DIR/err4.txt" &
SERVE_PID=$!
exec 9> "$SMOKE_DIR/in4.fifo"
TRACE_METRICS_PORT=""
for _ in $(seq 1 200); do
  TRACE_METRICS_PORT=$(sed -n \
    's/.*metrics exposition listening on port \([0-9]*\).*/\1/p' \
    "$SMOKE_DIR/err4.txt" | head -1)
  [[ -n "$TRACE_METRICS_PORT" ]] && break
  sleep 0.05
done
test -n "$TRACE_METRICS_PORT"
printf '%s\n' '{"id":1,"op":"ingest","papers":[{"title":"trace paper one","venue":"VenueX","year":2024,"authors":["Trace Smoke Author"]},{"title":"trace paper two","venue":"VenueY","year":2025,"authors":["Trace Smoke Author"]}]}' >&9
printf '%s\n' '{"id":2,"op":"flush"}' >&9
for _ in $(seq 1 200); do
  grep -q '"id":2,"op":"flush","ok":true,"applied":2' "$SMOKE_DIR/out4.txt" \
    && break
  sleep 0.05
done
grep '"id":2,"op":"flush","ok":true,"applied":2' "$SMOKE_DIR/out4.txt" \
  >/dev/null
# Every commit breached the forced threshold, so GetStats carries exemplars.
printf '%s\n' '{"id":3,"op":"stats"}' >&9
# The trace op drains the recorder as a Chrome trace payload.
printf '%s\n' '{"id":4,"op":"trace"}' >&9
for _ in $(seq 1 200); do
  grep -q '"id":4,"op":"trace","ok":true' "$SMOKE_DIR/out4.txt" && break
  sleep 0.05
done
grep '"id":3,"op":"stats","ok":true' "$SMOKE_DIR/out4.txt" \
  | grep '"slow_commits":\[{"seq":' >/dev/null
grep '"id":4,"op":"trace","ok":true,"trace":{"traceEvents":\[{"name":' \
  "$SMOKE_DIR/out4.txt" >/dev/null
# The /trace scrape path serves the same document shape over HTTP.
exec 8<>"/dev/tcp/127.0.0.1/$TRACE_METRICS_PORT"
printf 'GET /trace HTTP/1.0\r\n\r\n' >&8
cat <&8 > "$SMOKE_DIR/trace_scrape.txt"
exec 8<&- 8>&-
sed '1,/^\r\{0,1\}$/d' "$SMOKE_DIR/trace_scrape.txt" \
  | python3 -m json.tool >/dev/null
# And the build-info satellite rides on the /metrics scrape.
exec 8<>"/dev/tcp/127.0.0.1/$TRACE_METRICS_PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&8
cat <&8 > "$SMOKE_DIR/scrape4.txt"
exec 8<&- 8>&-
grep -q 'iuad_build_info{version=' "$SMOKE_DIR/scrape4.txt"
grep -q 'iuad_uptime_seconds ' "$SMOKE_DIR/scrape4.txt"
exec 9>&-
wait "$SERVE_PID"
test -s "$SMOKE_DIR/trace.json"
python3 -m json.tool "$SMOKE_DIR/trace.json" >/dev/null
# One complete end-to-end "paper" span per ingested paper (the op:trace
# drain above is non-destructive, so the shutdown file still holds them).
PAPER_SPANS=$(grep -o '"name":"paper"' "$SMOKE_DIR/trace.json" | wc -l)
test "$PAPER_SPANS" -ge 2
echo "tracing smoke: OK ($PAPER_SPANS paper spans)"

# Durability smoke: ingest through a WAL-backed session, kill -9 the
# process with no shutdown whatsoever, then serve again from the same
# --wal-dir — recovery must replay the committed papers and the recovered
# state must still answer queries for them (DESIGN.md §9, end to end
# through the CLI).
mkfifo "$SMOKE_DIR/in5.fifo"
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio \
  --wal-dir "$SMOKE_DIR/wal" --wal-fsync-every 1 \
  < "$SMOKE_DIR/in5.fifo" > "$SMOKE_DIR/out5.txt" 2> "$SMOKE_DIR/err5.txt" &
SERVE_PID=$!
exec 9> "$SMOKE_DIR/in5.fifo"
printf '%s\n' '{"id":1,"op":"ingest","papers":[{"title":"durable paper one","venue":"VenueX","year":2024,"authors":["Wal Smoke Author","Wal Smoke Coauthor"]},{"title":"durable paper two","venue":"VenueY","year":2025,"authors":["Wal Smoke Author"]}]}' >&9
printf '%s\n' '{"id":2,"op":"flush"}' >&9
for _ in $(seq 1 200); do
  grep -q '"id":2,"op":"flush","ok":true,"applied":2' "$SMOKE_DIR/out5.txt" \
    && break
  sleep 0.05
done
grep '"id":2,"op":"flush","ok":true,"applied":2' "$SMOKE_DIR/out5.txt" \
  >/dev/null
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true  # reaps the SIGKILL; nonzero status is the point
exec 9>&-
cat > "$SMOKE_DIR/recover.ndjson" <<'EOF'
{"id":3,"op":"query_authors","name":"Wal Smoke Author"}
{"id":4,"op":"stats"}
EOF
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio \
  --wal-dir "$SMOKE_DIR/wal" \
  < "$SMOKE_DIR/recover.ndjson" > "$SMOKE_DIR/out6.txt" \
  2> "$SMOKE_DIR/err6.txt"
grep -q 'WAL recovery:.*2 replayed' "$SMOKE_DIR/err6.txt"
grep '"id":4,"op":"stats","ok":true' "$SMOKE_DIR/out6.txt" \
  | grep '"recovery_replayed":2' >/dev/null
# The recovered attribution must equal an uninterrupted run's: same ingest
# + query session, no crash, no WAL — the determinism-as-recovery-oracle
# check, byte for byte on the query response.
cat > "$SMOKE_DIR/uninterrupted.ndjson" <<'EOF'
{"id":1,"op":"ingest","papers":[{"title":"durable paper one","venue":"VenueX","year":2024,"authors":["Wal Smoke Author","Wal Smoke Coauthor"]},{"title":"durable paper two","venue":"VenueY","year":2025,"authors":["Wal Smoke Author"]}]}
{"id":2,"op":"flush"}
{"id":3,"op":"query_authors","name":"Wal Smoke Author"}
EOF
"./$BUILD_DIR"/iuad_main serve "$SMOKE_DIR/corpus.tsv" \
  --load-snapshot "$SMOKE_DIR/corpus.snap" --stdio \
  < "$SMOKE_DIR/uninterrupted.ndjson" > "$SMOKE_DIR/out7.txt"
grep '"id":3,"op":"query_authors","ok":true,"authors":\[{"vertex":' \
  "$SMOKE_DIR/out7.txt" >/dev/null
diff <(grep '"op":"query_authors"' "$SMOKE_DIR/out6.txt") \
     <(grep '"op":"query_authors"' "$SMOKE_DIR/out7.txt")
echo "WAL kill -9 / recover smoke: OK"

# Optional: record BENCH_serving.json (nproc shards, 5 repetitions). Off by
# default to keep CI time bounded; set IUAD_RUN_BENCH=1 to record it.
if [[ "${IUAD_RUN_BENCH:-0}" == "1" ]]; then
  scripts/bench_serving.sh
fi
