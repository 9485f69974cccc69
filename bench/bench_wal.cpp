/// Durability-overhead bench for the WAL (DESIGN.md §9). Fits the pipeline
/// on a history corpus, holds out the most recent papers as the stream
/// (the Table VI protocol), then measures ingestion papers/second through
/// a one-shard shard::ShardRouter three ways over the SAME stream:
///
///   wal_off           no --wal-dir: the throughput ceiling;
///   wal_batched       group commit at the defaults (fsync_every_n=64,
///                     fsync_interval_ms=5) — the shipping configuration,
///                     acceptance: <= 10% overhead vs wal_off;
///   wal_every_record  fsync_every_n=1 — the strictest cadence, the price
///                     of giving up group commit. The router checks the
///                     cadence once per pipelined window, so this is one
///                     fsync per window (at most pipeline_depth records).
///
/// All three runs must produce identical assignments — verified here, not
/// assumed; the process aborts on any divergence, so a recorded data point
/// is also a determinism check. With `--json out.json` the numbers land in
/// BENCH_wal.json (scripts/bench_wal.sh).
///
/// Flags: --papers P (corpus size), --stream S (held-out papers),
///        --reps R (keep the fastest of R runs per mode), --json PATH.

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "io/snapshot.h"
#include "shard/shard_router.h"
#include "util/json_writer.h"
#include "util/memory.h"
#include "util/stopwatch.h"
#include "wal/wal.h"

using namespace iuad;

namespace {

/// Compact, order-sensitive digest of one run's assignments, for the
/// identical-output check.
std::string DigestOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string d;
  for (const auto& a : as) {
    d += a.name;
    d += ':';
    d += std::to_string(a.vertex);
    d += a.created_new ? "+n" : "";
    d += ';';
  }
  return d;
}

struct RunOutcome {
  double seconds = 0.0;
  std::vector<std::string> digests;
  int64_t wal_appended = 0;
  int64_t wal_fsyncs = 0;
  int64_t wal_bytes = 0;
  double fsync_wait_us_p99 = 0.0;
  double papers_per_s(size_t n) const {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  }
};

void RemoveFlatDir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
}

/// One timed stream run. `wal_mode`: 0 = off, otherwise the fsync_every_n
/// to run the WAL at (with the time trigger disabled at 1 so "every
/// record" means exactly that).
bool RunStream(const data::PaperDatabase& history,
               const std::string& snapshot_path,
               const std::vector<data::Paper>& stream, int wal_mode,
               RunOutcome* out) {
  data::PaperDatabase db = history;
  auto snap = io::LoadSnapshot(snapshot_path, db);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot reload failed: %s\n",
                 snap.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<wal::Log> log;
  const std::string wal_dir =
      "bench_wal.tmp-" + std::to_string(wal_mode) + "-" +
      std::to_string(::getpid());
  if (wal_mode > 0) {
    RemoveFlatDir(wal_dir);
    wal::Options opts;
    opts.fsync_every_n = wal_mode;
    if (wal_mode == 1) opts.fsync_interval_ms = 0.0;
    auto opened = wal::Log::Open(wal_dir, db.Fingerprint(), opts);
    if (!opened.ok()) {
      std::fprintf(stderr, "wal open failed: %s\n",
                   opened.status().ToString().c_str());
      return false;
    }
    log = std::move(*opened);
  }
  std::vector<std::future<shard::ShardRouter::Assignments>> futures(
      stream.size());
  core::IuadConfig cfg = snap->config;
  cfg.num_shards = 1;
  Stopwatch sw;
  serve::ServiceStats stats;
  {
    shard::ShardRouter service(&db, &snap->result, cfg, log.get());
    for (size_t i = 0; i < stream.size(); ++i) {
      futures[i] = service.SubmitAt(i, stream[i]);
    }
    service.Drain();
    out->seconds = sw.ElapsedSeconds();
    stats = service.Stats();
  }  // Stop() via destructor
  if (log != nullptr && !log->status().ok()) {
    std::fprintf(stderr, "wal io error: %s\n",
                 log->status().ToString().c_str());
    return false;
  }
  out->wal_appended = stats.wal_appended;
  out->wal_fsyncs = stats.wal_fsyncs;
  out->wal_bytes = stats.wal_bytes;
  out->fsync_wait_us_p99 = stats.wal_fsync_wait_us_p99;
  out->digests.reserve(stream.size());
  for (auto& f : futures) {
    auto r = f.get();
    if (!r.ok()) {
      std::fprintf(stderr, "AddPaper failed: %s\n",
                   r.status().ToString().c_str());
      return false;
    }
    out->digests.push_back(DigestOf(*r));
  }
  log.reset();
  if (wal_mode > 0) RemoveFlatDir(wal_dir);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int papers = 6000;
  int stream_size = 400;
  int reps = 3;
  std::string json_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--papers") == 0) papers = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--stream") == 0) {
      stream_size = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  if (reps < 1) reps = 1;

  bench::PrintHeader("bench_wal",
                     "durability overhead of the write-ahead log (DESIGN §9)");
  auto corpus = bench::BenchCorpus(2021, papers);
  auto [history, stream] = corpus.db.HoldOutLatest(stream_size);
  std::printf("corpus: %d papers history, %zu-paper stream\n",
              history.num_papers(), stream.size());

  core::IuadConfig cfg = bench::BenchIuadConfig();
  auto fitted = core::IuadPipeline(cfg).Run(history);
  if (!fitted.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  const std::string snapshot_path = "bench_wal.snapshot.tmp";
  {
    iuad::Status st = io::SaveSnapshot(snapshot_path, history, *fitted, cfg);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // One discarded warmup pass: the first stream run in the process pays
  // page-cache and frequency warmup, which would otherwise be billed
  // entirely to whichever mode runs first. After it, each mode keeps the
  // fastest of `reps` runs — a ~1 s stream run on shared hardware swings
  // by more than the overhead being measured, and min-of-N is the
  // standard way to strip that noise from a delta.
  RunOutcome warmup;
  if (!RunStream(history, snapshot_path, stream, /*wal_mode=*/0, &warmup)) {
    std::remove(snapshot_path.c_str());
    return 1;
  }

  RunOutcome off, batched, strict;
  bool ran = true;
  struct Mode {
    int wal_mode;
    RunOutcome* out;
  };
  for (const Mode& m : {Mode{0, &off}, Mode{64, &batched}, Mode{1, &strict}}) {
    for (int rep = 0; rep < reps && ran; ++rep) {
      RunOutcome attempt;
      ran = RunStream(history, snapshot_path, stream, m.wal_mode, &attempt);
      if (!ran) break;
      if (rep == 0 || attempt.seconds < m.out->seconds) {
        *m.out = std::move(attempt);
      }
    }
  }
  std::remove(snapshot_path.c_str());
  if (!ran) return 1;

  const bool identical = off.digests == batched.digests &&
                         off.digests == strict.digests;
  const size_t n = stream.size();
  const double overhead_pct =
      off.papers_per_s(n) > 0.0
          ? 100.0 * (1.0 - batched.papers_per_s(n) / off.papers_per_s(n))
          : 0.0;
  std::printf(
      "papers/s: wal_off %.1f | wal_batched %.1f | wal_every_record %.1f\n",
      off.papers_per_s(n), batched.papers_per_s(n), strict.papers_per_s(n));
  std::printf("batched-fsync overhead vs off: %.1f%% (acceptance: <= 10%%)\n",
              overhead_pct);
  std::printf("fsyncs: batched %lld (over %lld records) | every-record %lld\n",
              static_cast<long long>(batched.wal_fsyncs),
              static_cast<long long>(batched.wal_appended),
              static_cast<long long>(strict.wal_fsyncs));
  std::printf("assignments identical across all three runs: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");
  if (!identical) return 1;  // never record a lying BENCH_* data point
  std::printf("memory: rss %.1f MiB\n", util::CurrentRssMb());

  if (!json_path.empty()) {
    util::JsonWriter json;
    json.Field("bench", "bench_wal")
        .Field("papers_history", history.num_papers())
        .Field("stream", static_cast<int>(n))
        .Field("reps", reps)
        .Field("identical_assignments", identical)
        .Field("batched_overhead_pct", overhead_pct, 1);
    json.BeginObject("papers_per_s")
        .Field("wal_off", off.papers_per_s(n), 1)
        .Field("wal_batched", batched.papers_per_s(n), 1)
        .Field("wal_every_record", strict.papers_per_s(n), 1)
        .EndObject();
    json.BeginObject("seconds")
        .Field("wal_off", off.seconds)
        .Field("wal_batched", batched.seconds)
        .Field("wal_every_record", strict.seconds)
        .EndObject();
    json.BeginObject("wal_batched_io")
        .Field("appended", batched.wal_appended)
        .Field("fsyncs", batched.wal_fsyncs)
        .Field("bytes", batched.wal_bytes)
        .Field("fsync_wait_us_p99", batched.fsync_wait_us_p99, 1)
        .EndObject();
    json.BeginObject("wal_every_record_io")
        .Field("appended", strict.wal_appended)
        .Field("fsyncs", strict.wal_fsyncs)
        .Field("bytes", strict.wal_bytes)
        .Field("fsync_wait_us_p99", strict.fsync_wait_us_p99, 1)
        .EndObject();
    json.BeginObject("memory").Field("rss_mb", util::CurrentRssMb(), 1)
        .EndObject();
    iuad::Status st = json.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
