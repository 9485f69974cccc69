/// Serving A/B bench: the papers/s comparisons perfbench cannot make,
/// because each one needs the same stream served twice under two settings.
/// Fits the pipeline once on a history corpus, holds out the newest
/// --stream papers as the "newly published" stream (the Sec. V-E /
/// Table VI protocol), saves one snapshot, and then streams the held-out
/// papers closed loop (one caller: SubmitAt per paper, then Drain) on a
/// fresh snapshot reload per run, in six modes:
///
///   sequential                 IncrementalDisambiguator::AddPaper, the oracle;
///   router_1                   ShardRouter at one shard, no WAL: the CLI
///                              default and the WAL-off baseline;
///   router_n                   ShardRouter at --shards shards;
///   router_n_trace_off         the same with the flight recorder off;
///   router_1_wal_batched       router_1 behind a WAL at wal::Options{};
///   router_1_wal_every_record  the same at fsync_every_n = 1.
///
/// Each run times the stream alone, from the first paper to the end of
/// Drain. The modes run round-robin, one run of each per repetition, so
/// drift hits them all alike; an untimed sequential pass first warms the
/// process and fixes the oracle digests. Each mode reports min / median /
/// max papers/s over --reps. An overhead is computed from the two modes'
/// medians; its min / max are over the per-repetition pairs. The WAL io
/// counters and the memory block come from each mode's last run.
///
/// Every run's assignments (name, vertex, created_new, num_candidates and
/// the bits of best_score) must equal the oracle's. On any divergence the
/// bench exits 1 and writes no JSON. Commit latency, the pipeline counters
/// and API-over-TCP numbers are perfbench's (shard.commit_ms_*,
/// shard.occupancy, serve_mixed), not this bench's.
///
/// Usage: bench_serving [--papers P] [--stream S] [--shards N] [--reps R]
///                      [--json PATH]
/// scripts/bench_serving.sh records BENCH_serving.json at nproc shards.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
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
#include "util/thread_pool.h"
#include "wal/wal.h"

using namespace iuad;

namespace {

struct Mode {
  const char* name;
  int shards;             ///< 0: sequential AddPaper.
  bool trace;             ///< config.trace_enabled.
  int wal_fsync_every_n;  ///< 0: no WAL.
};

struct Run {
  double seconds = 0.0;
  std::vector<std::string> digests;  ///< Per stream paper, in stream order.
  serve::ServiceStats stats;         ///< Router modes only.
  size_t graph_bytes = 0;            ///< Post-stream CollabGraph footprint.
  int num_alive = 0;
};

/// Everything the byte-identity oracle compares, score bits included.
std::string DigestOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string d;
  for (const auto& a : as) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(a.best_score), "double is 64-bit");
    std::memcpy(&bits, &a.best_score, sizeof(bits));
    d += a.name + ":" + std::to_string(a.vertex) +
         (a.created_new ? "+n" : "") + "#" + std::to_string(bits) + "/" +
         std::to_string(a.num_candidates) + ";";
  }
  return d;
}

/// One timed stream run in `mode` on a fresh reload of the fitted snapshot.
/// `scratch` holds the WAL directory of WAL modes.
bool RunMode(const Mode& mode, const data::PaperDatabase& history,
             const std::string& snapshot_path, const std::string& scratch,
             const std::vector<data::Paper>& stream, Run* out) {
  data::PaperDatabase db = history;
  auto snap = io::LoadSnapshot(snapshot_path, db);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot reload failed: %s\n",
                 snap.status().ToString().c_str());
    return false;
  }
  out->digests.reserve(stream.size());
  if (mode.shards == 0) {
    core::IncrementalDisambiguator inc(&db, &snap->result, snap->config);
    Stopwatch sw;
    for (const auto& paper : stream) {
      auto r = inc.AddPaper(paper);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: AddPaper failed: %s\n", mode.name,
                     r.status().ToString().c_str());
        return false;
      }
      out->digests.push_back(DigestOf(*r));
    }
    out->seconds = sw.ElapsedSeconds();
  } else {
    std::unique_ptr<wal::Log> log;
    const std::string wal_dir = scratch + "/wal";
    if (mode.wal_fsync_every_n > 0) {
      std::filesystem::remove_all(wal_dir);
      wal::Options opts;
      opts.fsync_every_n = mode.wal_fsync_every_n;
      auto opened = wal::Log::Open(wal_dir, db.Fingerprint(), opts);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s: wal open failed: %s\n", mode.name,
                     opened.status().ToString().c_str());
        return false;
      }
      log = std::move(*opened);
    }
    core::IuadConfig cfg = snap->config;
    cfg.num_shards = mode.shards;
    cfg.trace_enabled = mode.trace;
    std::vector<std::future<shard::ShardRouter::Assignments>> futures;
    futures.reserve(stream.size());
    {
      shard::ShardRouter router(&db, &snap->result, cfg, log.get());
      Stopwatch sw;
      for (size_t i = 0; i < stream.size(); ++i) {
        futures.push_back(router.SubmitAt(i, stream[i]));
      }
      router.Drain();
      out->seconds = sw.ElapsedSeconds();
      out->stats = router.Stats();
    }  // Stop() via destructor
    if (log != nullptr && !log->status().ok()) {
      std::fprintf(stderr, "%s: wal io error: %s\n", mode.name,
                   log->status().ToString().c_str());
      return false;
    }
    for (auto& f : futures) {
      auto r = f.get();
      if (!r.ok()) {
        std::fprintf(stderr, "%s: ingest failed: %s\n", mode.name,
                     r.status().ToString().c_str());
        return false;
      }
      out->digests.push_back(DigestOf(*r));
    }
    log.reset();
    std::filesystem::remove_all(wal_dir);
  }
  out->graph_bytes = snap->result.graph.MemoryBytes();
  out->num_alive = snap->result.graph.num_alive();
  return true;
}

/// min / median / max of `v` (non-empty).
struct Spread {
  double min, median, max;
};
Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double median =
      n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  return {v.front(), median, v.back()};
}

/// Percent of `base`'s papers/s that `with` loses.
double OverheadPct(double base_pps, double with_pps) {
  return base_pps > 0.0 ? 100.0 * (1.0 - with_pps / base_pps) : 0.0;
}

/// Parses a positive decimal int; false on anything else.
bool ParsePositive(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 1000000000L) return false;
  *out = static_cast<int>(v);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--papers P] [--stream S] [--shards N] [--reps R] "
               "[--json PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int papers = 6000;
  int stream_size = 400;
  int num_shards = util::ResolveNumThreads(0);
  int reps = 5;
  std::string json_path;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[i + 1];
    bool ok = true;
    if (flag == "--papers") {
      ok = ParsePositive(value, &papers);
    } else if (flag == "--stream") {
      ok = ParsePositive(value, &stream_size);
    } else if (flag == "--shards") {
      ok = ParsePositive(value, &num_shards);
    } else if (flag == "--reps") {
      ok = ParsePositive(value, &reps);
    } else if (flag == "--json") {
      json_path = value;
    } else {
      ok = false;
    }
    if (!ok) return Usage(argv[0]);
  }
  if (stream_size >= papers) return Usage(argv[0]);

  const int cores = util::ResolveNumThreads(0);
  bench::PrintHeader("bench_serving",
                     "serving A/Bs over the Table VI stream (Sec. V-E)");
  auto corpus = bench::BenchCorpus(2021, papers);
  auto [history, stream] = corpus.db.HoldOutLatest(stream_size);
  const size_t n = stream.size();
  std::printf("corpus: %d papers history, %zu-paper stream, %d shards, "
              "%d reps, %d cores\n",
              history.num_papers(), n, num_shards, reps, cores);

  const core::IuadConfig cfg = bench::BenchIuadConfig();
  auto fitted = core::IuadPipeline(cfg).Run(history);
  if (!fitted.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  std::string scratch = (std::filesystem::temp_directory_path() /
                         "bench_serving.XXXXXX")
                            .string();
  if (::mkdtemp(scratch.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string snapshot_path = scratch + "/fitted.snap";
  if (iuad::Status st = io::SaveSnapshot(snapshot_path, history, *fitted, cfg);
      !st.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n", st.ToString().c_str());
    std::filesystem::remove_all(scratch);
    return 1;
  }

  const int batched_every_n = wal::Options{}.fsync_every_n;
  const std::vector<Mode> modes = {
      {"sequential", 0, true, 0},
      {"router_1", 1, true, 0},
      {"router_n", num_shards, true, 0},
      {"router_n_trace_off", num_shards, false, 0},
      {"router_1_wal_batched", 1, true, batched_every_n},
      {"router_1_wal_every_record", 1, true, 1},
  };
  enum { kSeq, kR1, kRn, kRnTraceOff, kWalBatched, kWalEvery };

  Run oracle;
  bool ok = RunMode(modes[kSeq], history, snapshot_path, scratch, stream,
                    &oracle);
  // pps[m][r]: papers/s of mode m in repetition r; last[m]: its latest run.
  std::vector<std::vector<double>> pps(modes.size());
  std::vector<Run> last(modes.size());
  for (int r = 0; r < reps && ok; ++r) {
    for (size_t m = 0; m < modes.size() && ok; ++m) {
      Run run;
      ok = RunMode(modes[m], history, snapshot_path, scratch, stream, &run);
      if (!ok) break;
      if (run.digests != oracle.digests) {
        std::fprintf(stderr,
                     "%s (rep %d) diverged from sequential AddPaper\n",
                     modes[m].name, r);
        ok = false;
        break;
      }
      pps[m].push_back(run.seconds > 0.0 ? n / run.seconds : 0.0);
      last[m] = std::move(run);
    }
  }
  std::filesystem::remove_all(scratch);
  if (!ok) return 1;  // never record a lying BENCH_* data point
  std::printf("every run identical to sequential (score bits included): yes\n");

  std::vector<Spread> spreads;
  std::printf("%-26s %10s %10s %10s\n", "papers/s", "min", "median", "max");
  for (size_t m = 0; m < modes.size(); ++m) {
    spreads.push_back(SpreadOf(pps[m]));
    std::printf("%-26s %10.1f %10.1f %10.1f\n", modes[m].name,
                spreads[m].min, spreads[m].median, spreads[m].max);
  }

  struct Overhead {
    const char* name;
    int base, with;
    double of_medians = 0.0;
    Spread per_rep = {};
  };
  std::vector<Overhead> overheads = {
      {"wal_batched_vs_router_1", kR1, kWalBatched},
      {"recorder_on_vs_off_router_n", kRnTraceOff, kRn},
  };
  for (auto& o : overheads) {
    std::vector<double> paired;
    for (int r = 0; r < reps; ++r) {
      paired.push_back(OverheadPct(pps[o.base][r], pps[o.with][r]));
    }
    o.per_rep = SpreadOf(paired);
    o.of_medians = OverheadPct(spreads[o.base].median, spreads[o.with].median);
    std::printf(
        "overhead %-28s %6.1f%% of medians (per-rep %.1f%% .. %.1f%%)\n",
        o.name, o.of_medians, o.per_rep.min, o.per_rep.max);
  }
  for (int m : {kWalBatched, kWalEvery}) {
    const serve::ServiceStats& s = last[m].stats;
    std::printf("%s: %lld records, %lld fsyncs, %lld bytes, fsync wait p99 "
                "%.1f us\n",
                modes[m].name, static_cast<long long>(s.wal_appended),
                static_cast<long long>(s.wal_fsyncs),
                static_cast<long long>(s.wal_bytes), s.wal_fsync_wait_us_p99);
  }
  const Run& mem = last[kRn];
  const double bytes_per_author =
      mem.num_alive > 0 ? static_cast<double>(mem.graph_bytes) / mem.num_alive
                        : 0.0;
  std::printf("memory: rss %.1f MiB, graph %.1f bytes/author (%d authors, "
              "router_n)\n",
              util::CurrentRssMb(), bytes_per_author, mem.num_alive);

  if (json_path.empty()) return 0;
  util::JsonWriter json;
  json.Field("bench", "bench_serving")
      .Field("cores", cores)
      .Field("reps", reps)
      .Field("papers_history", history.num_papers())
      .Field("stream", static_cast<int>(n))
      .Field("shards", num_shards)
      .Field("identical_to_sequential", true);
  json.BeginObject("papers_per_s");
  for (size_t m = 0; m < modes.size(); ++m) {
    json.BeginObject(modes[m].name)
        .Field("min", spreads[m].min, 1)
        .Field("median", spreads[m].median, 1)
        .Field("max", spreads[m].max, 1)
        .EndObject();
  }
  json.EndObject();
  json.BeginObject("overhead_pct");
  for (const auto& o : overheads) {
    json.BeginObject(o.name)
        .Field("of_medians", o.of_medians, 1)
        .Field("per_rep_min", o.per_rep.min, 1)
        .Field("per_rep_max", o.per_rep.max, 1)
        .EndObject();
  }
  json.EndObject();
  json.BeginObject("wal_io");
  for (int m : {kWalBatched, kWalEvery}) {
    const serve::ServiceStats& s = last[m].stats;
    json.BeginObject(modes[m].name)
        .Field("appended", s.wal_appended)
        .Field("fsyncs", s.wal_fsyncs)
        .Field("bytes", s.wal_bytes)
        .Field("fsync_wait_us_p99", s.wal_fsync_wait_us_p99, 1)
        .EndObject();
  }
  json.EndObject();
  json.BeginObject("memory")
      .Field("rss_mb", util::CurrentRssMb(), 1)
      .Field("graph_bytes", static_cast<int64_t>(mem.graph_bytes))
      .Field("num_alive_authors", mem.num_alive)
      .Field("bytes_per_author", bytes_per_author, 1)
      .EndObject();
  if (iuad::Status st = json.WriteFile(json_path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
