/// Ingestion-throughput bench for one-shard serving through
/// shard::ShardRouter (num_shards = 1, the CLI `serve` default; ROADMAP:
/// batch/async ingestion for the incremental path). Fits the pipeline on a
/// history corpus, holds out the most recent papers as the "newly
/// published" stream (the Table VI protocol), then measures papers/second
/// three ways over the SAME stream:
///
///   sequential  IncrementalDisambiguator::AddPaper, one caller — the
///               paper's <50 ms/paper baseline shape;
///   service@1   one-shard ShardRouter with one producer thread;
///   service@N   one-shard ShardRouter with N producer threads (default:
///               nproc).
///
/// Producers partition the stream by index and pin each paper to its
/// stream position with SubmitAt, so all three runs must produce identical
/// assignments — verified here, not assumed; the process aborts on any
/// divergence. With `--json out.json` the numbers land in BENCH_ingest.json
/// (scripts/bench_ingest.sh; see the BENCH_*.json convention in ROADMAP).
///
/// Flags: --papers P (corpus size), --stream S (held-out papers),
///        --producers N, --json PATH.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
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
  std::vector<std::string> digests;  // per stream paper, in stream order
  size_t graph_bytes = 0;            // post-ingestion CollabGraph footprint
  int num_alive = 0;
  double papers_per_s(size_t n) const {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  }
  double bytes_per_author() const {
    return num_alive > 0
               ? static_cast<double>(graph_bytes) / static_cast<double>(num_alive)
               : 0.0;
  }
};

/// DisambiguationResult is move-only (it owns the fitted model), so each
/// run gets a pristine copy of the fitted state by reloading the snapshot —
/// which also puts the io path itself under the bench.
bool ReloadFitted(const std::string& snapshot_path,
                  const data::PaperDatabase& db, io::Snapshot* out) {
  auto snap = io::LoadSnapshot(snapshot_path, db);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot reload failed: %s\n",
                 snap.status().ToString().c_str());
    return false;
  }
  *out = std::move(*snap);
  return true;
}

/// Sequential baseline: plain AddPaper calls in stream order.
bool RunSequential(const data::PaperDatabase& history,
                   const std::string& snapshot_path,
                   const std::vector<data::Paper>& stream, RunOutcome* out) {
  data::PaperDatabase db = history;
  io::Snapshot snap;
  if (!ReloadFitted(snapshot_path, db, &snap)) return false;
  core::IncrementalDisambiguator inc(&db, &snap.result, snap.config);
  out->digests.reserve(stream.size());
  Stopwatch sw;
  for (const auto& paper : stream) {
    auto r = inc.AddPaper(paper);
    if (!r.ok()) {
      std::fprintf(stderr, "sequential AddPaper failed: %s\n",
                   r.status().ToString().c_str());
      return false;
    }
    out->digests.push_back(DigestOf(*r));
  }
  out->seconds = sw.ElapsedSeconds();
  out->graph_bytes = snap.result.graph.MemoryBytes();
  out->num_alive = snap.result.graph.num_alive();
  return true;
}

/// One-shard router run with `producers` threads partitioning the stream by
/// index.
bool RunService(const data::PaperDatabase& history,
                const std::string& snapshot_path,
                const std::vector<data::Paper>& stream, int producers,
                RunOutcome* out) {
  data::PaperDatabase db = history;
  io::Snapshot snap;
  if (!ReloadFitted(snapshot_path, db, &snap)) return false;
  std::vector<std::future<shard::ShardRouter::Assignments>> futures(
      stream.size());
  core::IuadConfig cfg = snap.config;
  cfg.num_shards = 1;
  Stopwatch sw;
  {
    shard::ShardRouter service(&db, &snap.result, cfg);
    std::atomic<size_t> next{0};
    auto producer = [&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        futures[i] = service.SubmitAt(i, stream[i]);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < producers; ++t) threads.emplace_back(producer);
    producer();
    for (auto& t : threads) t.join();
    service.Drain();
  }  // Stop() via destructor
  out->seconds = sw.ElapsedSeconds();
  out->graph_bytes = snap.result.graph.MemoryBytes();
  out->num_alive = snap.result.graph.num_alive();
  out->digests.reserve(stream.size());
  for (auto& f : futures) {
    auto r = f.get();
    if (!r.ok()) {
      std::fprintf(stderr, "service AddPaper failed: %s\n",
                   r.status().ToString().c_str());
      return false;
    }
    out->digests.push_back(DigestOf(*r));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int papers = 6000;
  int stream_size = 400;
  int producers = 0;  // 0 = hardware concurrency
  std::string json_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--papers") == 0) papers = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--stream") == 0) {
      stream_size = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--producers") == 0) {
      producers = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  producers = util::ResolveNumThreads(producers);

  bench::PrintHeader("bench_ingest",
                     "Sec. V-E serving throughput (1-shard ShardRouter)");
  auto corpus = bench::BenchCorpus(2021, papers);
  auto [history, stream] = corpus.db.HoldOutLatest(stream_size);
  std::printf("corpus: %d papers history, %zu-paper stream, %d producers\n",
              history.num_papers(), stream.size(), producers);

  core::IuadConfig cfg = bench::BenchIuadConfig();
  auto fitted = core::IuadPipeline(cfg).Run(history);
  if (!fitted.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  const std::string snapshot_path = "bench_ingest.snapshot.tmp";
  {
    iuad::Status st = io::SaveSnapshot(snapshot_path, history, *fitted, cfg);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  RunOutcome seq, svc1, svcN;
  const bool ran = RunSequential(history, snapshot_path, stream, &seq) &&
                   RunService(history, snapshot_path, stream, 1, &svc1) &&
                   RunService(history, snapshot_path, stream, producers, &svcN);
  std::remove(snapshot_path.c_str());
  if (!ran) return 1;

  const bool identical = seq.digests == svc1.digests &&
                         seq.digests == svcN.digests;
  std::printf(
      "papers/s: sequential %.1f | service@1 %.1f | service@%d %.1f\n",
      seq.papers_per_s(stream.size()), svc1.papers_per_s(stream.size()),
      producers, svcN.papers_per_s(stream.size()));
  std::printf("assignments identical across all three runs: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");
  if (!identical) return 1;  // never record a lying BENCH_* data point
  std::printf("memory: rss %.1f MiB, graph %.1f bytes/author (%d authors)\n",
              util::CurrentRssMb(), seq.bytes_per_author(), seq.num_alive);

  if (!json_path.empty()) {
    util::JsonWriter json;
    json.Field("bench", "bench_ingest")
        .Field("papers_history", history.num_papers())
        .Field("stream", static_cast<int>(stream.size()))
        .Field("producers", producers)
        .Field("identical_assignments", identical);
    json.BeginObject("papers_per_s")
        .Field("sequential", seq.papers_per_s(stream.size()), 1)
        .Field("service_1_producer", svc1.papers_per_s(stream.size()), 1)
        .Field("service_n_producers", svcN.papers_per_s(stream.size()), 1)
        .EndObject();
    json.BeginObject("seconds")
        .Field("sequential", seq.seconds)
        .Field("service_1_producer", svc1.seconds)
        .Field("service_n_producers", svcN.seconds)
        .EndObject();
    json.BeginObject("memory")
        .Field("rss_mb", util::CurrentRssMb(), 1)
        .Field("graph_bytes", static_cast<int64_t>(seq.graph_bytes))
        .Field("num_alive_authors", seq.num_alive)
        .Field("bytes_per_author", seq.bytes_per_author(), 1)
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
