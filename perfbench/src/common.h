#ifndef IUAD_PERFBENCH_COMMON_H_
#define IUAD_PERFBENCH_COMMON_H_

/// \file common.h
/// What the three workloads share: arguments, the outcome they report, the
/// metric tables (kept equal to BENCHMARK.json; run.py checks), corpus
/// generation, the deployed configuration, and serve_mixed's
/// fit-then-snapshot set-up with its sequential oracle and closed loop.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "data/corpus_generator.h"
#include "data/paper_database.h"
#include "eval/metrics.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "spans.h"

namespace iuad::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (snapshots, WAL); removed at exit.
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string out_dir;
};

/// What one workload run reports. A failed oracle check marks the run
/// incorrect, and an incorrect run reports no numbers.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// The traced run's spans as Chrome trace-event JSON (empty untraced).
  std::string trace_json;

  /// Records an oracle failure (printed to stderr).
  void Fail(const std::string& why);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every workload's untraced run.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Per-layer metrics, printed by every workload's traced run; a layer a
/// workload does not exercise reads 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Seed of corpus `k` (k < 1000) of the run with seed `seed`. Every
/// workload generates several independent corpora and set-ups per run and
/// pools its numbers over them, so one corpus's quirks do not ride on the
/// run; set-up time is the median of their set-ups.
inline uint64_t SubSeed(uint64_t seed, int k) {
  return seed * 1000 + static_cast<uint64_t>(k);
}

/// Hardware threads (the shard, worker and fit thread count).
int Nproc();

/// A DBLP-density synthetic corpus of `papers` papers (the bench::BenchCorpus
/// shape: ~5 papers per author, name pools scaled with the population).
data::Corpus MakeCorpus(uint64_t seed, int papers);

/// The configuration a deployment runs: library defaults (metrics and the
/// flight recorder on) with fit threads and shards at nproc.
core::IuadConfig DeployedConfig();

/// A fitted history and the held-out stream that follows it, the Table VI
/// protocol, with the fit saved as a snapshot for each run to reload.
struct FittedSetup {
  data::Corpus corpus;
  data::PaperDatabase history;
  std::vector<data::Paper> stream;
  core::DisambiguationResult fitted;
  std::vector<std::string> test_names;
  std::string snapshot_path;
};

/// Seconds spent in each set-up step.
struct SetupTimes {
  double generate_s = 0.0;
  double fit_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double total() const { return generate_s + fit_s + save_s + load_s; }
};

/// Generates history + stream, fits the history, saves and reloads its
/// snapshot. Returns false (with `why`) on any error.
bool BuildFittedSetup(uint64_t seed, int history_papers, int stream_papers,
                      const std::string& snapshot_path, FittedSetup* out,
                      SetupTimes* times, std::string* why);

/// Sequential IncrementalDisambiguator::AddPaper over one setup's stream,
/// on a fresh reload of its snapshot: the single-threaded baseline and the
/// correctness oracle of every serving path.
class SequentialLane {
 public:
  /// Reloads the snapshot and builds the disambiguator (not timed).
  bool Open(const FittedSetup& setup, std::string* why);

  /// Ingests the first `count` stream papers and returns the seconds
  /// taken. With a log, each call is a span: "core.add_paper", or
  /// "core.add_paper_refresh" when the call ended in a cache refresh.
  double Ingest(size_t count, SpanLog* log);

  /// Per ingested paper, in stream order: AssignmentDigest, 0 if it failed.
  const std::vector<uint64_t>& digests() const { return digests_; }
  int64_t failed() const { return failed_; }
  /// Bylines decided so far, and candidate vertices scored for them.
  int64_t bylines() const { return bylines_; }
  int64_t candidates() const { return candidates_; }
  /// Pairwise confusion over the setup's test names, after ingestion.
  eval::PairCounts Evaluate() const;

 private:
  const FittedSetup* setup_ = nullptr;
  data::PaperDatabase db_;
  io::Snapshot snap_;
  std::unique_ptr<core::IncrementalDisambiguator> inc_;
  std::vector<uint64_t> digests_;
  int64_t failed_ = 0;
  int64_t bylines_ = 0;
  int64_t candidates_ = 0;
};

/// One closed-loop pass through a fresh ShardRouter at nproc shards.
struct RouterPass {
  double seconds = 0.0;
  std::vector<uint64_t> digests;  ///< Per paper, AssignmentDigest.
  int64_t failed = 0;
  serve::ServiceStats stats;      ///< Read after Drain().
  obs::RegistrySnapshot registry;
};

/// Sends the first `count` stream papers of `setup` through a fresh
/// ShardRouter (reloaded snapshot, default pipeline depth): a producer
/// thread keeps the admission window full via SubmitAt, and the calling
/// thread collects the futures in order, appending the gap between
/// successive resolutions to `gaps_ms`. With logs, each SubmitAt call is a
/// "shard.submit" span on `producer_log` and each wait for the next
/// resolution a "shard.commit" span on `collector`.
bool RunRouterPass(const FittedSetup& setup, size_t count,
                   std::vector<double>* gaps_ms, SpanLog* collector,
                   SpanLog* producer_log, RouterPass* out, std::string* why);

/// Sum of pairwise counts -> F1.
double PooledF1(const std::vector<eval::PairCounts>& counts);

/// Fills the core.* per-layer metrics from the spans of traced sequential
/// lanes and the bylines they decided / candidates they scored.
void AddSequentialLayerMetrics(const std::vector<const SpanLog*>& logs,
                               int64_t bylines, int64_t candidates,
                               std::map<std::string, double>* metrics);

/// Fills the shard.* per-layer metrics from routers' Stats() and registries
/// read after Drain(): stage busy sums and counts add up across routers,
/// occupancy and skew (max / mean bylines scored per shard) average.
void AddShardLayerMetrics(const std::vector<serve::ServiceStats>& stats,
                          const std::vector<obs::RegistrySnapshot>& registries,
                          std::map<std::string, double>* metrics);

/// Histogram `name` merged across registry snapshots (empty when absent).
obs::HistogramSnapshot MergedHistogram(
    const std::vector<obs::RegistrySnapshot>& registries,
    const std::string& name);
/// Counter `name` summed across registry snapshots.
int64_t CounterTotal(const std::vector<obs::RegistrySnapshot>& registries,
                     const std::string& name);

// Workload entry points.
Outcome RunFit(const Args& args);
Outcome RunServeMixed(const Args& args);

}  // namespace iuad::perfbench

#endif  // IUAD_PERFBENCH_COMMON_H_
