#include "common.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

#include "core/incremental.h"
#include "eval/evaluator.h"
#include "io/snapshot.h"
#include "measure.h"
#include "util/thread_pool.h"

namespace iuad::perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"pairwise_f1", "ratio"},
    {"papers_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p99", "ms"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"data.generate_s", "s"},
    {"text.train_s", "s"},
    {"core.scn_build_s", "s"},
    {"core.gcn_build_s", "s"},
    {"core.gcn_candidate_pairs", "count"},
    {"core.gcn_merges", "count"},
    {"core.gcn_merge_ratio", "ratio"},
    {"em.iterations", "count"},
    {"io.snapshot_save_s", "s"},
    {"io.snapshot_load_s", "s"},
    {"core.sequential_papers_per_s", "1/s"},
    {"core.add_paper_us_p50", "us"},
    {"core.refresh_ms_p50", "ms"},
    {"core.refresh_share", "ratio"},
    {"core.candidates_per_byline", "count"},
    {"shard.closed_loop_papers_per_s", "1/s"},
    {"shard.submit_us_p99", "us"},
    {"shard.enqueue_wait_s", "s"},
    {"shard.scatter_s", "s"},
    {"shard.rescore_s", "s"},
    {"shard.apply_s", "s"},
    {"shard.publish_s", "s"},
    {"shard.refresh_s", "s"},
    {"shard.occupancy", "ratio"},
    {"shard.conflict_stalls", "count"},
    {"shard.rescore_ratio", "ratio"},
    {"shard.bylines_skew", "ratio"},
    {"shard.commit_ms_p50", "ms"},
    {"shard.commit_ms_p99", "ms"},
    {"api.client_encode_us_p50", "us"},
    {"api.client_decode_us_p50", "us"},
    {"api.decode_s", "s"},
    {"api.encode_s", "s"},
    {"api.request_us_query_authors_p99", "us"},
    {"api.request_us_ingest_p50", "us"},
    {"api.bytes_out", "bytes"},
    {"wal.open_s", "s"},
    {"wal.fsync_wait_us_p99", "us"},
    {"wal.records_per_fsync", "ratio"},
    {"serve.backlog_max", "count"},
    {"serve.ingest_latency_ms_p50", "ms"},
    {"serve.ingest_latency_ms_p99", "ms"},
    {"serve.query_latency_ms_p50", "ms"},
    {"serve.query_latency_ms_p99", "ms"},
    {"bench.generator_late_ms_p99", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.latency_samples", "count"},
};

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               why.c_str());
}

int Nproc() { return util::ResolveNumThreads(0); }

data::Corpus MakeCorpus(uint64_t seed, int papers) {
  data::CorpusConfig cfg;
  const int authors = std::max(400, papers / 5);
  cfg.authors_per_community = 60;
  cfg.num_communities = std::max(4, authors / cfg.authors_per_community);
  cfg.num_papers = papers;
  const double author_scale = static_cast<double>(authors) / 960.0;
  cfg.given_name_pool = static_cast<int>(180 * author_scale);
  cfg.surname_pool = static_cast<int>(140 * author_scale);
  cfg.name_zipf = 0.7;
  cfg.seed = seed;
  return data::CorpusGenerator(cfg).Generate();
}

core::IuadConfig DeployedConfig() {
  core::IuadConfig cfg;
  cfg.num_threads = Nproc();
  cfg.num_shards = Nproc();
  return cfg;
}

bool BuildFittedSetup(uint64_t seed, int history_papers, int stream_papers,
                      const std::string& snapshot_path, FittedSetup* out,
                      SetupTimes* times, std::string* why) {
  const core::IuadConfig cfg = DeployedConfig();
  int64_t t = NowNs();
  auto lap = [&t] {
    const int64_t now = NowNs();
    const double s = static_cast<double>(now - t) / 1e9;
    t = now;
    return s;
  };
  out->corpus = MakeCorpus(seed, history_papers + stream_papers);
  std::tie(out->history, out->stream) =
      out->corpus.db.HoldOutLatest(stream_papers);
  times->generate_s = lap();
  auto fitted = core::IuadPipeline(cfg).Run(out->history);
  if (!fitted.ok()) {
    *why = "fit failed: " + fitted.status().ToString();
    return false;
  }
  out->fitted = std::move(*fitted);
  times->fit_s = lap();
  iuad::Status st =
      io::SaveSnapshot(snapshot_path, out->history, out->fitted, cfg);
  if (!st.ok()) {
    *why = "snapshot save failed: " + st.ToString();
    return false;
  }
  times->save_s = lap();
  auto loaded = io::LoadSnapshot(snapshot_path, out->history);
  if (!loaded.ok()) {
    *why = "snapshot load failed: " + loaded.status().ToString();
    return false;
  }
  times->load_s = lap();
  out->snapshot_path = snapshot_path;
  out->test_names = out->corpus.TestNames(2);
  return true;
}

bool SequentialLane::Open(const FittedSetup& setup, std::string* why) {
  setup_ = &setup;
  db_ = setup.history;
  auto snap = io::LoadSnapshot(setup.snapshot_path, db_);
  if (!snap.ok()) {
    *why = "snapshot load failed: " + snap.status().ToString();
    return false;
  }
  snap_ = std::move(*snap);
  inc_ = std::make_unique<core::IncrementalDisambiguator>(&db_, &snap_.result,
                                                          snap_.config);
  return true;
}

double SequentialLane::Ingest(size_t count, SpanLog* log) {
  const int interval = snap_.config.incremental_refresh_interval;
  const int64_t start = NowNs();
  for (size_t i = 0; i < std::min(count, setup_->stream.size()); ++i) {
    const int64_t a = log != nullptr ? NowNs() : 0;
    auto r = inc_->AddPaper(setup_->stream[i]);
    if (log != nullptr) {
      const bool refreshed =
          r.ok() && inc_->papers_ingested() % interval == 0;
      log->Add(refreshed ? "core.add_paper_refresh" : "core.add_paper", a,
               NowNs(), static_cast<int64_t>(i));
    }
    if (!r.ok()) {
      ++failed_;
      digests_.push_back(0);
      continue;
    }
    digests_.push_back(AssignmentDigest(*r));
    for (const auto& assignment : *r) {
      ++bylines_;
      candidates_ += assignment.num_candidates;
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

eval::PairCounts SequentialLane::Evaluate() const {
  eval::PairCounts counts;
  eval::EvaluateOccurrences(db_, snap_.result.occurrences, setup_->test_names,
                            &counts);
  return counts;
}

double PooledF1(const std::vector<eval::PairCounts>& counts) {
  eval::PairCounts total;
  for (const auto& c : counts) total.Add(c);
  return eval::ToMetrics(total).f1;
}

void AddSequentialLayerMetrics(const std::vector<const SpanLog*>& logs,
                               int64_t bylines, int64_t candidates,
                               std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  m["core.add_paper_us_p50"] =
      Percentile(SpanSeconds(logs, "core.add_paper"), 50) * 1e6;
  m["core.refresh_ms_p50"] =
      Percentile(SpanSeconds(logs, "core.add_paper_refresh"), 50) * 1e3;
  const double refresh = TotalSpanSeconds(logs, "core.add_paper_refresh");
  const double total = refresh + TotalSpanSeconds(logs, "core.add_paper");
  m["core.refresh_share"] = total > 0.0 ? refresh / total : 0.0;
  m["core.candidates_per_byline"] =
      bylines > 0 ? static_cast<double>(candidates) /
                        static_cast<double>(bylines)
                  : 0.0;
}

obs::HistogramSnapshot MergedHistogram(
    const std::vector<obs::RegistrySnapshot>& registries,
    const std::string& name) {
  obs::HistogramSnapshot merged;
  merged.name = name;
  for (const auto& r : registries) {
    for (const auto& h : r.histograms) {
      if (h.name == name) merged.Merge(h);
    }
  }
  return merged;
}

int64_t CounterTotal(const std::vector<obs::RegistrySnapshot>& registries,
                     const std::string& name) {
  int64_t total = 0;
  for (const auto& r : registries) {
    for (const auto& c : r.counters) {
      if (c.name == name) total += c.value;
    }
  }
  return total;
}

void AddShardLayerMetrics(const std::vector<serve::ServiceStats>& stats,
                          const std::vector<obs::RegistrySnapshot>& registries,
                          std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  for (const auto& [metric, histogram] :
       {std::pair<const char*, const char*>{"shard.enqueue_wait_s",
                                            "enqueue_wait_us"},
        {"shard.scatter_s", "scatter_us"},
        {"shard.rescore_s", "rescore_us"},
        {"shard.apply_s", "apply_us"},
        {"shard.publish_s", "publish_us"},
        {"shard.refresh_s", "refresh_us"}}) {
    m[metric] =
        static_cast<double>(MergedHistogram(registries, histogram).sum_ns) /
        1e9;
  }
  double occupancy = 0.0;
  double skew = 0.0;
  int64_t stalls = 0;
  int64_t rescores = 0;
  int64_t scored = 0;
  for (const auto& s : stats) {
    occupancy += s.pipeline_occupancy;
    stalls += s.conflict_stalls;
    rescores += s.speculative_rescores;
    int64_t lane_scored = 0;
    int64_t lane_max = 0;
    for (const auto& shard : s.shards) {
      lane_scored += shard.bylines_scored;
      lane_max = std::max(lane_max, shard.bylines_scored);
    }
    scored += lane_scored;
    if (lane_scored > 0) {
      skew += static_cast<double>(lane_max) *
              static_cast<double>(s.shards.size()) /
              static_cast<double>(lane_scored);
    }
  }
  const double lanes = static_cast<double>(std::max<size_t>(1, stats.size()));
  m["shard.occupancy"] = occupancy / lanes;
  m["shard.bylines_skew"] = skew / lanes;
  m["shard.conflict_stalls"] = static_cast<double>(stalls);
  m["shard.rescore_ratio"] =
      scored > 0 ? static_cast<double>(rescores) / static_cast<double>(scored)
                 : 0.0;
}

}  // namespace iuad::perfbench
