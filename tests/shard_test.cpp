/// shard::ShardRouter + shard::BlockPlacement: the sharding contract. The
/// acceptance property of the subsystem is that N-shard ingestion through
/// the router — at any shard count, any producer count, through Submit or
/// SubmitAt — produces byte-identical assignments (vertices, scores,
/// new-author births) to sequential IncrementalDisambiguator::AddPaper
/// calls in sequence order. Placement must be deterministic and, under the
/// size-aware policy, balanced; reads must route to the owning shard and
/// stay safe during ingestion.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/placement.h"
#include "shard/shard_router.h"
#include "testing_utils.h"

namespace iuad::shard {
namespace {

core::IuadConfig FastConfig() {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.word2vec.epochs = 2;
  cfg.max_split_vertices = 50;
  return cfg;
}

struct Fixture {
  data::PaperDatabase history;
  std::vector<data::Paper> stream;
  core::DisambiguationResult result;
};

Fixture MakeFixture(uint64_t seed, int holdout, const core::IuadConfig& cfg) {
  Fixture f;
  auto corpus = iuad::testing::SmallCorpus(seed);
  auto [history, stream] = corpus.db.HoldOutLatest(holdout);
  f.history = std::move(history);
  f.stream = std::move(stream);
  auto result = core::IuadPipeline(cfg).Run(f.history);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  f.result = std::move(*result);
  return f;
}

/// Order-sensitive digest including the score bits: "byte-identical" here
/// means bitwise-equal doubles, not just the same argmax.
std::string TraceOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string t;
  for (const auto& a : as) {
    double score = a.best_score;
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(score), "double is 64-bit");
    std::memcpy(&bits, &score, sizeof(bits));
    t += a.name + ":" + std::to_string(a.vertex) +
         (a.created_new ? "*" : "") + "#" + std::to_string(bits) + "/" +
         std::to_string(a.num_candidates) + ";";
  }
  return t;
}

/// Sequential ground truth: one AddPaper per stream paper, in order.
std::vector<std::string> SequentialTraces(const core::IuadConfig& cfg,
                                          uint64_t seed, int holdout) {
  Fixture f = MakeFixture(seed, holdout, cfg);
  core::IncrementalDisambiguator inc(&f.history, &f.result, cfg);
  std::vector<std::string> traces;
  for (const auto& paper : f.stream) {
    auto r = inc.AddPaper(paper);
    EXPECT_TRUE(r.ok());
    traces.push_back(TraceOf(*r));
  }
  return traces;
}

/// Router run: `producers` threads race over the stream with SubmitAt.
std::vector<std::string> RouterTraces(core::IuadConfig cfg, uint64_t seed,
                                      int holdout, int num_shards,
                                      int producers,
                                      core::ShardPlacement placement =
                                          core::ShardPlacement::kSizeAware) {
  cfg.num_shards = num_shards;
  cfg.shard_placement = placement;
  Fixture f = MakeFixture(seed, holdout, cfg);
  std::vector<std::future<ShardRouter::Assignments>> futures(f.stream.size());
  ShardRouter router(&f.history, &f.result, cfg);
  std::atomic<size_t> next{0};
  auto producer = [&] {
    for (size_t i = next.fetch_add(1); i < f.stream.size();
         i = next.fetch_add(1)) {
      futures[i] = router.SubmitAt(i, f.stream[i]);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < producers; ++t) threads.emplace_back(producer);
  producer();
  for (auto& t : threads) t.join();
  router.Stop();
  std::vector<std::string> traces;
  for (auto& fut : futures) {
    auto r = fut.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    traces.push_back(r.ok() ? TraceOf(*r) : "FAILED");
  }
  return traces;
}

/// Sequential ground truth for a hand-built stream over the seed fixture.
std::vector<std::string> SequentialTracesForStream(
    core::IuadConfig cfg, uint64_t seed,
    const std::vector<data::Paper>& stream) {
  cfg.incremental_refresh_interval = 1000;  // match RunPipelined
  Fixture f = MakeFixture(seed, 0, cfg);
  core::IncrementalDisambiguator inc(&f.history, &f.result, cfg);
  std::vector<std::string> traces;
  for (const auto& paper : stream) {
    auto r = inc.AddPaper(paper);
    EXPECT_TRUE(r.ok());
    traces.push_back(TraceOf(*r));
  }
  return traces;
}

struct PipelineRun {
  std::vector<std::string> traces;
  serve::ServiceStats stats;
};

/// Router run with deterministic window shapes: every sequence but 0 is
/// queued up front (the router sleeps on the hole), then sequence 0 lands
/// and the full contiguous run is available — so every window is exactly
/// min(pipeline_depth, papers remaining) and the pipeline counters are
/// exact, not timing-dependent.
PipelineRun RunPipelined(core::IuadConfig cfg, uint64_t seed,
                         const std::vector<data::Paper>& stream,
                         int num_shards, int depth) {
  cfg.num_shards = num_shards;
  cfg.pipeline_depth = depth;
  cfg.ingest_queue_capacity = static_cast<int>(stream.size()) + 8;
  cfg.incremental_refresh_interval = 1000;  // never cap a window here
  Fixture f = MakeFixture(seed, 0, cfg);
  ShardRouter router(&f.history, &f.result, cfg);
  std::vector<std::future<ShardRouter::Assignments>> futures(stream.size());
  for (size_t i = 1; i < stream.size(); ++i) {
    futures[i] = router.SubmitAt(i, stream[i]);
  }
  futures[0] = router.SubmitAt(0, stream[0]);
  router.Drain();
  PipelineRun run;
  run.stats = router.Stats();
  for (auto& fut : futures) {
    auto r = fut.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    run.traces.push_back(r.ok() ? TraceOf(*r) : "FAILED");
  }
  router.Stop();
  return run;
}

// --------------------------- BlockPlacement ---------------------------------

TEST(BlockPlacementTest, DeterministicAndCoversAllShards) {
  auto corpus = iuad::testing::SmallCorpus(21);
  auto result = core::IuadPipeline(FastConfig()).Run(corpus.db);
  ASSERT_TRUE(result.ok());
  for (core::ShardPlacement policy :
       {core::ShardPlacement::kSizeAware, core::ShardPlacement::kHash}) {
    const auto a = BlockPlacement::Build(result->graph, 4, policy);
    const auto b = BlockPlacement::Build(result->graph, 4, policy);
    EXPECT_EQ(a.num_shards(), 4);
    EXPECT_GT(a.num_blocks(), 0);
    int64_t total = 0;
    for (const std::string& name : result->graph.Names()) {
      const int s = a.ShardOf(name);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 4);
      EXPECT_EQ(s, b.ShardOf(name)) << "nondeterministic placement of "
                                    << name;
    }
    for (int64_t w : a.shard_weights()) {
      EXPECT_GT(w, 0);  // this corpus has plenty of blocks for every shard
      total += w;
    }
    EXPECT_GT(total, a.num_blocks());  // weights count vertices + papers
  }
}

TEST(BlockPlacementTest, SizeAwareBalancesBetterThanWorstCase) {
  auto corpus = iuad::testing::SmallCorpus(22);
  auto result = core::IuadPipeline(FastConfig()).Run(corpus.db);
  ASSERT_TRUE(result.ok());
  const auto p = BlockPlacement::Build(result->graph, 4,
                                       core::ShardPlacement::kSizeAware);
  int64_t min_w = p.shard_weights()[0], max_w = p.shard_weights()[0];
  for (int64_t w : p.shard_weights()) {
    min_w = std::min(min_w, w);
    max_w = std::max(max_w, w);
  }
  // LPT packing of many small blocks lands very close to even; 1.25 leaves
  // slack for one giant block dominating a shard.
  EXPECT_LE(static_cast<double>(max_w),
            1.25 * static_cast<double>(std::max<int64_t>(1, min_w)));
}

TEST(BlockPlacementTest, UnseenBlocksRouteThroughTheHashFallback) {
  auto corpus = iuad::testing::SmallCorpus(23);
  auto result = core::IuadPipeline(FastConfig()).Run(corpus.db);
  ASSERT_TRUE(result.ok());
  const auto p = BlockPlacement::Build(result->graph, 4,
                                       core::ShardPlacement::kSizeAware);
  const std::string unseen = "Zz. Never-Seen-Before";
  const int s = p.ShardOf(unseen);
  EXPECT_GE(s, 0);
  EXPECT_LT(s, 4);
  EXPECT_EQ(s, static_cast<int>(NameHash(unseen) % 4));
}

// --------------------------- ShardRouter ------------------------------------

/// What each observability sink receives in every (metrics, trace) state:
/// stage histograms record only with metrics on, flight-recorder events only
/// with tracing on, and slow-commit exemplars whenever either is on (their
/// stage stamps are the same clock reads). One shard, pipeline depth 1 and
/// one paper in flight at a time make every count exact. The recorder is
/// process-wide, so only events stamped after the run starts are counted.
/// Defined first among the router tests: the recorder never recycles a
/// thread's slot (kMaxThreads), and the tests below start more recording
/// threads than that, after which new threads' events are dropped.
TEST(ShardRouterTest, ObservabilitySinksMatchEachFlagState) {
  constexpr int kPapers = 10;
  constexpr int kRefreshEvery = 4;
  constexpr int64_t kRefreshes = 1 + kPapers / kRefreshEvery;  // + ctor's
  using obs::TraceEventId;
  for (bool metrics : {false, true}) {
    for (bool trace : {false, true}) {
      SCOPED_TRACE(std::string("metrics=") + (metrics ? "on" : "off") +
                   " trace=" + (trace ? "on" : "off"));
      core::IuadConfig cfg = FastConfig();
      cfg.num_shards = 1;
      cfg.pipeline_depth = 1;
      cfg.ingest_refresh_window = 1;
      cfg.incremental_refresh_interval = kRefreshEvery;
      cfg.slow_commit_ms = 1e-6;  // every commit is "slow"
      cfg.metrics_enabled = metrics;
      cfg.trace_enabled = trace;
      Fixture f = MakeFixture(59, kPapers, cfg);
      ASSERT_EQ(f.stream.size(), static_cast<size_t>(kPapers));

      obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
      const int64_t dropped_before = recorder.dropped();
      const int64_t start_ns = obs::NowNs();
      serve::ServiceStats stats;
      obs::RegistrySnapshot snapshot;
      {
        ShardRouter router(&f.history, &f.result, cfg);
        for (const auto& paper : f.stream) {
          auto applied = router.Submit(paper).get();
          ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        }
        router.Drain();
        stats = router.Stats();
        snapshot = router.Metrics()->Snapshot();
        router.Stop();
      }
      ASSERT_EQ(recorder.dropped(), dropped_before)
          << "flight-recorder thread slots exhausted; counts are incomplete";

      const int64_t per_paper = metrics ? kPapers : 0;
      std::map<std::string, int64_t> want_hist = {
          {"enqueue_wait_us", per_paper},
          {"scatter_us", per_paper},
          {"shard0_scatter_us", per_paper},
          {"rescore_us", 0},  // depth 1: nothing is ever deferred
          {"apply_us", per_paper},
          {"commit_latency_us", per_paper},
          {"publish_us", per_paper},
          {"refresh_us", metrics ? kRefreshes : 0}};
      std::map<std::string, int64_t> got_hist;
      for (const auto& h : snapshot.histograms) {
        if (want_hist.count(h.name) > 0) got_hist[h.name] = h.count;
      }
      EXPECT_EQ(got_hist, want_hist);

      // Event id -> sorted a0 payloads, router events of this run only.
      std::map<TraceEventId, std::vector<uint64_t>> got_events;
      for (const obs::TraceEvent& e : recorder.Drain()) {
        const auto id = static_cast<TraceEventId>(e.id);
        if (e.ns < start_ns || id == TraceEventId::kRequest) continue;
        got_events[id].push_back(e.a0);
      }
      for (auto& [id, a0s] : got_events) std::sort(a0s.begin(), a0s.end());
      std::map<TraceEventId, std::vector<uint64_t>> want_events;
      if (trace) {
        std::vector<uint64_t> seqs(kPapers);
        for (int i = 0; i < kPapers; ++i) seqs[i] = static_cast<uint64_t>(i);
        for (TraceEventId id :
             {TraceEventId::kPaperSubmit, TraceEventId::kWindowExtract,
              TraceEventId::kPaperExtract, TraceEventId::kPaperScatter,
              TraceEventId::kPaperApply, TraceEventId::kPaperPublish,
              TraceEventId::kPaperCommit}) {
          want_events[id] = seqs;
        }
        want_events[TraceEventId::kShardScatter] =
            std::vector<uint64_t>(kPapers, 0);  // a0 = shard
        want_events[TraceEventId::kRefresh] = {0, 4, 8};  // commit version
      }
      EXPECT_EQ(got_events, want_events);

      const size_t want_exemplars =
          (metrics || trace) ? static_cast<size_t>(cfg.trace_exemplars) : 0;
      ASSERT_EQ(stats.slow_commits.size(), want_exemplars);
      for (const auto& exemplar : stats.slow_commits) {
        EXPECT_GT(exemplar.total_ns, 0);
        EXPECT_EQ(exemplar.stages.size(), 5u);  // enqueue..apply + publish
        EXPECT_TRUE(exemplar.deferrals.empty());
      }
    }
  }
}

/// The subsystem acceptance property: 1-shard and 4-shard ingestion, with
/// one and with several racing producers, are byte-identical to sequential
/// AddPaper — scores included.
TEST(ShardRouterTest, MatchesSequentialAtAnyShardAndProducerCount) {
  const core::IuadConfig cfg = FastConfig();
  const auto sequential = SequentialTraces(cfg, 33, 60);
  ASSERT_EQ(sequential.size(), 60u);
  EXPECT_EQ(RouterTraces(cfg, 33, 60, 1, 1), sequential);
  EXPECT_EQ(RouterTraces(cfg, 33, 60, 4, 1), sequential);
  EXPECT_EQ(RouterTraces(cfg, 33, 60, 4, 4), sequential);
}

/// Adversarial corpus 1: every paper carries the SAME two name blocks, so
/// inside any window only the head paper can score speculatively — the
/// rest must serialize behind it (conflict stalls) and rescore every byline
/// at commit. The assignments must still be byte-identical to sequential at
/// every depth, and the counters must account for exactly the serialized
/// papers.
TEST(ShardRouterTest, HotBlockStreamSerializesAndStaysByteIdentical) {
  const core::IuadConfig cfg = FastConfig();
  const int64_t n = 12;
  std::vector<data::Paper> stream;
  for (int64_t i = 0; i < n; ++i) {
    stream.push_back(iuad::testing::MakePaper(
        {"Hot A. Alpha", "Hot B. Beta"},
        "hot block paper " + std::to_string(i)));
  }
  const auto sequential = SequentialTracesForStream(cfg, 51, stream);
  for (int shards : {1, 4}) {
    for (int depth : {1, 2, 8}) {
      const PipelineRun run = RunPipelined(cfg, 51, stream, shards, depth);
      EXPECT_EQ(run.traces, sequential)
          << "shards=" << shards << " depth=" << depth;
      const int64_t windows = (n + depth - 1) / depth;
      EXPECT_EQ(run.stats.pipeline_depth, depth);
      EXPECT_EQ(run.stats.pipeline_windows, windows);
      // Exactly one paper per window overlaps (the head); the pipeline
      // fully serializes the other n - windows papers.
      EXPECT_DOUBLE_EQ(run.stats.pipeline_occupancy, 1.0);
      EXPECT_EQ(run.stats.conflict_stalls, n - windows)
          << "shards=" << shards << " depth=" << depth;
      // Both bylines of every serialized paper rescore at commit.
      EXPECT_EQ(run.stats.speculative_rescores, 2 * (n - windows));
    }
  }
}

/// Adversarial corpus 2: every paper's blocks are globally unique, so no
/// byline ever conflicts — windows fill to the configured depth and every
/// paper overlaps (max pipeline occupancy), with zero stalls or rescores.
TEST(ShardRouterTest, DisjointBlockStreamOverlapsFullyAndStaysByteIdentical) {
  const core::IuadConfig cfg = FastConfig();
  const int64_t n = 12;
  std::vector<data::Paper> stream;
  for (int64_t i = 0; i < n; ++i) {
    stream.push_back(iuad::testing::MakePaper(
        {"Uniq" + std::to_string(i) + " A. Left",
         "Uniq" + std::to_string(i) + " B. Right"},
        "disjoint block paper " + std::to_string(i)));
  }
  const auto sequential = SequentialTracesForStream(cfg, 52, stream);
  for (int shards : {1, 4}) {
    for (int depth : {1, 2, 8}) {
      const PipelineRun run = RunPipelined(cfg, 52, stream, shards, depth);
      EXPECT_EQ(run.traces, sequential)
          << "shards=" << shards << " depth=" << depth;
      const int64_t windows = (n + depth - 1) / depth;
      EXPECT_EQ(run.stats.pipeline_windows, windows);
      // Every paper scored speculatively: occupancy == mean window fill.
      EXPECT_DOUBLE_EQ(run.stats.pipeline_occupancy,
                       static_cast<double>(n) /
                           static_cast<double>(windows));
      EXPECT_EQ(run.stats.conflict_stalls, 0);
      EXPECT_EQ(run.stats.speculative_rescores, 0);
    }
  }
}

/// Acceptance gate for the observability layer: toggling `metrics_enabled`
/// must be byte-invisible to assignments — identical traces (score bits
/// included) at every shard x producer x pipeline-depth combination. The
/// registry counters stay live either way; the flag only gates clock reads,
/// and neither may leak into a decision path.
TEST(ShardRouterTest, MetricsToggleIsByteInvisibleToAssignments) {
  core::IuadConfig cfg = FastConfig();
  const auto sequential = SequentialTraces(cfg, 53, 30);
  ASSERT_EQ(sequential.size(), 30u);
  for (int shards : {1, 4}) {
    for (int producers : {1, 4}) {
      for (int depth : {1, 8}) {
        cfg.pipeline_depth = depth;
        cfg.metrics_enabled = true;
        const auto on = RouterTraces(cfg, 53, 30, shards, producers);
        cfg.metrics_enabled = false;
        const auto off = RouterTraces(cfg, 53, 30, shards, producers);
        EXPECT_EQ(on, sequential)
            << "metrics-on diverged: shards=" << shards
            << " producers=" << producers << " depth=" << depth;
        EXPECT_EQ(off, on)
            << "metrics toggle changed assignments: shards=" << shards
            << " producers=" << producers << " depth=" << depth;
      }
    }
  }
}

/// Same acceptance gate for the tracing layer: `trace_enabled` gates only
/// flight-recorder clock reads and ring stores, so toggling it (with
/// metrics in both states too — the stamp gating is the OR of the two
/// flags) must leave every assignment byte-identical.
TEST(ShardRouterTest, TracingToggleIsByteInvisibleToAssignments) {
  core::IuadConfig cfg = FastConfig();
  const auto sequential = SequentialTraces(cfg, 57, 30);
  ASSERT_EQ(sequential.size(), 30u);
  for (int shards : {1, 4}) {
    for (int producers : {1, 4}) {
      for (int depth : {1, 8}) {
        cfg.pipeline_depth = depth;
        cfg.trace_enabled = true;
        const auto on = RouterTraces(cfg, 57, 30, shards, producers);
        cfg.trace_enabled = false;
        const auto off = RouterTraces(cfg, 57, 30, shards, producers);
        cfg.metrics_enabled = false;  // both observability layers dark
        const auto dark = RouterTraces(cfg, 57, 30, shards, producers);
        cfg.metrics_enabled = true;
        EXPECT_EQ(on, sequential)
            << "tracing-on diverged: shards=" << shards
            << " producers=" << producers << " depth=" << depth;
        EXPECT_EQ(off, on)
            << "trace toggle changed assignments: shards=" << shards
            << " producers=" << producers << " depth=" << depth;
        EXPECT_EQ(dark, on)
            << "all-off diverged: shards=" << shards
            << " producers=" << producers << " depth=" << depth;
      }
    }
  }
}

TEST(ShardRouterTest, HashPlacementIsEquallyDeterministic) {
  const core::IuadConfig cfg = FastConfig();
  const auto sequential = SequentialTraces(cfg, 34, 40);
  EXPECT_EQ(RouterTraces(cfg, 34, 40, 3, 4, core::ShardPlacement::kHash),
            sequential);
}

TEST(ShardRouterTest, TinyQueueAndRefreshWindowsStayLiveAndDeterministic) {
  core::IuadConfig cfg = FastConfig();
  cfg.ingest_queue_capacity = 1;  // every out-of-turn producer must block
  cfg.ingest_refresh_window = 3;
  cfg.incremental_refresh_interval = 7;  // exercise mid-stream refreshes
  const auto sequential = SequentialTraces(cfg, 35, 40);
  EXPECT_EQ(RouterTraces(cfg, 35, 40, 4, 4), sequential);
}

TEST(ShardRouterTest, SubmitAssignsArrivalOrderSequences) {
  core::IuadConfig cfg = FastConfig();
  cfg.num_shards = 3;
  Fixture f = MakeFixture(36, 30, cfg);
  const auto sequential = SequentialTraces(cfg, 36, 30);
  ShardRouter router(&f.history, &f.result, cfg);
  std::vector<std::future<ShardRouter::Assignments>> futures;
  for (const auto& paper : f.stream) futures.push_back(router.Submit(paper));
  router.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(TraceOf(*r), sequential[i]);
  }
  const auto stats = router.Stats();
  EXPECT_EQ(stats.papers_applied,
            static_cast<int64_t>(f.stream.size()));
  EXPECT_EQ(stats.queued_now, 0);
  EXPECT_EQ(stats.reorder_held, 0);
  router.Stop();
}

TEST(ShardRouterTest, ReadsRouteToOwningShardAndAggregateStats) {
  core::IuadConfig cfg = FastConfig();
  cfg.num_shards = 4;
  cfg.ingest_refresh_window = 5;
  Fixture f = MakeFixture(37, 50, cfg);
  const std::string name = f.history.paper(0).author_names[0];
  ShardRouter router(&f.history, &f.result, cfg);

  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      const auto records = router.AuthorsByName(name);
      for (const auto& rec : records) {
        EXPECT_GE(static_cast<int>(router.PublicationsOf(rec.vertex).size()),
                  rec.num_papers);
      }
      (void)router.Stats();
      ++reads;
    }
  });
  std::vector<std::future<ShardRouter::Assignments>> futures;
  for (const auto& paper : f.stream) futures.push_back(router.Submit(paper));
  router.Drain();
  done = true;
  reader.join();
  for (auto& fut : futures) EXPECT_TRUE(fut.get().ok());
  EXPECT_GT(reads.load(), 0);

  const auto stats = router.Stats();
  EXPECT_EQ(stats.num_shards, 4);
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.papers_applied,
            static_cast<int64_t>(f.stream.size()));
  EXPECT_GE(stats.epoch, 1);
  EXPECT_EQ(stats.num_alive_vertices, f.result.graph.num_alive());
  EXPECT_EQ(stats.num_edges, f.result.graph.num_edges());
  // Per-shard counters are a partition of the totals.
  int64_t bylines = 0, assignments = 0, new_authors = 0, blocks = 0;
  for (const auto& s : stats.shards) {
    bylines += s.bylines_scored;
    assignments += s.assignments;
    new_authors += s.new_authors;
    blocks += s.owned_blocks;
  }
  EXPECT_EQ(bylines, stats.assignments);
  EXPECT_EQ(assignments, stats.assignments);
  EXPECT_EQ(new_authors, stats.new_authors);
  EXPECT_GT(blocks, 0);
  // AuthorsByName went to the owning shard's view and saw the vertex.
  EXPECT_FALSE(router.AuthorsByName(name).empty());
  EXPECT_GE(router.ShardOf(name), 0);
  EXPECT_LT(router.ShardOf(name), 4);
  router.Stop();
}

TEST(ShardRouterTest, BrandNewNameIsServedAfterIngestion) {
  core::IuadConfig cfg = FastConfig();
  cfg.num_shards = 4;
  Fixture f = MakeFixture(38, 5, cfg);
  ShardRouter router(&f.history, &f.result, cfg);
  const std::string unseen = "Qq. Unseen-Author";
  ASSERT_TRUE(router.AuthorsByName(unseen).empty());
  auto fut = router.Submit(
      iuad::testing::MakePaper({unseen, "Some Coauthor"}, "fresh topic"));
  router.Drain();
  auto r = fut.get();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_TRUE((*r)[0].created_new);
  // The unseen block routed through the hash fallback, and the published
  // view on that shard now serves it.
  const auto records = router.AuthorsByName(unseen);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].vertex, (*r)[0].vertex);
  EXPECT_EQ(router.ShardOf(unseen),
            static_cast<int>(NameHash(unseen) % 4));
  router.Stop();
}

TEST(ShardRouterTest, DuplicateSequenceFailsThatSubmissionOnly) {
  core::IuadConfig cfg = FastConfig();
  cfg.num_shards = 2;
  Fixture f = MakeFixture(39, 10, cfg);
  ShardRouter router(&f.history, &f.result, cfg);
  auto ok1 = router.SubmitAt(0, f.stream[0]);
  auto dup = router.SubmitAt(0, f.stream[1]);
  auto r_dup = dup.get();
  ASSERT_FALSE(r_dup.ok());
  EXPECT_EQ(r_dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ok1.get().ok());
  router.Stop();
}

TEST(ShardRouterTest, StopFailsStrandedSubmissionsAndRejectsNewOnes) {
  core::IuadConfig cfg = FastConfig();
  cfg.num_shards = 2;
  Fixture f = MakeFixture(40, 10, cfg);
  ShardRouter router(&f.history, &f.result, cfg);
  // Sequence 1 can never apply: sequence 0 is a hole we never fill.
  auto stranded = router.SubmitAt(1, f.stream[0]);
  {
    const auto stats = router.Stats();
    EXPECT_EQ(stats.queued_now, 1);
    EXPECT_EQ(stats.reorder_held, 1);
  }
  router.Stop();
  auto r = stranded.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  auto late = router.Submit(f.stream[1]);
  auto r_late = late.get();
  ASSERT_FALSE(r_late.ok());
  EXPECT_EQ(r_late.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardRouterTest, BadPaperFailsItsFutureWithoutWedgingTheQueue) {
  core::IuadConfig cfg = FastConfig();
  cfg.num_shards = 2;
  Fixture f = MakeFixture(41, 10, cfg);
  ShardRouter router(&f.history, &f.result, cfg);
  auto good_before = router.Submit(f.stream[0]);
  auto bad = router.Submit(data::Paper{});  // empty byline -> InvalidArgument
  auto good_after = router.Submit(f.stream[1]);
  router.Drain();
  EXPECT_TRUE(good_before.get().ok());
  auto r_bad = bad.get();
  ASSERT_FALSE(r_bad.ok());
  EXPECT_EQ(r_bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(good_after.get().ok());
  EXPECT_EQ(router.Stats().papers_applied, 2);
  router.Stop();
}

}  // namespace
}  // namespace iuad::shard
