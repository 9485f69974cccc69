/// serve::Frontend: the serving contract at one shard. One shard is the
/// N = 1 case of shard::ShardRouter, and every check here goes through the
/// Frontend interface. Ingestion — at any producer count, through Submit,
/// SubmitAt or SubmitBatch — must equal sequential
/// IncrementalDisambiguator::AddPaper calls in sequence order, the
/// admission window must bound the queue without deadlocking, and the read
/// APIs must be safe while the router mutates the graph.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "serve/frontend.h"
#include "shard/shard_router.h"
#include "testing_utils.h"

namespace iuad::serve {
namespace {

core::IuadConfig FastConfig() {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.word2vec.epochs = 2;
  cfg.max_split_vertices = 50;
  cfg.num_shards = 1;
  return cfg;
}

/// A fresh fitted state. The pipeline is deterministic (pinned by
/// determinism_test), so repeated calls give interchangeable baselines.
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

/// The serving engine over `f`, reached only through the interface.
std::unique_ptr<Frontend> MakeFrontend(Fixture* f,
                                       const core::IuadConfig& cfg) {
  return std::make_unique<shard::ShardRouter>(&f->history, &f->result, cfg);
}

std::string TraceOf(const std::vector<core::IncrementalAssignment>& as) {
  std::string t;
  for (const auto& a : as) {
    t += a.name + ":" + std::to_string(a.vertex) +
         (a.created_new ? "*" : "") + ";";
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

/// Service run: `producers` threads race over the stream with SubmitAt.
std::vector<std::string> ServiceTraces(const core::IuadConfig& cfg,
                                       uint64_t seed, int holdout,
                                       int producers) {
  Fixture f = MakeFixture(seed, holdout, cfg);
  std::vector<std::future<Frontend::Assignments>> futures(f.stream.size());
  auto service = MakeFrontend(&f, cfg);
  std::atomic<size_t> next{0};
  auto producer = [&] {
    for (size_t i = next.fetch_add(1); i < f.stream.size();
         i = next.fetch_add(1)) {
      futures[i] = service->SubmitAt(i, f.stream[i]);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < producers; ++t) threads.emplace_back(producer);
  producer();
  for (auto& t : threads) t.join();
  service->Stop();
  std::vector<std::string> traces;
  for (auto& fut : futures) {
    auto r = fut.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    traces.push_back(r.ok() ? TraceOf(*r) : "FAILED");
  }
  return traces;
}

TEST(OneShardFrontendTest, MatchesSequentialAtAnyProducerCount) {
  const core::IuadConfig cfg = FastConfig();
  const auto sequential = SequentialTraces(cfg, 33, 60);
  ASSERT_EQ(sequential.size(), 60u);
  EXPECT_EQ(ServiceTraces(cfg, 33, 60, 1), sequential);
  EXPECT_EQ(ServiceTraces(cfg, 33, 60, 4), sequential);
}

TEST(OneShardFrontendTest, TinyAdmissionWindowStaysLiveAndDeterministic) {
  core::IuadConfig cfg = FastConfig();
  cfg.ingest_queue_capacity = 1;  // every out-of-turn producer must block
  cfg.ingest_refresh_window = 3;
  const auto sequential = SequentialTraces(cfg, 34, 40);
  EXPECT_EQ(ServiceTraces(cfg, 34, 40, 4), sequential);
}

TEST(OneShardFrontendTest, SubmitAssignsArrivalOrderSequences) {
  core::IuadConfig cfg = FastConfig();
  Fixture f = MakeFixture(35, 30, cfg);
  const auto sequential = SequentialTraces(cfg, 35, 30);
  auto service = MakeFrontend(&f, cfg);
  std::vector<std::future<Frontend::Assignments>> futures;
  for (const auto& paper : f.stream) futures.push_back(service->Submit(paper));
  service->Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(TraceOf(*r), sequential[i]);
  }
  const auto stats = service->Stats();
  EXPECT_EQ(stats.papers_applied, static_cast<int64_t>(f.stream.size()));
  EXPECT_EQ(stats.queued_now, 0);
  // One shard is the same engine: it reports its topology and the
  // configured pipeline depth like any other shard count.
  EXPECT_EQ(stats.num_shards, 1);
  EXPECT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.pipeline_depth, cfg.pipeline_depth);
  service->Stop();
}

TEST(OneShardFrontendTest, SubmitBatchMatchesSequentialAndStaysContiguous) {
  core::IuadConfig cfg = FastConfig();
  cfg.ingest_queue_capacity = 4;  // the batch must block-and-drain mid-way
  const auto sequential = SequentialTraces(cfg, 33, 60);
  Fixture f = MakeFixture(33, 60, cfg);
  auto service = MakeFrontend(&f, cfg);
  // Two batches + a trailing single Submit: the second batch's range is
  // reserved after the first, the single lands after both.
  std::vector<data::Paper> first(f.stream.begin(), f.stream.begin() + 40);
  std::vector<data::Paper> second(f.stream.begin() + 40, f.stream.end() - 1);
  auto futures = service->SubmitBatch(std::move(first));
  auto more = service->SubmitBatch(std::move(second));
  for (auto& fut : more) futures.push_back(std::move(fut));
  futures.push_back(service->Submit(f.stream.back()));
  ASSERT_EQ(futures.size(), f.stream.size());
  service->Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(TraceOf(*r), sequential[i]);
  }
  EXPECT_TRUE(service->SubmitBatch({}).empty());
  service->Stop();
}

TEST(OneShardFrontendTest, ReadsAreSafeDuringIngestion) {
  core::IuadConfig cfg = FastConfig();
  cfg.ingest_refresh_window = 5;  // republish often to exercise epoch swaps
  Fixture f = MakeFixture(36, 60, cfg);
  // A name guaranteed to exist: the first history byline.
  const std::string name = f.history.paper(0).author_names[0];
  auto service = MakeFrontend(&f, cfg);

  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      const auto records = service->AuthorsByName(name);
      for (const auto& rec : records) {
        // Each call reads the epoch current at that instant; a republish
        // may land between the two calls. Incremental ingestion never
        // merges vertices, so an alive vertex's paper count only grows —
        // the later read must be at least the earlier one.
        EXPECT_GE(
            static_cast<int>(service->PublicationsOf(rec.vertex).size()),
            rec.num_papers);
      }
      (void)service->Stats();
      ++reads;
    }
  });

  std::vector<std::future<Frontend::Assignments>> futures;
  for (const auto& paper : f.stream) futures.push_back(service->Submit(paper));
  service->Drain();
  done = true;
  reader.join();
  for (auto& fut : futures) EXPECT_TRUE(fut.get().ok());
  EXPECT_GT(reads.load(), 0);

  const auto stats = service->Stats();
  EXPECT_EQ(stats.papers_applied, static_cast<int64_t>(f.stream.size()));
  EXPECT_GE(stats.epoch, 1);
  EXPECT_EQ(stats.num_alive_vertices, f.result.graph.num_alive());
  EXPECT_EQ(stats.num_edges, f.result.graph.num_edges());
  service->Stop();
}

TEST(OneShardFrontendTest, HealthCountersTrackQueueAndReorderBuffer) {
  core::IuadConfig cfg = FastConfig();
  cfg.ingest_queue_capacity = 8;
  Fixture f = MakeFixture(42, 10, cfg);
  auto service = MakeFrontend(&f, cfg);
  {
    const auto stats = service->Stats();
    EXPECT_EQ(stats.epoch, 0);  // the pre-ingestion view
    EXPECT_EQ(stats.papers_applied, 0);
    EXPECT_EQ(stats.queued_now, 0);
    EXPECT_EQ(stats.reorder_held, 0);
    EXPECT_EQ(stats.queue_capacity, 8);
  }
  // Two papers stuck behind the sequence-0 hole: both queued, both held.
  auto h1 = service->SubmitAt(1, f.stream[0]);
  auto h2 = service->SubmitAt(2, f.stream[1]);
  {
    const auto stats = service->Stats();
    EXPECT_EQ(stats.queued_now, 2);
    EXPECT_EQ(stats.reorder_held, 2);
  }
  // Filling the hole drains everything; a drain also publishes.
  auto h0 = service->SubmitAt(0, f.stream[2]);
  service->Drain();
  EXPECT_TRUE(h0.get().ok());
  EXPECT_TRUE(h1.get().ok());
  EXPECT_TRUE(h2.get().ok());
  {
    const auto stats = service->Stats();
    EXPECT_EQ(stats.papers_applied, 3);
    EXPECT_EQ(stats.queued_now, 0);
    EXPECT_EQ(stats.reorder_held, 0);
    EXPECT_GE(stats.epoch, 1);  // the drain republished the view
  }
  service->Stop();
}

TEST(OneShardFrontendTest, DuplicateSequenceFailsThatSubmissionOnly) {
  core::IuadConfig cfg = FastConfig();
  Fixture f = MakeFixture(37, 10, cfg);
  auto service = MakeFrontend(&f, cfg);
  auto ok1 = service->SubmitAt(0, f.stream[0]);
  auto dup = service->SubmitAt(0, f.stream[1]);
  auto r_dup = dup.get();
  ASSERT_FALSE(r_dup.ok());
  EXPECT_EQ(r_dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ok1.get().ok());
  service->Stop();
}

TEST(OneShardFrontendTest, StopFailsStrandedSubmissionsAndRejectsNewOnes) {
  core::IuadConfig cfg = FastConfig();
  Fixture f = MakeFixture(38, 10, cfg);
  auto service = MakeFrontend(&f, cfg);
  // Sequence 1 can never apply: sequence 0 is a hole we never fill.
  auto stranded = service->SubmitAt(1, f.stream[0]);
  service->Stop();
  auto r = stranded.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  auto late = service->Submit(f.stream[1]);
  auto r_late = late.get();
  ASSERT_FALSE(r_late.ok());
  EXPECT_EQ(r_late.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OneShardFrontendTest, BadPaperFailsItsFutureWithoutWedgingTheQueue) {
  core::IuadConfig cfg = FastConfig();
  Fixture f = MakeFixture(39, 10, cfg);
  auto service = MakeFrontend(&f, cfg);
  auto good_before = service->Submit(f.stream[0]);
  auto bad = service->Submit(data::Paper{});  // empty byline -> InvalidArgument
  auto good_after = service->Submit(f.stream[1]);
  service->Drain();
  EXPECT_TRUE(good_before.get().ok());
  auto r_bad = bad.get();
  ASSERT_FALSE(r_bad.ok());
  EXPECT_EQ(r_bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(good_after.get().ok());
  EXPECT_EQ(service->Stats().papers_applied, 2);
  service->Stop();
}

}  // namespace
}  // namespace iuad::serve
