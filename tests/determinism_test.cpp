/// Determinism regression tests for the parallel Stage-2 front end: the
/// full pipeline must produce byte-identical occurrence attributions
/// run-to-run on the same seed and at 1 vs. N worker threads, and each
/// newly parallel stage — word2vec shard training, WL label refinement,
/// candidate-block generation, pairwise γ scoring — must be individually
/// invariant to thread count (work is sharded deterministically and merged
/// in fixed shard/vertex/block order regardless of completion order).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/gcn_builder.h"
#include "core/pipeline.h"
#include "core/similarity.h"
#include "graph/wl_kernel.h"
#include "tests/testing_utils.h"
#include "text/word2vec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace iuad {
namespace {

core::IuadConfig TestConfig(int num_threads) {
  core::IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.num_threads = num_threads;
  return cfg;
}

/// Flattened (paper, name) -> vertex attribution in a canonical scan order.
std::vector<std::pair<std::string, graph::VertexId>> Attributions(
    const data::PaperDatabase& db, const core::DisambiguationResult& result) {
  std::vector<std::pair<std::string, graph::VertexId>> out;
  for (const auto& p : db.papers()) {
    for (const auto& name : p.author_names) {
      out.emplace_back(std::to_string(p.id) + "/" + name,
                       result.occurrences.Lookup(p.id, name));
    }
  }
  return out;
}

TEST(DeterminismTest, SameSeedSamePipelineResultTwice) {
  const data::Corpus corpus = testing::SmallCorpus(/*seed=*/23);
  core::IuadPipeline pipeline(TestConfig(/*num_threads=*/2));

  auto r1 = pipeline.Run(corpus.db);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = pipeline.Run(corpus.db);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  EXPECT_EQ(r1->gcn_stats.candidate_pairs, r2->gcn_stats.candidate_pairs);
  EXPECT_EQ(r1->gcn_stats.merges, r2->gcn_stats.merges);
  EXPECT_EQ(r1->graph.num_alive(), r2->graph.num_alive());
  EXPECT_EQ(Attributions(corpus.db, *r1), Attributions(corpus.db, *r2));
}

TEST(DeterminismTest, OneVsFourThreadsIdenticalAttributions) {
  const data::Corpus corpus = testing::SmallCorpus(/*seed=*/23);

  auto serial = core::IuadPipeline(TestConfig(1)).Run(corpus.db);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = core::IuadPipeline(TestConfig(4)).Run(corpus.db);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->gcn_stats.candidate_pairs,
            parallel->gcn_stats.candidate_pairs);
  EXPECT_EQ(serial->gcn_stats.merges, parallel->gcn_stats.merges);
  EXPECT_EQ(serial->gcn_stats.em_iterations, parallel->gcn_stats.em_iterations);
  EXPECT_DOUBLE_EQ(serial->gcn_stats.em_log_likelihood,
                   parallel->gcn_stats.em_log_likelihood);
  EXPECT_EQ(serial->graph.num_alive(), parallel->graph.num_alive());
  EXPECT_EQ(serial->graph.num_edges(), parallel->graph.num_edges());
  EXPECT_EQ(Attributions(corpus.db, *serial),
            Attributions(corpus.db, *parallel));

  // The corpus-trained embeddings feeding γ3 must also be byte-identical.
  const auto& vocab = serial->embeddings.vocabulary();
  ASSERT_GT(vocab.size(), 0);
  EXPECT_EQ(vocab.size(), parallel->embeddings.vocabulary().size());
  for (int id = 0; id < vocab.size(); ++id) {
    const text::Vec* vs = serial->embeddings.VectorOf(vocab.WordOf(id));
    const text::Vec* vp = parallel->embeddings.VectorOf(vocab.WordOf(id));
    ASSERT_NE(vs, nullptr);
    ASSERT_NE(vp, nullptr);
    ASSERT_EQ(*vs, *vp) << "embedding of '" << vocab.WordOf(id) << "'";
  }
}

/// A corpus big enough for several word2vec shards, with no dependence on
/// testing_utils (sentence content only matters for vocabulary size).
std::vector<std::vector<std::string>> ShardedCorpus(int sentences) {
  iuad::Rng rng(7);
  std::vector<std::vector<std::string>> corpus;
  corpus.reserve(static_cast<size_t>(sentences));
  for (int i = 0; i < sentences; ++i) {
    std::vector<std::string> sent;
    const int len = 3 + static_cast<int>(rng.NextBounded(4));
    for (int w = 0; w < len; ++w) {
      sent.push_back("word" + std::to_string(rng.NextBounded(120)));
    }
    corpus.push_back(std::move(sent));
  }
  return corpus;
}

TEST(DeterminismTest, Word2VecShardedTrainingIsThreadCountInvariant) {
  const auto corpus = ShardedCorpus(600);
  text::Word2VecConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 2;
  cfg.num_shards = 4;  // force the sharded schedule on a small corpus

  cfg.num_threads = 1;
  text::Word2Vec serial(cfg);
  ASSERT_TRUE(serial.Train(corpus).ok());
  cfg.num_threads = 4;
  text::Word2Vec parallel(cfg);
  ASSERT_TRUE(parallel.Train(corpus).ok());
  cfg.num_threads = 4;
  text::Word2Vec rerun(cfg);
  ASSERT_TRUE(rerun.Train(corpus).ok());

  const auto& vocab = serial.vocabulary();
  ASSERT_GT(vocab.size(), 0);
  for (int id = 0; id < vocab.size(); ++id) {
    const text::Vec* a = serial.VectorOf(vocab.WordOf(id));
    const text::Vec* b = parallel.VectorOf(vocab.WordOf(id));
    const text::Vec* c = rerun.VectorOf(vocab.WordOf(id));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(*a, *b) << "1 vs 4 threads differ at '" << vocab.WordOf(id) << "'";
    ASSERT_EQ(*b, *c) << "rerun differs at '" << vocab.WordOf(id) << "'";
  }
  EXPECT_DOUBLE_EQ(serial.final_learning_rate(),
                   parallel.final_learning_rate());
}

TEST(DeterminismTest, WlLabelsAreThreadCountInvariant) {
  const data::Corpus corpus = testing::SmallCorpus(/*seed=*/31);
  auto scn = core::IuadPipeline(TestConfig(1)).RunScnOnly(corpus.db);
  ASSERT_TRUE(scn.ok()) << scn.status().ToString();
  const graph::CollabGraph& g = scn->graph;

  constexpr int kDepth = 2;
  util::ThreadPool pool1(1), pool4(4);
  const graph::WlVertexKernel serial(g, kDepth, &pool1);
  const graph::WlVertexKernel parallel(g, kDepth, &pool4);
  const graph::WlVertexKernel unpooled(g, kDepth);  // legacy inline build
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int iter = 0; iter <= kDepth; ++iter) {
      ASSERT_EQ(serial.LabelAt(v, iter), parallel.LabelAt(v, iter))
          << "vertex " << v << " iter " << iter;
      ASSERT_EQ(serial.LabelAt(v, iter), unpooled.LabelAt(v, iter))
          << "vertex " << v << " iter " << iter;
    }
  }
}

TEST(DeterminismTest, CandidateBlocksAreThreadCountInvariant) {
  const data::Corpus corpus = testing::SmallCorpus(/*seed=*/31);
  auto scn = core::IuadPipeline(TestConfig(1)).RunScnOnly(corpus.db);
  ASSERT_TRUE(scn.ok()) << scn.status().ToString();

  core::GcnBuilder builder(TestConfig(1));
  util::ThreadPool pool1(1), pool4(4);
  int64_t names1 = 0, names4 = 0;
  const auto pairs1 = builder.CandidatePairs(scn->graph, &pool1, &names1);
  const auto pairs4 = builder.CandidatePairs(scn->graph, &pool4, &names4);
  ASSERT_GT(pairs1.size(), 0u);
  EXPECT_EQ(names1, names4);
  EXPECT_EQ(pairs1, pairs4);
  // Block order is name order: a rerun must reproduce the exact sequence.
  const auto rerun = builder.CandidatePairs(scn->graph, &pool4, nullptr);
  EXPECT_EQ(pairs1, rerun);
}

TEST(DeterminismTest, ComputeBatchMatchesSerialCompute) {
  const data::Corpus corpus = testing::SmallCorpus(/*seed=*/29);
  core::IuadConfig cfg = TestConfig(/*num_threads=*/4);
  core::IuadPipeline pipeline(cfg);
  auto result = pipeline.Run(corpus.db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Candidate-style pairs: same-name alive vertices of the final graph.
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs;
  for (const auto& name : result->graph.Names()) {
    const auto& verts = result->graph.VerticesWithName(name);
    for (size_t i = 0; i < verts.size(); ++i) {
      for (size_t j = i + 1; j < verts.size(); ++j) {
        pairs.emplace_back(verts[i], verts[j]);
      }
    }
  }
  ASSERT_GT(pairs.size(), 0u);

  core::SimilarityComputer sim(corpus.db, result->graph, result->embeddings,
                               cfg);
  util::ThreadPool pool(4);
  const auto batched = sim.ComputeBatch(pairs, &pool);
  ASSERT_EQ(batched.size(), pairs.size());
  core::SimilarityComputer fresh(corpus.db, result->graph, result->embeddings,
                                 cfg);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto serial = fresh.Compute(pairs[k].first, pairs[k].second);
    ASSERT_EQ(batched[k].size(), serial.size());
    for (size_t f = 0; f < serial.size(); ++f) {
      EXPECT_DOUBLE_EQ(batched[k][f], serial[f])
          << "pair " << k << " gamma" << (f + 1);
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 10007;
  std::vector<int> hits(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_EQ(util::ResolveNumThreads(3), 3);
  EXPECT_GE(util::ResolveNumThreads(0), 1);
  EXPECT_GE(util::ResolveNumThreads(-2), 1);
}

}  // namespace
}  // namespace iuad
