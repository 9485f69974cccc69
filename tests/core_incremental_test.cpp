#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "eval/evaluator.h"
#include "testing_utils.h"

namespace iuad::core {
namespace {

IuadConfig FastConfig() {
  IuadConfig cfg;
  cfg.word2vec.dim = 16;
  cfg.word2vec.epochs = 2;
  cfg.max_split_vertices = 50;
  return cfg;
}

TEST(IncrementalTest, RequiresFittedModel) {
  auto db = iuad::testing::Fig2Database();
  IuadPipeline pipeline(FastConfig());
  auto scn_only = pipeline.RunScnOnly(db);
  ASSERT_TRUE(scn_only.ok());
  IncrementalDisambiguator inc(&db, &*scn_only, FastConfig());
  auto r = inc.AddPaper(iuad::testing::MakePaper({"a", "b"}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), iuad::StatusCode::kFailedPrecondition);
}

TEST(IncrementalTest, RejectsEmptyByline) {
  auto corpus = iuad::testing::SmallCorpus(31);
  IuadPipeline pipeline(FastConfig());
  auto result = pipeline.Run(corpus.db);
  ASSERT_TRUE(result.ok());
  data::PaperDatabase db = corpus.db;
  IncrementalDisambiguator inc(&db, &*result, FastConfig());
  data::Paper empty;
  EXPECT_FALSE(inc.AddPaper(empty).ok());
}

class IncrementalStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = iuad::testing::SmallCorpus(32);
    // Hold out the most recent papers as the stream.
    auto [history, stream] = corpus_.db.HoldOutLatest(80);
    history_ = std::move(history);
    stream_ = std::move(stream);
    IuadPipeline pipeline(FastConfig());
    auto result = pipeline.Run(history_);
    ASSERT_TRUE(result.ok());
    result_ = std::make_unique<DisambiguationResult>(std::move(*result));
  }

  data::Corpus corpus_;
  data::PaperDatabase history_;
  std::vector<data::Paper> stream_;
  std::unique_ptr<DisambiguationResult> result_;
};

TEST_F(IncrementalStreamTest, IngestsWholeStreamMaintainingInvariants) {
  IncrementalDisambiguator inc(&history_, result_.get(), FastConfig());
  for (const auto& paper : stream_) {
    auto assignments = inc.AddPaper(paper);
    ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
    ASSERT_EQ(assignments->size(), paper.author_names.size());
    for (const auto& a : *assignments) {
      EXPECT_GE(a.vertex, 0);
      EXPECT_TRUE(result_->graph.alive(a.vertex));
      EXPECT_EQ(result_->graph.NameOf(a.vertex), a.name);
    }
  }
  EXPECT_EQ(inc.papers_ingested(), static_cast<int>(stream_.size()));
  // The database grew by exactly the stream.
  EXPECT_EQ(history_.num_papers(),
            corpus_.db.num_papers());
  // Every streamed occurrence is attributed.
  for (int pid = corpus_.db.num_papers() - static_cast<int>(stream_.size());
       pid < history_.num_papers(); ++pid) {
    for (const auto& name : history_.paper(pid).author_names) {
      EXPECT_GE(result_->occurrences.Lookup(pid, name), 0);
    }
  }
}

TEST_F(IncrementalStreamTest, AssignmentQualityStaysReasonable) {
  // Table VI's shape: incremental ingestion loses only a little accuracy
  // relative to the batch metrics on the same names.
  IncrementalDisambiguator inc(&history_, result_.get(), FastConfig());
  for (const auto& paper : stream_) {
    ASSERT_TRUE(inc.AddPaper(paper).ok());
  }
  std::vector<std::string> names = corpus_.TestNames(2);
  auto metrics = eval::EvaluateOccurrences(history_, result_->occurrences,
                                           names);
  EXPECT_GT(metrics.f1, 0.45);
  EXPECT_GT(metrics.precision, 0.5);
}

TEST_F(IncrementalStreamTest, KnownAuthorPaperJoinsExistingVertex) {
  // Stream a paper whose lead is a prolific author with a stable
  // collaborator set taken from the history: it should NOT found a new
  // author vertex.
  // Find a history paper by the most prolific ambiguous author.
  const auto names = corpus_.TestNames(2);
  ASSERT_FALSE(names.empty());
  // Pick the (name, author) with the most history papers.
  std::string best_name;
  data::AuthorId best_author = data::kUnknownAuthor;
  size_t best_count = 0;
  for (const auto& name : names) {
    std::unordered_map<data::AuthorId, size_t> by_author;
    for (int pid : history_.PapersWithName(name)) {
      const auto a = history_.paper(pid).TrueAuthorOfName(name);
      if (a != data::kUnknownAuthor && ++by_author[a] > best_count) {
        best_count = by_author[a];
        best_name = name;
        best_author = a;
      }
    }
  }
  ASSERT_GT(best_count, 3u);
  // Clone one of that author's history papers as a "new" publication.
  data::Paper clone;
  for (int pid : history_.PapersWithName(best_name)) {
    if (history_.paper(pid).TrueAuthorOfName(best_name) == best_author) {
      clone = history_.paper(pid);
      break;
    }
  }
  clone.id = -1;
  clone.year = corpus_.db.max_year();
  IncrementalDisambiguator inc(&history_, result_.get(), FastConfig());
  auto assignments = inc.AddPaper(clone);
  ASSERT_TRUE(assignments.ok());
  const auto& focal = (*assignments)[static_cast<size_t>(
      clone.PositionOfName(best_name))];
  EXPECT_FALSE(focal.created_new)
      << "prolific author's identical paper founded a new vertex";
  EXPECT_GT(focal.num_candidates, 0);
}

TEST_F(IncrementalStreamTest, UnknownNameCreatesNewVertex) {
  IncrementalDisambiguator inc(&history_, result_.get(), FastConfig());
  auto assignments = inc.AddPaper(iuad::testing::MakePaper(
      {"Qzx Unseen", "Wvb Fresh"}, "totally new topic", "Nowhere", 2021));
  ASSERT_TRUE(assignments.ok());
  for (const auto& a : *assignments) {
    EXPECT_TRUE(a.created_new);
    EXPECT_EQ(a.num_candidates, 0);
  }
  // The two new vertices are linked by the recovered relation.
  const auto& g = result_->graph;
  EXPECT_TRUE(g.NeighborsOf((*assignments)[0].vertex)
                  .count((*assignments)[1].vertex) > 0);
}

/// One golden line per byline occurrence: stream position, name, owner
/// vertex, created_new, num_candidates and the raw bits of best_score.
std::string GoldenLine(size_t paper, const IncrementalAssignment& a) {
  uint64_t bits = 0;
  std::memcpy(&bits, &a.best_score, sizeof(bits));
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%zu\t%s\t%d\t%d\t%d\t%016" PRIx64 "\n",
                paper, a.name.c_str(), a.vertex, a.created_new ? 1 : 0,
                a.num_candidates, bits);
  return buf;
}

TEST_F(IncrementalStreamTest, SequentialScoreBitsMatchGolden) {
  // Pins every assignment and best_score bit of sequential AddPaper over
  // the 80-paper held-out stream at a refresh every 16 papers (five
  // refreshes), so changes to the scoring stack (WL kernel, profiles, EM)
  // are checked against recorded output, not only against themselves.
  // On a mismatch the actual lines are written to the working directory;
  // copy them over tests/golden/incremental_stream.tsv only when a score
  // change is intended.
  IuadConfig cfg = FastConfig();
  cfg.incremental_refresh_interval = 16;
  IncrementalDisambiguator inc(&history_, result_.get(), cfg);
  std::string actual;
  for (size_t i = 0; i < stream_.size(); ++i) {
    auto assignments = inc.AddPaper(stream_[i]);
    ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
    for (const auto& a : *assignments) actual += GoldenLine(i, a);
  }
  const std::string path =
      std::string(IUAD_GOLDEN_DIR) + "/incremental_stream.tsv";
  std::ifstream in(path);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() != actual) {
    std::ofstream("incremental_stream.actual.tsv") << actual;
  }
  ASSERT_TRUE(in.good() || in.eof()) << "missing golden file " << path;
  EXPECT_EQ(golden.str(), actual)
      << "sequential assignments diverged from " << path;
}

TEST_F(IncrementalStreamTest, RefreshIntervalTriggersRebuild) {
  IuadConfig cfg = FastConfig();
  cfg.incremental_refresh_interval = 5;
  IncrementalDisambiguator inc(&history_, result_.get(), cfg);
  for (int i = 0; i < 12 && i < static_cast<int>(stream_.size()); ++i) {
    ASSERT_TRUE(inc.AddPaper(stream_[static_cast<size_t>(i)]).ok());
  }
  EXPECT_EQ(inc.papers_ingested(), 12);
}

}  // namespace
}  // namespace iuad::core
