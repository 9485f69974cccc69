#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/paper_embedder.h"
#include "baselines/supervised_pipeline.h"
#include "baselines/unsupervised.h"
#include "eval/evaluator.h"
#include "testing_utils.h"

namespace iuad::baselines {
namespace {

/// A name with two clearly separated authors: distinct co-authors, venues,
/// topics, eras.
data::PaperDatabase TwoAuthorDatabase() {
  data::PaperDatabase db;
  for (int i = 0; i < 6; ++i) {
    db.AddPaper(iuad::testing::MakePaper(
        {"X", "Alice", "Bob"}, "graph kernels structure mining", "ICDE",
        2010 + i, {1, 10, 11}));
  }
  for (int i = 0; i < 6; ++i) {
    db.AddPaper(iuad::testing::MakePaper(
        {"X", "Carol", "Dan"}, "enzyme pathways protein folding", "BioConf",
        1995 + i, {2, 20, 21}));
  }
  return db;
}

int NumClusters(const std::vector<int>& labels) {
  return static_cast<int>(std::set<int>(labels.begin(), labels.end()).size());
}

// --------------------------- HashVector / PaperEmbedder ---------------------

TEST(HashVectorTest, DeterministicUnitNorm) {
  auto a = HashVector("Wei Wang", 32);
  auto b = HashVector("Wei Wang", 32);
  auto c = HashVector("Wei Wang ", 32);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(text::Norm(a), 1.0, 1e-5);
}

TEST(HashVectorTest, DifferentStringsNearOrthogonal) {
  auto a = HashVector("Alice", 64);
  auto b = HashVector("Bob", 64);
  EXPECT_LT(std::abs(text::Cosine(a, b)), 0.5);
}

TEST(PaperEmbedderTest, SharedCoauthorsGiveCloserEmbeddings) {
  auto db = TwoAuthorDatabase();
  EmbedderConfig cfg;
  cfg.focal_name = "X";
  PaperEmbedder embedder(db, nullptr, cfg);
  const auto v0 = embedder.Embed(0);   // Alice+Bob paper
  const auto v1 = embedder.Embed(1);   // Alice+Bob paper
  const auto v6 = embedder.Embed(6);   // Carol+Dan paper
  EXPECT_GT(text::Cosine(v0, v1), text::Cosine(v0, v6));
}

TEST(PaperEmbedderTest, FocalNameExcluded) {
  data::PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"X"}, "t"));
  EmbedderConfig cfg;
  cfg.focal_name = "X";
  cfg.title_weight = 0.0;
  PaperEmbedder embedder(db, nullptr, cfg);
  // Only the focal name on the byline: co-author channel contributes 0.
  EXPECT_NEAR(text::Norm(embedder.Embed(0)), 0.0, 1e-9);
}

TEST(PaperEmbedderTest, VenueChannelSeparatesVenues) {
  data::PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"A"}, "t", "V1"));
  db.AddPaper(iuad::testing::MakePaper({"B"}, "t", "V1"));
  db.AddPaper(iuad::testing::MakePaper({"C"}, "t", "V2"));
  EmbedderConfig cfg;
  cfg.coauthor_weight = 0.0;
  cfg.title_weight = 0.0;
  cfg.venue_weight = 1.0;
  PaperEmbedder embedder(db, nullptr, cfg);
  EXPECT_NEAR(text::Cosine(embedder.Embed(0), embedder.Embed(1)), 1.0, 1e-6);
  EXPECT_LT(text::Cosine(embedder.Embed(0), embedder.Embed(2)), 0.5);
}

TEST(CosineDistanceMatrixTest, SymmetricZeroDiagonal) {
  std::vector<text::Vec> vs{{1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 1.0f}};
  auto d = CosineDistanceMatrix(vs);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(d[i][i], 0.0);
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(d[i][j], d[j][i]);
  }
  EXPECT_NEAR(d[0][1], 1.0, 1e-9);
}

// --------------------------- Unsupervised baselines -------------------------

class UnsupervisedBaselineTest
    : public ::testing::TestWithParam<const char*> {};

std::unique_ptr<UnsupervisedBaseline> MakeBaseline(
    const std::string& which, const data::PaperDatabase& db) {
  if (which == "ANON") return std::make_unique<AnonBaseline>(db, nullptr);
  if (which == "NetE") return std::make_unique<NetEBaseline>(db, nullptr);
  if (which == "Aminer") return std::make_unique<AminerBaseline>(db, nullptr);
  return std::make_unique<GhostBaseline>(db);
}

TEST_P(UnsupervisedBaselineTest, ReturnsValidDenseLabels) {
  auto db = TwoAuthorDatabase();
  auto baseline = MakeBaseline(GetParam(), db);
  auto labels = baseline->Disambiguate("X");
  ASSERT_EQ(labels.size(), db.PapersWithName("X").size());
  const int k = NumClusters(labels);
  for (int l : labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, k);
  }
  EXPECT_EQ(baseline->Name(), GetParam());
}

TEST_P(UnsupervisedBaselineTest, SeparatesTheTwoObviousAuthors) {
  auto db = TwoAuthorDatabase();
  auto baseline = MakeBaseline(GetParam(), db);
  auto labels = baseline->Disambiguate("X");
  ASSERT_EQ(labels.size(), 12u);
  // Papers 0-5 belong to author 1, 6-11 to author 2: no cross-group pair may
  // share a cluster with *all* of the other group (soft check: the dominant
  // label of each group must differ).
  std::map<int, int> g1, g2;
  for (int i = 0; i < 6; ++i) ++g1[labels[static_cast<size_t>(i)]];
  for (int i = 6; i < 12; ++i) ++g2[labels[static_cast<size_t>(i)]];
  auto dominant = [](const std::map<int, int>& m) {
    int best = -1, arg = -1;
    for (auto [l, c] : m) {
      if (c > best) {
        best = c;
        arg = l;
      }
    }
    return arg;
  };
  EXPECT_NE(dominant(g1), dominant(g2)) << GetParam();
}

TEST_P(UnsupervisedBaselineTest, HandlesSingletonAndEmptyNames) {
  auto db = TwoAuthorDatabase();
  db.AddPaper(iuad::testing::MakePaper({"Lonely"}, "one off", "V", 2000));
  auto baseline = MakeBaseline(GetParam(), db);
  auto one = baseline->Disambiguate("Lonely");
  EXPECT_EQ(one.size(), 1u);
  auto none = baseline->Disambiguate("NoSuchName");
  EXPECT_TRUE(none.empty());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, UnsupervisedBaselineTest,
                         ::testing::Values("ANON", "NetE", "Aminer", "GHOST"));

// --------------------------- Supervised pipeline ----------------------------

class SupervisedPipelineTest
    : public ::testing::TestWithParam<SupervisedKind> {};

TEST_P(SupervisedPipelineTest, LearnsOnSyntheticAndClusters) {
  auto corpus = iuad::testing::SmallCorpus(41);
  auto names = corpus.TestNames(2);
  ASSERT_GT(names.size(), 6u);
  // Split names: even -> train, odd -> test (disjoint).
  std::vector<std::string> train, test;
  for (size_t i = 0; i < names.size(); ++i) {
    (i % 2 == 0 ? train : test).push_back(names[i]);
  }
  SupervisedPipeline pipeline(GetParam(), corpus.db, nullptr);
  ASSERT_TRUE(
      pipeline.TrainOn(corpus.db, train, /*max_pairs_per_name=*/300).ok());
  EXPECT_TRUE(pipeline.trained());

  eval::PairCounts total;
  auto metrics = eval::EvaluateClusterer(
      corpus.db,
      [&](const std::string& n) { return pipeline.Disambiguate(n); }, test,
      &total);
  EXPECT_GT(total.total(), 0);
  // Separable synthetic data: any competent classifier beats coin flips.
  EXPECT_GT(metrics.accuracy, 0.6) << pipeline.Name();
}

TEST_P(SupervisedPipelineTest, UntrainedReturnsSingletons) {
  auto db = TwoAuthorDatabase();
  SupervisedPipeline pipeline(GetParam(), db, nullptr);
  auto labels = pipeline.Disambiguate("X");
  EXPECT_EQ(NumClusters(labels), 12);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SupervisedPipelineTest,
                         ::testing::Values(SupervisedKind::kAdaBoost,
                                           SupervisedKind::kGbdt,
                                           SupervisedKind::kRandomForest,
                                           SupervisedKind::kXgboost));

TEST(SupervisedPipelineTest2, TrainRejectsUnlabeledNames) {
  data::PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"x"}, "a b"));
  db.AddPaper(iuad::testing::MakePaper({"x"}, "c d"));
  SupervisedPipeline pipeline(SupervisedKind::kGbdt, db, nullptr);
  EXPECT_FALSE(pipeline.TrainOn(db, {"x"}).ok());
}

TEST(SupervisedKindNameTest, AllNamed) {
  EXPECT_STREQ(SupervisedKindName(SupervisedKind::kAdaBoost), "AdaBoost");
  EXPECT_STREQ(SupervisedKindName(SupervisedKind::kGbdt), "GBDT");
  EXPECT_STREQ(SupervisedKindName(SupervisedKind::kRandomForest), "RF");
  EXPECT_STREQ(SupervisedKindName(SupervisedKind::kXgboost), "XGBoost");
}

}  // namespace
}  // namespace iuad::baselines
