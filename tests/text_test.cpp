#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "text/embedding.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "text/word2vec.h"
#include "util/rng.h"

namespace iuad::text {
namespace {

// --------------------------- Tokenizer --------------------------------------

TEST(TokenizerTest, LowercasesAndStripsPunctuation) {
  auto toks = Tokenize("Graph-Based Name: Disambiguation!");
  EXPECT_EQ(toks, (std::vector<std::string>{"graph", "based", "name",
                                            "disambiguation"}));
}

TEST(TokenizerTest, DropsShortTokens) {
  auto toks = Tokenize("a of x12 networks", /*min_len=*/3);
  EXPECT_EQ(toks, (std::vector<std::string>{"networks"}));
}

TEST(TokenizerTest, EmptyInput) { EXPECT_TRUE(Tokenize("").empty()); }

TEST(TokenizerTest, DigitsSplitTokens) {
  auto toks = Tokenize("word2vec");
  EXPECT_EQ(toks, (std::vector<std::string>{"word", "vec"}));
}

TEST(StopWordsTest, CommonWordsAreStopWords) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("using"));
  EXPECT_TRUE(IsStopWord("based"));
  EXPECT_FALSE(IsStopWord("collaboration"));
}

TEST(KeywordsTest, ExtractKeywordsFiltersStopWords) {
  auto kws = ExtractKeywords("On the Disambiguation of Authors using Graphs");
  EXPECT_EQ(kws, (std::vector<std::string>{"disambiguation", "authors",
                                           "graphs"}));
}

// --------------------------- Vocabulary -------------------------------------

TEST(VocabularyTest, AssignsDenseIdsInFirstSeenOrder) {
  Vocabulary v;
  EXPECT_EQ(v.Add("alpha"), 0);
  EXPECT_EQ(v.Add("beta"), 1);
  EXPECT_EQ(v.Add("alpha"), 0);
  EXPECT_EQ(v.size(), 2);
  EXPECT_EQ(v.WordOf(1), "beta");
}

TEST(VocabularyTest, CountsAccumulate) {
  Vocabulary v;
  v.Add("x");
  v.AddCount("x", 4);
  v.Add("y");
  EXPECT_EQ(v.CountOf(v.Lookup("x")), 5);
  EXPECT_EQ(v.CountOf(v.Lookup("y")), 1);
  EXPECT_EQ(v.total_count(), 6);
}

TEST(VocabularyTest, LookupUnknown) {
  Vocabulary v;
  EXPECT_EQ(v.Lookup("nope"), Vocabulary::kUnknown);
}

// --------------------------- Vector ops -------------------------------------

TEST(EmbeddingTest, DotNormCosine) {
  Vec a{1.0f, 0.0f}, b{0.0f, 2.0f}, c{3.0f, 0.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(Norm(c), 3.0);
  EXPECT_DOUBLE_EQ(Cosine(a, c), 1.0);
  EXPECT_DOUBLE_EQ(Cosine(a, b), 0.0);
}

TEST(EmbeddingTest, CosineOfZeroVectorIsZero) {
  Vec z{0.0f, 0.0f}, a{1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(Cosine(z, a), 0.0);
}

TEST(EmbeddingTest, MeanVector) {
  Vec a{2.0f, 0.0f}, b{0.0f, 4.0f};
  auto m = MeanVector({&a, &b}, 2);
  EXPECT_FLOAT_EQ(m[0], 1.0f);
  EXPECT_FLOAT_EQ(m[1], 2.0f);
  auto empty = MeanVector({}, 3);
  EXPECT_EQ(empty.size(), 3u);
  EXPECT_FLOAT_EQ(empty[0], 0.0f);
}

TEST(EmbeddingTest, L2Distance) {
  Vec a{0.0f, 0.0f}, b{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
}

// --------------------------- Word2Vec ---------------------------------------

/// Builds a two-topic corpus: words within a topic co-occur, across topics
/// they never do. SGNS must place same-topic words closer.
std::vector<std::vector<std::string>> TwoTopicCorpus(int sentences_per_topic) {
  const std::vector<std::string> topic_a{"kernel", "graph", "vertex", "edge",
                                         "clique"};
  const std::vector<std::string> topic_b{"protein", "gene", "cell", "enzyme",
                                         "tissue"};
  iuad::Rng rng(3);
  std::vector<std::vector<std::string>> corpus;
  for (int t = 0; t < sentences_per_topic; ++t) {
    for (const auto* topic : {&topic_a, &topic_b}) {
      std::vector<std::string> sent;
      for (int w = 0; w < 6; ++w) {
        sent.push_back((*topic)[rng.NextBounded(topic->size())]);
      }
      corpus.push_back(std::move(sent));
    }
  }
  return corpus;
}

TEST(Word2VecTest, RejectsEmptyCorpus) {
  Word2Vec w2v;
  EXPECT_FALSE(w2v.Train({}).ok());
}

TEST(Word2VecTest, RejectsAllRareCorpus) {
  Word2VecConfig cfg;
  cfg.min_count = 5;
  Word2Vec w2v(cfg);
  EXPECT_FALSE(w2v.Train({{"one", "two"}, {"three", "four"}}).ok());
}

TEST(Word2VecTest, TrainsAndExposesVectors) {
  Word2VecConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 2;
  Word2Vec w2v(cfg);
  ASSERT_TRUE(w2v.Train(TwoTopicCorpus(150)).ok());
  EXPECT_TRUE(w2v.trained());
  ASSERT_NE(w2v.VectorOf("kernel"), nullptr);
  EXPECT_EQ(w2v.VectorOf("kernel")->size(), 16u);
  EXPECT_EQ(w2v.VectorOf("unknown-word"), nullptr);
}

TEST(Word2VecTest, SameTopicWordsAreCloser) {
  Word2VecConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 4;
  cfg.min_count = 2;
  Word2Vec w2v(cfg);
  ASSERT_TRUE(w2v.Train(TwoTopicCorpus(200)).ok());
  const Vec* kernel = w2v.VectorOf("kernel");
  const Vec* graph = w2v.VectorOf("graph");
  const Vec* protein = w2v.VectorOf("protein");
  ASSERT_TRUE(kernel && graph && protein);
  const double same = Cosine(*kernel, *graph);
  const double cross = Cosine(*kernel, *protein);
  EXPECT_GT(same, cross);
  EXPECT_GT(same, 0.3);
}

TEST(Word2VecTest, DeterministicAcrossRuns) {
  auto corpus = TwoTopicCorpus(50);
  Word2VecConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  Word2Vec a(cfg), b(cfg);
  ASSERT_TRUE(a.Train(corpus).ok());
  ASSERT_TRUE(b.Train(corpus).ok());
  const Vec* va = a.VectorOf("kernel");
  const Vec* vb = b.VectorOf("kernel");
  ASSERT_NE(va, nullptr);
  ASSERT_NE(vb, nullptr);
  EXPECT_EQ(*va, *vb);
}

TEST(Word2VecTest, MeanOfMixedKnownUnknown) {
  Word2Vec w2v;
  ASSERT_TRUE(w2v.Train(TwoTopicCorpus(60)).ok());
  Vec m = w2v.MeanOf({"kernel", "definitely-not-a-word"});
  const Vec* k = w2v.VectorOf("kernel");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(m, *k);  // unknown word contributes nothing
  Vec zero = w2v.MeanOf({"definitely-not-a-word"});
  EXPECT_DOUBLE_EQ(Norm(zero), 0.0);
}

TEST(Word2VecTest, LearningRateDecayReachesFloorWithDroppedSentences) {
  // Regression: sentences with < 2 in-vocabulary words are dropped from
  // training, but their tokens used to inflate total_steps, so the linear
  // decay could never complete. Interleave trainable pairs with sentences
  // that survive encoding with a single token (one frequent word plus one
  // below-min_count word) and assert the schedule still bottoms out.
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back({"alpha", "beta"});                    // kept: 2 tokens
    corpus.push_back({"alpha", "rare" + std::to_string(i)}); // dropped: 1 token
  }
  Word2VecConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 2;
  cfg.min_count = 2;
  cfg.subsample = 0.0;  // keep the last token so final_lr is the last step's
  Word2Vec w2v(cfg);
  ASSERT_TRUE(w2v.Train(corpus).ok());
  EXPECT_EQ(w2v.trained_tokens(), 80);  // only the 40 kept pairs
  // At the final token steps_done == total_steps, so the decayed rate is
  // clamped to the floor exactly. With the bug (inflated total_steps) the
  // final rate stayed ~33% above the initial-rate-scaled remainder.
  EXPECT_DOUBLE_EQ(w2v.final_learning_rate(), 1e-4);
}

TEST(Word2VecTest, NegativeTableTracksUnigramDistribution) {
  // Skewed frequencies: counts 64 / 16 / 4 / 2. Each word's share of the
  // negative table must match its unigram^0.75 probability to within one
  // part in a thousand (the exact-boundary build is within 1/table_size per
  // word; the old `i / T > acc` sweep shifted every boundary late, piling
  // surplus slots onto early ids).
  std::vector<std::vector<std::string>> corpus;
  auto repeat = [&](const std::string& w, int n) {
    for (int i = 0; i < n; ++i) corpus.push_back({w, w});  // 2 tokens, kept
  };
  repeat("hot", 32);   // count 64
  repeat("mid", 8);    // count 16
  repeat("low", 2);    // count 4
  repeat("tail", 1);   // count 2
  Word2VecConfig cfg;
  cfg.dim = 4;
  cfg.epochs = 1;
  Word2Vec w2v(cfg);
  ASSERT_TRUE(w2v.Train(corpus).ok());

  const auto& vocab = w2v.vocabulary();
  const auto& table = w2v.negative_table();
  ASSERT_FALSE(table.empty());
  double total = 0.0;
  for (int id = 0; id < vocab.size(); ++id) {
    total += std::pow(static_cast<double>(vocab.CountOf(id)), 0.75);
  }
  std::vector<int64_t> slots(static_cast<size_t>(vocab.size()), 0);
  for (int id : table) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, vocab.size());
    ++slots[static_cast<size_t>(id)];
  }
  for (int id = 0; id < vocab.size(); ++id) {
    const double expected =
        std::pow(static_cast<double>(vocab.CountOf(id)), 0.75) / total;
    const double got = static_cast<double>(slots[static_cast<size_t>(id)]) /
                       static_cast<double>(table.size());
    EXPECT_NEAR(got, expected, 1e-3)
        << "word '" << vocab.WordOf(id) << "' over/under-represented";
  }
}

TEST(Word2VecTest, NearestByCosinePreferTopicMates) {
  Word2VecConfig cfg;
  cfg.epochs = 4;
  Word2Vec w2v(cfg);
  ASSERT_TRUE(w2v.Train(TwoTopicCorpus(200)).ok());
  const Vec* gene = w2v.VectorOf("gene");
  ASSERT_NE(gene, nullptr);
  const Vocabulary& vocab = w2v.vocabulary();
  std::vector<std::pair<double, std::string>> ranked;
  for (int id = 0; id < vocab.size(); ++id) {
    const std::string& w = vocab.WordOf(id);
    if (w != "gene") ranked.emplace_back(-Cosine(*gene, *w2v.VectorOf(w)), w);
  }
  std::sort(ranked.begin(), ranked.end());
  ASSERT_GE(ranked.size(), 3u);
  const std::vector<std::string> topic_b{"protein", "cell", "enzyme", "tissue"};
  int in_topic = 0;
  for (size_t i = 0; i < 3; ++i) {
    const std::string& w = ranked[i].second;
    if (std::find(topic_b.begin(), topic_b.end(), w) != topic_b.end()) {
      ++in_topic;
    }
  }
  EXPECT_GE(in_topic, 2);
}

}  // namespace
}  // namespace iuad::text
