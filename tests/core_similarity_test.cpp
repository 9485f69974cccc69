#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/similarity.h"
#include "testing_utils.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace iuad::core {
namespace {

using graph::CollabGraph;
using graph::VertexId;

/// Untrained embeddings: γ3 must degrade to 0, everything else still works.
const text::Word2Vec& NoEmbeddings() {
  static const text::Word2Vec* const kEmpty = new text::Word2Vec();
  return *kEmpty;
}

IuadConfig DefaultConfig() {
  IuadConfig cfg;
  cfg.wl_iterations = 2;
  return cfg;
}

/// γ between `v` and the occurrence of `name` in `paper`, prepared for
/// this one call.
SimilarityVector VsNewPaper(const SimilarityComputer& sim, VertexId v,
                            const data::Paper& paper,
                            const std::string& name) {
  return sim.ComputeVsNewPaper(v, sim.PrepareNewOccurrence(paper, name));
}

/// Fixture: two same-name vertices with controllable overlap.
///   db: p0..p3. "X" vertices: vx1 {p0, p1}, vx2 {p2, p3}.
///   p0/p2 share venue "ICDE" and keyword "kernels"; p1/p3 differ.
class SimilarityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    p0_ = db_.AddPaper(iuad::testing::MakePaper({"X", "Alice", "Bob"},
                                                "graph kernels", "ICDE", 2010));
    p1_ = db_.AddPaper(iuad::testing::MakePaper({"X", "Alice"},
                                                "network mining", "VLDB", 2011));
    p2_ = db_.AddPaper(iuad::testing::MakePaper({"X", "Alice", "Bob"},
                                                "deep kernels", "ICDE", 2012));
    p3_ = db_.AddPaper(iuad::testing::MakePaper({"X", "Carol"},
                                                "query plans", "SIGMOD", 2013));
    // Graph: vx1 - alice1 - bob1 triangle; vx2 - alice2 - bob2 triangle.
    vx1_ = g_.AddVertex("X", {p0_, p1_});
    a1_ = g_.AddVertex("Alice", {p0_, p1_, p2_});
    b1_ = g_.AddVertex("Bob", {p0_});
    EXPECT_TRUE(g_.AddEdgePapers(vx1_, a1_, {p0_, p1_}).ok());
    EXPECT_TRUE(g_.AddEdgePapers(vx1_, b1_, {p0_}).ok());
    EXPECT_TRUE(g_.AddEdgePapers(a1_, b1_, {p0_}).ok());
    vx2_ = g_.AddVertex("X", {p2_, p3_});
    a2_ = g_.AddVertex("Alice", {p2_});
    b2_ = g_.AddVertex("Bob", {p2_});
    EXPECT_TRUE(g_.AddEdgePapers(vx2_, a2_, {p2_}).ok());
    EXPECT_TRUE(g_.AddEdgePapers(vx2_, b2_, {p2_}).ok());
    EXPECT_TRUE(g_.AddEdgePapers(a2_, b2_, {p2_}).ok());
    // A third X vertex with nothing in common.
    vx3_ = g_.AddVertex("X", {p3_});
  }

  data::PaperDatabase db_;
  CollabGraph g_;
  int p0_, p1_, p2_, p3_;
  VertexId vx1_, a1_, b1_, vx2_, a2_, b2_, vx3_;
};

TEST_F(SimilarityFixture, VectorHasSixFeatures) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto gamma = sim.Compute(vx1_, vx2_);
  ASSERT_EQ(gamma.size(), static_cast<size_t>(kNumSimilarities));
}

TEST_F(SimilarityFixture, WlKernelHighForMirroredNeighborhoods) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto gamma12 = sim.Compute(vx1_, vx2_);
  auto gamma13 = sim.Compute(vx1_, vx3_);
  EXPECT_GT(gamma12[0], 0.5);            // both sit in an Alice-Bob triangle
  EXPECT_GT(gamma12[0], gamma13[0]);     // vx3 is isolated
  EXPECT_GE(gamma13[0], 0.0);
}

TEST_F(SimilarityFixture, CliqueCoincidenceCountsSharedTriangles) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto gamma = sim.Compute(vx1_, vx2_);
  // Both participate in an {Alice, Bob} triangle; τ = min(2, 2) = 2, and
  // the overlap features are log1p-compressed (similarity.h).
  EXPECT_DOUBLE_EQ(gamma[1], std::log1p(0.5));
  auto gamma13 = sim.Compute(vx1_, vx3_);
  EXPECT_DOUBLE_EQ(gamma13[1], 0.0);
}

TEST_F(SimilarityFixture, TimeConsistencyUsesSharedRareKeywords) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto gamma = sim.Compute(vx1_, vx2_);
  // Shared keyword "kernels" (freq 2), years 2010 vs 2012 -> decay e^{-2α},
  // weight 1/log(3), τ = 2. (Eq. 7 with the documented e^{-α·Δ} reading.)
  const double expected =
      std::log1p(std::exp(-0.62 * 2.0) / std::log(3.0) / 2.0);
  EXPECT_NEAR(gamma[3], expected, 1e-9);
}

TEST_F(SimilarityFixture, RepresentativeCommunityCrossCounts) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto gamma = sim.Compute(vx1_, vx2_);
  // Representative venues: vx1 -> ICDE (ties broken lexicographically:
  // ICDE < VLDB), vx2 -> ICDE (< SIGMOD). cnt(H2, ICDE) = 1, cnt(H1, ICDE)
  // = 1, τ = 2 -> γ5 = log1p(1).
  EXPECT_DOUBLE_EQ(gamma[4], std::log1p(1.0));
}

TEST_F(SimilarityFixture, ResearchCommunityAdamicAdar) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto gamma = sim.Compute(vx1_, vx2_);
  // Shared venue ICDE with min multiplicity 1; F_H(ICDE) = 2 papers.
  const double expected = std::log1p((1.0 / std::log(3.0)) / 2.0);
  EXPECT_NEAR(gamma[5], expected, 1e-9);
  auto gamma13 = sim.Compute(vx1_, vx3_);
  // vx3 published only in SIGMOD; vx1 never did.
  EXPECT_DOUBLE_EQ(gamma13[5], 0.0);
}

TEST_F(SimilarityFixture, Gamma3ZeroWithoutEmbeddings) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  EXPECT_DOUBLE_EQ(sim.Compute(vx1_, vx2_)[2], 0.0);
}

TEST_F(SimilarityFixture, Gamma3PositiveWithSharedTopicEmbeddings) {
  text::Word2VecConfig wc;
  wc.min_count = 1;
  wc.epochs = 10;
  text::Word2Vec w2v(wc);
  std::vector<std::vector<std::string>> sentences;
  for (const auto& p : db_.papers()) sentences.push_back(db_.KeywordsOf(p.id));
  // Tiny corpus: just ensure training succeeds and cosine is defined.
  ASSERT_TRUE(w2v.Train(sentences).ok());
  SimilarityComputer sim(db_, g_, w2v, DefaultConfig());
  auto gamma = sim.Compute(vx1_, vx2_);
  EXPECT_GE(gamma[2], -1.0);
  EXPECT_LE(gamma[2], 1.0);
  EXPECT_NE(gamma[2], 0.0);  // both profiles embed "kernels"
}

TEST_F(SimilarityFixture, SymmetricInArguments) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto ab = sim.Compute(vx1_, vx2_);
  auto ba = sim.Compute(vx2_, vx1_);
  for (int f = 0; f < kNumSimilarities; ++f) {
    EXPECT_NEAR(ab[static_cast<size_t>(f)], ba[static_cast<size_t>(f)], 1e-12)
        << "feature " << f;
  }
}

TEST_F(SimilarityFixture, SelfSimilarityIsMaximalOnStructure) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto self = sim.Compute(vx1_, vx1_);
  EXPECT_NEAR(self[0], 1.0, 1e-12);
  EXPECT_GT(self[1], 0.0);
}

TEST_F(SimilarityFixture, InvalidateProfileRefreshesAfterMutation) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  auto before = sim.Compute(vx1_, vx3_);
  // Give vx3 the shared-venue paper p2 — γ6 must now see ICDE overlap. p2
  // sorts before vx3's p3, so this goes through the rebuild path.
  g_.AddVertexPapers(vx3_, {p2_});
  sim.FoldProfile(vx3_);
  auto after = sim.Compute(vx1_, vx3_);
  EXPECT_GT(after[5], before[5]);
}

TEST_F(SimilarityFixture, ComputeVsNewPaperMatchesSemantics) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  // A new paper by X at ICDE with keyword "kernels": should look much more
  // like vx1/vx2 than a paper in an unrelated venue with fresh words.
  data::Paper close = iuad::testing::MakePaper({"X", "Alice"},
                                               "kernels forever", "ICDE", 2013);
  data::Paper far = iuad::testing::MakePaper({"X", "Zed"},
                                             "volcano tectonics", "GeoConf", 2013);
  auto g_close = VsNewPaper(sim, vx1_, close, "X");
  auto g_far = VsNewPaper(sim, vx1_, far, "X");
  ASSERT_EQ(g_close.size(), static_cast<size_t>(kNumSimilarities));
  EXPECT_DOUBLE_EQ(g_close[1], 0.0);  // isolated occurrence: no cliques
  EXPECT_DOUBLE_EQ(g_far[1], 0.0);
  EXPECT_GT(g_close[3], g_far[3]);  // shared rare keyword
  EXPECT_GT(g_close[4], g_far[4]);  // representative venue
  EXPECT_GT(g_close[5], g_far[5]);  // venue overlap
}

TEST_F(SimilarityFixture, ComputeVsNewPaperWlUsesCoauthorNames) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  // A single-author paper carries no structural evidence at all.
  data::Paper solo = iuad::testing::MakePaper({"X"}, "anything", "V", 2020);
  EXPECT_DOUBLE_EQ(VsNewPaper(sim, vx1_, solo, "X")[0], 0.0);
  // A paper co-authored with Alice: positive against vx1 (Alice is in its
  // ball), zero against the isolated vx3.
  data::Paper with_alice =
      iuad::testing::MakePaper({"X", "Alice"}, "anything", "V", 2020);
  const double k1 = VsNewPaper(sim, vx1_, with_alice, "X")[0];
  EXPECT_GT(k1, 0.0);
  EXPECT_LE(k1, 1.0);
  EXPECT_DOUBLE_EQ(VsNewPaper(sim, vx3_, with_alice, "X")[0], 0.0);
  // Unknown co-author names give nothing.
  data::Paper with_stranger =
      iuad::testing::MakePaper({"X", "Stranger"}, "anything", "V", 2020);
  EXPECT_DOUBLE_EQ(VsNewPaper(sim, vx1_, with_stranger, "X")[0], 0.0);
}

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST_F(SimilarityFixture, NewPaperWlIsFixedAtConstructionNotAtFirstScore) {
  // Two computers on one graph. The candidate is scored on the first before
  // the graph grows near it and on the second, for the first time, after.
  // γ1 must not see the growth: it is a function of the graph both were
  // built on, however late a ball is first needed.
  SimilarityComputer first(db_, g_, NoEmbeddings(), DefaultConfig());
  SimilarityComputer second(db_, g_, NoEmbeddings(), DefaultConfig());
  const data::Paper paper =
      iuad::testing::MakePaper({"X", "Alice", "Bob"}, "anything", "V", 2020);
  const double before = VsNewPaper(first, vx1_, paper, "X")[0];
  ASSERT_GT(before, 0.0);

  // Within 2 hops of vx1: a new "Bob" vertex that bridges to vx3, and an
  // edge that brings vx2's Alice into vx1's ball. (Growth that only scales
  // every count of the ball alike would leave the normalized kernel as it
  // was, so this growth is deliberately lopsided.)
  const VertexId late_bob = g_.AddVertex("Bob", {p3_});
  ASSERT_TRUE(g_.AddEdgePapers(vx1_, late_bob, {p3_}).ok());
  ASSERT_TRUE(g_.AddEdgePapers(late_bob, vx3_, {p3_}).ok());
  ASSERT_TRUE(g_.AddEdgePapers(a1_, a2_, {p3_}).ok());

  const double after = VsNewPaper(second, vx1_, paper, "X")[0];
  EXPECT_EQ(Bits(after), Bits(before)) << before << " vs " << after;
}

TEST_F(SimilarityFixture, AllOverlapFeaturesNonNegative) {
  SimilarityComputer sim(db_, g_, NoEmbeddings(), DefaultConfig());
  for (VertexId u : {vx1_, vx2_, vx3_}) {
    for (VertexId v : {vx1_, vx2_, vx3_}) {
      auto gamma = sim.Compute(u, v);
      EXPECT_GE(gamma[0], 0.0);
      EXPECT_GE(gamma[1], 0.0);
      EXPECT_GE(gamma[3], 0.0);
      EXPECT_GE(gamma[4], 0.0);
      EXPECT_GE(gamma[5], 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Profile folding: a seeded property over random histories and streams.
// ---------------------------------------------------------------------------

/// Random title from an embedded vocabulary and a few words the embeddings
/// never saw; sometimes only the latter (a paper with no embedded keyword).
std::string RandomTitle(iuad::Rng* rng) {
  static const char* const kEmbedded[] = {
      "graph",   "kernel",  "mining",  "query",   "stream",  "index",
      "learning", "network", "cluster", "privacy", "storage", "ranking"};
  static const char* const kUnembedded[] = {"zebra", "quartz", "fjord",
                                            "nimbus"};
  std::string title;
  const bool unembedded_only = rng->Bernoulli(0.2);
  const int words = static_cast<int>(rng->UniformInt(1, 3));
  for (int w = 0; w < words; ++w) {
    if (!title.empty()) title += ' ';
    if (unembedded_only || rng->Bernoulli(0.2)) {
      title += kUnembedded[rng->NextBounded(4)];
    } else {
      title += kEmbedded[rng->NextBounded(12)];
    }
  }
  return title;
}

/// A byline of 1-3 names from a six-name pool; a name may repeat.
data::Paper RandomPaper(iuad::Rng* rng) {
  static const char* const kVenues[] = {"VA", "VB", "VC"};
  std::vector<std::string> names;
  const int authors = static_cast<int>(rng->UniformInt(1, 3));
  for (int a = 0; a < authors; ++a) {
    names.push_back("N" + std::to_string(rng->NextBounded(6)));
  }
  return iuad::testing::MakePaper(
      std::move(names), RandomTitle(rng), kVenues[rng->NextBounded(3)],
      static_cast<int>(rng->UniformInt(2000, 2010)));
}

/// Commits `paper` the way ApplyDecisions does: one target per byline (a
/// repeated name gets the same vertex, as its two identical decisions
/// would), then the byline's edges. Returns the touched vertices.
std::vector<VertexId> CommitRandomly(const data::Paper& paper,
                                     data::PaperDatabase* db, CollabGraph* g,
                                     iuad::Rng* rng) {
  const int pid = db->AddPaper(paper);
  std::vector<VertexId> byline;
  std::vector<VertexId> touched;
  for (size_t i = 0; i < paper.author_names.size(); ++i) {
    const std::string& name = paper.author_names[i];
    VertexId target = -1;
    for (size_t j = 0; j < i; ++j) {
      if (paper.author_names[j] == name) target = byline[j];
    }
    const auto& candidates = g->VerticesWithName(name);
    if (target < 0 && !candidates.empty() && rng->Bernoulli(0.8)) {
      target = candidates[rng->NextBounded(candidates.size())];
    }
    if (target < 0) {
      target = g->AddVertex(name, {pid});
    } else {
      g->AddVertexPapers(target, {pid});
      touched.push_back(target);
    }
    byline.push_back(target);
  }
  for (size_t i = 0; i < byline.size(); ++i) {
    for (size_t j = i + 1; j < byline.size(); ++j) {
      if (byline[i] == byline[j]) continue;
      EXPECT_TRUE(g->AddEdgePapers(byline[i], byline[j], {pid}).ok());
      touched.push_back(byline[i]);
      touched.push_back(byline[j]);
    }
  }
  return touched;
}

/// Property: a profile folded commit by commit and carried across
/// refreshes scores bit-for-bit like one built from scratch. The fresh
/// side is a copy of a computer built at the same refresh that never
/// scored: it shares the WL snapshot and frequency tables, so only the
/// profiles can differ. Streams cover a byline repeating a name (the
/// vertex gains the paper twice), representative-venue ties (three
/// venues), papers with no embedded keyword, and vertices that gain papers
/// before their first score.
class ProfileFoldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileFoldPropertyTest, FoldedAndCarriedProfilesMatchFreshBuilds) {
  iuad::Rng rng(static_cast<uint64_t>(GetParam()));
  data::PaperDatabase db;
  CollabGraph g;
  for (int i = 0; i < 25; ++i) {
    CommitRandomly(RandomPaper(&rng), &db, &g, &rng);
  }
  std::vector<std::vector<std::string>> sentences;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::string> words;
    for (const auto& w : text::ExtractKeywords(RandomTitle(&rng))) {
      if (w != "zebra" && w != "quartz" && w != "fjord" && w != "nimbus") {
        words.push_back(w);
      }
    }
    sentences.push_back(std::move(words));
  }
  text::Word2VecConfig wc;
  wc.dim = 8;
  wc.min_count = 1;
  wc.epochs = 2;
  text::Word2Vec w2v(wc);
  ASSERT_TRUE(w2v.Train(sentences).ok());
  const IuadConfig cfg = DefaultConfig();
  constexpr int kRefreshInterval = 4;

  // One probe per venue, so every representative venue meets a match.
  std::vector<data::Paper> probes;
  for (const char* venue : {"VA", "VB", "VC"}) {
    data::Paper probe = RandomPaper(&rng);
    probe.venue = venue;
    probe.author_names.push_back("N0");
    probes.push_back(std::move(probe));
  }

  auto carried = std::make_unique<SimilarityComputer>(db, g, w2v, cfg);
  auto pristine = std::make_unique<SimilarityComputer>(*carried);
  std::set<VertexId> scored;  // exactly the vertices with a cached profile
  for (int step = 0; step < 48; ++step) {
    const data::Paper paper = RandomPaper(&rng);
    // Score the byline's candidates as ingestion would, but not always:
    // unscored vertices gain papers before their first score.
    if (rng.Bernoulli(0.7)) {
      for (const auto& name : paper.author_names) {
        for (VertexId v : g.VerticesWithName(name)) {
          (void)VsNewPaper(*carried, v, paper, name);
          scored.insert(v);
        }
      }
    }
    for (VertexId v : CommitRandomly(paper, &db, &g, &rng)) {
      carried->FoldProfile(v);
    }
    if ((step + 1) % kRefreshInterval == 0) {
      g.Compact();
      auto next = std::make_unique<SimilarityComputer>(db, g, w2v, cfg);
      pristine = std::make_unique<SimilarityComputer>(*next);
      next->AdoptProfiles(std::move(*carried));
      carried = std::move(next);
    }

    const SimilarityComputer fresh(*pristine);
    for (VertexId v : scored) {
      for (const auto& probe : probes) {
        const auto got = VsNewPaper(*carried, v, probe, "N0");
        const auto want = VsNewPaper(fresh, v, probe, "N0");
        for (int f = 0; f < kNumSimilarities; ++f) {
          ASSERT_EQ(Bits(got[static_cast<size_t>(f)]),
                    Bits(want[static_cast<size_t>(f)]))
              << "seed " << GetParam() << " step " << step << " vertex " << v
              << " feature " << f << " probe venue " << probe.venue;
        }
      }
    }
  }
  EXPECT_GT(scored.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileFoldPropertyTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace iuad::core
