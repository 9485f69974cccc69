#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/occurrence_index.h"
#include "core/scn_builder.h"
#include "graph/union_find.h"
#include "testing_utils.h"

namespace iuad::core {
namespace {

using graph::CollabGraph;
using graph::VertexId;

/// Finds the unique alive vertex of `name` whose paper set equals `papers`.
VertexId FindVertex(const CollabGraph& g, const std::string& name,
                    std::vector<int> papers) {
  std::sort(papers.begin(), papers.end());
  VertexId found = -1;
  for (VertexId v : g.VerticesWithName(name)) {
    if (g.vertex(v).papers == papers) {
      EXPECT_EQ(found, -1) << "duplicate vertex for " << name;
      found = v;
    }
  }
  return found;
}

class Fig2ScnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = iuad::testing::Fig2Database();
    IuadConfig cfg;
    cfg.eta = 2;
    ScnBuilder builder(cfg);
    auto stats = builder.Build(db_, &graph_, &occ_);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    stats_ = *stats;
  }

  data::PaperDatabase db_;
  CollabGraph graph_;
  OccurrenceIndex occ_;
  ScnStats stats_;
};

TEST_F(Fig2ScnTest, MinesTheSixExpected2Scrs) {
  // Sec. IV-C running example: (a,b), (a,c), (a,d), (b,c), (b,e), (c,d).
  EXPECT_EQ(stats_.num_scrs, 6);
}

TEST_F(Fig2ScnTest, ReproducesFigure2VertexSet) {
  // Main component: a{p1..p4}, b{p1,p3,p4}, c{p1..p4}, d{p1,p2}.
  EXPECT_NE(FindVertex(graph_, "a", {0, 1, 2, 3}), -1);
  EXPECT_NE(FindVertex(graph_, "b", {0, 2, 3}), -1);
  EXPECT_NE(FindVertex(graph_, "c", {0, 1, 2, 3}), -1);
  EXPECT_NE(FindVertex(graph_, "d", {0, 1}), -1);
  // Second stable component: b{p5,p6} - e{p5,p6}.
  EXPECT_NE(FindVertex(graph_, "b", {4, 5}), -1);
  EXPECT_NE(FindVertex(graph_, "e", {4, 5}), -1);
  // Singletons: b{p7}, f{p7}, b{p8}, g{p8}.
  EXPECT_NE(FindVertex(graph_, "b", {6}), -1);
  EXPECT_NE(FindVertex(graph_, "f", {6}), -1);
  EXPECT_NE(FindVertex(graph_, "b", {7}), -1);
  EXPECT_NE(FindVertex(graph_, "g", {7}), -1);
  // Exactly 10 vertices: 4 + 2 + 4 (Fig. 2's SCN panel).
  EXPECT_EQ(graph_.num_alive(), 10);
  EXPECT_EQ(stats_.num_vertices, 10);
  // Name b has four distinct candidate vertices (bottom-up!).
  EXPECT_EQ(graph_.VerticesWithName("b").size(), 4u);
}

TEST_F(Fig2ScnTest, ReproducesFigure2EdgeSet) {
  EXPECT_EQ(graph_.num_edges(), 6);
  const VertexId a = FindVertex(graph_, "a", {0, 1, 2, 3});
  const VertexId b = FindVertex(graph_, "b", {0, 2, 3});
  const VertexId c = FindVertex(graph_, "c", {0, 1, 2, 3});
  const VertexId d = FindVertex(graph_, "d", {0, 1});
  // Edge paper sets from Fig. 2.
  EXPECT_EQ(graph_.NeighborsOf(a).at(b), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(graph_.NeighborsOf(a).at(c), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(graph_.NeighborsOf(a).at(d), (std::vector<int>{0, 1}));
  EXPECT_EQ(graph_.NeighborsOf(b).at(c), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(graph_.NeighborsOf(c).at(d), (std::vector<int>{0, 1}));
  // No b-d edge: (b,d) co-occurs only once.
  EXPECT_EQ(graph_.NeighborsOf(b).count(d), 0u);
  // The second component's edge carries {p5, p6}.
  const VertexId b2 = FindVertex(graph_, "b", {4, 5});
  const VertexId e = FindVertex(graph_, "e", {4, 5});
  EXPECT_EQ(graph_.NeighborsOf(b2).at(e), (std::vector<int>{4, 5}));
}

TEST_F(Fig2ScnTest, EveryOccurrenceIsAttributed) {
  int64_t occurrences = 0;
  for (const auto& p : db_.papers()) {
    for (const auto& name : p.author_names) {
      const VertexId v = occ_.Lookup(p.id, name);
      ASSERT_GE(v, 0) << "paper " << p.id << " name " << name;
      EXPECT_TRUE(graph_.alive(v));
      EXPECT_EQ(graph_.NameOf(v), name);
      // The vertex's paper set contains the paper.
      const auto& papers = graph_.vertex(v).papers;
      EXPECT_TRUE(std::binary_search(papers.begin(), papers.end(), p.id));
      ++occurrences;
    }
  }
  EXPECT_EQ(occurrences, db_.author_paper_pairs());
}

TEST_F(Fig2ScnTest, SingletonCountMatchesFigure) {
  // Uncovered occurrences: (p7,b), (p7,f), (p8,b), (p8,g).
  EXPECT_EQ(stats_.singleton_occurrences, 4);
  EXPECT_EQ(stats_.conflict_merges, 0);
}

TEST_F(Fig2ScnTest, ComponentsMatchFigure) {
  graph::UnionFind uf(graph_.num_vertices());
  for (const graph::EdgeRecord& e : graph_.Edges()) uf.Union(e.u, e.v);
  std::set<int> roots;
  for (VertexId v : graph_.AliveVertices()) roots.insert(uf.Find(v));
  // {a,b,c,d}, {b,e}, and 4 isolated = 6 components.
  EXPECT_EQ(roots.size(), 6u);
}

TEST(ScnBuilderTest, RequiresEmptyGraph) {
  auto db = iuad::testing::Fig2Database();
  CollabGraph g;
  g.AddVertex("pre-existing", {});
  OccurrenceIndex occ;
  ScnBuilder builder(IuadConfig{});
  EXPECT_FALSE(builder.Build(db, &g, &occ).ok());
}

TEST(ScnBuilderTest, HigherEtaMinesFewerScrs) {
  auto db = iuad::testing::Fig2Database();
  IuadConfig cfg;
  cfg.eta = 3;
  CollabGraph g;
  OccurrenceIndex occ;
  ScnBuilder builder(cfg);
  auto stats = builder.Build(db, &g, &occ);
  ASSERT_TRUE(stats.ok());
  // Only (a,b): 3, (a,c): 4, (b,c): 3 survive η = 3.
  EXPECT_EQ(stats->num_scrs, 3);
}

TEST(ScnBuilderTest, EtaAboveAllCountsYieldsAllSingletons) {
  auto db = iuad::testing::Fig2Database();
  IuadConfig cfg;
  cfg.eta = 100;
  CollabGraph g;
  OccurrenceIndex occ;
  ScnBuilder builder(cfg);
  auto stats = builder.Build(db, &g, &occ);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_scrs, 0);
  EXPECT_EQ(stats->num_edges, 0);
  // One singleton per byline occurrence.
  EXPECT_EQ(g.num_alive(), static_cast<int>(db.author_paper_pairs()));
}

TEST(ScnBuilderTest, TriangleGateSeparatesContexts) {
  // Two disjoint contexts both containing name "x":
  //   context 1: x writes with u (twice), u with w, x with w  -> triangle
  //   context 2: x writes with q (twice); q never meets u/w.
  // With the gate, inserting (x,q) must NOT reuse the context-1 x vertex.
  data::PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"x", "u", "w"}));
  db.AddPaper(iuad::testing::MakePaper({"x", "u", "w"}));
  db.AddPaper(iuad::testing::MakePaper({"x", "q"}));
  db.AddPaper(iuad::testing::MakePaper({"x", "q"}));

  IuadConfig gated;
  gated.eta = 2;
  gated.triangle_gated_insertion = true;
  CollabGraph g1;
  OccurrenceIndex o1;
  ASSERT_TRUE(ScnBuilder(gated).Build(db, &g1, &o1).ok());
  EXPECT_EQ(g1.VerticesWithName("x").size(), 2u);

  IuadConfig ungated = gated;
  ungated.triangle_gated_insertion = false;
  CollabGraph g2;
  OccurrenceIndex o2;
  ASSERT_TRUE(ScnBuilder(ungated).Build(db, &g2, &o2).ok());
  // Ablation arm: same-name endpoints merge unconditionally.
  EXPECT_EQ(g2.VerticesWithName("x").size(), 1u);
}

TEST(ScnBuilderTest, ConflictMergeUnifiesSharedOccurrence) {
  // Paper p0 = [x, u, q] plus repeats making both (x,u) and (x,q) SCRs, but
  // u and q never co-occur twice with each other: the triangle gate would
  // create two x vertices, yet both SCRs cover occurrence (p0, x) — the
  // builder must detect the conflict and merge them.
  data::PaperDatabase db;
  db.AddPaper(iuad::testing::MakePaper({"x", "u", "q"}));
  db.AddPaper(iuad::testing::MakePaper({"x", "u"}));
  db.AddPaper(iuad::testing::MakePaper({"x", "q"}));

  IuadConfig cfg;
  cfg.eta = 2;
  CollabGraph g;
  OccurrenceIndex occ;
  auto stats = ScnBuilder(cfg).Build(db, &g, &occ);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(g.VerticesWithName("x").size(), 1u);
  EXPECT_GE(stats->conflict_merges, 1);
  // The merged x vertex holds all three papers.
  const graph::VertexId x = g.VerticesWithName("x").front();
  EXPECT_EQ(g.vertex(x).papers, (std::vector<int>{0, 1, 2}));
}

TEST(ScnBuilderTest, OccurrenceInvariantsOnSyntheticCorpus) {
  auto corpus = iuad::testing::SmallCorpus();
  IuadConfig cfg;
  CollabGraph g;
  OccurrenceIndex occ;
  auto stats = ScnBuilder(cfg).Build(corpus.db, &g, &occ);
  ASSERT_TRUE(stats.ok());
  // Every byline occurrence is attributed to an alive vertex of that name.
  for (const auto& p : corpus.db.papers()) {
    for (const auto& name : p.author_names) {
      const VertexId v = occ.Lookup(p.id, name);
      ASSERT_GE(v, 0);
      ASSERT_TRUE(g.alive(v));
      EXPECT_EQ(g.NameOf(v), name);
    }
  }
  EXPECT_GT(stats->num_scrs, 100);
  EXPECT_GT(stats->num_edges, 0);
}

TEST(ScnBuilderTest, ScnEdgesAreHighPrecisionOnSyntheticCorpus) {
  // The SCN's core claim (Sec. IV): vertices formed from stable relations
  // almost never mix two real authors. Measure occurrence-level purity.
  auto corpus = iuad::testing::SmallCorpus();
  IuadConfig cfg;
  CollabGraph g;
  OccurrenceIndex occ;
  ASSERT_TRUE(ScnBuilder(cfg).Build(corpus.db, &g, &occ).ok());

  int64_t pure = 0, impure = 0;
  for (VertexId v : g.AliveVertices()) {
    const auto& vertex = g.vertex(v);
    if (vertex.papers.size() < 2) continue;
    std::set<data::AuthorId> authors;
    for (int pid : vertex.papers) {
      const auto a =
          corpus.db.paper(pid).TrueAuthorOfName(std::string(g.NameOf(v)));
      if (a != data::kUnknownAuthor) authors.insert(a);
    }
    if (authors.size() <= 1) {
      ++pure;
    } else {
      ++impure;
    }
  }
  ASSERT_GT(pure + impure, 0);
  const double purity =
      static_cast<double>(pure) / static_cast<double>(pure + impure);
  EXPECT_GT(purity, 0.9);
}

// --------------------------- OccurrenceIndex --------------------------------

TEST(OccurrenceIndexTest, AssignAndLookup) {
  OccurrenceIndex occ;
  EXPECT_EQ(occ.Lookup(0, "x"), -1);
  EXPECT_EQ(occ.AssignIfAbsent(0, "x", 5), 5);
  EXPECT_EQ(occ.Lookup(0, "x"), 5);
  // Second assignment returns the existing owner.
  EXPECT_EQ(occ.AssignIfAbsent(0, "x", 9), 5);
  EXPECT_EQ(occ.size(), 1);
}

TEST(OccurrenceIndexTest, MergeAliasing) {
  OccurrenceIndex occ;
  occ.AssignIfAbsent(0, "x", 5);
  occ.AssignIfAbsent(1, "x", 6);
  occ.RecordMerge(5, 6);
  EXPECT_EQ(occ.Lookup(1, "x"), 5);
  // Chained merges resolve transitively.
  occ.AssignIfAbsent(2, "x", 7);
  occ.RecordMerge(7, 5);
  EXPECT_EQ(occ.Lookup(0, "x"), 7);
  EXPECT_EQ(occ.Lookup(1, "x"), 7);
  EXPECT_EQ(occ.Resolve(6), 7);
}

TEST(OccurrenceIndexTest, SelfMergeIsNoop) {
  OccurrenceIndex occ;
  occ.AssignIfAbsent(0, "x", 3);
  occ.RecordMerge(3, 3);
  EXPECT_EQ(occ.Lookup(0, "x"), 3);
}

TEST(OccurrenceIndexTest, ClustersOfName) {
  OccurrenceIndex occ;
  occ.AssignIfAbsent(0, "x", 1);
  occ.AssignIfAbsent(1, "x", 1);
  occ.AssignIfAbsent(2, "x", 2);
  auto clusters = occ.ClustersOfName("x", {0, 1, 2});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[1], (std::vector<int>{0, 1}));
  EXPECT_EQ(clusters[2], (std::vector<int>{2}));
}

TEST(OccurrenceIndexTest, NamesAreIndependentKeys) {
  OccurrenceIndex occ;
  occ.AssignIfAbsent(0, "x", 1);
  occ.AssignIfAbsent(0, "y", 2);
  EXPECT_EQ(occ.Lookup(0, "x"), 1);
  EXPECT_EQ(occ.Lookup(0, "y"), 2);
}

}  // namespace
}  // namespace iuad::core
