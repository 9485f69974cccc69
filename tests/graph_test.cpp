#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "graph/collab_graph.h"
#include "graph/triangles.h"
#include "graph/union_find.h"
#include "graph/wl_kernel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace iuad::graph {
namespace {

// --------------------------- UnionFind --------------------------------------

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_sets(), 4);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_EQ(uf.SetSize(2), 1);
}

TEST(UnionFindTest, UnionConnects) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.num_sets(), 3);
  EXPECT_EQ(uf.SetSize(0), 3);
}

TEST(UnionFindTest, UnionIsIdempotent) {
  UnionFind uf(3);
  const int r1 = uf.Union(0, 1);
  const int r2 = uf.Union(0, 1);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(uf.num_sets(), 2);
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind uf(3);
  uf.Union(0, 2);
  uf.Reset(3);
  EXPECT_EQ(uf.num_sets(), 3);
  EXPECT_FALSE(uf.Connected(0, 2));
}

// --------------------------- CollabGraph ------------------------------------

CollabGraph TriangleGraph() {
  // a - b - c triangle plus pendant d.
  CollabGraph g;
  const VertexId a = g.AddVertex("a", {0, 1});
  const VertexId b = g.AddVertex("b", {0, 2});
  const VertexId c = g.AddVertex("c", {1, 2});
  const VertexId d = g.AddVertex("d", {3});
  EXPECT_TRUE(g.AddEdgePapers(a, b, {0}).ok());
  EXPECT_TRUE(g.AddEdgePapers(a, c, {1}).ok());
  EXPECT_TRUE(g.AddEdgePapers(b, c, {2}).ok());
  EXPECT_TRUE(g.AddEdgePapers(c, d, {3}).ok());
  return g;
}

TEST(CollabGraphTest, AddVertexDeduplicatesPapers) {
  CollabGraph g;
  const VertexId v = g.AddVertex("x", {3, 1, 3, 2, 1});
  EXPECT_EQ(g.vertex(v).papers, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.num_alive(), 1);
}

TEST(CollabGraphTest, EdgesAreSymmetricWithSharedPapers) {
  CollabGraph g = TriangleGraph();
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.NeighborsOf(0).at(1), (std::vector<int>{0}));
  EXPECT_EQ(g.NeighborsOf(1).at(0), (std::vector<int>{0}));
  EXPECT_EQ(g.DegreeOf(2), 3);
}

TEST(CollabGraphTest, SelfLoopRejected) {
  CollabGraph g;
  const VertexId v = g.AddVertex("x", {});
  EXPECT_FALSE(g.AddEdgePapers(v, v, {1}).ok());
}

TEST(CollabGraphTest, EdgePapersAccumulate) {
  CollabGraph g;
  const VertexId a = g.AddVertex("a", {});
  const VertexId b = g.AddVertex("b", {});
  ASSERT_TRUE(g.AddEdgePapers(a, b, {2, 1}).ok());
  ASSERT_TRUE(g.AddEdgePapers(a, b, {2, 3}).ok());
  EXPECT_EQ(g.NeighborsOf(a).at(b), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CollabGraphTest, NameIndexTracksVertices) {
  CollabGraph g;
  g.AddVertex("Wei Wang", {1});
  g.AddVertex("Wei Wang", {2});
  g.AddVertex("Lei Zou", {3});
  EXPECT_EQ(g.VerticesWithName("Wei Wang").size(), 2u);
  EXPECT_EQ(g.VerticesWithName("Lei Zou").size(), 1u);
  EXPECT_TRUE(g.VerticesWithName("Nobody").empty());
  EXPECT_EQ(g.Names(), (std::vector<std::string>{"Lei Zou", "Wei Wang"}));
}

TEST(CollabGraphTest, MergeUnionsPapersAndRewires) {
  CollabGraph g = TriangleGraph();
  // Merge c (2) into a (0): a should inherit edge to d and union papers.
  ASSERT_TRUE(g.MergeVertices(0, 2).ok());
  EXPECT_FALSE(g.alive(2));
  EXPECT_EQ(g.num_alive(), 3);
  EXPECT_EQ(g.vertex(0).papers, (std::vector<int>{0, 1, 2}));
  // Edge a-b must now carry both {0} (a-b) and {2} (c-b).
  EXPECT_EQ(g.NeighborsOf(0).at(1), (std::vector<int>{0, 2}));
  // a inherits c's edge to d.
  EXPECT_EQ(g.NeighborsOf(0).at(3), (std::vector<int>{3}));
  // The a-c edge disappeared (would be a self-loop).
  EXPECT_EQ(g.DegreeOf(0), 2);
  // Edge count: a-b, a-d.
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(CollabGraphTest, MergeUpdatesNameIndex) {
  CollabGraph g;
  const VertexId v1 = g.AddVertex("x", {1});
  const VertexId v2 = g.AddVertex("x", {2});
  ASSERT_TRUE(g.MergeVertices(v1, v2).ok());
  EXPECT_EQ(g.VerticesWithName("x"), (std::vector<VertexId>{v1}));
}

TEST(CollabGraphTest, MergeRejectsDegenerateCases) {
  CollabGraph g;
  const VertexId v1 = g.AddVertex("x", {});
  const VertexId v2 = g.AddVertex("y", {});
  EXPECT_FALSE(g.MergeVertices(v1, v1).ok());
  ASSERT_TRUE(g.MergeVertices(v1, v2).ok());
  EXPECT_FALSE(g.MergeVertices(v1, v2).ok());  // v2 already dead
}

TEST(CollabGraphTest, SetEdgePapersReplacesOrRemoves) {
  CollabGraph g;
  const VertexId a = g.AddVertex("a", {});
  const VertexId b = g.AddVertex("b", {});
  ASSERT_TRUE(g.AddEdgePapers(a, b, {1, 2}).ok());
  ASSERT_TRUE(g.SetEdgePapers(a, b, {5}).ok());
  EXPECT_EQ(g.NeighborsOf(b).at(a), (std::vector<int>{5}));
  ASSERT_TRUE(g.SetEdgePapers(a, b, {}).ok());
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.DegreeOf(a), 0);
}

TEST(CollabGraphTest, AliveVerticesSkipsDead) {
  CollabGraph g;
  g.AddVertex("a", {});
  g.AddVertex("b", {});
  g.AddVertex("c", {});
  ASSERT_TRUE(g.MergeVertices(0, 1).ok());
  EXPECT_EQ(g.AliveVertices(), (std::vector<VertexId>{0, 2}));
}

// --------------------------- Triangles --------------------------------------

TEST(TrianglesTest, TrianglesOfVertex) {
  CollabGraph g = TriangleGraph();
  auto t0 = TrianglesOf(g, 0);
  ASSERT_EQ(t0.size(), 1u);
  EXPECT_EQ(t0[0], (std::array<VertexId, 2>{1, 2}));
  EXPECT_TRUE(TrianglesOf(g, 3).empty());
}

TEST(TrianglesTest, K4HasFourTriangles) {
  CollabGraph g;
  for (int i = 0; i < 4; ++i) g.AddVertex("v" + std::to_string(i), {});
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      ASSERT_TRUE(g.AddEdgePapers(i, j, {i * 4 + j}).ok());
    }
  }
  EXPECT_EQ(TrianglesOf(g, 0).size(), 3u);
}

/// TrianglesOf (L(v) of Eq. 5, which gamma2 counts) against brute force over
/// an adjacency matrix the test maintains itself: random graphs, then random
/// merges that kill vertices and rewire their edges the way GCN
/// construction does.
class TrianglesOfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TrianglesOfPropertyTest, MatchesBruteForceEnumeration) {
  const int seed = GetParam();
  iuad::Rng rng(static_cast<uint64_t>(seed));
  const int n = 2 + static_cast<int>(rng.NextBounded(13));  // 2..14
  const uint64_t edge_pct = 20 + rng.NextBounded(60);       // 20..79 %
  CollabGraph g;
  std::vector<std::vector<bool>> adj(static_cast<size_t>(n),
                                     std::vector<bool>(static_cast<size_t>(n)));
  std::vector<bool> alive(static_cast<size_t>(n), true);
  for (int i = 0; i < n; ++i) g.AddVertex("v" + std::to_string(i), {i});
  int paper = n;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextBounded(100) >= edge_pct) continue;
      ASSERT_TRUE(g.AddEdgePapers(u, v, {paper++}).ok());
      adj[static_cast<size_t>(u)][static_cast<size_t>(v)] = true;
      adj[static_cast<size_t>(v)][static_cast<size_t>(u)] = true;
    }
  }
  auto pick = [&rng, n] {
    return static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
  };
  const int merges = pick();
  for (int m = 0; m < merges; ++m) {
    const int kept = pick();
    const int absorbed = pick();
    const size_t k = static_cast<size_t>(kept);
    const size_t a = static_cast<size_t>(absorbed);
    if (kept == absorbed || !alive[k] || !alive[a]) continue;
    ASSERT_TRUE(g.MergeVertices(kept, absorbed).ok());
    for (size_t x = 0; x < adj.size(); ++x) {
      if (adj[a][x] && x != k) adj[k][x] = adj[x][k] = true;
      adj[a][x] = adj[x][a] = false;
    }
    adj[k][k] = false;
    alive[a] = false;
  }

  auto edge = [&adj](int x, int y) {
    return adj[static_cast<size_t>(x)][static_cast<size_t>(y)];
  };
  for (int v = 0; v < n; ++v) {
    std::vector<std::array<VertexId, 2>> want;
    for (int x = 0; x < n; ++x) {
      for (int y = x + 1; y < n; ++y) {
        if (edge(v, x) && edge(v, y) && edge(x, y)) want.push_back({x, y});
      }
    }
    EXPECT_EQ(TrianglesOf(g, v), want) << "seed=" << seed << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TrianglesOfPropertyTest,
                         ::testing::Range(1, 25));

// --------------------------- WL kernel --------------------------------------

TEST(WlKernelTest, SelfNormalizedKernelIsOneForConnectedVertices) {
  CollabGraph g = TriangleGraph();
  WlVertexKernel wl(g, 2);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(wl.NormalizedKernel(v, v), 1.0, 1e-12);
  }
  // Isolated vertices carry no structural evidence at all — by design the
  // (center-excluded) kernel is 0 even against themselves.
  const VertexId iso = g.AddVertex("loner", {});
  WlVertexKernel wl2(g, 2);
  EXPECT_DOUBLE_EQ(wl2.NormalizedKernel(iso, iso), 0.0);
}

TEST(WlKernelTest, SymmetricAndBounded) {
  CollabGraph g = TriangleGraph();
  WlVertexKernel wl(g, 2);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const double kuv = wl.NormalizedKernel(u, v);
      EXPECT_NEAR(kuv, wl.NormalizedKernel(v, u), 1e-12);
      EXPECT_GE(kuv, 0.0);
      EXPECT_LE(kuv, 1.0 + 1e-12);
    }
  }
}

TEST(WlKernelTest, StructurallyIdenticalTwinsShareLabels) {
  // Two disjoint copies of the same star with identical names must get the
  // same WL labels at every iteration.
  CollabGraph g;
  const VertexId hub1 = g.AddVertex("Hub", {});
  const VertexId leaf1a = g.AddVertex("LeafA", {});
  const VertexId leaf1b = g.AddVertex("LeafB", {});
  ASSERT_TRUE(g.AddEdgePapers(hub1, leaf1a, {0}).ok());
  ASSERT_TRUE(g.AddEdgePapers(hub1, leaf1b, {1}).ok());
  const VertexId hub2 = g.AddVertex("Hub", {});
  const VertexId leaf2a = g.AddVertex("LeafA", {});
  const VertexId leaf2b = g.AddVertex("LeafB", {});
  ASSERT_TRUE(g.AddEdgePapers(hub2, leaf2a, {2}).ok());
  ASSERT_TRUE(g.AddEdgePapers(hub2, leaf2b, {3}).ok());

  WlVertexKernel wl(g, 3);
  for (int iter = 0; iter <= 3; ++iter) {
    EXPECT_EQ(wl.LabelAt(hub1, iter), wl.LabelAt(hub2, iter));
    EXPECT_EQ(wl.LabelAt(leaf1a, iter), wl.LabelAt(leaf2a, iter));
  }
  EXPECT_NEAR(wl.NormalizedKernel(hub1, hub2), 1.0, 1e-12);
}

TEST(WlKernelTest, SharedCoauthorNamesBeatDisjointOnes) {
  // v1 and v2 share both co-author names; v1 and v3 share none.
  CollabGraph g;
  const VertexId v1 = g.AddVertex("X", {});
  const VertexId c1 = g.AddVertex("Alice", {});
  const VertexId c2 = g.AddVertex("Bob", {});
  ASSERT_TRUE(g.AddEdgePapers(v1, c1, {0}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v1, c2, {1}).ok());
  const VertexId v2 = g.AddVertex("X", {});
  const VertexId c3 = g.AddVertex("Alice", {});
  const VertexId c4 = g.AddVertex("Bob", {});
  ASSERT_TRUE(g.AddEdgePapers(v2, c3, {2}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v2, c4, {3}).ok());
  const VertexId v3 = g.AddVertex("X", {});
  const VertexId c5 = g.AddVertex("Carol", {});
  const VertexId c6 = g.AddVertex("Dan", {});
  ASSERT_TRUE(g.AddEdgePapers(v3, c5, {4}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v3, c6, {5}).ok());

  WlVertexKernel wl(g, 2);
  EXPECT_GT(wl.NormalizedKernel(v1, v2), wl.NormalizedKernel(v1, v3));
  EXPECT_NEAR(wl.NormalizedKernel(v1, v2), 1.0, 1e-12);
}

TEST(WlKernelTest, DepthZeroCarriesNoSignal) {
  // h = 0 leaves every (center-excluded) ball empty; γ1 needs h >= 1.
  CollabGraph g = TriangleGraph();
  WlVertexKernel wl(g, 0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(0, 0), 0.0);
}

TEST(WlKernelTest, IsolatedVerticesHaveZeroKernel) {
  // The semantic fix motivating center exclusion: two isolated same-name
  // vertices share NO collaboration evidence, so their kernel must be 0
  // (a literal Eq. 3 reading would give a spurious 1.0).
  CollabGraph g;
  const VertexId iso1 = g.AddVertex("X", {});
  const VertexId iso2 = g.AddVertex("X", {});
  const VertexId named = g.AddVertex("X", {});
  const VertexId other = g.AddVertex("Y", {});
  ASSERT_TRUE(g.AddEdgePapers(named, other, {0}).ok());
  WlVertexKernel wl(g, 2);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(iso1, iso2), 0.0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(iso1, named), 0.0);
}

TEST(WlKernelTest, NameSetKernelCountsBallMatches) {
  CollabGraph g;
  const VertexId v = g.AddVertex("X", {});
  const VertexId a = g.AddVertex("Alice", {});
  const VertexId b = g.AddVertex("Bob", {});
  ASSERT_TRUE(g.AddEdgePapers(v, a, {0}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v, b, {1}).ok());
  WlVertexKernel wl(g, 2);
  // Both names in the ball: strong signal.
  auto vs_names = [&](const std::vector<std::string>& names) {
    return wl.NormalizedKernelVsNameSet(v, wl.ResolveNameSet(names));
  };
  const double both = vs_names({"Alice", "Bob"});
  const double one = vs_names({"Alice", "Nobody"});
  const double none = vs_names({"Zed", "Nobody"});
  EXPECT_GT(both, one);
  EXPECT_GT(one, none);
  EXPECT_DOUBLE_EQ(none, 0.0);
  EXPECT_LE(both, 1.0);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(vs_names({}), 0.0);
  const VertexId iso = g.AddVertex("Q", {});
  WlVertexKernel wl2(g, 2);
  EXPECT_DOUBLE_EQ(
      wl2.NormalizedKernelVsNameSet(iso, wl2.ResolveNameSet({"Alice"})), 0.0);
}

TEST(WlKernelTest, PostBuildVerticesHandledConservatively) {
  CollabGraph g;
  const VertexId a = g.AddVertex("A", {});
  const VertexId b = g.AddVertex("B", {});
  ASSERT_TRUE(g.AddEdgePapers(a, b, {0}).ok());
  WlVertexKernel wl(g, 2);
  const VertexId late = g.AddVertex("A", {});  // added after Build
  EXPECT_DOUBLE_EQ(
      wl.NormalizedKernelVsNameSet(late, wl.ResolveNameSet({"B"})), 0.0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(a, late), 0.0);
}

// --------------------- WL kernel exactness vs a reference ------------------

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// The ball histogram exactly as documented in wl_kernel.h, built the
/// plainest way: BFS of radius h over `built`, the graph exactly as the
/// kernel saw it at build time, the center excluded, every iteration's
/// label counted once per ball member. Vertices added since have no ball.
std::map<int, double> ReferenceBall(const CollabGraph& built,
                                    const WlVertexKernel& wl, VertexId v) {
  std::map<int, double> hist;
  if (v >= built.num_vertices() || !built.alive(v)) return hist;
  std::map<VertexId, int> dist{{v, 0}};
  std::queue<VertexId> q;
  q.push(v);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    if (dist[u] >= wl.depth()) continue;
    for (const auto& [w, papers] : built.NeighborsOf(u)) {
      if (!dist.emplace(w, dist[u] + 1).second) continue;
      q.push(w);
      for (int iter = 0; iter <= wl.depth(); ++iter) {
        hist[wl.LabelAt(w, iter)] += 1.0;
      }
    }
  }
  return hist;
}

double ReferenceDot(const std::map<int, double>& a,
                    const std::map<int, double>& b) {
  double s = 0.0;
  for (const auto& [label, count] : a) {
    auto it = b.find(label);
    if (it != b.end()) s += count * it->second;
  }
  return s;
}

/// A seeded random graph with a hub of degree 80, isolated vertices and a
/// few merged-away (dead) vertices; names come from a small pool so
/// same-name pairs and repeated labels are common.
CollabGraph RandomKernelGraph(std::mt19937_64* rng,
                              std::vector<std::string>* names) {
  for (int i = 0; i < 40; ++i) names->push_back("N" + std::to_string(i));
  CollabGraph g;
  constexpr int kVertices = 260;
  for (int i = 0; i < kVertices; ++i) {
    g.AddVertex((*names)[(*rng)() % names->size()], {});
  }
  int paper = 0;
  // Vertices [200, 260) stay isolated; the rest get ~2.5 edges each.
  for (int e = 0; e < 500; ++e) {
    const VertexId u = static_cast<VertexId>((*rng)() % 200);
    const VertexId v = static_cast<VertexId>((*rng)() % 200);
    if (u != v) {
      EXPECT_TRUE(g.AddEdgePapers(u, v, {paper++}).ok());
    }
  }
  const VertexId hub = 0;
  for (VertexId v = 1; v <= 160; v += 2) {
    EXPECT_TRUE(g.AddEdgePapers(hub, v, {paper++}).ok());
  }
  EXPECT_GT(g.DegreeOf(hub), 50);
  EXPECT_TRUE(g.MergeVertices(10, 11).ok());
  EXPECT_TRUE(g.MergeVertices(20, 21).ok());
  return g;
}

/// Vertices and edges added after the kernel was built: new vertices wired
/// to the hub, to each other and to old vertices, plus new edges between
/// old vertices (invisible to every ball, lazy or prewarmed).
void GrowAfterBuild(CollabGraph* g, std::mt19937_64* rng,
                    const std::vector<std::string>& names) {
  const int built_n = g->num_vertices();
  int paper = 100000;
  for (int i = 0; i < 12; ++i) {
    const VertexId late = g->AddVertex(
        i % 3 == 0 ? "LateOnly" : names[(*rng)() % names.size()], {});
    EXPECT_TRUE(g->AddEdgePapers(late, 0, {paper++}).ok());
    const VertexId old = static_cast<VertexId>((*rng)() % 200);
    if (g->alive(old)) {
      EXPECT_TRUE(g->AddEdgePapers(late, old, {paper++}).ok());
    }
    if (i > 0) {
      EXPECT_TRUE(g->AddEdgePapers(late, late - 1, {paper++}).ok());
    }
  }
  for (int e = 0; e < 30; ++e) {
    const VertexId u = static_cast<VertexId>((*rng)() % built_n);
    const VertexId v = static_cast<VertexId>((*rng)() % built_n);
    if (u != v && g->alive(u) && g->alive(v)) {
      EXPECT_TRUE(g->AddEdgePapers(u, v, {paper++}).ok());
    }
  }
}

TEST(WlKernelTest, KernelsMatchReferenceHistogramsBitForBit) {
  for (int h = 1; h <= 2; ++h) {
    SCOPED_TRACE("h = " + std::to_string(h));
    std::mt19937_64 rng(20210419 + static_cast<uint64_t>(h));
    std::vector<std::string> names;
    CollabGraph g = RandomKernelGraph(&rng, &names);
    const int built_n = g.num_vertices();
    WlVertexKernel lazy(g, h);
    WlVertexKernel prewarmed(g, h);
    // The reference reads the graph as the kernels were built on it: after
    // growth, lazily and eagerly built balls must both still equal it.
    const CollabGraph built = g;
    GrowAfterBuild(&g, &rng, names);
    const int n = g.num_vertices();
    ASSERT_GT(n, built_n);

    std::vector<VertexId> all(static_cast<size_t>(n));
    for (VertexId v = 0; v < n; ++v) all[static_cast<size_t>(v)] = v;
    util::ThreadPool pool(4);
    prewarmed.PrewarmFeatures(all, &pool);

    std::vector<std::map<int, double>> ref(static_cast<size_t>(n));
    std::vector<double> self(static_cast<size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
      ref[static_cast<size_t>(v)] = ReferenceBall(built, lazy, v);
      self[static_cast<size_t>(v)] = ReferenceDot(ref[static_cast<size_t>(v)],
                                                  ref[static_cast<size_t>(v)]);
    }
    EXPECT_GT(ref[0].size(), 50u) << "the hub's ball should be large";

    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u; v < n; ++v) {
        const auto su = static_cast<size_t>(u);
        const auto sv = static_cast<size_t>(v);
        const double k = ReferenceDot(ref[su], ref[sv]);
        const double nk = self[su] <= 0.0 || self[sv] <= 0.0
                              ? 0.0
                              : k / std::sqrt(self[su] * self[sv]);
        ASSERT_EQ(Bits(lazy.Kernel(u, v)), Bits(k)) << u << "," << v;
        ASSERT_EQ(Bits(lazy.NormalizedKernel(u, v)), Bits(nk)) << u << "," << v;
        ASSERT_EQ(Bits(lazy.NormalizedKernel(v, u)), Bits(nk)) << u << "," << v;
        ASSERT_EQ(Bits(prewarmed.Kernel(u, v)), Bits(k)) << u << "," << v;
        ASSERT_EQ(Bits(prewarmed.NormalizedKernel(u, v)), Bits(nk))
            << u << "," << v;
      }
    }

    // Iteration-0 label of each name, as the kernel's name-set scoring
    // resolves it (names first seen after the build have none).
    std::map<std::string, int, std::less<>> name_label;
    for (VertexId v = 0; v < built_n; ++v) {
      if (g.alive(v)) name_label[std::string(g.NameOf(v))] = lazy.LabelAt(v, 0);
    }
    for (VertexId v = 0; v < n; ++v) {
      const auto sv = static_cast<size_t>(v);
      std::vector<std::string> set;
      const size_t len = 1 + rng() % 5;
      for (size_t i = 0; i < len; ++i) set.push_back(names[rng() % names.size()]);
      set.push_back(v % 2 == 0 ? "Nobody" : "LateOnly");
      set.push_back(set.front());  // duplicates count twice
      double cross = 0.0;
      for (const auto& name : set) {
        auto it = name_label.find(name);
        if (it == name_label.end()) continue;
        auto hit = ref[sv].find(it->second);
        if (hit != ref[sv].end()) cross += hit->second;
      }
      const double expected =
          ref[sv].empty() || self[sv] <= 0.0
              ? 0.0
              : std::min(1.0, cross / std::sqrt(static_cast<double>(set.size()) *
                                                self[sv]));
      ASSERT_EQ(
          Bits(lazy.NormalizedKernelVsNameSet(v, lazy.ResolveNameSet(set))),
          Bits(expected))
          << v;
      ASSERT_EQ(Bits(prewarmed.NormalizedKernelVsNameSet(
                    v, prewarmed.ResolveNameSet(set))),
                Bits(expected))
          << v;
    }
  }
}

}  // namespace
}  // namespace iuad::graph
