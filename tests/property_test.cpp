/// Cross-module property suites: invariants that must hold for *every* seed,
/// swept with TEST_P. These complement the example-based unit tests — each
/// case here asserts a structural law of the system rather than a specific
/// value.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cluster/hac.h"
#include "core/pipeline.h"
#include "core/scn_builder.h"
#include "data/corpus_generator.h"
#include "eval/metrics.h"
#include "graph/graph_io.h"
#include "graph/wl_kernel.h"
#include "testing_utils.h"
#include "util/rng.h"
#include "util/tsv.h"

namespace iuad {
namespace {

// ---------------------------------------------------------------------------
// SCN invariants over random corpora.
// ---------------------------------------------------------------------------

class ScnInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(ScnInvariantTest, CoverageNameConsistencyAndEtaMonotonicity) {
  data::CorpusConfig cc;
  cc.num_communities = 6;
  cc.authors_per_community = 30;
  cc.num_papers = 900;
  cc.seed = static_cast<uint64_t>(GetParam());
  auto corpus = data::CorpusGenerator(cc).Generate();

  core::IuadConfig cfg;
  int64_t prev_scrs = -1;
  for (int64_t eta : {2, 3, 5}) {
    cfg.eta = eta;
    graph::CollabGraph g;
    core::OccurrenceIndex occ;
    auto stats = core::ScnBuilder(cfg).Build(corpus.db, &g, &occ);
    ASSERT_TRUE(stats.ok());
    // 1. Every byline occurrence is attributed to an alive vertex of the
    //    right name, and that vertex's paper set contains the paper.
    for (const auto& p : corpus.db.papers()) {
      for (const auto& name : p.author_names) {
        const graph::VertexId v = occ.Lookup(p.id, name);
        ASSERT_GE(v, 0);
        ASSERT_TRUE(g.alive(v));
        ASSERT_EQ(g.NameOf(v), name);
        const auto& papers = g.vertex(v).papers;
        ASSERT_TRUE(std::binary_search(papers.begin(), papers.end(), p.id));
      }
    }
    // 2. Edge paper sets are subsets of both endpoints' paper sets.
    for (graph::VertexId v : g.AliveVertices()) {
      const auto& vp = g.vertex(v).papers;
      for (const auto& [nbr, eps] : g.NeighborsOf(v)) {
        for (int pid : eps) {
          ASSERT_TRUE(std::binary_search(vp.begin(), vp.end(), pid));
        }
      }
    }
    // 3. Raising η can only shrink the SCR set.
    if (prev_scrs >= 0) EXPECT_LE(stats->num_scrs, prev_scrs);
    prev_scrs = stats->num_scrs;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScnInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// WL kernel laws over random graphs.
// ---------------------------------------------------------------------------

class WlPropertyTest : public ::testing::TestWithParam<int> {};

graph::CollabGraph RandomGraph(uint64_t seed, int n, double p) {
  iuad::Rng rng(seed);
  graph::CollabGraph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex("n" + std::to_string(static_cast<int>(rng.NextBounded(8))),
                {i});
  }
  int paper = 1000;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) {
        EXPECT_TRUE(g.AddEdgePapers(i, j, {paper++}).ok());
      }
    }
  }
  return g;
}

TEST_P(WlPropertyTest, KernelIsSymmetricBoundedAndSelfMaximal) {
  auto g = RandomGraph(static_cast<uint64_t>(GetParam()), 24, 0.15);
  graph::WlVertexKernel wl(g, 2);
  for (graph::VertexId u = 0; u < g.num_vertices(); u += 3) {
    for (graph::VertexId v = 0; v < g.num_vertices(); v += 3) {
      const double kuv = wl.NormalizedKernel(u, v);
      EXPECT_NEAR(kuv, wl.NormalizedKernel(v, u), 1e-12);
      EXPECT_GE(kuv, 0.0);
      EXPECT_LE(kuv, 1.0 + 1e-9);
    }
    if (g.DegreeOf(u) > 0) {
      EXPECT_NEAR(wl.NormalizedKernel(u, u), 1.0, 1e-12);
    }
  }
}

TEST_P(WlPropertyTest, DisjointIsomorphicCopyScoresOne) {
  // Append an exact disjoint copy (same names, same shape) of the graph and
  // check each vertex scores 1.0 against its twin.
  auto g = RandomGraph(static_cast<uint64_t>(GetParam()) + 100, 14, 0.2);
  const int n = g.num_vertices();
  for (int i = 0; i < n; ++i) {
    g.AddVertex(g.NameOf(i), {5000 + i});
  }
  for (int i = 0; i < n; ++i) {
    for (const auto& [j, eps] : g.NeighborsOf(i)) {
      if (j > i || j >= n) continue;
      EXPECT_TRUE(g.AddEdgePapers(i + n, j + n, {9000 + i * n + j}).ok());
    }
  }
  graph::WlVertexKernel wl(g, 2);
  for (int i = 0; i < n; ++i) {
    if (g.DegreeOf(i) == 0) continue;
    EXPECT_NEAR(wl.NormalizedKernel(i, i + n), 1.0, 1e-9) << "vertex " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WlPropertyTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// HAC threshold monotonicity over random data.
// ---------------------------------------------------------------------------

class HacPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HacPropertyTest, ClusterCountIsMonotoneInThreshold) {
  iuad::Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t n = 40;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.UniformDouble(0, 10);
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) d[i][j] = std::abs(xs[i] - xs[j]);
  }
  int prev = static_cast<int>(n) + 1;
  for (double threshold : {0.05, 0.2, 0.5, 1.0, 3.0, 20.0}) {
    cluster::HacConfig cfg;
    cfg.distance_threshold = threshold;
    auto labels = cluster::Hac(d, cfg);
    ASSERT_TRUE(labels.ok());
    const int k = static_cast<int>(
        std::set<int>(labels->begin(), labels->end()).size());
    EXPECT_LE(k, prev) << "threshold " << threshold;
    prev = k;
  }
  EXPECT_EQ(prev, 1);  // everything merges at a huge threshold
}

INSTANTIATE_TEST_SUITE_P(Seeds, HacPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Metrics identities vs a brute-force oracle.
// ---------------------------------------------------------------------------

class MetricsOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricsOracleTest, MatchesBruteForce) {
  iuad::Rng rng(static_cast<uint64_t>(GetParam()));
  const int n = 3 + static_cast<int>(rng.NextBounded(25));
  std::vector<int> pred(static_cast<size_t>(n)), truth(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pred[static_cast<size_t>(i)] = static_cast<int>(rng.NextBounded(5));
    truth[static_cast<size_t>(i)] =
        rng.Bernoulli(0.1) ? -1 : static_cast<int>(rng.NextBounded(5));
  }
  eval::PairCounts oracle;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (truth[static_cast<size_t>(i)] < 0 ||
          truth[static_cast<size_t>(j)] < 0) {
        continue;
      }
      const bool sp = pred[static_cast<size_t>(i)] == pred[static_cast<size_t>(j)];
      const bool st =
          truth[static_cast<size_t>(i)] == truth[static_cast<size_t>(j)];
      if (sp && st) ++oracle.tp;
      if (sp && !st) ++oracle.fp;
      if (!sp && st) ++oracle.fn;
      if (!sp && !st) ++oracle.tn;
    }
  }
  const eval::PairCounts fast = eval::PairwiseCounts(pred, truth);
  EXPECT_EQ(fast.tp, oracle.tp);
  EXPECT_EQ(fast.fp, oracle.fp);
  EXPECT_EQ(fast.fn, oracle.fn);
  EXPECT_EQ(fast.tn, oracle.tn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsOracleTest,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Graph serialization round trips.
// ---------------------------------------------------------------------------

class GraphIoTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphIoTest, SaveWritesAliveSubgraphOnceAndDeterministically) {
  auto g = RandomGraph(static_cast<uint64_t>(GetParam()) + 50, 20, 0.2);
  // Kill a couple of vertices via merges so the dense re-numbering path is
  // exercised.
  ASSERT_TRUE(g.MergeVertices(0, 1).ok());
  ASSERT_TRUE(g.MergeVertices(2, 3).ok());

  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(GetParam());
  const std::string path = (dir / ("iuad_graph_io_" + tag + ".tsv")).string();
  const std::string again =
      (dir / ("iuad_graph_io_" + tag + "_again.tsv")).string();
  ASSERT_TRUE(graph::SaveGraphTsv(g, path).ok());
  ASSERT_TRUE(graph::SaveGraphTsv(g, again).ok());
  auto rows = ReadTsvFile(path);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string bytes = slurp(path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, slurp(again));
  std::remove(path.c_str());
  std::remove(again.c_str());

  auto join = [](const std::vector<int>& papers) {
    std::string out;
    for (size_t i = 0; i < papers.size(); ++i) {
      if (i) out += '|';
      out += std::to_string(papers[i]);
    }
    return out;
  };
  // V rows: the alive vertices in id order, re-numbered densely from 0.
  std::map<graph::VertexId, int> dense;
  std::vector<TsvRow> want_v;
  for (graph::VertexId v : g.AliveVertices()) {
    const int id = static_cast<int>(dense.size());
    dense[v] = id;
    want_v.push_back({"V", std::to_string(id), std::string(g.NameOf(v)),
                      join(g.vertex(v).papers)});
  }
  // E rows: every edge exactly once, with its papers, in dense ids.
  std::multiset<TsvRow> want_e;
  for (const graph::EdgeRecord& e : g.Edges()) {
    ASSERT_TRUE(g.alive(e.u) && g.alive(e.v));
    const int u = std::min(dense.at(e.u), dense.at(e.v));
    const int v = std::max(dense.at(e.u), dense.at(e.v));
    want_e.insert({"E", std::to_string(u), std::to_string(v), join(e.papers)});
  }
  ASSERT_EQ(want_e.size(), static_cast<size_t>(g.num_edges()));

  std::vector<TsvRow> got_v;
  std::multiset<TsvRow> got_e;
  for (const TsvRow& row : *rows) {
    ASSERT_FALSE(row.empty());
    if (row[0] == "V") {
      EXPECT_TRUE(got_e.empty()) << "V rows precede E rows";
      got_v.push_back(row);
    } else {
      EXPECT_EQ(row[0], "E");
      got_e.insert(row);
    }
  }
  EXPECT_EQ(got_v, want_v);
  EXPECT_EQ(got_e, want_e);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphIoTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// End-to-end pipeline invariants over seeds (beyond the fixed-seed tests).
// ---------------------------------------------------------------------------

class PipelinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePropertyTest, OccurrencePartitionSurvivesBothStages) {
  data::CorpusConfig cc;
  cc.num_communities = 5;
  cc.authors_per_community = 30;
  cc.num_papers = 800;
  cc.seed = static_cast<uint64_t>(GetParam()) * 101;
  auto corpus = data::CorpusGenerator(cc).Generate();
  core::IuadConfig cfg;
  cfg.word2vec.dim = 8;
  cfg.word2vec.epochs = 1;
  auto result = core::IuadPipeline(cfg).Run(corpus.db);
  ASSERT_TRUE(result.ok());
  // Every occurrence attributed; each name's papers form a partition (each
  // paper in exactly one cluster of that name).
  for (const auto& name : corpus.db.names()) {
    const auto& papers = corpus.db.PapersWithName(name);
    auto clusters = result->occurrences.ClustersOfName(name, papers);
    size_t total = 0;
    std::set<int> seen;
    for (const auto& [v, ps] : clusters) {
      ASSERT_TRUE(result->graph.alive(v));
      for (int pid : ps) {
        EXPECT_TRUE(seen.insert(pid).second) << "paper in two clusters";
      }
      total += ps.size();
    }
    EXPECT_EQ(total, papers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// CollabGraph CSR adjacency vs. a trivially-correct reference model.
// ---------------------------------------------------------------------------

/// The simplest possible implementation of the CollabGraph contract: plain
/// maps and sets. Random op sequences must leave the CSR graph (base rows +
/// overflow log + tombstones + amortized and explicit compaction) observably
/// identical to this model at every step.
struct ReferenceGraph {
  struct V {
    std::string name;
    std::set<int> papers;
    bool alive = true;
  };
  std::vector<V> verts;
  std::map<std::pair<int, int>, std::set<int>> edges;  // key u < v
  std::map<std::string, std::vector<int>> by_name;     // alive, insert order

  static std::pair<int, int> Key(int u, int v) {
    return {std::min(u, v), std::max(u, v)};
  }
  int AddVertex(const std::string& name, const std::vector<int>& papers) {
    verts.push_back({name, {papers.begin(), papers.end()}, true});
    by_name[name].push_back(static_cast<int>(verts.size()) - 1);
    return static_cast<int>(verts.size()) - 1;
  }
  void AddEdgePapers(int u, int v, const std::vector<int>& papers) {
    edges[Key(u, v)].insert(papers.begin(), papers.end());
  }
  void SetEdgePapers(int u, int v, const std::vector<int>& papers) {
    if (papers.empty()) {
      edges.erase(Key(u, v));
    } else {
      edges[Key(u, v)] = {papers.begin(), papers.end()};
    }
  }
  void Merge(int kept, int absorbed) {
    verts[static_cast<size_t>(kept)].papers.insert(
        verts[static_cast<size_t>(absorbed)].papers.begin(),
        verts[static_cast<size_t>(absorbed)].papers.end());
    verts[static_cast<size_t>(absorbed)].papers.clear();
    verts[static_cast<size_t>(absorbed)].alive = false;
    std::vector<std::pair<int, std::set<int>>> rewire;
    for (auto it = edges.begin(); it != edges.end();) {
      if (it->first.first == absorbed || it->first.second == absorbed) {
        const int other =
            it->first.first == absorbed ? it->first.second : it->first.first;
        if (other != kept) rewire.emplace_back(other, it->second);
        it = edges.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [other, papers] : rewire) {
      edges[Key(kept, other)].insert(papers.begin(), papers.end());
    }
    auto& ids = by_name[verts[static_cast<size_t>(absorbed)].name];
    ids.erase(std::remove(ids.begin(), ids.end(), absorbed), ids.end());
  }
  int NumAlive() const {
    int n = 0;
    for (const auto& v : verts) n += v.alive ? 1 : 0;
    return n;
  }
};

void ExpectGraphMatchesModel(const graph::CollabGraph& g,
                             const ReferenceGraph& m) {
  ASSERT_EQ(g.num_vertices(), static_cast<int>(m.verts.size()));
  EXPECT_EQ(g.num_alive(), m.NumAlive());
  EXPECT_EQ(g.num_edges(), static_cast<int>(m.edges.size()));

  // Per-vertex state and adjacency.
  std::map<int, std::map<int, std::set<int>>> model_adj;
  for (const auto& [key, papers] : m.edges) {
    model_adj[key.first][key.second] = papers;
    model_adj[key.second][key.first] = papers;
  }
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& mv = m.verts[static_cast<size_t>(v)];
    ASSERT_EQ(g.alive(v), mv.alive) << "vertex " << v;
    EXPECT_EQ(g.NameOf(v), mv.name);
    EXPECT_EQ(std::set<int>(g.vertex(v).papers.begin(),
                            g.vertex(v).papers.end()),
              mv.papers);
    EXPECT_TRUE(std::is_sorted(g.vertex(v).papers.begin(),
                               g.vertex(v).papers.end()));

    const auto& row = model_adj[v];
    const auto view = g.NeighborsOf(v);
    ASSERT_EQ(static_cast<size_t>(g.DegreeOf(v)),
              mv.alive ? row.size() : size_t{0});
    EXPECT_EQ(view.size(), static_cast<size_t>(g.DegreeOf(v)));
    int prev = -1;
    size_t seen = 0;
    for (const auto& [nbr, papers] : view) {
      EXPECT_GT(nbr, prev) << "ascending neighbor order, vertex " << v;
      prev = nbr;
      auto it = row.find(nbr);
      ASSERT_NE(it, row.end()) << "edge " << v << "-" << nbr;
      EXPECT_EQ(std::set<int>(papers.begin(), papers.end()), it->second);
      EXPECT_EQ(view.count(nbr), 1u);
      EXPECT_EQ(&view.at(nbr), &papers);
      ++seen;
    }
    EXPECT_EQ(seen, view.size());
    if (!row.empty()) {
      EXPECT_EQ(view.count(g.num_vertices() + 7), 0u);  // absent neighbor
    }
  }

  // Canonical edge list.
  const auto edge_list = g.Edges();
  ASSERT_EQ(edge_list.size(), m.edges.size());
  auto mit = m.edges.begin();
  for (const auto& e : edge_list) {
    EXPECT_EQ(std::make_pair(e.u, e.v), mit->first);
    EXPECT_EQ(std::set<int>(e.papers.begin(), e.papers.end()), mit->second);
    ++mit;
  }

  // Name index: same ids, same (insertion) order.
  for (const auto& [name, ids] : m.by_name) {
    EXPECT_EQ(g.VerticesWithName(name), ids) << "name " << name;
  }
}

class GraphModelTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphModelTest, RandomOpSequencesMatchReferenceModel) {
  iuad::Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  graph::CollabGraph g;
  ReferenceGraph m;
  int next_paper = 0;

  auto random_papers = [&] {
    std::vector<int> papers;
    const int k = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < k; ++i) papers.push_back(next_paper++);
    if (!papers.empty() && rng.Bernoulli(0.3)) {
      papers.push_back(papers.front());  // duplicates must be deduplicated
    }
    return papers;
  };
  auto random_alive = [&]() -> int {
    std::vector<int> alive;
    for (int v = 0; v < static_cast<int>(m.verts.size()); ++v) {
      if (m.verts[static_cast<size_t>(v)].alive) alive.push_back(v);
    }
    if (alive.empty()) return -1;
    return alive[rng.NextBounded(alive.size())];
  };

  for (int i = 0; i < 8; ++i) {  // seed population
    const std::string name = "blk" + std::to_string(rng.NextBounded(4));
    auto papers = random_papers();
    ASSERT_EQ(g.AddVertex(name, papers), m.AddVertex(name, papers));
  }

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op == 0) {
      const std::string name = "blk" + std::to_string(rng.NextBounded(4));
      auto papers = random_papers();
      ASSERT_EQ(g.AddVertex(name, papers), m.AddVertex(name, papers));
    } else if (op <= 4) {  // grow/extend edges — the common mutation
      const int u = random_alive(), v = random_alive();
      if (u < 0 || v < 0 || u == v) continue;
      auto papers = random_papers();
      ASSERT_TRUE(g.AddEdgePapers(u, v, papers).ok());
      m.AddEdgePapers(u, v, papers);
    } else if (op <= 6) {  // replace or remove an existing edge
      if (m.edges.empty()) continue;
      auto it = m.edges.begin();
      std::advance(it, rng.NextBounded(m.edges.size()));
      const auto [u, v] = it->first;
      auto papers = rng.Bernoulli(0.4) ? std::vector<int>{} : random_papers();
      ASSERT_TRUE(g.SetEdgePapers(u, v, papers).ok());
      m.SetEdgePapers(u, v, papers);
    } else if (op == 7) {  // merge (GCN-style vertex absorption)
      const int kept = random_alive(), absorbed = random_alive();
      if (kept < 0 || absorbed < 0 || kept == absorbed) continue;
      ASSERT_TRUE(g.MergeVertices(kept, absorbed).ok());
      m.Merge(kept, absorbed);
    } else if (op == 8) {  // vertex paper updates
      const int v = random_alive();
      if (v < 0) continue;
      auto papers = random_papers();
      g.AddVertexPapers(v, papers);
      m.verts[static_cast<size_t>(v)].papers.insert(papers.begin(),
                                                    papers.end());
    } else {  // explicit compaction at a random point
      g.Compact();
    }
    if (step % 25 == 0) ExpectGraphMatchesModel(g, m);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ExpectGraphMatchesModel(g, m);
  g.Compact();  // final fold must change nothing observable
  ExpectGraphMatchesModel(g, m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphModelTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace iuad
