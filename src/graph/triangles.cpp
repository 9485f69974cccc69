#include "graph/triangles.h"

#include <algorithm>

namespace iuad::graph {

std::vector<std::array<VertexId, 2>> TrianglesOf(const CollabGraph& graph,
                                                 VertexId v) {
  std::vector<std::array<VertexId, 2>> out;
  if (!graph.alive(v)) return out;
  const auto& nv = graph.NeighborsOf(v);
  for (const auto& [a, papers_a] : nv) {
    const auto& na = graph.NeighborsOf(a);
    for (const auto& [b, papers_b] : nv) {
      if (b <= a) continue;
      if (na.count(b)) out.push_back({a, b});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace iuad::graph
