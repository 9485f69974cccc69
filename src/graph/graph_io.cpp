#include "graph/graph_io.h"

#include <unordered_map>

#include "util/strings.h"
#include "util/tsv.h"

namespace iuad::graph {

namespace {

std::string JoinPapers(const std::vector<int>& papers) {
  std::vector<std::string> parts;
  parts.reserve(papers.size());
  for (int p : papers) parts.push_back(std::to_string(p));
  return Join(parts, "|");
}

}  // namespace

iuad::Status SaveGraphTsv(const CollabGraph& graph, const std::string& path) {
  std::vector<TsvRow> rows;
  // Dense re-numbering of alive vertices.
  std::unordered_map<VertexId, int> dense;
  for (VertexId v : graph.AliveVertices()) {
    const int id = static_cast<int>(dense.size());
    dense.emplace(v, id);
    rows.push_back({"V", std::to_string(id), std::string(graph.NameOf(v)),
                    JoinPapers(graph.vertex(v).papers)});
  }
  for (VertexId v : graph.AliveVertices()) {
    for (const auto& [nbr, papers] : graph.NeighborsOf(v)) {
      if (nbr < v) continue;  // each edge once
      rows.push_back({"E", std::to_string(dense.at(v)),
                      std::to_string(dense.at(nbr)), JoinPapers(papers)});
    }
  }
  return WriteTsvFile(path, rows);
}

}  // namespace iuad::graph
