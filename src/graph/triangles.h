#ifndef IUAD_GRAPH_TRIANGLES_H_
#define IUAD_GRAPH_TRIANGLES_H_

/// \file triangles.h
/// Triangles incident to a vertex. Triangles are the "stable collaborative
/// cliques" of Sec. IV-B (a triangle of η-SCRs is itself non-random in a
/// scale-free network), and the co-author clique coincidence ratio γ2
/// (Eq. 5) counts common triangles — the paper restricts L(·) to triangles
/// for speed.

#include <array>
#include <vector>

#include "graph/collab_graph.h"

namespace iuad::graph {

/// Triangles incident to vertex `v`: each entry is the sorted pair of the
/// two other vertices. This is L(v) of Eq. 5.
std::vector<std::array<VertexId, 2>> TrianglesOf(const CollabGraph& graph,
                                                 VertexId v);

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_TRIANGLES_H_
