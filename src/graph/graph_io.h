#ifndef IUAD_GRAPH_GRAPH_IO_H_
#define IUAD_GRAPH_GRAPH_IO_H_

/// \file graph_io.h
/// TSV export of a reconstructed collaboration network (`iuad run --graph`).
/// Only alive vertices are exported; ids are re-densified on save, so the
/// file's ids are NOT the graph's ids — readers that need stable identity
/// should key on (name, paper set).
///
/// Format (one row per element, tab-separated):
///   V <TAB> id <TAB> name <TAB> p1|p2|...
///   E <TAB> u <TAB> v <TAB> p1|p2|...

#include <string>

#include "graph/collab_graph.h"
#include "util/status.h"

namespace iuad::graph {

/// Writes the alive subgraph of `graph` to `path`.
iuad::Status SaveGraphTsv(const CollabGraph& graph, const std::string& path);

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_GRAPH_IO_H_
