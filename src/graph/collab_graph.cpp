#include "graph/collab_graph.h"

#include <algorithm>

namespace iuad::graph {

namespace {
const std::vector<VertexId> kNoVertices;

/// First slot in [b, e) with neighbor id >= nbr.
const CollabGraph::HalfEdge* LowerBound(const CollabGraph::HalfEdge* b,
                                        const CollabGraph::HalfEdge* e,
                                        VertexId nbr) {
  return std::lower_bound(b, e, nbr,
                          [](const CollabGraph::HalfEdge& h, VertexId n) {
                            return h.nbr < n;
                          });
}
}  // namespace

const CollabGraph::HalfEdge* CollabGraph::NeighborView::Find(
    VertexId nbr) const {
  const HalfEdge* h = LowerBound(b_, be_, nbr);
  if (h != be_ && h->nbr == nbr) return h->edge >= 0 ? h : nullptr;
  h = LowerBound(o_, oe_, nbr);
  if (h != oe_ && h->nbr == nbr) return h;
  return nullptr;
}

void CollabGraph::Deduplicate(std::vector<int>* papers) {
  std::sort(papers->begin(), papers->end());
  papers->erase(std::unique(papers->begin(), papers->end()), papers->end());
}

VertexId CollabGraph::AddVertex(std::string_view name,
                                std::vector<int> papers) {
  return AddVertexWithId(interner_.Intern(name), std::move(papers));
}

VertexId CollabGraph::AddVertexWithId(util::NameId name_id,
                                      std::vector<int> papers) {
  Deduplicate(&papers);
  const VertexId id = static_cast<VertexId>(vertices_.size());
  if (static_cast<size_t>(name_id) >= verts_of_name_.size()) {
    verts_of_name_.resize(static_cast<size_t>(name_id) + 1);
    names_cache_valid_ = false;  // brand-new name
  } else if (verts_of_name_[static_cast<size_t>(name_id)].empty()) {
    names_cache_valid_ = false;  // name returns from (or starts) empty
  }
  verts_of_name_[static_cast<size_t>(name_id)].push_back(id);
  vertices_.push_back(Vertex{name_id, std::move(papers), true});
  row_begin_.push_back(row_begin_.back());
  overflow_.emplace_back();
  live_degree_.push_back(0);
  ++num_alive_;
  return id;
}

iuad::Result<CollabGraph> CollabGraph::Restore(
    const std::vector<std::string>& names, std::vector<Vertex> vertices,
    const std::vector<EdgeRecord>& edges) {
  CollabGraph g;
  for (const auto& name : names) g.interner_.Intern(name);
  if (static_cast<size_t>(g.interner_.size()) != names.size()) {
    return iuad::Status::InvalidArgument(
        "graph restore: duplicate entry in interned name table");
  }
  g.verts_of_name_.resize(names.size());
  const auto n = static_cast<VertexId>(vertices.size());
  g.vertices_ = std::move(vertices);
  for (VertexId v = 0; v < n; ++v) {
    Vertex& vx = g.vertices_[static_cast<size_t>(v)];
    if (vx.name_id < 0 || static_cast<size_t>(vx.name_id) >= names.size()) {
      return iuad::Status::InvalidArgument(
          "graph restore: vertex name id out of table range");
    }
    g.Deduplicate(&vx.papers);
    g.row_begin_.push_back(0);
    g.overflow_.emplace_back();
    g.live_degree_.push_back(0);
    if (vx.alive) {
      g.verts_of_name_[static_cast<size_t>(vx.name_id)].push_back(v);
      ++g.num_alive_;
    }
  }
  for (const EdgeRecord& e : edges) {
    if (e.u < 0 || e.v < 0 || e.u >= n || e.v >= n) {
      return iuad::Status::InvalidArgument("graph restore: edge endpoint " +
                                           std::to_string(e.u) + "-" +
                                           std::to_string(e.v) +
                                           " out of range");
    }
    IUAD_RETURN_NOT_OK(g.AddEdgePapers(e.u, e.v, e.papers));
  }
  g.Compact();
  return g;
}

std::vector<EdgeRecord> CollabGraph::Edges() const {
  std::vector<EdgeRecord> out;
  for (VertexId u = 0; u < num_vertices(); ++u) {
    if (!alive(u)) continue;
    for (const auto& [v, papers] : NeighborsOf(u)) {
      if (u < v) out.push_back({u, v, papers});
    }
  }
  // Row iteration already yields (u, v) ascending; kept as a guarantee.
  std::sort(out.begin(), out.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  return out;
}

CollabGraph::NeighborView CollabGraph::NeighborsOf(VertexId v) const {
  const size_t sv = static_cast<size_t>(v);
  const HalfEdge* base = slots_.data();
  const std::vector<HalfEdge>& ovf = overflow_[sv];
  return NeighborView(base + row_begin_[sv], base + row_begin_[sv + 1],
                      ovf.data(), ovf.data() + ovf.size(), &edge_papers_,
                      static_cast<size_t>(live_degree_[sv]));
}

CollabGraph::HalfEdge* CollabGraph::FindHalf(VertexId u, VertexId nbr) {
  const size_t su = static_cast<size_t>(u);
  HalfEdge* b = slots_.data() + row_begin_[su];
  HalfEdge* e = slots_.data() + row_begin_[su + 1];
  HalfEdge* h = const_cast<HalfEdge*>(LowerBound(b, e, nbr));
  if (h != e && h->nbr == nbr) return h;
  auto& ovf = overflow_[su];
  h = const_cast<HalfEdge*>(
      LowerBound(ovf.data(), ovf.data() + ovf.size(), nbr));
  if (h != ovf.data() + ovf.size() && h->nbr == nbr) return h;
  return nullptr;
}

int32_t CollabGraph::AllocEdge(std::vector<int> papers) {
  if (!free_edges_.empty()) {
    const int32_t e = free_edges_.back();
    free_edges_.pop_back();
    edge_papers_[static_cast<size_t>(e)] = std::move(papers);
    return e;
  }
  edge_papers_.push_back(std::move(papers));
  return static_cast<int32_t>(edge_papers_.size() - 1);
}

void CollabGraph::FreeEdge(int32_t e) {
  std::vector<int>().swap(edge_papers_[static_cast<size_t>(e)]);
  free_edges_.push_back(e);
}

void CollabGraph::AttachHalf(VertexId u, VertexId nbr, int32_t e) {
  const size_t su = static_cast<size_t>(u);
  HalfEdge* b = slots_.data() + row_begin_[su];
  HalfEdge* be = slots_.data() + row_begin_[su + 1];
  HalfEdge* h = const_cast<HalfEdge*>(LowerBound(b, be, nbr));
  if (h != be && h->nbr == nbr) {
    h->edge = e;  // revive the tombstoned base slot in place
    ++live_base_half_edges_;
    return;
  }
  auto& ovf = overflow_[su];
  const auto at = LowerBound(ovf.data(), ovf.data() + ovf.size(), nbr);
  ovf.insert(ovf.begin() + (at - ovf.data()), HalfEdge{nbr, e});
  ++overflow_half_edges_;
}

void CollabGraph::DetachHalf(VertexId u, VertexId nbr) {
  const size_t su = static_cast<size_t>(u);
  HalfEdge* b = slots_.data() + row_begin_[su];
  HalfEdge* be = slots_.data() + row_begin_[su + 1];
  HalfEdge* h = const_cast<HalfEdge*>(LowerBound(b, be, nbr));
  if (h != be && h->nbr == nbr && h->edge >= 0) {
    h->edge = -1;
    --live_base_half_edges_;
    return;
  }
  auto& ovf = overflow_[su];
  const auto at = LowerBound(ovf.data(), ovf.data() + ovf.size(), nbr);
  if (at != ovf.data() + ovf.size() && at->nbr == nbr) {
    ovf.erase(ovf.begin() + (at - ovf.data()));
    --overflow_half_edges_;
  }
}

void CollabGraph::MaybeCompact() {
  if (overflow_half_edges_ >= 1024 &&
      overflow_half_edges_ * 4 >= live_base_half_edges_) {
    Compact();
  }
}

void CollabGraph::Compact() {
  const size_t n = vertices_.size();
  std::vector<HalfEdge> slots;
  slots.reserve(live_base_half_edges_ + overflow_half_edges_);
  std::vector<uint32_t> rows(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    rows[v] = static_cast<uint32_t>(slots.size());
    const HalfEdge* b = slots_.data() + row_begin_[v];
    const HalfEdge* be = slots_.data() + row_begin_[v + 1];
    const auto& ovf = overflow_[v];
    const HalfEdge* o = ovf.data();
    const HalfEdge* oe = ovf.data() + ovf.size();
    while (b != be || o != oe) {
      if (b != be && b->edge < 0) {
        ++b;  // drop tombstone
      } else if (o == oe || (b != be && b->nbr < o->nbr)) {
        slots.push_back(*b++);
      } else {
        slots.push_back(*o++);
      }
    }
  }
  rows[n] = static_cast<uint32_t>(slots.size());
  slots_ = std::move(slots);
  row_begin_ = std::move(rows);
  live_base_half_edges_ = slots_.size();
  std::vector<std::vector<HalfEdge>>(n).swap(overflow_);
  overflow_half_edges_ = 0;
}

iuad::Status CollabGraph::AddEdgePapers(VertexId u, VertexId v,
                                        const std::vector<int>& papers) {
  if (u == v) {
    return iuad::Status::InvalidArgument("self-loop rejected: vertex " +
                                         std::to_string(u));
  }
  if (!alive(u) || !alive(v)) {
    return iuad::Status::FailedPrecondition("edge endpoint is dead");
  }
  HalfEdge* h = FindHalf(u, v);
  if (h != nullptr && h->edge >= 0) {
    auto& ps = edge_papers_[static_cast<size_t>(h->edge)];
    ps.insert(ps.end(), papers.begin(), papers.end());
    Deduplicate(&ps);
    return iuad::Status::OK();
  }
  std::vector<int> ps = papers;
  Deduplicate(&ps);
  const int32_t e = AllocEdge(std::move(ps));
  AttachHalf(u, v, e);
  AttachHalf(v, u, e);
  ++num_edges_;
  ++live_degree_[static_cast<size_t>(u)];
  ++live_degree_[static_cast<size_t>(v)];
  MaybeCompact();
  return iuad::Status::OK();
}

void CollabGraph::AddVertexPapers(VertexId v, const std::vector<int>& papers) {
  auto& ps = vertices_[static_cast<size_t>(v)].papers;
  ps.insert(ps.end(), papers.begin(), papers.end());
  Deduplicate(&ps);
}

void CollabGraph::SetVertexPapers(VertexId v, std::vector<int> papers) {
  Deduplicate(&papers);
  vertices_[static_cast<size_t>(v)].papers = std::move(papers);
}

iuad::Status CollabGraph::SetEdgePapers(VertexId u, VertexId v,
                                        std::vector<int> papers) {
  if (u == v) return iuad::Status::InvalidArgument("self-loop rejected");
  if (!alive(u) || !alive(v)) {
    return iuad::Status::FailedPrecondition("edge endpoint is dead");
  }
  HalfEdge* h = FindHalf(u, v);
  const bool existed = h != nullptr && h->edge >= 0;
  if (papers.empty()) {
    if (existed) {
      const int32_t e = h->edge;
      DetachHalf(u, v);
      DetachHalf(v, u);
      FreeEdge(e);
      --num_edges_;
      --live_degree_[static_cast<size_t>(u)];
      --live_degree_[static_cast<size_t>(v)];
    }
    return iuad::Status::OK();
  }
  Deduplicate(&papers);
  if (existed) {
    edge_papers_[static_cast<size_t>(h->edge)] = std::move(papers);
    return iuad::Status::OK();
  }
  const int32_t e = AllocEdge(std::move(papers));
  AttachHalf(u, v, e);
  AttachHalf(v, u, e);
  ++num_edges_;
  ++live_degree_[static_cast<size_t>(u)];
  ++live_degree_[static_cast<size_t>(v)];
  MaybeCompact();
  return iuad::Status::OK();
}

iuad::Status CollabGraph::MergeVertices(VertexId kept, VertexId absorbed) {
  if (kept == absorbed) {
    return iuad::Status::InvalidArgument("cannot merge a vertex with itself");
  }
  if (!alive(kept) || !alive(absorbed)) {
    return iuad::Status::FailedPrecondition("merge endpoint is dead");
  }
  Vertex& k = vertices_[static_cast<size_t>(kept)];
  Vertex& a = vertices_[static_cast<size_t>(absorbed)];

  // Union paper sets.
  k.papers.insert(k.papers.end(), a.papers.begin(), a.papers.end());
  Deduplicate(&k.papers);

  // Materialize absorbed's live adjacency first: rewiring mutates the rows.
  std::vector<std::pair<VertexId, int32_t>> to_rewire;
  to_rewire.reserve(static_cast<size_t>(live_degree_[
      static_cast<size_t>(absorbed)]));
  for (const auto& [nbr, papers] : NeighborsOf(absorbed)) {
    (void)papers;
    to_rewire.emplace_back(nbr, FindHalf(absorbed, nbr)->edge);
  }
  for (const auto& [nbr, e] : to_rewire) {
    DetachHalf(absorbed, nbr);
    DetachHalf(nbr, absorbed);
    --num_edges_;
    --live_degree_[static_cast<size_t>(nbr)];
    if (nbr == kept) {
      FreeEdge(e);  // would-be self-loop: drop, as before
      continue;
    }
    HalfEdge* h = FindHalf(kept, nbr);
    if (h != nullptr && h->edge >= 0) {
      // Parallel edge: union paper sets, release the absorbed one.
      auto& dst = edge_papers_[static_cast<size_t>(h->edge)];
      const auto& src = edge_papers_[static_cast<size_t>(e)];
      dst.insert(dst.end(), src.begin(), src.end());
      Deduplicate(&dst);
      FreeEdge(e);
    } else {
      // Move the edge wholesale: the shared paper set keeps its slot.
      AttachHalf(kept, nbr, e);
      AttachHalf(nbr, kept, e);
      ++num_edges_;
      ++live_degree_[static_cast<size_t>(kept)];
      ++live_degree_[static_cast<size_t>(nbr)];
    }
  }
  live_degree_[static_cast<size_t>(absorbed)] = 0;

  // Retire `absorbed` from the name index.
  auto& ids = verts_of_name_[static_cast<size_t>(a.name_id)];
  ids.erase(std::remove(ids.begin(), ids.end(), absorbed), ids.end());
  if (ids.empty()) names_cache_valid_ = false;
  a.alive = false;
  std::vector<int>().swap(a.papers);
  --num_alive_;
  MaybeCompact();
  return iuad::Status::OK();
}

const std::vector<VertexId>& CollabGraph::VerticesWithName(
    std::string_view name) const {
  return VerticesWithId(interner_.Lookup(name));
}

const std::vector<VertexId>& CollabGraph::VerticesWithId(
    util::NameId id) const {
  if (id < 0 || static_cast<size_t>(id) >= verts_of_name_.size()) {
    return kNoVertices;
  }
  return verts_of_name_[static_cast<size_t>(id)];
}

const std::vector<util::NameId>& CollabGraph::NameIdsSorted() const {
  if (!names_cache_valid_) {
    sorted_name_ids_.clear();
    for (size_t id = 0; id < verts_of_name_.size(); ++id) {
      if (!verts_of_name_[id].empty()) {
        sorted_name_ids_.push_back(static_cast<util::NameId>(id));
      }
    }
    std::sort(sorted_name_ids_.begin(), sorted_name_ids_.end(),
              [this](util::NameId a, util::NameId b) {
                return interner_.View(a) < interner_.View(b);
              });
    names_cache_valid_ = true;
  }
  return sorted_name_ids_;
}

std::vector<std::string> CollabGraph::Names() const {
  const auto& ids = NameIdsSorted();
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (util::NameId id : ids) names.emplace_back(interner_.View(id));
  return names;
}

std::vector<VertexId> CollabGraph::AliveVertices() const {
  std::vector<VertexId> out;
  out.reserve(static_cast<size_t>(num_alive_));
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (alive(v)) out.push_back(v);
  }
  return out;
}

size_t CollabGraph::MemoryBytes() const {
  size_t b = 0;
  b += vertices_.capacity() * sizeof(Vertex);
  for (const auto& vx : vertices_) b += vx.papers.capacity() * sizeof(int);
  b += row_begin_.capacity() * sizeof(uint32_t);
  b += slots_.capacity() * sizeof(HalfEdge);
  b += overflow_.capacity() * sizeof(std::vector<HalfEdge>);
  for (const auto& o : overflow_) b += o.capacity() * sizeof(HalfEdge);
  b += edge_papers_.capacity() * sizeof(std::vector<int>);
  for (const auto& ps : edge_papers_) b += ps.capacity() * sizeof(int);
  b += free_edges_.capacity() * sizeof(int32_t);
  b += live_degree_.capacity() * sizeof(int);
  b += verts_of_name_.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& ids : verts_of_name_) {
    b += ids.capacity() * sizeof(VertexId);
  }
  b += sorted_name_ids_.capacity() * sizeof(util::NameId);
  b += interner_.MemoryBytes();
  return b;
}

}  // namespace iuad::graph
