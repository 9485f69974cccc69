#ifndef IUAD_GRAPH_COLLAB_GRAPH_H_
#define IUAD_GRAPH_COLLAB_GRAPH_H_

/// \file collab_graph.h
/// The collaboration network G = (V, E, P) of Definition 1: vertices are
/// *author candidates* (a name plus the set of papers attributed to that
/// candidate), and each edge (u, v) carries the paper set P_uv co-authored
/// by the two endpoints. Both the SCN and the GCN are instances of this
/// structure; GCN construction mutates it through MergeVertices.
///
/// Memory layout (the million-author design, see README "Memory model"):
///  * Names are interned once in an arena (util::StringInterner); vertices,
///    the name index, and every downstream layer key on the 4-byte NameId.
///  * Adjacency is CSR-style: one contiguous array of 8-byte {nbr, edge}
///    half-edge slots with per-vertex row offsets, sorted by neighbor id.
///    Mutations land in a small per-vertex sorted overflow log (edge
///    removals tombstone their base slot in place); when the overflow grows
///    past a fraction of the base it is folded in by Compact(), which the
///    refresh points also call explicitly.
///  * Each undirected edge's paper set is stored once (edge_papers_) and
///    shared by both half-edges, halving the old fwd/bwd duplication.
///
/// NeighborsOf iterates in ascending neighbor order — deterministic by
/// construction, unlike the old per-vertex hash maps.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/interner.h"
#include "util/status.h"

namespace iuad::graph {

using VertexId = int;

/// One author candidate. The name lives in the graph's interner; use
/// CollabGraph::NameOf for the string.
struct Vertex {
  util::NameId name_id = util::kInvalidNameId;
  /// Papers attributed to this candidate (sorted, unique).
  std::vector<int> papers;
  /// False after this vertex is absorbed by a merge.
  bool alive = true;
};

/// One serialized edge: endpoints (u < v) plus the shared paper set.
struct EdgeRecord {
  VertexId u = -1;
  VertexId v = -1;
  std::vector<int> papers;
};

/// Undirected multigraph-with-paper-sets. Vertex ids are dense and stable;
/// merged-away vertices stay allocated but dead (so ids held by callers
/// never dangle).
class CollabGraph {
 public:
  /// One CSR half-edge slot: neighbor id plus the shared-paper-set index.
  /// `edge` < 0 marks a tombstoned base slot (removed edge); the neighbor
  /// id is kept so binary search over the row stays valid.
  struct HalfEdge {
    VertexId nbr = -1;
    int32_t edge = -1;
  };

  /// Read-only view of one vertex's live adjacency: a merge of the sorted
  /// base row and the sorted overflow log, iterated in ascending neighbor
  /// order. A cheap value type (four pointers); invalidated by any graph
  /// mutation — materialize first if you mutate while iterating.
  class NeighborView {
   public:
    class const_iterator {
     public:
      using value_type = std::pair<VertexId, const std::vector<int>&>;

      value_type operator*() const {
        const HalfEdge& h = Current();
        return {h.nbr, (*papers_)[static_cast<size_t>(h.edge)]};
      }
      const_iterator& operator++() {
        if (o_ == oe_ || (b_ != be_ && b_->nbr < o_->nbr)) {
          ++b_;
          SkipDead();
        } else {
          ++o_;
        }
        return *this;
      }
      bool operator==(const const_iterator& other) const {
        return b_ == other.b_ && o_ == other.o_;
      }
      bool operator!=(const const_iterator& other) const {
        return !(*this == other);
      }

     private:
      friend class NeighborView;
      const_iterator(const HalfEdge* b, const HalfEdge* be, const HalfEdge* o,
                     const HalfEdge* oe,
                     const std::vector<std::vector<int>>* papers)
          : b_(b), be_(be), o_(o), oe_(oe), papers_(papers) {
        SkipDead();
      }
      const HalfEdge& Current() const {
        if (o_ == oe_ || (b_ != be_ && b_->nbr < o_->nbr)) return *b_;
        return *o_;
      }
      void SkipDead() {
        while (b_ != be_ && b_->edge < 0) ++b_;
      }

      const HalfEdge* b_;
      const HalfEdge* be_;
      const HalfEdge* o_;
      const HalfEdge* oe_;
      const std::vector<std::vector<int>>* papers_;
    };

    const_iterator begin() const {
      return const_iterator(b_, be_, o_, oe_, papers_);
    }
    const_iterator end() const {
      return const_iterator(be_, be_, oe_, oe_, papers_);
    }
    size_t size() const { return degree_; }
    bool empty() const { return degree_ == 0; }
    /// 1 if `nbr` is a live neighbor, else 0 (unordered_map-compatible).
    size_t count(VertexId nbr) const { return Find(nbr) != nullptr ? 1 : 0; }
    /// The shared paper set of the edge to `nbr`; throws std::out_of_range
    /// if absent. The reference outlives the view (it points into the
    /// graph) but not the next mutation of that edge.
    const std::vector<int>& at(VertexId nbr) const {
      const HalfEdge* h = Find(nbr);
      if (h == nullptr) throw std::out_of_range("NeighborView::at");
      return (*papers_)[static_cast<size_t>(h->edge)];
    }

   private:
    friend class CollabGraph;
    NeighborView(const HalfEdge* b, const HalfEdge* be, const HalfEdge* o,
                 const HalfEdge* oe,
                 const std::vector<std::vector<int>>* papers, size_t degree)
        : b_(b), be_(be), o_(o), oe_(oe), papers_(papers), degree_(degree) {}
    const HalfEdge* Find(VertexId nbr) const;

    const HalfEdge* b_;
    const HalfEdge* be_;
    const HalfEdge* o_;
    const HalfEdge* oe_;
    const std::vector<std::vector<int>>* papers_;
    size_t degree_;
  };

  /// Adds a vertex for `name` holding `papers` (deduplicated, sorted).
  VertexId AddVertex(std::string_view name, std::vector<int> papers);

  /// AddVertex for a name already interned in this graph (id-preserving
  /// fast path: vertex splitting).
  VertexId AddVertexWithId(util::NameId name_id, std::vector<int> papers);

  /// Rebuilds a graph from serialized parts (snapshot load, src/io):
  /// `names[i]` is the string of NameId i, `vertices` reference it through
  /// Vertex::name_id and come in id order — dead (merged-away) vertices
  /// included, so ids land exactly where they were — and `edges` run
  /// between alive endpoints. The name index lists alive vertices in
  /// ascending id order, which is the order organic construction produces
  /// (AddVertex appends, merges erase), so VerticesWithName tie-breaking
  /// behaves identically to the never-serialized graph. Fails on a
  /// duplicate name, out-of-range name ids or endpoints, self-loops, and
  /// edges touching dead vertices. The restored adjacency is compacted.
  static iuad::Result<CollabGraph> Restore(
      const std::vector<std::string>& names, std::vector<Vertex> vertices,
      const std::vector<EdgeRecord>& edges);

  /// The edge list of the alive subgraph with u < v, sorted by (u, v):
  /// the canonical serialization order (snapshot save, src/io).
  std::vector<EdgeRecord> Edges() const;

  /// Adds `papers` to the edge (u, v), creating it if absent. Self-loops are
  /// rejected. Both endpoints must be alive.
  iuad::Status AddEdgePapers(VertexId u, VertexId v,
                             const std::vector<int>& papers);

  /// Adds `papers` to vertex v's own paper set.
  void AddVertexPapers(VertexId v, const std::vector<int>& papers);

  /// Replaces vertex v's paper set (deduplicated). Used by the
  /// vertex-splitting augmentation (Sec. V-F2).
  void SetVertexPapers(VertexId v, std::vector<int> papers);

  /// Replaces the paper set of edge (u, v); an empty set removes the edge.
  /// Used by vertex-split surgery.
  iuad::Status SetEdgePapers(VertexId u, VertexId v, std::vector<int> papers);

  /// Merges `absorbed` into `kept`: paper sets union, edges rewire (parallel
  /// edges union their paper sets; the edge between the two, if any, is
  /// dropped as it becomes a self-loop). `absorbed` becomes dead.
  iuad::Status MergeVertices(VertexId kept, VertexId absorbed);

  /// Folds the overflow log into the base CSR arrays and drops tombstones.
  /// Purely a layout operation — observable state is unchanged. Called
  /// automatically when the overflow outgrows the base, and explicitly at
  /// restore/refresh points.
  void Compact();

  int num_vertices() const { return static_cast<int>(vertices_.size()); }
  int num_alive() const { return num_alive_; }
  int num_edges() const { return num_edges_; }

  const Vertex& vertex(VertexId v) const {
    return vertices_[static_cast<size_t>(v)];
  }
  bool alive(VertexId v) const {
    return vertices_[static_cast<size_t>(v)].alive;
  }

  /// The (arena-backed) name of vertex v; valid for the graph's lifetime.
  std::string_view NameOf(VertexId v) const {
    return interner_.View(vertices_[static_cast<size_t>(v)].name_id);
  }

  /// Interns `name` without touching any vertex: returns the id any future
  /// vertex bearing that name will carry. The shard router resolves byline
  /// names to block ids up front for pipeline conflict tracking — callers
  /// must be the graph's single mutator (concurrent interner *readers* are
  /// safe; see util::StringInterner).
  util::NameId InternName(std::string_view name) {
    return interner_.Intern(name);
  }

  /// The graph's name interner. Downstream layers resolve strings to ids
  /// here (reader-safe concurrently with the single ingestion writer).
  const util::StringInterner& interner() const { return interner_; }

  /// Live neighbor -> shared-paper-set view for a vertex (empty for dead
  /// vertices). Ascending neighbor order.
  NeighborView NeighborsOf(VertexId v) const;

  int DegreeOf(VertexId v) const {
    return live_degree_[static_cast<size_t>(v)];
  }

  /// Alive vertices currently bearing `name` (empty if none).
  const std::vector<VertexId>& VerticesWithName(std::string_view name) const;

  /// Alive vertices of an interned name id (empty if none or out of range).
  const std::vector<VertexId>& VerticesWithId(util::NameId id) const;

  /// Ids of all names with at least one alive vertex, ordered by name
  /// string — the deterministic block order. Cached; rebuilt lazily after
  /// the name set changes. Not safe concurrently with mutation (the
  /// single-writer contract all mutation already follows).
  const std::vector<util::NameId>& NameIdsSorted() const;

  /// All names with at least one alive vertex, sorted. Materializes
  /// strings — prefer NameIdsSorted on hot paths.
  std::vector<std::string> Names() const;

  /// All alive vertex ids.
  std::vector<VertexId> AliveVertices() const;

  /// Heap footprint of the graph structures (vertices, CSR arrays, shared
  /// paper sets, name index, interner arena). The bytes_per_author bench
  /// metric is MemoryBytes() / num_alive().
  size_t MemoryBytes() const;

 private:
  void Deduplicate(std::vector<int>* papers);
  /// Mutable half-edge slot for (u, nbr), tombstones included; null if the
  /// neighbor id has no slot at all.
  HalfEdge* FindHalf(VertexId u, VertexId nbr);
  const HalfEdge* FindHalfConst(VertexId u, VertexId nbr) const;
  /// Allocates an edge-paper slot (freelist-backed) holding `papers`.
  int32_t AllocEdge(std::vector<int> papers);
  void FreeEdge(int32_t e);
  /// Inserts a live half-edge (u, nbr)->e, reviving a tombstone in place
  /// or splicing into the sorted overflow row.
  void AttachHalf(VertexId u, VertexId nbr, int32_t e);
  /// Removes the live half-edge (u, nbr): tombstones a base slot, erases
  /// an overflow entry.
  void DetachHalf(VertexId u, VertexId nbr);
  void MaybeCompact();

  util::StringInterner interner_;
  std::vector<Vertex> vertices_;

  // CSR adjacency: base row v is slots_[row_begin_[v] .. row_begin_[v+1]).
  std::vector<uint32_t> row_begin_{0};
  std::vector<HalfEdge> slots_;
  std::vector<std::vector<HalfEdge>> overflow_;  ///< per-vertex, sorted, live
  size_t overflow_half_edges_ = 0;
  size_t live_base_half_edges_ = 0;

  // Shared per-undirected-edge paper sets (+ freelist of removed slots).
  std::vector<std::vector<int>> edge_papers_;
  std::vector<int32_t> free_edges_;

  std::vector<int> live_degree_;

  // Name index by NameId; the sorted-id cache backs Names()/NameIdsSorted().
  std::vector<std::vector<VertexId>> verts_of_name_;
  mutable std::vector<util::NameId> sorted_name_ids_;
  mutable bool names_cache_valid_ = false;

  int num_alive_ = 0;
  int num_edges_ = 0;
};

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_COLLAB_GRAPH_H_
