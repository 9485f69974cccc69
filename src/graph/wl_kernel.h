#ifndef IUAD_GRAPH_WL_KERNEL_H_
#define IUAD_GRAPH_WL_KERNEL_H_

/// \file wl_kernel.h
/// Weisfeiler-Lehman subtree kernel between *vertices* of one collaboration
/// graph (γ1 of Sec. V-B1, Eq. 3-4). A vertex v is represented by its h-hop
/// neighborhood subgraph; φ⟨h⟩(v) is the histogram of WL-refined labels
/// (iterations 0..h) over that subgraph, and K⟨h⟩(u, v) = ⟨φ⟨h⟩(u), φ⟨h⟩(v)⟩.
/// Initial labels are *author names*, so two candidates sharing co-author
/// names (and co-author-of-co-author structure) score high. Eq. 4 normalizes
/// by the self-kernels, giving a value in [0, 1] with K̂(v, v) = 1 for any
/// non-isolated v.
///
/// One deliberate refinement over a literal reading of Eq. 3 (documented in
/// DESIGN.md §5): the center vertex itself is EXCLUDED from its ball
/// histogram, so φ describes the *collaboration neighborhood* only. Under a
/// literal reading every pair of isolated same-name vertices would score a
/// perfect 1.0 — "identical subgraphs" with zero shared collaborators —
/// which floods the name-candidate pair population with spurious maximal
/// similarity (SCNs contain many per-paper singletons) and destabilizes the
/// EM fit. With the exclusion, isolated vertices have empty features and
/// kernel 0: no structural evidence. Requires h >= 1 for any signal.
///
/// Refinement is run once on the whole graph (Shervashidze et al., JMLR'11).
/// The build also copies the adjacency of every vertex alive at build time
/// into a frozen CSR next to the labels, and every ball is a BFS over that
/// frozen CSR, never over the live graph. A ball is therefore a pure
/// function of the build-time snapshot: built on first score, in bulk by
/// PrewarmFeatures, or after any amount of later graph growth, it is the
/// same ball. That is what lets the incremental serving paths fill balls
/// lazily between refreshes and still score byte-identically to one another
/// (DESIGN.md §5). Per-vertex features are stored flat: a label-sorted run
/// of (label, integer count) pairs plus the cached self-kernel. The kernel
/// is a merge-join of two runs. Every count, product and partial sum is an
/// integer far below 2^53, so the double it ends up in is exact whatever
/// the summation order: the kernel values are byte-identical to any other
/// exact evaluation of Eq. 3-4 (DESIGN.md §5, §6).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/collab_graph.h"
#include "util/thread_pool.h"

namespace iuad::graph {

/// WL subtree features + kernel over one graph snapshot. Rebuild after the
/// graph is mutated to see the mutation; until then the kernel keeps
/// answering for the build-time graph. Copies share the immutable
/// build-time state (labels, frozen adjacency, iteration-0 name labels) and
/// each gets its own copy of the ball cache.
class WlVertexKernel {
 public:
  /// Freezes the alive subgraph's adjacency and runs h rounds of label
  /// refinement over it. h = 0 leaves every ball empty (the center is
  /// excluded), so every kernel is 0. When `pool` is given, each round's
  /// signature pass (neighbor-label gathering + sort) runs across its
  /// workers; compressed label ids are still assigned in a sequential sweep
  /// in vertex order, so labels are byte-identical at any thread count (and
  /// to the serial build). `graph` need not outlive the kernel, but its
  /// interner must (names are resolved through it).
  WlVertexKernel(const CollabGraph& graph, int h,
                 util::ThreadPool* pool = nullptr);

  /// Raw kernel ⟨φ⟨h⟩(u), φ⟨h⟩(v)⟩ (Eq. 3).
  double Kernel(VertexId u, VertexId v) const;

  /// Normalized kernel of Eq. 4, in [0, 1]; 0 if either self-kernel is 0.
  double NormalizedKernel(VertexId u, VertexId v) const;

  /// A set of author names as the name-set kernel reads them: the
  /// iteration-0 label of every name known at build, in input order
  /// (repeats kept), plus the count of all names, known or not.
  struct NameSet {
    std::vector<int> labels;
    size_t num_names = 0;
  };

  /// Resolves `names` to their iteration-0 labels once, so a name set
  /// scored against many vertices is looked up only here.
  NameSet ResolveNameSet(const std::vector<std::string>& names) const;

  /// Normalized kernel between vertex v and a *hypothetical star* whose
  /// neighbors carry the names of `set` — how the incremental path
  /// (Sec. V-E) scores a new paper: the unseen occurrence is a star center
  /// connected to its byline co-authors, whose iteration-0 labels are the
  /// only features known before insertion. Result: the count of the set's
  /// labels in v's ball, normalized by sqrt(|names| * K(v, v)); 0 when v is
  /// isolated, dead or unknown at build, or the set is empty.
  double NormalizedKernelVsNameSet(VertexId v, const NameSet& set) const;

  /// Populates the lazy per-vertex feature cache for every vertex in `vs`.
  /// With a pool, each worker computes a strided slice of the (sorted,
  /// deduplicated) vertex list — so the few large hub balls spread across
  /// workers — and writes each ball straight into its vertex's slot. After
  /// the call, Kernel/NormalizedKernel over prewarmed vertices are pure
  /// reads and safe to invoke from many threads. Unknown / post-build
  /// vertex ids are ignored. The balls equal the ones a first score would
  /// build, so this changes when the work is done, never a kernel value.
  void PrewarmFeatures(const std::vector<VertexId>& vs,
                       util::ThreadPool* pool = nullptr) const;

  /// The compressed WL label of vertex v at iteration `iter` (testing hook:
  /// two structurally-equivalent vertices share labels at every iteration).
  int LabelAt(VertexId v, int iter) const {
    return frozen_->labels[static_cast<size_t>(v) *
                               static_cast<size_t>(frozen_->h + 1) +
                           static_cast<size_t>(iter)];
  }

  int depth() const { return frozen_->h; }

 private:
  /// One entry of a ball histogram: a WL label and how often it occurs.
  struct LabelCount {
    int label;
    int count;
  };
  /// φ⟨h⟩(v) as a label-sorted run plus its self-kernel K(v, v).
  struct BallFeatures {
    std::vector<LabelCount> runs;
    double self_kernel = 0.0;
  };
  /// Everything the build fixes, immutable afterwards and shared by copies.
  struct Frozen {
    int h = 0;
    /// Build-time adjacency as CSR: row v is nbrs[row_start[v] ..
    /// row_start[v + 1]), in the graph's ascending neighbor order; the row
    /// of a vertex dead at build is empty.
    std::vector<int> row_start;
    std::vector<VertexId> nbrs;
    /// labels[v * (h + 1) + i]: compressed label of v at iteration i, -1
    /// for a vertex dead at build. One vertex's h + 1 labels are adjacent,
    /// so a ball member's labels are one contiguous read.
    std::vector<int> labels;
    /// Iteration-0 dictionary (interned author name id -> label id), kept
    /// for the isolated-vertex kernel. Keyed by util::NameId: names are
    /// resolved through the graph's interner, so no strings are hashed
    /// after build.
    std::unordered_map<util::NameId, int> name_labels;

    VertexId num_vertices() const {
      return static_cast<VertexId>(row_start.size()) - 1;
    }
    /// True iff v existed and was alive when the kernel was built.
    bool BuiltAlive(VertexId v) const {
      return v >= 0 && v < num_vertices() &&
             labels[static_cast<size_t>(v) * static_cast<size_t>(h + 1)] >= 0;
    }
  };

  /// The h-hop ball features of v, cached; empty for post-build vertices.
  const BallFeatures& FeaturesOf(VertexId v) const;
  /// The cache-free computation behind FeaturesOf (safe to run in
  /// parallel for distinct vertices: reads frozen_ only, and keeps its BFS
  /// buffers per thread).
  BallFeatures ComputeFeatures(VertexId v) const;

  const util::StringInterner* interner_;
  std::shared_ptr<const Frozen> frozen_;
  mutable std::vector<BallFeatures> feature_cache_;
  /// One byte per vertex (not vector<bool>), so PrewarmFeatures workers
  /// can mark distinct vertices without racing on shared words.
  mutable std::vector<uint8_t> feature_cached_;
};

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_WL_KERNEL_H_
