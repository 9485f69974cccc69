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
/// Per-vertex features are ball histograms stored flat: a label-sorted run
/// of (label, integer count) pairs plus the cached self-kernel, filled on
/// first use or in bulk by PrewarmFeatures. The kernel is a merge-join of
/// two runs. Every count, product and partial sum is an integer far below
/// 2^53, so the double it ends up in is exact whatever the summation order:
/// the kernel values are byte-identical to any other exact evaluation of
/// Eq. 3-4 (DESIGN.md §5, §6).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/collab_graph.h"
#include "util/thread_pool.h"

namespace iuad::graph {

/// WL subtree features + kernel over one graph snapshot. Rebuild after the
/// graph is mutated (merges invalidate features).
class WlVertexKernel {
 public:
  /// Runs h rounds of label refinement over the alive subgraph.
  /// h = 0 leaves every ball empty (the center is excluded), so every
  /// kernel is 0. When `pool` is given, each round's signature pass
  /// (neighbor-label gathering + sort) runs across its workers; compressed
  /// label ids are still assigned in a sequential sweep in vertex order, so
  /// labels are byte-identical at any thread count (and to the serial
  /// build).
  WlVertexKernel(const CollabGraph& graph, int h,
                 util::ThreadPool* pool = nullptr);

  /// Raw kernel ⟨φ⟨h⟩(u), φ⟨h⟩(v)⟩ (Eq. 3).
  double Kernel(VertexId u, VertexId v) const;

  /// Normalized kernel of Eq. 4, in [0, 1]; 0 if either self-kernel is 0.
  double NormalizedKernel(VertexId u, VertexId v) const;

  /// Normalized kernel between vertex v and a *hypothetical star* whose
  /// neighbors carry the given `names` — how the incremental path
  /// (Sec. V-E) scores a new paper: the unseen occurrence is a star center
  /// connected to its byline co-authors, whose iteration-0 labels are the
  /// only features known before insertion. Result: the count of `names`
  /// labels in v's ball, normalized by sqrt(|names| * K(v, v)); 0 when v is
  /// isolated, post-build, or `names` is empty.
  double NormalizedKernelVsNameSet(VertexId v,
                                   const std::vector<std::string>& names) const;

  /// Populates the lazy per-vertex feature cache for every vertex in `vs`.
  /// With a pool, each worker computes a strided slice of the (sorted,
  /// deduplicated) vertex list — so the few large hub balls spread across
  /// workers — and writes each ball straight into its vertex's slot. After
  /// the call, Kernel/NormalizedKernel over prewarmed vertices are pure
  /// reads and safe to invoke from many threads. Unknown / post-build
  /// vertex ids are ignored.
  void PrewarmFeatures(const std::vector<VertexId>& vs,
                       util::ThreadPool* pool = nullptr) const;

  /// The compressed WL label of vertex v at iteration `iter` (testing hook:
  /// two structurally-equivalent vertices share labels at every iteration).
  int LabelAt(VertexId v, int iter) const {
    return labels_[static_cast<size_t>(iter)][static_cast<size_t>(v)];
  }

  int depth() const { return h_; }

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

  /// The h-hop ball features of v, cached; empty for post-build vertices.
  const BallFeatures& FeaturesOf(VertexId v) const;
  /// The cache-free computation behind FeaturesOf (safe to run in
  /// parallel for distinct vertices: reads graph_ / labels_ only, and
  /// keeps its BFS buffers per thread).
  BallFeatures ComputeFeatures(VertexId v) const;

  const CollabGraph& graph_;
  int h_;
  /// labels_[i][v]: compressed label of v at iteration i (i = 0..h).
  std::vector<std::vector<int>> labels_;
  /// Iteration-0 dictionary (interned author name id -> label id), kept for
  /// the isolated-vertex kernel. Keyed by util::NameId: names are resolved
  /// through the graph's interner, so no strings are hashed after build.
  std::unordered_map<util::NameId, int> name_labels_;
  mutable std::vector<BallFeatures> feature_cache_;
  /// One byte per vertex (not vector<bool>), so PrewarmFeatures workers
  /// can mark distinct vertices without racing on shared words.
  mutable std::vector<uint8_t> feature_cached_;
};

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_WL_KERNEL_H_
