#include "graph/wl_kernel.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace iuad::graph {

WlVertexKernel::WlVertexKernel(const CollabGraph& graph, int h,
                               util::ThreadPool* pool)
    : interner_(&graph.interner()) {
  auto frozen = std::make_shared<Frozen>();
  Frozen& f = *frozen;
  f.h = h;
  const int n = graph.num_vertices();
  const size_t stride = static_cast<size_t>(h + 1);

  // Freeze the adjacency of every alive vertex. Balls and refinement both
  // read this copy, so nothing after the build depends on the live graph.
  f.row_start.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (graph.alive(v)) {
      for (const auto& [u, papers] : graph.NeighborsOf(v)) f.nbrs.push_back(u);
    }
    f.row_start[static_cast<size_t>(v) + 1] = static_cast<int>(f.nbrs.size());
  }
  f.labels.assign(static_cast<size_t>(n) * stride, -1);

  // Iteration 0: compress author names to dense label ids.
  for (VertexId v = 0; v < n; ++v) {
    if (!graph.alive(v)) continue;
    auto [it, inserted] = f.name_labels.try_emplace(
        graph.vertex(v).name_id, static_cast<int>(f.name_labels.size()));
    f.labels[static_cast<size_t>(v) * stride] = it->second;
  }

  // Iterations 1..h: label(v) <- compress(label(v), sorted labels of N(v)).
  // Each iteration uses a fresh compression dictionary; label ids are made
  // globally unique across iterations by an offset so ball histograms can
  // mix iterations safely. The signatures (the expensive part: neighbor
  // gathering + sort) are computed in parallel over vertices — each reads
  // only the previous iteration's labels — while compressed ids are
  // assigned in a sequential sweep in vertex order, so the id assignment
  // (first-encounter order) is identical at any thread count.
  int next_global = 1 << 20;  // iteration-0 labels occupy [0, 2^20)
  std::vector<std::vector<int>> sigs(static_cast<size_t>(n));
  for (int iter = 1; iter <= h; ++iter) {
    const size_t prev = static_cast<size_t>(iter - 1);
    util::ForIndices(pool, static_cast<size_t>(n), [&](size_t vi) {
      std::vector<int>& sig = sigs[vi];
      sig.clear();
      if (f.labels[vi * stride] < 0) return;  // dead at build
      const int begin = f.row_start[vi];
      const int end = f.row_start[vi + 1];
      sig.reserve(static_cast<size_t>(end - begin) + 1);
      sig.push_back(f.labels[vi * stride + prev]);
      for (int k = begin; k < end; ++k) {
        sig.push_back(
            f.labels[static_cast<size_t>(f.nbrs[static_cast<size_t>(k)]) *
                         stride +
                     prev]);
      }
      std::sort(sig.begin() + 1, sig.end());
    });
    std::map<std::vector<int>, int> signature_label;
    for (size_t vi = 0; vi < static_cast<size_t>(n); ++vi) {
      if (f.labels[vi * stride] < 0) continue;
      auto [it, inserted] =
          signature_label.try_emplace(std::move(sigs[vi]), 0);
      if (inserted) it->second = next_global++;
      f.labels[vi * stride + static_cast<size_t>(iter)] = it->second;
    }
  }
  frozen_ = std::move(frozen);
  feature_cache_.resize(static_cast<size_t>(n));
  feature_cached_.assign(static_cast<size_t>(n), 0);
}

namespace {

/// Per-thread BFS buffers, reused across ComputeFeatures calls: a vertex is
/// reached iff its stamp equals the current epoch, so nothing is cleared
/// between balls.
struct BallScratch {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  std::vector<VertexId> frontier;
  std::vector<VertexId> next;
  std::vector<int> labels;
};

/// Σ count_u(l) · count_v(l) over the labels both sorted runs share, in
/// exact integer arithmetic.
template <typename Run>
int64_t DotRuns(const Run& a, const Run& b) {
  int64_t s = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->label < j->label) {
      ++i;
    } else if (j->label < i->label) {
      ++j;
    } else {
      s += static_cast<int64_t>(i->count) * j->count;
      ++i;
      ++j;
    }
  }
  return s;
}

}  // namespace

const WlVertexKernel::BallFeatures& WlVertexKernel::FeaturesOf(
    VertexId v) const {
  // Vertices created after the build have no labels or cache slot.
  static const BallFeatures* const kEmpty = new BallFeatures();
  if (v >= frozen_->num_vertices()) return *kEmpty;
  const size_t sv = static_cast<size_t>(v);
  if (!feature_cached_[sv]) {
    feature_cache_[sv] = ComputeFeatures(v);
    feature_cached_[sv] = 1;
  }
  return feature_cache_[sv];
}

void WlVertexKernel::PrewarmFeatures(const std::vector<VertexId>& vs,
                                     util::ThreadPool* pool) const {
  std::vector<VertexId> missing;
  for (VertexId v : vs) {
    if (v >= 0 && v < frozen_->num_vertices() &&
        !feature_cached_[static_cast<size_t>(v)]) {
      missing.push_back(v);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (missing.empty()) return;
  // Slice t takes missing[t], missing[t + slices], ...: ball cost is skewed
  // toward a few hubs, and a strided slice spreads them where static
  // contiguous chunks would pile neighboring ids onto one worker. Every
  // write lands in the vertex's own slot (and its own cached byte).
  const size_t slices =
      pool == nullptr
          ? 1
          : std::min(static_cast<size_t>(pool->num_threads()), missing.size());
  util::ForIndices(pool, slices, [&](size_t t) {
    for (size_t i = t; i < missing.size(); i += slices) {
      const size_t sv = static_cast<size_t>(missing[i]);
      feature_cache_[sv] = ComputeFeatures(missing[i]);
      feature_cached_[sv] = 1;
    }
  });
}

WlVertexKernel::BallFeatures WlVertexKernel::ComputeFeatures(
    VertexId v) const {
  BallFeatures features;
  const Frozen& f = *frozen_;
  if (!f.BuiltAlive(v)) return features;

  thread_local BallScratch s;
  const size_t n = static_cast<size_t>(f.num_vertices());
  if (s.stamp.size() < n) s.stamp.resize(n, 0);
  if (++s.epoch == 0) {  // wrapped: forget every old stamp
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }

  // Level-synchronous BFS of radius h over the frozen build-time adjacency,
  // not the live graph: edges and vertices added since the build are
  // invisible, so the ball is the same whenever it is first computed. The
  // center is marked reached but never counted (see the header: φ
  // describes the collaboration neighborhood, not the vertex).
  const size_t stride = static_cast<size_t>(f.h + 1);
  s.labels.clear();
  s.frontier.assign(1, v);
  s.stamp[static_cast<size_t>(v)] = s.epoch;
  for (int d = 0; d < f.h && !s.frontier.empty(); ++d) {
    s.next.clear();
    for (VertexId u : s.frontier) {
      const int end = f.row_start[static_cast<size_t>(u) + 1];
      for (int k = f.row_start[static_cast<size_t>(u)]; k < end; ++k) {
        const VertexId w = f.nbrs[static_cast<size_t>(k)];
        uint32_t& stamp = s.stamp[static_cast<size_t>(w)];
        if (stamp == s.epoch) continue;
        stamp = s.epoch;
        s.next.push_back(w);
        const int* lw = f.labels.data() + static_cast<size_t>(w) * stride;
        s.labels.insert(s.labels.end(), lw, lw + stride);
      }
    }
    std::swap(s.frontier, s.next);
  }

  // Histogram of labels over all iterations, as a sorted run-length code.
  std::sort(s.labels.begin(), s.labels.end());
  size_t distinct = 0;
  for (size_t i = 0; i < s.labels.size(); ++i) {
    if (i == 0 || s.labels[i] != s.labels[i - 1]) ++distinct;
  }
  features.runs.reserve(distinct);
  int64_t self = 0;
  for (size_t i = 0; i < s.labels.size();) {
    size_t j = i + 1;
    while (j < s.labels.size() && s.labels[j] == s.labels[i]) ++j;
    const int count = static_cast<int>(j - i);
    features.runs.push_back({s.labels[i], count});
    self += static_cast<int64_t>(count) * count;
    i = j;
  }
  features.self_kernel = static_cast<double>(self);
  return features;
}

WlVertexKernel::NameSet WlVertexKernel::ResolveNameSet(
    const std::vector<std::string>& names) const {
  NameSet set;
  set.num_names = names.size();
  for (const auto& name : names) {
    const util::NameId id = interner_->Lookup(name);
    if (id == util::kInvalidNameId) continue;
    auto it = frozen_->name_labels.find(id);
    if (it == frozen_->name_labels.end()) continue;
    set.labels.push_back(it->second);
  }
  return set;
}

double WlVertexKernel::NormalizedKernelVsNameSet(VertexId v,
                                                 const NameSet& set) const {
  if (set.num_names == 0) return 0.0;
  const BallFeatures& fv = FeaturesOf(v);
  if (fv.runs.empty()) return 0.0;
  int64_t cross = 0;
  for (const int label : set.labels) {
    auto run = std::lower_bound(
        fv.runs.begin(), fv.runs.end(), label,
        [](const LabelCount& lc, int l) { return lc.label < l; });
    if (run != fv.runs.end() && run->label == label) cross += run->count;
  }
  const double kvv = fv.self_kernel;
  if (kvv <= 0.0) return 0.0;
  return std::min(1.0, static_cast<double>(cross) /
                           std::sqrt(static_cast<double>(set.num_names) * kvv));
}

double WlVertexKernel::Kernel(VertexId u, VertexId v) const {
  return static_cast<double>(DotRuns(FeaturesOf(u).runs, FeaturesOf(v).runs));
}

double WlVertexKernel::NormalizedKernel(VertexId u, VertexId v) const {
  const BallFeatures& fu = FeaturesOf(u);
  const BallFeatures& fv = FeaturesOf(v);
  if (fu.self_kernel <= 0.0 || fv.self_kernel <= 0.0) return 0.0;
  return static_cast<double>(DotRuns(fu.runs, fv.runs)) /
         std::sqrt(fu.self_kernel * fv.self_kernel);
}

}  // namespace iuad::graph
