#include "graph/wl_kernel.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace iuad::graph {

WlVertexKernel::WlVertexKernel(const CollabGraph& graph, int h,
                               util::ThreadPool* pool)
    : graph_(graph), h_(h) {
  const int n = graph.num_vertices();
  labels_.resize(static_cast<size_t>(h + 1),
                 std::vector<int>(static_cast<size_t>(n), -1));
  feature_cache_.resize(static_cast<size_t>(n));
  feature_cached_.assign(static_cast<size_t>(n), 0);

  // Iteration 0: compress author names to dense label ids.
  for (VertexId v = 0; v < n; ++v) {
    if (!graph.alive(v)) continue;
    auto [it, inserted] = name_labels_.try_emplace(
        graph.vertex(v).name_id, static_cast<int>(name_labels_.size()));
    labels_[0][static_cast<size_t>(v)] = it->second;
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
    util::ForIndices(pool, static_cast<size_t>(n), [&](size_t vi) {
      const VertexId v = static_cast<VertexId>(vi);
      sigs[vi].clear();
      if (!graph.alive(v)) return;
      sigs[vi].reserve(graph.NeighborsOf(v).size() + 1);
      sigs[vi].push_back(
          labels_[static_cast<size_t>(iter - 1)][static_cast<size_t>(v)]);
      for (const auto& [u, papers] : graph.NeighborsOf(v)) {
        sigs[vi].push_back(
            labels_[static_cast<size_t>(iter - 1)][static_cast<size_t>(u)]);
      }
      std::sort(sigs[vi].begin() + 1, sigs[vi].end());
    });
    std::map<std::vector<int>, int> signature_label;
    for (VertexId v = 0; v < n; ++v) {
      if (!graph.alive(v)) continue;
      auto [it, inserted] =
          signature_label.try_emplace(std::move(sigs[static_cast<size_t>(v)]), 0);
      if (inserted) it->second = next_global++;
      labels_[static_cast<size_t>(iter)][static_cast<size_t>(v)] = it->second;
    }
  }
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
  // Vertices created after Build() have no labels or cache slot.
  static const BallFeatures* const kEmpty = new BallFeatures();
  if (v >= static_cast<VertexId>(labels_[0].size())) return *kEmpty;
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
    if (v >= 0 && v < static_cast<VertexId>(labels_[0].size()) &&
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
  if (!graph_.alive(v)) return features;

  thread_local BallScratch s;
  const size_t n = static_cast<size_t>(graph_.num_vertices());
  if (s.stamp.size() < n) s.stamp.resize(n, 0);
  if (++s.epoch == 0) {  // wrapped: forget every old stamp
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }

  // Level-synchronous BFS of radius h over the live adjacency. The center
  // is marked reached but never counted (see the header: φ describes the
  // collaboration neighborhood, not the vertex). Vertices added after
  // Build() carry no labels: they are traversed but not counted (callers
  // rebuild the kernel periodically during incremental ingestion).
  const VertexId built_n = static_cast<VertexId>(labels_[0].size());
  s.labels.clear();
  s.frontier.assign(1, v);
  s.stamp[static_cast<size_t>(v)] = s.epoch;
  for (int d = 0; d < h_ && !s.frontier.empty(); ++d) {
    s.next.clear();
    for (VertexId u : s.frontier) {
      for (const auto& [w, papers] : graph_.NeighborsOf(u)) {
        uint32_t& stamp = s.stamp[static_cast<size_t>(w)];
        if (stamp == s.epoch) continue;
        stamp = s.epoch;
        s.next.push_back(w);
        if (w >= built_n) continue;
        for (int iter = 0; iter <= h_; ++iter) {
          s.labels.push_back(
              labels_[static_cast<size_t>(iter)][static_cast<size_t>(w)]);
        }
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

double WlVertexKernel::NormalizedKernelVsNameSet(
    VertexId v, const std::vector<std::string>& names) const {
  if (!graph_.alive(v) || names.empty()) return 0.0;
  if (v >= static_cast<VertexId>(labels_[0].size())) return 0.0;
  const BallFeatures& fv = FeaturesOf(v);
  if (fv.runs.empty()) return 0.0;
  int64_t cross = 0;
  for (const auto& name : names) {
    const util::NameId id = graph_.interner().Lookup(name);
    if (id == util::kInvalidNameId) continue;
    auto it = name_labels_.find(id);
    if (it == name_labels_.end()) continue;
    auto run = std::lower_bound(
        fv.runs.begin(), fv.runs.end(), it->second,
        [](const LabelCount& lc, int label) { return lc.label < label; });
    if (run != fv.runs.end() && run->label == it->second) cross += run->count;
  }
  const double kvv = fv.self_kernel;
  if (kvv <= 0.0) return 0.0;
  return std::min(1.0, static_cast<double>(cross) /
                           std::sqrt(static_cast<double>(names.size()) * kvv));
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
