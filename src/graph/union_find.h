#ifndef IUAD_GRAPH_UNION_FIND_H_
#define IUAD_GRAPH_UNION_FIND_H_

/// \file union_find.h
/// Disjoint-set union with path halving + union by size. Used to realize
/// vertex merges (GCN construction, Line 15 of Algorithm 1) and to map
/// predicted clusters during evaluation.

#include <numeric>
#include <vector>

namespace iuad::graph {

/// Standard DSU over dense ids [0, n).
class UnionFind {
 public:
  explicit UnionFind(int n = 0) { Reset(n); }

  /// Re-initializes to n singleton sets.
  void Reset(int n) {
    parent_.resize(static_cast<size_t>(n));
    std::iota(parent_.begin(), parent_.end(), 0);
    size_.assign(static_cast<size_t>(n), 1);
  }

  /// Representative of x's set (with path halving).
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  /// Unions the sets of a and b; returns the surviving representative.
  int Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return a;
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
    return a;
  }

  int size() const { return static_cast<int>(parent_.size()); }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_UNION_FIND_H_
