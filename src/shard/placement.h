#ifndef IUAD_SHARD_PLACEMENT_H_
#define IUAD_SHARD_PLACEMENT_H_

/// \file placement.h
/// Deterministic name-block → shard placement. The paper's bottom-up design
/// (Sec. V-E) makes author assignment a per-name-block decision — a byline
/// only ever competes against candidate vertices bearing its own name — so
/// the name block is the natural partitioning key for horizontal scale.
/// Block sizes are scale-free in real corpora (Kim, JASIST 2018): a handful
/// of blocks ("J. Lee") dwarf the median, so naive hashing overloads
/// whichever shard draws them. The size-aware policy packs the fitted
/// result's blocks greedily by scoring weight instead.
///
/// Placement is pure load balancing: scoring is deterministic wherever it
/// runs, so assignments never depend on the policy, the shard count, or
/// which process owns a block. Both the shard router (src/shard) and the
/// sharded snapshot sections (src/io) use this map, so a snapshot's shard
/// sections mirror the serving partition.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "graph/collab_graph.h"
#include "util/interner.h"

namespace iuad::shard {

/// FNV-1a over the block name: the stateless fallback route shared by every
/// policy for blocks born after placement was built.
uint64_t NameHash(std::string_view name);

/// Immutable block → shard map. Thread-safe for concurrent ShardOf calls
/// once built. Internally the map is a flat array indexed by the graph's
/// interned util::NameId (the placement snapshots the interner at build
/// time, so its ids coincide with the graph's for every name known then):
/// routing an interned block is one bounds check + one array load, no
/// string hashing.
class BlockPlacement {
 public:
  /// Builds the placement over the name blocks of `graph` (names with at
  /// least one alive vertex). Deterministic: depends only on the graph
  /// content, `num_shards`, and `policy` — never on iteration order of any
  /// hash map. `num_shards` must be >= 1 (IuadConfig::Validate enforces).
  static BlockPlacement Build(const graph::CollabGraph& graph, int num_shards,
                              core::ShardPlacement policy);

  /// Owner shard of a name block, in [0, num_shards). The hot path: `id` is
  /// the block's interned id in the graph the placement was built from
  /// (kInvalidNameId is fine). Blocks unknown at build time — new ids, or
  /// names that had no alive vertex — route through the hash rule applied
  /// to `name`.
  int ShardOf(util::NameId id, std::string_view name) const {
    if (num_shards_ == 1) return 0;
    if (id >= 0 && static_cast<size_t>(id) < shard_of_id_.size() &&
        shard_of_id_[static_cast<size_t>(id)] >= 0) {
      return shard_of_id_[static_cast<size_t>(id)];
    }
    return static_cast<int>(NameHash(name) %
                            static_cast<uint64_t>(num_shards_));
  }

  /// String-keyed route for callers at the protocol boundary (and tests):
  /// resolves the id through the placement's own interner snapshot.
  int ShardOf(std::string_view name) const {
    if (num_shards_ == 1) return 0;
    return ShardOf(names_.Lookup(name), name);
  }

  int num_shards() const { return num_shards_; }
  int64_t num_blocks() const { return num_blocks_; }

  /// Per-shard sum of placed block weights (candidate vertices + attributed
  /// papers) — the balance the size-aware policy optimizes, surfaced for
  /// stats and tests.
  const std::vector<int64_t>& shard_weights() const { return shard_weights_; }

 private:
  int num_shards_ = 1;
  /// Copy of the build-time graph interner; ids match the graph's.
  util::StringInterner names_;
  /// NameId -> shard, -1 for ids that were not placed (no alive vertex).
  std::vector<int32_t> shard_of_id_;
  int64_t num_blocks_ = 0;
  std::vector<int64_t> shard_weights_;
};

}  // namespace iuad::shard

#endif  // IUAD_SHARD_PLACEMENT_H_
