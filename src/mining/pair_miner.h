#ifndef IUAD_MINING_PAIR_MINER_H_
#define IUAD_MINING_PAIR_MINER_H_

/// \file pair_miner.h
/// Specialized frequent-2-itemset counter. Sec. IV-C Step I mines all
/// η-SCRs, i.e. co-author pairs with support >= η; SCN construction only
/// consumes pairs (the triangles are *inferred* from pairs, Sec. IV-C), and
/// bylines are short, so direct pair counting is the whole miner (Sec. V-F1
/// argues SCN construction efficiency). Also exposes the raw pair-frequency
/// histogram behind Fig. 3b.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace iuad::mining {

/// Items are dense non-negative integers (encoded names).
using Item = int;
using Transaction = std::vector<Item>;

/// A frequent itemset and its support count.
struct FrequentItemset {
  std::vector<Item> items;  ///< Sorted ascending.
  int64_t support = 0;

  bool operator==(const FrequentItemset& other) const {
    return support == other.support && items == other.items;
  }
};

/// Bidirectional string <-> Item encoding, so the counter works on ints
/// while the SCN layer speaks author names.
class ItemEncoder {
 public:
  /// Returns the id of `s`, creating one if unseen.
  Item Encode(const std::string& s) {
    auto [it, inserted] = index_.try_emplace(s, static_cast<Item>(strings_.size()));
    if (inserted) strings_.push_back(s);
    return it->second;
  }

  /// Returns the id of `s` or -1 if unseen (const lookup).
  Item Find(const std::string& s) const {
    auto it = index_.find(s);
    return it == index_.end() ? -1 : it->second;
  }

  const std::string& Decode(Item item) const {
    return strings_[static_cast<size_t>(item)];
  }

 private:
  std::unordered_map<std::string, Item> index_;
  std::vector<std::string> strings_;
};

/// Packs an ordered item pair (a < b) into one 64-bit key.
inline uint64_t PairKey(Item a, Item b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}
inline Item PairFirst(uint64_t key) { return static_cast<Item>(key >> 32); }
inline Item PairSecond(uint64_t key) {
  return static_cast<Item>(key & 0xffffffffULL);
}

/// Streaming pair counter: feed transactions one at a time.
class PairCounter {
 public:
  /// Counts every unordered item pair of `t` once (duplicates collapsed).
  void AddTransaction(const Transaction& t);

  /// Pairs with count >= min_support, as FrequentItemsets (items sorted).
  std::vector<FrequentItemset> FrequentPairs(int64_t min_support) const;

  /// Raw counts (pair key -> co-occurrence count).
  const std::unordered_map<uint64_t, int64_t>& counts() const {
    return counts_;
  }

  /// Co-occurrence count of {a, b}; 0 if never seen together.
  int64_t CountOf(Item a, Item b) const;

 private:
  std::unordered_map<uint64_t, int64_t> counts_;
};

}  // namespace iuad::mining

#endif  // IUAD_MINING_PAIR_MINER_H_
