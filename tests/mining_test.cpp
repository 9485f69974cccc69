#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "mining/pair_miner.h"
#include "util/rng.h"

namespace iuad::mining {
namespace {

std::vector<Transaction> ClassicTransactions() {
  // The worked example from Han et al.'s FP-growth paper (items renamed to
  // ints): frequent structure is well known.
  return {
      {0, 1, 2}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}, {1, 2}, {0, 2},
      {0, 1, 2, 4}, {0, 1, 2},
  };
}

int64_t SupportOf(const std::vector<FrequentItemset>& sets,
                  std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  for (const auto& fi : sets) {
    if (fi.items == items) return fi.support;
  }
  return -1;
}

// --------------------------- ItemEncoder ------------------------------------

TEST(ItemEncoderTest, EncodeDecodeRoundTrip) {
  ItemEncoder enc;
  const Item a = enc.Encode("Wei Wang");
  const Item b = enc.Encode("Dong Wang");
  EXPECT_NE(a, b);
  EXPECT_EQ(enc.Encode("Wei Wang"), a);
  EXPECT_EQ(enc.Decode(b), "Dong Wang");
  EXPECT_EQ(enc.Find("Wei Wang"), a);
  EXPECT_EQ(enc.Find("Nobody"), -1);
}

// --------------------------- PairCounter ------------------------------------

TEST(PairCounterTest, CountsUnorderedPairs) {
  PairCounter pc;
  pc.AddTransaction({1, 2, 3});
  pc.AddTransaction({2, 1});
  pc.AddTransaction({3, 1});
  EXPECT_EQ(pc.CountOf(1, 2), 2);
  EXPECT_EQ(pc.CountOf(2, 1), 2);  // symmetric
  EXPECT_EQ(pc.CountOf(1, 3), 2);
  EXPECT_EQ(pc.CountOf(2, 3), 1);
  EXPECT_EQ(pc.CountOf(1, 1), 0);  // self
  EXPECT_EQ(pc.CountOf(4, 5), 0);  // unseen
}

TEST(PairCounterTest, DuplicatesInTransactionCollapse) {
  PairCounter pc;
  pc.AddTransaction({7, 7, 8});
  EXPECT_EQ(pc.CountOf(7, 8), 1);
}

TEST(PairCounterTest, FrequentPairsThreshold) {
  PairCounter pc;
  pc.AddTransaction({1, 2});
  pc.AddTransaction({1, 2});
  pc.AddTransaction({1, 3});
  auto pairs = pc.FrequentPairs(2);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].items, (std::vector<Item>{1, 2}));
  EXPECT_EQ(pairs[0].support, 2);
}

// Known answer: the pair supports of the classic example at η = 2.
TEST(PairCounterTest, KnownSupportsOnClassicExample) {
  PairCounter pc;
  for (const Transaction& t : ClassicTransactions()) pc.AddTransaction(t);
  const auto pairs = pc.FrequentPairs(2);
  EXPECT_EQ(pairs.size(), 4u);
  EXPECT_EQ(SupportOf(pairs, {0, 1}), 4);
  EXPECT_EQ(SupportOf(pairs, {0, 2}), 5);
  EXPECT_EQ(SupportOf(pairs, {1, 2}), 5);
  EXPECT_EQ(SupportOf(pairs, {1, 3}), 2);
  EXPECT_EQ(SupportOf(pairs, {2, 4}), -1);  // below support
  EXPECT_EQ(pc.CountOf(2, 4), 1);
}

// Property test: on seeded random transactions (duplicate items, single-item
// and empty transactions included), PairCounter agrees with brute-force
// enumeration of every unordered distinct-item pair, counted once per
// transaction, for both FrequentPairs and CountOf in either argument order.
class PairCounterPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PairCounterPropertyTest, MatchesBruteForcePairEnumeration) {
  constexpr Item kAlphabet = 10;
  const auto [seed, min_support] = GetParam();
  iuad::Rng rng(static_cast<uint64_t>(seed));
  std::vector<Transaction> txs = {{}, {3}, {5, 5}, {2, 6, 2, 6, 2}};
  const int n_tx = 40 + static_cast<int>(rng.NextBounded(40));
  for (int i = 0; i < n_tx; ++i) {
    Transaction t;
    const int len = static_cast<int>(rng.NextBounded(8));  // 0..7 items
    for (int j = 0; j < len; ++j) {
      t.push_back(static_cast<Item>(rng.NextBounded(kAlphabet)));
    }
    txs.push_back(std::move(t));
  }

  std::map<std::pair<Item, Item>, int64_t> expected;
  PairCounter pc;
  for (const Transaction& t : txs) {
    std::set<std::pair<Item, Item>> in_tx;
    for (size_t i = 0; i < t.size(); ++i) {
      for (size_t j = 0; j < t.size(); ++j) {
        if (t[i] < t[j]) in_tx.insert({t[i], t[j]});
      }
    }
    for (const auto& p : in_tx) ++expected[p];
    pc.AddTransaction(t);
  }

  std::vector<FrequentItemset> want;
  for (const auto& [p, count] : expected) {
    if (count >= min_support) want.push_back({{p.first, p.second}, count});
  }
  auto got = pc.FrequentPairs(min_support);
  std::sort(got.begin(), got.end(),
            [](const FrequentItemset& x, const FrequentItemset& y) {
              return x.items < y.items;
            });
  EXPECT_EQ(got, want) << "seed=" << seed << " min_support=" << min_support;

  for (Item a = 0; a < kAlphabet; ++a) {
    for (Item b = 0; b < kAlphabet; ++b) {
      const auto it = expected.find({std::min(a, b), std::max(a, b)});
      const int64_t count = it == expected.end() ? 0 : it->second;
      EXPECT_EQ(pc.CountOf(a, b), count) << "a=" << a << " b=" << b;
      EXPECT_EQ(pc.CountOf(b, a), count) << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, PairCounterPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(PairKeyTest, RoundTrip) {
  const uint64_t key = PairKey(123456, 654321);
  EXPECT_EQ(PairFirst(key), 123456);
  EXPECT_EQ(PairSecond(key), 654321);
}

}  // namespace
}  // namespace iuad::mining
