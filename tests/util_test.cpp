#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/interner.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/tsv.h"

namespace iuad {
namespace {

// --------------------------- Status / Result --------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad eta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad eta");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HalfIfEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UsesMacros(int x, int* out) {
  IUAD_ASSIGN_OR_RETURN(int half, HalfIfEven(x));
  IUAD_RETURN_NOT_OK(Status::OK());
  *out = half;
  return Status::OK();
}

TEST(ResultTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UsesMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  Status s = UsesMacros(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --------------------------- Strings ----------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a\t\tb", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrips) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "|"), "x|y|z");
  EXPECT_EQ(Join({}, "|"), "");
}

TEST(StringsTest, FormatAndPad) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(PadRight("7", 3), "7  ");
  EXPECT_EQ(PadRight("long", 2), "long");
}

// --------------------------- RNG --------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.UniformInt(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.Gaussian(2.0, 3.0);
  EXPECT_NEAR(Mean(xs), 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(Variance(xs)), 3.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(6);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.Exponential(4.0);
  EXPECT_NEAR(Mean(xs), 0.25, 0.02);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(11);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, WeightedIndexDegenerate) {
  Rng rng(12);
  std::vector<double> all_zero{0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(all_zero), -1);
  EXPECT_EQ(rng.WeightedIndex({}), -1);
}

TEST(ZipfSamplerTest, RankZeroMostFrequent) {
  Rng rng(13);
  ZipfSampler z(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(z.Sample(&rng))];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[5], counts[40]);
}

TEST(ZipfSamplerTest, MatchesInversionSampler) {
  Rng r1(14), r2(14);
  ZipfSampler z(20, 1.5);
  // Distributional check: mean rank should agree with Rng::Zipf (1-based).
  double m1 = 0.0, m2 = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) m1 += z.Sample(&r1) + 1;
  for (int i = 0; i < n; ++i) m2 += r2.Zipf(20, 1.5);
  EXPECT_NEAR(m1 / n, m2 / n, 0.25);
}

// --------------------------- Stats ------------------------------------------

TEST(StatsTest, MeanVariance) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Variance(xs), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PowerLawFitRecoversExponent) {
  // y = 1000 * x^-2.5 exactly.
  std::vector<double> x, y;
  for (int i = 1; i <= 60; ++i) {
    x.push_back(i);
    y.push_back(1000.0 * std::pow(i, -2.5));
  }
  auto fit = FitPowerLaw(x, y);
  EXPECT_NEAR(fit.slope, -2.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.used_points, 60);
}

TEST(StatsTest, PowerLawFitIgnoresNonPositivePoints) {
  std::vector<double> x{0, 1, 2, -3, 4};
  std::vector<double> y{5, 10, 5, 2, 2.5};
  auto fit = FitPowerLaw(x, y);
  EXPECT_EQ(fit.used_points, 3);
}

TEST(StatsTest, PowerLawFitDegenerate) {
  auto fit = FitPowerLaw(std::vector<double>{1.0}, std::vector<double>{2.0});
  EXPECT_EQ(fit.used_points, 1);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

TEST(StatsTest, FrequencyHistogram) {
  auto h = FrequencyHistogram({1, 1, 2, 5, 5, 5});
  EXPECT_EQ(h[1], 2);
  EXPECT_EQ(h[2], 1);
  EXPECT_EQ(h[5], 3);
  EXPECT_EQ(h.size(), 3u);
}

// --------------------------- Stopwatch --------------------------------------

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.Restart();
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

// --------------------------- TSV --------------------------------------------

TEST(TsvTest, ParseSkipsCommentsAndEmpties) {
  auto rows = ParseTsv("# header\na\tb\n\nc\td\te\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (TsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (TsvRow{"c", "d", "e"}));
}

TEST(TsvTest, ParseHandlesCrLf) {
  auto rows = ParseTsv("a\tb\r\nc\td\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (TsvRow{"c", "d"}));
}

TEST(TsvTest, RoundTripThroughFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "iuad_tsv_test.tsv").string();
  std::vector<TsvRow> rows{{"1", "x y", "z"}, {"2", "", "w"}};
  ASSERT_TRUE(WriteTsvFile(path, rows).ok());
  auto read = ReadTsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, rows);
  std::remove(path.c_str());
}

TEST(TsvTest, WriteRejectsTabsInFields) {
  auto s = WriteTsvFile("/tmp/iuad_tsv_bad.tsv", {{"a\tb"}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TsvTest, ReadMissingFileIsIoError) {
  auto r = ReadTsvFile("/nonexistent/dir/definitely_missing.tsv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ------------------------------ StringInterner -------------------------------

TEST(InternerTest, IdsAreDenseStableAndIdempotent) {
  util::StringInterner in;
  EXPECT_EQ(in.size(), 0);
  const util::NameId a = in.Intern("alice");
  const util::NameId b = in.Intern("bob");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(in.Intern("alice"), a);  // re-intern returns the same id
  EXPECT_EQ(in.size(), 2);
  EXPECT_EQ(in.View(a), "alice");
  EXPECT_EQ(in.View(b), "bob");
  EXPECT_EQ(in.Lookup("alice"), a);
  EXPECT_EQ(in.Lookup("carol"), util::kInvalidNameId);
}

TEST(InternerTest, ViewsStayValidAcrossArenaGrowth) {
  util::StringInterner in;
  const std::string_view first = in.View(in.Intern("pinned-first-entry"));
  const char* first_data = first.data();
  // Enough material to roll over several 64 KiB arena blocks.
  std::vector<util::NameId> ids;
  for (int i = 0; i < 20000; ++i) {
    ids.push_back(in.Intern("author-" + std::to_string(i)));
  }
  EXPECT_EQ(first.data(), first_data);  // the arena never relocates strings
  EXPECT_EQ(in.View(ids.front()), "author-0");
  EXPECT_EQ(in.View(ids.back()), "author-19999");
  EXPECT_EQ(in.size(), 20001);
  EXPECT_GT(in.MemoryBytes(), size_t{20000 * 8});
}

TEST(InternerTest, OversizedStringsDoNotDisturbTheArena) {
  util::StringInterner in;
  const util::NameId small_before = in.Intern("before");
  const std::string huge(3u << 16, 'x');  // 3 blocks worth, one string
  const util::NameId big = in.Intern(huge);
  const util::NameId small_after = in.Intern("after");
  EXPECT_EQ(in.View(big), huge);
  EXPECT_EQ(in.View(small_before), "before");
  EXPECT_EQ(in.View(small_after), "after");
  EXPECT_EQ(in.Lookup(huge), big);
}

TEST(InternerTest, DeepCopyPreservesIdsWithIndependentStorage) {
  util::StringInterner in;
  for (int i = 0; i < 100; ++i) in.Intern("name-" + std::to_string(i));
  util::StringInterner copy(in);
  ASSERT_EQ(copy.size(), in.size());
  for (util::NameId id = 0; id < in.size(); ++id) {
    EXPECT_EQ(copy.View(id), in.View(id));
    EXPECT_NE(copy.View(id).data(), in.View(id).data());  // own arena
  }
  // Divergence after the copy is independent.
  const util::NameId fresh = copy.Intern("only-in-copy");
  EXPECT_EQ(in.Lookup("only-in-copy"), util::kInvalidNameId);
  EXPECT_EQ(copy.View(fresh), "only-in-copy");
}

TEST(InternerTest, RandomizedRoundTripAgainstReferenceMap) {
  // Property: the interner behaves exactly like first-encounter-order
  // enumeration of distinct strings, for any interleaving of duplicates.
  iuad::Rng rng(1234);
  util::StringInterner in;
  std::unordered_map<std::string, util::NameId> expected;
  std::vector<std::string> order;
  for (int step = 0; step < 5000; ++step) {
    std::string s = "w" + std::to_string(rng.NextBounded(700));
    const util::NameId id = in.Intern(s);
    auto [it, fresh] = expected.emplace(s, id);
    if (fresh) {
      EXPECT_EQ(id, static_cast<util::NameId>(order.size()));
      order.push_back(s);
    } else {
      EXPECT_EQ(id, it->second);
    }
    EXPECT_EQ(in.Lookup(s), it->second);
    EXPECT_EQ(in.View(it->second), s);
  }
  ASSERT_EQ(in.size(), static_cast<int32_t>(order.size()));
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(in.View(static_cast<util::NameId>(i)), order[i]);
  }
}

TEST(MemoryTest, CurrentRssIsPositive) {
  // /proc/self/statm is always readable on Linux; the reading feeds the
  // `rss_mb` stats field, so a zero here would silently blind GetStats.
  EXPECT_GT(util::CurrentRssMb(), 0.0);
}

/// Pins the logging contract from util/logging.h: concurrent loggers emit
/// whole lines — every line in the sink matches the prefix grammar and
/// carries exactly one intact payload, never a sheared mix of two threads.
/// (The old fprintf path interleaved fragments under load.)
TEST(LoggingTest, ConcurrentLogLinesNeverShear) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "iuad_log_shear.txt").string();
  const int saved_stderr = ::dup(STDERR_FILENO);
  ASSERT_GE(saved_stderr, 0);
  const int sink =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(sink, 0);
  ASSERT_GE(::dup2(sink, STDERR_FILENO), 0);
  ::close(sink);

  constexpr int kThreads = 8;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        IUAD_LOG(kInfo) << "shear-probe thread=" << t << " line=" << i
                        << " padpadpadpadpadpadpadpadpadpadpadpad";
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_GE(::dup2(saved_stderr, STDERR_FILENO), 0);
  ::close(saved_stderr);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::regex line_re(
      R"(^\[I [0-9]+\.[0-9]{3} t[0-9]+ util_test\.cpp:[0-9]+\] )"
      R"(shear-probe thread=([0-9]+) line=([0-9]+) )"
      R"(padpadpadpadpadpadpadpadpadpadpadpad$)");
  std::set<std::pair<int, int>> seen;
  std::string line;
  int total = 0;
  while (std::getline(in, line)) {
    ++total;
    std::smatch m;
    ASSERT_TRUE(std::regex_match(line, m, line_re))
        << "sheared or malformed log line: " << line;
    seen.emplace(std::stoi(m[1]), std::stoi(m[2]));
  }
  EXPECT_EQ(total, kThreads * kLines);
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kLines));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace iuad
