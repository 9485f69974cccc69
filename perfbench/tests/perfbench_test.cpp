/// Tests of the benchmark's own arithmetic: nearest-rank percentiles, the
/// ten-samples-beyond rule, +inf failures, open-loop lateness, the
/// assignment digest (score bits included) and the span log. Dependency
/// free: prints each failed check and exits non-zero.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "measure.h"
#include "spans.h"

using namespace iuad::perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestNearestRank() {
  CHECK(NearestRank(0, 50) == 0);
  CHECK(NearestRank(1, 50) == 1);
  CHECK(NearestRank(1, 99) == 1);
  CHECK(NearestRank(2, 50) == 1);
  CHECK(NearestRank(3, 50) == 2);
  CHECK(NearestRank(100, 99) == 99);
  CHECK(NearestRank(1000, 99) == 990);
  // 99.9 is not exact in binary; the rank must not round up past 999.
  CHECK(NearestRank(1000, 99.9) == 999);
  CHECK(NearestRank(10, 100) == 10);
}

void TestPercentile() {
  CHECK(Percentile({}, 50) == 0.0);
  CHECK(Percentile({7.0}, 50) == 7.0);
  CHECK(Percentile({7.0}, 99) == 7.0);
  CHECK(Percentile({3.0, 1.0}, 50) == 1.0);
  CHECK(Percentile({3.0, 1.0}, 99) == 3.0);
  CHECK(Percentile(OneTo(100), 50) == 50.0);
  CHECK(Percentile(OneTo(100), 99) == 99.0);
  CHECK(Percentile(OneTo(1000), 99) == 990.0);
}

void TestFailuresSortLast() {
  std::vector<double> v = OneTo(100);
  v[0] = kFailedSample;  // one refused request among 100
  CHECK(Percentile(v, 99) == 99.0);
  CHECK(std::isinf(Percentile(v, 100)));
  v[1] = kFailedSample;  // two: the 99th percentile now misses its limit
  CHECK(std::isinf(Percentile(v, 99)));
  CHECK(Percentile(v, 50) == 50.0);
}

void TestSamplesBeyond() {
  // p99 needs 1000 samples to leave ten beyond it, p50 needs 20.
  CHECK(SamplesBeyond(1000, 99) >= kMinSamplesBeyond);
  CHECK(SamplesBeyond(999, 99) < kMinSamplesBeyond);
  CHECK(SamplesBeyond(20, 50) >= kMinSamplesBeyond);
  CHECK(SamplesBeyond(19, 50) < kMinSamplesBeyond);
  CHECK(SamplesBeyond(10000, 99.9) == 10);
  CHECK(SamplesBeyond(0, 99) == 0);
  CHECK(SamplesBeyond(1, 99) == 0);
}

void TestMedian() {
  CHECK(Median({}) == 0.0);
  CHECK(Median({4.0}) == 4.0);
  CHECK(Median({4.0, 2.0}) == 3.0);
  CHECK(Median({5.0, 1.0, 3.0}) == 3.0);
}

void TestOpenLoop() {
  const int64_t start = 1'000'000'000;
  CHECK(DueNs(start, 0, 100.0) == start);
  CHECK(DueNs(start, 1, 100.0) == start + 10'000'000);
  CHECK(DueNs(start, 250, 100.0) == start + 2'500'000'000);
  CHECK(DueNs(start, 3, 3.0) == start + 1'000'000'000);
  // A generator stalled for 55 ms at 100/s sends requests 1..5 late; their
  // due times do not move, so the stall is charged to each of them.
  const int64_t stall_end = start + 55'000'000;
  for (int64_t i = 1; i <= 5; ++i) {
    const int64_t due = DueNs(start, i, 100.0);
    CHECK(LatenessNs(due, stall_end) == stall_end - due);
    CHECK(LatencyFromDueMs(due, stall_end + 1'000'000) ==
          static_cast<double>(stall_end + 1'000'000 - due) / 1e6);
  }
  CHECK(LatenessNs(DueNs(start, 6, 100.0), stall_end) == 0);
  CHECK(LatencyFromDueMs(start, start + 2'500'000) == 2.5);
}

iuad::core::IncrementalAssignment Assignment(const std::string& name,
                                             int vertex, double score) {
  iuad::core::IncrementalAssignment a;
  a.name = name;
  a.vertex = vertex;
  a.best_score = score;
  a.num_candidates = 3;
  return a;
}

void TestDigest() {
  const std::vector<iuad::core::IncrementalAssignment> base = {
      Assignment("Ada Lovelace", 4, 1.25), Assignment("Alan Turing", 9, -2.5)};
  const uint64_t d = AssignmentDigest(base);
  CHECK(d == AssignmentDigest(base));

  auto changed = base;
  changed[0].best_score = std::nextafter(1.25, 2.0);  // one ulp
  CHECK(AssignmentDigest(changed) != d);
  changed = base;
  changed[0].best_score = 0.0;
  auto negative_zero = base;
  negative_zero[0].best_score = -0.0;  // equal as doubles, not as bits
  CHECK(AssignmentDigest(changed) != AssignmentDigest(negative_zero));
  changed = base;
  changed[0].vertex = 5;
  CHECK(AssignmentDigest(changed) != d);
  changed = base;
  changed[0].created_new = true;
  CHECK(AssignmentDigest(changed) != d);
  changed = base;
  changed[0].num_candidates = 4;
  CHECK(AssignmentDigest(changed) != d);
  changed = base;
  changed[0].name = "Ada Lovelac";
  CHECK(AssignmentDigest(changed) != d);
  changed = {base[1], base[0]};  // order matters
  CHECK(AssignmentDigest(changed) != d);
  changed = base;
  changed[1].best_score = -std::numeric_limits<double>::infinity();
  CHECK(AssignmentDigest(changed) != d);
  CHECK(AssignmentDigest(changed) == AssignmentDigest(changed));

  CHECK(CountMismatches({1, 2, 3}, {1, 2, 3}) == 0);
  CHECK(CountMismatches({1, 2, 3}, {1, 5, 3}) == 1);
  CHECK(CountMismatches({1, 2, 3}, {1, 2}) == 1);
  CHECK(CountMismatches({}, {7}) == 1);
}

void TestSpans() {
  SpanLog log(3);
  {
    ScopedSpan outer(&log, "outer", 7);
    log.Add("inner", 100, 350, 7);
    ScopedSpan nested(&log, "nested");
  }
  ScopedSpan untraced(nullptr, "ignored");  // no log: records nothing
  const auto& spans = log.spans();
  CHECK(spans.size() == 3);
  CHECK(std::string(spans[0].name) == "outer");
  CHECK(spans[0].parent == -1);
  CHECK(spans[0].id == 7);
  CHECK(spans[0].end_ns >= spans[0].start_ns);
  CHECK(spans[1].parent == 0);
  CHECK(spans[2].parent == 0);
  const std::vector<const SpanLog*> logs = {&log};
  CHECK(SpanSeconds(logs, "inner").size() == 1);
  CHECK(SpanSeconds(logs, "inner")[0] == 250e-9);
  CHECK(TotalSpanSeconds(logs, "missing") == 0.0);
  const std::string json = ChromeTraceJson(logs, 0);
  CHECK(json.rfind("{\"traceEvents\":[", 0) == 0);
  CHECK(json.find("\"name\":\"inner\",\"ph\":\"X\",\"ts\":0.100,"
                  "\"dur\":0.250,\"pid\":1,\"tid\":3,"
                  "\"args\":{\"id\":7,\"parent\":\"outer\"}") !=
        std::string::npos);
}

}  // namespace

int main() {
  TestNearestRank();
  TestPercentile();
  TestFailuresSortLast();
  TestSamplesBeyond();
  TestMedian();
  TestOpenLoop();
  TestDigest();
  TestSpans();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
