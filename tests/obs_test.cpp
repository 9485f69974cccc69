/// obs::Histogram / Registry: the properties the observability layer
/// leans on — bucket boundaries bracket every recorded value, snapshot
/// merge is associative and commutative, percentile estimates are true
/// upper bounds tight to one bucket width, concurrent recording loses
/// nothing, and the text exposition stays scrape-parseable.

#include <gtest/gtest.h>

#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/json_reader.h"

namespace iuad::obs {

/// Reaches a ring slot's sequence word, to stage the states a writer
/// leaves behind mid-store or a lap later without racing a real thread.
class FlightRecorderTestPeer {
 public:
  static std::atomic<uint64_t>& SeqWord(FlightRecorder& r, int ring,
                                        uint64_t index) {
    FlightRecorder::Ring& rg = r.rings_[ring];
    const uint64_t cap = static_cast<uint64_t>(rg.capacity);
    return rg.words.load()[(index % cap) * FlightRecorder::kSlotWords];
  }
};

namespace {

TEST(HistogramTest, BucketBoundariesAreLogSpacedAndMonotone) {
  // 10^(i/8): 8 buckets per decade, so b[i+8] == 10 * b[i] exactly in
  // structure (up to float rounding) and the sequence is strictly rising.
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBoundUs(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBoundUs(8), 10.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBoundUs(16), 100.0);
  for (int i = 1; i < Histogram::kNumFiniteBounds; ++i) {
    EXPECT_GT(Histogram::BucketUpperBoundUs(i),
              Histogram::BucketUpperBoundUs(i - 1));
    EXPECT_NEAR(Histogram::BucketUpperBoundUs(i) /
                    Histogram::BucketUpperBoundUs(i - 1),
                std::pow(10.0, 1.0 / 8.0), 1e-12);
  }
}

TEST(HistogramTest, EveryValueLandsInItsBracketingBucket) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exp_dist(-1.0, 9.0);
  for (int trial = 0; trial < 2000; ++trial) {
    const double v = std::pow(10.0, exp_dist(rng));
    const int idx = Histogram::BucketIndexForUs(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kNumBuckets);
    if (idx < Histogram::kNumFiniteBounds) {
      EXPECT_LE(v, Histogram::BucketUpperBoundUs(idx));
    } else {
      EXPECT_GT(v, Histogram::BucketUpperBoundUs(Histogram::kNumFiniteBounds -
                                                 1));
    }
    if (idx > 0) EXPECT_GT(v, Histogram::BucketUpperBoundUs(idx - 1));
  }
  // Degenerate inputs clamp to the floor bucket instead of misindexing.
  EXPECT_EQ(Histogram::BucketIndexForUs(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndexForUs(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndexForUs(std::nan("")), 0);
}

HistogramSnapshot SnapOf(const std::vector<double>& values_us) {
  Histogram h;
  for (double v : values_us) h.RecordUs(v);
  return h.Snapshot("t");
}

TEST(HistogramTest, SnapshotCountEqualsBucketSumAndRecordings) {
  const auto snap = SnapOf({0.5, 3.0, 3.1, 47.0, 1e6, 9e9});
  EXPECT_EQ(snap.count, 6);
  int64_t bucket_sum = 0;
  int32_t prev = -1;
  for (const auto& [idx, c] : snap.buckets) {
    EXPECT_GT(idx, prev);  // strictly increasing sparse indices
    EXPECT_GT(c, 0);
    prev = idx;
    bucket_sum += c;
  }
  EXPECT_EQ(bucket_sum, snap.count);
  EXPECT_EQ(snap.max_ns, static_cast<int64_t>(9e9) * 1000);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> exp_dist(0.0, 8.0);
  auto random_snap = [&] {
    std::vector<double> vs;
    const int n = static_cast<int>(rng() % 40);
    for (int i = 0; i < n; ++i) vs.push_back(std::pow(10.0, exp_dist(rng)));
    return SnapOf(vs);
  };
  auto equal = [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
    return a.count == b.count && a.sum_ns == b.sum_ns &&
           a.max_ns == b.max_ns && a.buckets == b.buckets;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_snap(), b = random_snap(), c = random_snap();
    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
    auto left = a;
    left.Merge(b);
    left.Merge(c);
    auto bc = b;
    bc.Merge(c);
    auto right = a;
    right.Merge(bc);
    EXPECT_TRUE(equal(left, right));
    // a ⊕ b == b ⊕ a
    auto ab = a;
    ab.Merge(b);
    auto ba = b;
    ba.Merge(a);
    EXPECT_TRUE(equal(ab, ba));
  }
}

TEST(HistogramTest, MergedSnapshotEqualsSingleHistogramOfAllValues) {
  // Mergeability: shard-local histograms folded together must equal one
  // histogram that saw every value (the property the bench and any future
  // cross-process aggregation rely on).
  std::vector<double> a = {1.5, 80.0, 900.0}, b = {2.5, 80.0, 4e7};
  auto merged = SnapOf(a);
  merged.Merge(SnapOf(b));
  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  const auto direct = SnapOf(all);
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_EQ(merged.sum_ns, direct.sum_ns);
  EXPECT_EQ(merged.max_ns, direct.max_ns);
  EXPECT_EQ(merged.buckets, direct.buckets);
}

TEST(HistogramTest, PercentileIsAnUpperBoundTightToOneBucket) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> exp_dist(0.0, 7.0);
  constexpr double kBucketRatio = 1.3335214321633241;  // 10^(1/8)
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> vs;
    const int n = 1 + static_cast<int>(rng() % 200);
    for (int i = 0; i < n; ++i) vs.push_back(std::pow(10.0, exp_dist(rng)));
    const auto snap = SnapOf(vs);
    std::sort(vs.begin(), vs.end());
    for (double p : {50.0, 90.0, 95.0, 99.0, 100.0}) {
      const size_t rank = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(p / 100.0 * vs.size())));
      const double exact = vs[rank - 1];
      const double est = snap.PercentileUs(p);
      // Upper bound up to the max's nanosecond quantization (max_ns is an
      // int64 of nanoseconds, so the clamp can sit half an ns below).
      EXPECT_GE(est, exact - 1e-3) << "p" << p << " n=" << n;
      EXPECT_LE(est, exact * kBucketRatio + 1e-9) << "p" << p;  // tight
      EXPECT_LE(est, snap.MaxUs() + 1e-9);  // never past the observed max
    }
  }
}

TEST(HistogramTest, PercentileEdgeCases) {
  EXPECT_EQ(HistogramSnapshot{}.PercentileUs(99), 0.0);
  const auto one = SnapOf({42.0});
  EXPECT_DOUBLE_EQ(one.PercentileUs(50), 42.0);   // clamped to max
  EXPECT_DOUBLE_EQ(one.PercentileUs(100), 42.0);
  // Overflow-bucket values report the recorded max, not a boundary.
  const auto huge = SnapOf({9e9});
  EXPECT_DOUBLE_EQ(huge.PercentileUs(99), 9e9);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.RecordUs(static_cast<double>(1 + (t * kPerThread + i) % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.Snapshot("concurrent");
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.max_ns, 1000 * 1000);
  int64_t sum = 0;
  for (const auto& [idx, c] : snap.buckets) sum += c;
  EXPECT_EQ(sum, snap.count);
}

TEST(RegistryTest, InstrumentsAreStableAndSnapshotsSortByName) {
  Registry reg;
  Counter* c = reg.GetCounter("zulu_events");
  EXPECT_EQ(c, reg.GetCounter("zulu_events"));  // same name, same instrument
  reg.GetCounter("alpha_events")->Add(3);
  c->Add(2);
  reg.GetGauge("depth")->Set(7);
  reg.GetHistogram("lat_us")->RecordUs(10.0);
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha_events");
  EXPECT_EQ(snap.counters[0].value, 3);
  EXPECT_EQ(snap.counters[1].name, "zulu_events");
  EXPECT_EQ(snap.counters[1].value, 2);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat_us");
  EXPECT_EQ(snap.histograms[0].count, 1);
}

TEST(RegistryTest, ConcurrentGetAndRecordIsSafe) {
  Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 500; ++i) {
        reg.GetCounter("shared")->Increment();
        reg.GetHistogram("lat_us")->RecordUs(5.0);
        if (i % 50 == 0) (void)reg.Snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared")->Value(), 8 * 500);
  EXPECT_EQ(reg.GetHistogram("lat_us")->Snapshot().count, 8 * 500);
}

TEST(ExpositionTest, TextFormatCarriesTypesBucketsAndPercentiles) {
  Registry reg;
  reg.GetCounter("papers_applied")->Add(60);
  reg.GetGauge("queue_depth")->Set(4);
  Histogram* h = reg.GetHistogram("commit_latency_us");
  h->RecordUs(2.0);
  h->RecordUs(50.0);
  const std::string text = TextExposition(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE iuad_papers_applied counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("iuad_papers_applied 60\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iuad_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("iuad_queue_depth 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iuad_commit_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("iuad_commit_latency_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("iuad_commit_latency_us_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("iuad_commit_latency_us_max 50\n"), std::string::npos);
  EXPECT_NE(text.find("iuad_commit_latency_us_p99"), std::string::npos);
  // Cumulative bucket counts: the le lines must be non-decreasing.
  int64_t prev = -1;
  size_t pos = 0;
  while ((pos = text.find("_bucket{le=", pos)) != std::string::npos) {
    const size_t space = text.find("} ", pos);
    const size_t nl = text.find('\n', space);
    const int64_t v = std::stoll(text.substr(space + 2, nl - space - 2));
    EXPECT_GE(v, prev);
    prev = v;
    pos = nl;
  }
}

TEST(ExpositionTest, MetricsServerServesAScrape) {
  Registry reg;
  reg.GetCounter("papers_applied")->Add(3);
  MetricsServer server(&reg);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.bound_port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.bound_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("iuad_papers_applied 3\n"), std::string::npos);
  server.Shutdown();
}

TEST(ExpositionTest, ProcessBlockCarriesUptimeRssAndBuildInfo) {
  const std::string text = ProcessExposition();
  EXPECT_NE(text.find("# TYPE iuad_uptime_seconds gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("iuad_uptime_seconds "), std::string::npos);
  EXPECT_NE(text.find("# TYPE iuad_rss_mb gauge\n"), std::string::npos);
  EXPECT_NE(text.find("iuad_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("\",sanitizer=\""), std::string::npos);
  EXPECT_NE(text.find("\"} 1\n"), std::string::npos);
  // And the block rides along on every registry scrape.
  Registry reg;
  reg.GetCounter("anything")->Increment();
  const std::string scrape = TextExposition(reg.Snapshot());
  EXPECT_NE(scrape.find("iuad_build_info{"), std::string::npos);
  EXPECT_NE(scrape.find("iuad_rss_mb "), std::string::npos);
}

TEST(ExpositionTest, MetricsServerServesATracePath) {
  FlightRecorder::Instance().RecordAt(NowNs(), TraceEventId::kPaperSubmit, 7);
  Registry reg;
  MetricsServer server(&reg);
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.bound_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The request head arrives in two segments, split inside the path: the
  // server must read up to the blank line before it picks a surface.
  const std::string first = "GET /tr";
  const std::string rest = "ace HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, first.data(), first.size(), 0),
            static_cast<ssize_t>(first.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::send(fd, rest.data(), rest.size(), 0),
            static_cast<ssize_t>(rest.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  server.Shutdown();
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  const size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = resp.substr(body_at + 4);
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  auto parsed = util::ParseJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(FlightRecorderTest, RecordAtKeepsTheCallerStamp) {
  FlightRecorder r(64);
  r.RecordAt(123456789, TraceEventId::kPaperApply, 7, 1000);
  const auto events = r.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ns, 123456789);
  EXPECT_EQ(events[0].id, static_cast<uint16_t>(TraceEventId::kPaperApply));
  EXPECT_EQ(events[0].a0, 7u);
  EXPECT_EQ(events[0].a1, 1000u);
}

TEST(FlightRecorderTest, FullRingOverwritesOldestAndKeepsTheTail) {
  FlightRecorder r(64);
  for (uint64_t i = 0; i < 200; ++i) {
    r.RecordAt(NowNs(), TraceEventId::kPaperCommit, i, 5);
  }
  const auto events = r.Drain();
  ASSERT_EQ(events.size(), 64u);
  // The survivors are exactly the last 64 records, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a0, 200 - 64 + i) << i;
    EXPECT_EQ(events[i].id,
              static_cast<uint16_t>(TraceEventId::kPaperCommit));
  }
}

TEST(FlightRecorderTest, CapacityClampsToTheDocumentedFloor) {
  FlightRecorder r(1);  // clamped to 64
  for (uint64_t i = 0; i < 100; ++i) {
    r.RecordAt(NowNs(), TraceEventId::kPaperSubmit, i);
  }
  EXPECT_EQ(r.Drain().size(), 64u);
}

TEST(FlightRecorderTest, EachThreadGetsItsOwnRingAndNothingIsLost) {
  FlightRecorder r(128);
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        r.RecordAt(NowNs(), TraceEventId::kShardScatter,
                   static_cast<uint64_t>(t) * 10000 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto events = r.Drain();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * 128);
  // Group by ring (tid): each holds its writer's last 128 records with
  // strictly increasing payloads ending at i = 999.
  std::vector<std::vector<uint64_t>> by_tid(FlightRecorder::kMaxThreads);
  for (const TraceEvent& e : events) {
    ASSERT_LT(e.tid, FlightRecorder::kMaxThreads);
    by_tid[e.tid].push_back(e.a0);
  }
  int rings_seen = 0;
  for (const auto& ring : by_tid) {
    if (ring.empty()) continue;
    ++rings_seen;
    EXPECT_EQ(ring.size(), 128u);
    const uint64_t writer = ring.front() / 10000;
    for (size_t i = 0; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i], writer * 10000 + (kPerThread - 128 + i));
    }
  }
  EXPECT_EQ(rings_seen, kThreads);
  EXPECT_EQ(r.dropped(), 0);
}

TEST(FlightRecorderTest, DrainDuringRecordingNeverSurfacesTornEvents) {
  FlightRecorder r(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      r.RecordAt(NowNs(), TraceEventId::kPaperScatter, i, i * 3);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    for (const TraceEvent& e : r.Drain()) {
      // A torn slot would show a garbage id or mismatched args; the
      // drain-side overwrite guard must have discarded it instead.
      ASSERT_EQ(e.id, static_cast<uint16_t>(TraceEventId::kPaperScatter));
      ASSERT_EQ(e.a1, e.a0 * 3);
    }
  }
  stop = true;
  writer.join();
}

TEST(FlightRecorderTest, DrainDropsExactlyTheSlotWhoseSequenceIsNotFinished) {
  FlightRecorder r(64);
  for (uint64_t i = 0; i < 100; ++i) {
    r.RecordAt(NowNs(), TraceEventId::kPaperCommit, i, i * 3);
  }
  ASSERT_EQ(r.Drain().size(), 64u);
  // The ring holds indices 36..99; stage index 50 (a0 == 50).
  constexpr uint64_t kIndex = 50;
  std::atomic<uint64_t>& seq = FlightRecorderTestPeer::SeqWord(r, 0, kIndex);
  ASSERT_EQ(seq.load(), 2 * kIndex + 2);
  auto payloads = [&r] {
    std::vector<uint64_t> a0s;
    for (const TraceEvent& e : r.Drain()) a0s.push_back(e.a0);
    return a0s;
  };
  std::vector<uint64_t> all;
  for (uint64_t i = 36; i < 100; ++i) all.push_back(i);
  std::vector<uint64_t> without = all;
  without.erase(std::find(without.begin(), without.end(), kIndex));

  // A writer mid-store on this slot: odd sequence.
  seq.store(2 * kIndex + 1);
  EXPECT_EQ(payloads(), without);
  // The crash dump skips the odd slot too.
  std::FILE* dump = std::tmpfile();
  ASSERT_NE(dump, nullptr);
  r.CrashDump(::fileno(dump));
  std::rewind(dump);
  int lines = 0;
  bool saw_index = false;
  char line[256];
  while (std::fgets(line, sizeof(line), dump) != nullptr) {
    ++lines;
    if (std::strstr(line, " a0=50 ") != nullptr) saw_index = true;
  }
  std::fclose(dump);
  EXPECT_EQ(lines, 63);
  EXPECT_FALSE(saw_index);

  // A writer that has already rewritten the slot a lap later: even, but
  // not this index's sequence.
  seq.store(2 * (kIndex + 64) + 2);
  EXPECT_EQ(payloads(), without);

  seq.store(2 * kIndex + 2);
  EXPECT_EQ(payloads(), all);
}

TEST(FlightRecorderTest, ThreadSlotCacheSurvivesRecorderRecreation) {
  // The thread-local slot cache is keyed by a never-reused recorder id, so
  // a fresh recorder on the same thread re-claims cleanly.
  for (int lifetime = 0; lifetime < 3; ++lifetime) {
    FlightRecorder r(64);
    r.RecordAt(NowNs(), TraceEventId::kRefresh,
               static_cast<uint64_t>(lifetime));
    const auto events = r.Drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].a0, static_cast<uint64_t>(lifetime));
  }
}

TEST(ChromeTraceTest, SpansBecomeCompleteEventsAndInstantsStayInstant) {
  std::vector<TraceEvent> raw;
  raw.push_back({5'000'000, 3,
                 static_cast<uint16_t>(TraceEventId::kPaperCommit), 42,
                 2'000'000});
  raw.push_back({1'000'000, 0,
                 static_cast<uint16_t>(TraceEventId::kPaperSubmit), 42, 0});
  const auto events = ChromeTraceEvents(raw);
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the submit instant precedes the commit span.
  EXPECT_EQ(events[0].name, "submit");
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_EQ(events[0].ts_us, 1000);
  EXPECT_EQ(events[1].name, "paper");
  EXPECT_EQ(events[1].ph, 'X');
  EXPECT_EQ(events[1].ts_us, 3000);  // end - dur
  EXPECT_EQ(events[1].dur_us, 2000);
  EXPECT_EQ(events[1].tid, 3);
  EXPECT_EQ(events[1].a0, 42);
}

TEST(ChromeTraceTest, JsonDocumentIsWellFormedAndPerfettoShaped) {
  std::vector<TraceEvent> raw;
  for (uint64_t i = 0; i < 5; ++i) {
    raw.push_back({static_cast<int64_t>(1'000'000 * (i + 2)), 1,
                   static_cast<uint16_t>(i % 2 == 0
                                             ? TraceEventId::kPaperCommit
                                             : TraceEventId::kPaperDefer),
                   i, i % 2 == 0 ? 1'000'000 : i});
  }
  const std::string json = ChromeTraceJson(ChromeTraceEvents(raw));
  EXPECT_EQ(json.back(), '\n');
  auto parsed = util::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  ASSERT_EQ(parsed->members().size(), 1u);
  EXPECT_EQ(parsed->members()[0].first, "traceEvents");
  const auto& items = parsed->members()[0].second.items();
  ASSERT_EQ(items.size(), 5u);
  for (const auto& item : items) {
    ASSERT_TRUE(item.is_object());
    bool has_dur = false;
    std::string ph;
    for (const auto& [key, value] : item.members()) {
      if (key == "dur") has_dur = true;
      if (key == "ph") ph = value.as_string();
      if (key == "pid") EXPECT_EQ(value.as_int(), 1);
    }
    EXPECT_EQ(has_dur, ph == "X");  // "dur" present exactly on spans
  }
}

TEST(ExemplarTableTest, KeepsTheTopKByTotalWithSeqTieBreak) {
  ExemplarTable table(3);
  const int64_t totals[] = {10, 50, 30, 50, 20};
  for (int i = 0; i < 5; ++i) {
    SlowCommitExemplar e;
    e.seq = i + 1;
    e.total_ns = totals[i];
    e.stages.push_back({"apply", totals[i]});
    table.Offer(std::move(e));
  }
  const auto kept = table.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].seq, 2);  // 50ns, earlier seq wins the tie
  EXPECT_EQ(kept[1].seq, 4);  // 50ns
  EXPECT_EQ(kept[2].seq, 3);  // 30ns
  ASSERT_EQ(kept[0].stages.size(), 1u);
  EXPECT_EQ(kept[0].stages[0].name, "apply");
}

/// Post-mortem path, end to end: a forked child arms the crash handler,
/// records real events, then dies of SIGSEGV — the parent asserts the
/// `.crash` dump is complete and well-formed. Sanitizers install their
/// own fatal-signal machinery, so the test only runs on plain builds.
TEST(CrashDumpTest, ForkedChildWritesAWellFormedDumpOnSigsegv) {
  if (std::string(util::BuildSanitizer()) != "none") {
    GTEST_SKIP() << "sanitizer runtime owns the fatal-signal handlers";
  }
  const std::string path =
      ::testing::TempDir() + "iuad_crash_test_" +
      std::to_string(::getpid()) + ".crash";
  std::remove(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    InstallCrashHandler(path);
    FlightRecorder& r = FlightRecorder::Instance();
    r.RecordAt(NowNs(), TraceEventId::kPaperSubmit, 7);
    r.RecordAt(obs::NowNs(), TraceEventId::kPaperCommit, 7, 1234);
    ExemplarTable table(4);
    SlowCommitExemplar e;
    e.seq = 7;
    e.total_ns = 1234;
    e.stages.push_back({"apply", 1234});
    e.deferrals.push_back({"A. Name", 6});
    table.Offer(std::move(e));
    std::raise(SIGSEGV);
    ::_exit(0);  // unreachable: the handler re-raises after dumping
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no crash dump at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("iuad crash dump signal=" +
                      std::to_string(SIGSEGV)),
            std::string::npos);
  EXPECT_NE(dump.find("name=submit"), std::string::npos);
  EXPECT_NE(dump.find("name=paper"), std::string::npos);
  EXPECT_NE(dump.find("a1=1234"), std::string::npos);
  EXPECT_NE(dump.find("slow-commit exemplars"), std::string::npos);
  EXPECT_NE(dump.find("exemplar seq=7 total_ns=1234"), std::string::npos);
  EXPECT_NE(dump.find("deferred:A. Name<-seq=6"), std::string::npos);
  EXPECT_NE(dump.find("end of crash dump"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iuad::obs
