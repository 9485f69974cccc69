#ifndef IUAD_OBS_METRICS_H_
#define IUAD_OBS_METRICS_H_

/// \file metrics.h
/// Live metrics for the serving stack: relaxed-atomic counters and gauges
/// plus fixed-boundary log-bucketed latency histograms, collected in a
/// name-keyed Registry that every serve::Frontend owns (see
/// Frontend::Metrics()).
///
/// Concurrency contract. Counter/Gauge/Histogram recording is a handful of
/// relaxed atomic RMWs — wait-free, no locks, safe from any thread. The
/// one exception is the histogram max ratchet, a compare-exchange loop
/// that only retries when another thread has just raised the max
/// (lock-free; retries are bounded by the number of concurrent
/// increases). Registry lookups take a mutex but hand back stable
/// pointers: hot paths resolve their instruments once at construction and
/// never touch the registry again.
///
/// Determinism contract (DESIGN.md §7). Nothing here feeds back into
/// disambiguation: instruments are written, snapshotted, and exported,
/// never read on a decision path. Assignments are byte-identical with
/// metrics enabled or disabled; IuadConfig::metrics_enabled gates only
/// the clock reads at the recording call sites, not the registry itself,
/// so counters and the stats surface stay live even when timing is off.
///
/// Histogram shape. 64 buckets over microseconds with log-spaced upper
/// boundaries 10^(i/8) µs (8 buckets per decade, ~1 µs .. ~56 s; the last
/// bucket catches everything above). Snapshots carry raw bucket counts —
/// exact, mergeable by element-wise addition (associative and
/// commutative) — and derive `count` as the bucket sum, so a snapshot
/// taken mid-recording is still internally consistent. PercentileUs
/// returns the upper boundary of the nearest-rank bucket clamped to the
/// recorded max: an upper bound on the true percentile, tight to one
/// bucket width (a factor of 10^(1/8) ≈ 1.33).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace iuad::obs {

/// Monotonic nanoseconds for span stamps (steady_clock; no epoch meaning).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonically increasing event count. Wait-free.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Instantaneous level (queue depth, open connections). Wait-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time copy of one histogram, in raw mergeable form: sparse
/// (bucket index, count) pairs with exact int64 sums. This is also the
/// wire form of the GetMetrics payload (api/codec.cpp), so everything
/// here must round-trip exactly — percentiles are derived at display
/// time, never carried.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;    ///< Total recordings == sum of bucket counts.
  int64_t sum_ns = 0;   ///< Sum of recorded values, nanoseconds.
  int64_t max_ns = 0;   ///< Largest recorded value, nanoseconds.
  /// Non-empty buckets as (index, count), strictly increasing indices in
  /// [0, Histogram::kNumBuckets).
  std::vector<std::pair<int32_t, int64_t>> buckets;

  /// Element-wise accumulation (counts add, max takes the larger).
  void Merge(const HistogramSnapshot& other);

  /// Upper bound on the p-th percentile (p in [0,100]), microseconds:
  /// the nearest-rank bucket's upper boundary, clamped to the recorded
  /// max. 0 when empty.
  double PercentileUs(double p) const;

  double MaxUs() const { return static_cast<double>(max_ns) / 1000.0; }
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) / 1000.0 /
                                  static_cast<double>(count);
  }
};

/// Lock-free log-bucketed latency histogram. See file comment for the
/// bucket layout and the consistency guarantees of Snapshot().
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr int kNumFiniteBounds = kNumBuckets - 1;

  /// Upper boundary of bucket i in microseconds, 10^(i/8), for
  /// i < kNumFiniteBounds. The last bucket is unbounded.
  static double BucketUpperBoundUs(int i);

  /// Bucket index recording `micros` lands in (NaN/negative clamp to 0).
  static int BucketIndexForUs(double micros);

  void RecordUs(double micros);
  void RecordNs(int64_t ns) {
    RecordUs(static_cast<double>(ns) / 1000.0);
  }

  HistogramSnapshot Snapshot(std::string name = "") const;

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> sum_ns_{0};
  std::atomic<int64_t> max_ns_{0};
};

struct CounterSample {
  std::string name;
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  int64_t value = 0;
};

/// Full-registry snapshot, each section sorted by name (the registry maps
/// are ordered) — the canonical ordering the codec and the text
/// exposition both rely on.
struct RegistrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Name-keyed instrument owner. Get* creates on first use and returns a
/// pointer stable for the registry's lifetime; callers cache it and
/// record lock-free thereafter. Names should be lowercase snake_case
/// ([a-z0-9_]) so the Prometheus exposition can use them verbatim.
class Registry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace iuad::obs

#endif  // IUAD_OBS_METRICS_H_
