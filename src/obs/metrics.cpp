#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace iuad::obs {

namespace {

/// Precomputed upper boundaries, 10^(i/8) µs. Computed once at first use;
/// the recording path only ever binary-searches this immutable array.
const std::array<double, Histogram::kNumFiniteBounds>& Bounds() {
  static const auto bounds = [] {
    std::array<double, Histogram::kNumFiniteBounds> b{};
    for (int i = 0; i < Histogram::kNumFiniteBounds; ++i) {
      b[static_cast<size_t>(i)] = std::pow(10.0, i / 8.0);
    }
    return b;
  }();
  return bounds;
}

}  // namespace

double Histogram::BucketUpperBoundUs(int i) {
  return Bounds()[static_cast<size_t>(i)];
}

int Histogram::BucketIndexForUs(double micros) {
  if (!(micros > 0.0)) return 0;  // negatives and NaN clamp to the floor
  const auto& bounds = Bounds();
  return static_cast<int>(
      std::lower_bound(bounds.begin(), bounds.end(), micros) - bounds.begin());
}

void Histogram::RecordUs(double micros) {
  if (!(micros >= 0.0)) micros = 0.0;
  const int idx = BucketIndexForUs(micros);
  const int64_t ns = std::llround(micros * 1000.0);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  // Max ratchet: retry only while another thread raised it underneath us.
  int64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot(std::string name) const {
  HistogramSnapshot snap;
  snap.name = std::move(name);
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    snap.buckets.emplace_back(i, c);
    snap.count += c;  // derived from the buckets read, so always consistent
  }
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  return snap;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  std::vector<std::pair<int32_t, int64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t a = 0, b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
  count += other.count;
  sum_ns += other.sum_ns;
  max_ns = std::max(max_ns, other.max_ns);
}

double HistogramSnapshot::PercentileUs(double p) const {
  if (count <= 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: the smallest rank covering fraction p of recordings.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * count)));
  int64_t seen = 0;
  for (const auto& [idx, c] : buckets) {
    seen += c;
    if (seen >= rank) {
      if (idx >= Histogram::kNumFiniteBounds) return MaxUs();
      return std::min(Histogram::BucketUpperBoundUs(idx), MaxUs());
    }
  }
  return MaxUs();
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

RegistrySnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(h->Snapshot(name));
  }
  return snap;
}

}  // namespace iuad::obs
