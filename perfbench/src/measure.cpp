#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace iuad::perfbench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps decimal percentiles such as 99.9 from rounding up a
  // whole rank through binary representation error.
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

int64_t DueNs(int64_t start_ns, int64_t i, double rate_per_s) {
  return start_ns +
         static_cast<int64_t>(std::llround(static_cast<double>(i) * 1e9 /
                                           rate_per_s));
}

int64_t LatenessNs(int64_t due_ns, int64_t sent_ns) {
  return std::max<int64_t>(0, sent_ns - due_ns);
}

double LatencyFromDueMs(int64_t due_ns, int64_t completed_ns) {
  return static_cast<double>(completed_ns - due_ns) / 1e6;
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= kFnvPrime;
  }
}

template <typename T>
void MixValue(uint64_t* h, T value) {
  Mix(h, &value, sizeof(value));
}

}  // namespace

uint64_t AssignmentDigest(const std::vector<core::IncrementalAssignment>& as) {
  uint64_t h = kFnvOffset;
  MixValue<uint64_t>(&h, as.size());
  for (const auto& a : as) {
    MixValue<uint64_t>(&h, a.name.size());
    Mix(&h, a.name.data(), a.name.size());
    MixValue<int64_t>(&h, a.vertex);
    MixValue<uint8_t>(&h, a.created_new ? 1 : 0);
    MixValue<int64_t>(&h, a.num_candidates);
    uint64_t score_bits = 0;
    static_assert(sizeof(score_bits) == sizeof(a.best_score));
    std::memcpy(&score_bits, &a.best_score, sizeof(score_bits));
    MixValue<uint64_t>(&h, score_bits);
  }
  return h;
}

int64_t CountMismatches(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
  const size_t common = std::min(a.size(), b.size());
  int64_t mismatches = static_cast<int64_t>(std::max(a.size(), b.size()) -
                                            common);
  for (size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  return mismatches;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace iuad::perfbench
