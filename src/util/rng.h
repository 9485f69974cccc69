#ifndef IUAD_UTIL_RNG_H_
#define IUAD_UTIL_RNG_H_

/// \file rng.h
/// Deterministic, seedable random number generation. Every randomized
/// component in the library takes an explicit seed so experiments are
/// reproducible run-to-run; std::mt19937 is avoided because its stream is
/// not guaranteed identical across standard library implementations.

#include <cmath>
#include <cstdint>
#include <vector>

namespace iuad {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
inline uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives an independent seed for stream `stream` of a sharded computation
/// from a master `seed`. Distinct streams get decorrelated generator states
/// (two SplitMix64 scrambles), and the mapping depends only on the pair
/// (seed, stream) — never on thread count or scheduling — so sharded
/// consumers stay deterministic at any parallelism.
inline uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  const uint64_t a = SplitMix64Next(&s);
  return a ^ SplitMix64Next(&s);
}

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
/// Deterministic across platforms for a given seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x6a09e667f3bcc908ULL) { Seed(seed); }

  /// Re-seeds the generator; the full state is derived via SplitMix64.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64Next(&sm);
  }

  /// Next raw 64 bits.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t NextBounded(uint64_t n) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = (0 - n) % n;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Standard normal via Box-Muller (polar form avoided for determinism
  /// simplicity; tails are adequate for our simulation use).
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    // Draw u in (0,1] to avoid log(0).
    double u = 1.0 - UniformDouble();
    double v = UniformDouble();
    double z = std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
    return mean + stddev * z;
  }

  /// Exponential with rate lambda (> 0).
  double Exponential(double lambda) {
    double u = 1.0 - UniformDouble();
    return -std::log(u) / lambda;
  }

  /// Poisson via inversion for small means, normal approximation for large.
  int Poisson(double mean) {
    if (mean <= 0) return 0;
    if (mean > 64.0) {
      int k = static_cast<int>(std::lround(Gaussian(mean, std::sqrt(mean))));
      return k < 0 ? 0 : k;
    }
    double l = std::exp(-mean);
    double p = 1.0;
    int k = 0;
    do {
      ++k;
      p *= UniformDouble();
    } while (p > l);
    return k - 1;
  }

  /// Zipf-distributed integer in [1, n] with exponent s (> 0), by inversion
  /// over precomputed cumulative weights is O(n); for repeated sampling use
  /// ZipfSampler below. This method is the simple one-shot fallback.
  int Zipf(int n, double s) {
    double total = 0.0;
    for (int i = 1; i <= n; ++i) total += std::pow(i, -s);
    double u = UniformDouble() * total;
    double acc = 0.0;
    for (int i = 1; i <= n; ++i) {
      acc += std::pow(i, -s);
      if (u <= acc) return i;
    }
    return n;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// O(log n)-per-draw Zipf sampler over ranks [0, n) with exponent s, using a
/// precomputed CDF. Intended for the synthetic corpus generator where many
/// draws share one distribution.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) : cdf_(static_cast<size_t>(n)) {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += std::pow(i + 1, -s);
      cdf_[static_cast<size_t>(i)] = acc;
    }
    total_ = acc;
  }

  /// Draws a rank in [0, n); rank 0 is the most probable.
  int Sample(Rng* rng) const {
    double u = rng->UniformDouble() * total_;
    size_t lo = 0, hi = cdf_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int>(lo < cdf_.size() ? lo : cdf_.size() - 1);
  }

  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace iuad

#endif  // IUAD_UTIL_RNG_H_
