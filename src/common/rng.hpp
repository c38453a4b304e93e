// Deterministic random number generation.
//
// PCG32 (O'Neill 2014): small state, excellent statistical quality, and —
// unlike std::mt19937 across standard libraries — a fully pinned-down output
// sequence, so every experiment in this repo is reproducible bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace cstf {

class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    nextU32();
    state_ += seed;
    nextU32();
  }

  /// Next uniformly distributed 32-bit value.
  std::uint32_t nextU32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  std::uint64_t nextU64() {
    return (static_cast<std::uint64_t>(nextU32()) << 32) | nextU32();
  }

  /// Uniform in [0, bound) without modulo bias.
  std::uint32_t nextBounded(std::uint32_t bound) {
    CSTF_ASSERT(bound > 0, "nextBounded requires bound > 0");
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = nextU32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1) with full 53-bit mantissa resolution.
  double nextDouble() {
    return static_cast<double>(nextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double nextDouble(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform double in [0, 1) from a single 32-bit draw (2^-32 resolution).
  double uniform01() {
    return static_cast<double>(nextU32()) * (1.0 / 4294967296.0);
  }

  /// Standard normal via Box-Muller.
  double nextGaussian() {
    if (haveSpare_) {
      haveSpare_ = false;
      return spare_;
    }
    double u;
    double v;
    double s;
    do {
      u = 2.0 * uniform01() - 1.0;
      v = 2.0 * uniform01() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    haveSpare_ = true;
    return u * m;
  }

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  bool haveSpare_ = false;
  double spare_ = 0.0;
};

/// Samples from a Zipf(s) distribution over {0, .., n-1} using the cumulative
/// inverse method with a precomputed table. Used to generate realistically
/// skewed tensor modes (user/tag popularity in delicious, noun frequency in
/// NELL follow heavy-tailed distributions).
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : cdf_(n) {
    CSTF_CHECK(n > 0, "ZipfSampler needs a nonempty domain");
    double acc = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (auto& c : cdf_) c /= acc;
  }

  std::uint32_t sample(Pcg32& rng) const {
    const double u = rng.uniform01();
    // Binary search for the first cdf entry >= u.
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::uint32_t>(lo);
  }

 private:
  std::vector<double> cdf_;
};

/// SplitMix64 finalizer; also the recommended way to mix structured integer
/// keys before hash partitioning (libstdc++'s std::hash<uint32_t> is the
/// identity, which would send contiguous tensor indices to a handful of
/// partitions).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace cstf
