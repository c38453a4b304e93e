// Log-linear latency histogram (HDR-histogram style, fixed memory).
//
// Values land in one of 16 linear sub-buckets per power of two, so any
// quantile is answered with bounded relative error (~3%) from a ~9 KB
// bucket array — no sample retention, O(1) record, mergeable. min/max/sum
// are tracked exactly, and quantiles are clamped into [min, max] so p0/p100
// are exact. The serving layer reports request latencies and batch sizes
// through this; anything that needs p50/p95/p99/max over an unbounded
// stream can reuse it.
//
// Not thread-safe: callers serialize access or keep one per thread and
// merge(); concurrent recorders use metrics::AtomicHistogram and snapshot
// into this type.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cstf {

class Histogram {
 public:
  /// Linear sub-buckets per power of two; bounds relative quantile error
  /// by ~1/(2*kSub).
  static constexpr int kSub = 16;
  /// Smallest/largest distinguished magnitudes: 2^-20 (~1e-6) to 2^50
  /// (~1e15). Values outside clamp into the edge buckets; min/max stay
  /// exact regardless.
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 50;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSub + 1;

  void record(double v) {
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    ++buckets_[bucketOf(v)];
  }

  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0, 1] (0 when empty). Approximate within the
  /// bucket resolution, exact at the extremes.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(count_))));
    // The extreme ranks are tracked exactly; don't answer them from a
    // bucket midpoint.
    if (target <= 1) return min_;
    if (target >= count_) return max_;
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      acc += buckets_[b];
      if (acc >= target) {
        return std::clamp(representative(b), min_, max_);
      }
    }
    return max_;
  }

  void merge(const Histogram& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      min_ = o.min_;
      max_ = o.max_;
    } else {
      min_ = std::min(min_, o.min_);
      max_ = std::max(max_, o.max_);
    }
    count_ += o.count_;
    sum_ += o.sum_;
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
  }

  void reset() { *this = Histogram(); }

  /// Rebuild a histogram from externally tracked parts — the bucket array
  /// must use this class's layout (see bucketOf). Lets lock-free variants
  /// (metrics_registry's AtomicHistogram) snapshot into a plain Histogram
  /// for quantile queries and merging.
  static Histogram fromParts(std::uint64_t count, double min, double max,
                             double sum,
                             const std::array<std::uint64_t, kBuckets>& b) {
    Histogram h;
    h.count_ = count;
    h.min_ = count ? min : 0.0;
    h.max_ = count ? max : 0.0;
    h.sum_ = sum;
    h.buckets_ = b;
    return h;
  }

  /// Bucket index for value v under this class's log-linear layout.
  /// Public so lock-free recorders can share the layout.
  static std::size_t bucketOf(double v) {
    if (!(v > 0.0)) return 0;  // <= 0 and NaN collapse into bucket 0
    int exp = 0;
    const double frac = std::frexp(v, &exp);  // frac in [0.5, 1)
    if (exp <= kMinExp) return 0;
    if (exp > kMaxExp) exp = kMaxExp;
    auto sub = static_cast<std::size_t>((frac - 0.5) * (2 * kSub));
    sub = std::min<std::size_t>(sub, kSub - 1);
    return static_cast<std::size_t>(exp - kMinExp - 1) * kSub + sub + 1;
  }

 private:
  /// Midpoint of bucket b's value range.
  static double representative(std::size_t b) {
    if (b == 0) return 0.0;  // clamped to min_ by quantile()
    const auto exp = static_cast<int>((b - 1) / kSub) + kMinExp + 1;
    const auto sub = static_cast<double>((b - 1) % kSub);
    return std::ldexp(0.5 + (sub + 0.5) * 0.5 / kSub, exp);
  }

  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Sliding-window histogram: a ring of epoch histograms. record() lands in
/// the current epoch; rotate() advances the ring, discarding the oldest
/// epoch; merged() answers quantiles over the whole window. The SLO
/// watchdog rotates once per check interval, so the window covers the last
/// `epochs` intervals of traffic rather than the process lifetime — a p99
/// that recovers when the overload stops.
///
/// Not thread-safe, like Histogram: callers serialize access.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(std::size_t epochs = 8)
      : ring_(std::max<std::size_t>(1, epochs)) {}

  std::size_t epochs() const { return ring_.size(); }

  void record(double v) { ring_[cur_].record(v); }

  /// Advance to the next epoch, dropping the one it replaces (which may be
  /// empty — rotating an idle window is a no-op in content terms).
  void rotate() {
    cur_ = (cur_ + 1) % ring_.size();
    ring_[cur_].reset();
  }

  /// Merge of every live epoch (empty epochs contribute nothing). An
  /// all-empty window yields an empty histogram: count() == 0, quantiles 0.
  Histogram merged() const {
    Histogram out;
    for (const Histogram& h : ring_) out.merge(h);
    return out;
  }

  /// Records currently in the window.
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const Histogram& h : ring_) n += h.count();
    return n;
  }

  void reset() {
    for (Histogram& h : ring_) h.reset();
    cur_ = 0;
  }

 private:
  std::vector<Histogram> ring_;
  std::size_t cur_ = 0;
};

}  // namespace cstf
