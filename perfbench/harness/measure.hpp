// Measurement helpers shared by the benchmark workloads: order statistics,
// the tail-percentile rule, and the exclusive ("self") time ledger over
// trace spans. Header-only and free of cstf dependencies, so the unit tests
// can exercise them in isolation.
#pragma once

#include <algorithm>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds this process has consumed, all threads. Under a hypervisor
/// that reports steal time this excludes it, which makes CPU cost per
/// operation far steadier than wall time on a shared host.
inline double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, std::size_t(rank) - 1);
  return v[idx];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

struct Tail {
  double pct = 0.0;
  double value = 0.0;
  /// Samples strictly above the percentile's rank.
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// The highest percentile of {99, 95, 90, 75, 50} that leaves at least
/// `minBeyond` samples beyond its rank; falls back to the median when the
/// sample is too small for any of them.
inline Tail tailPercentile(const std::vector<double>& v,
                           std::size_t minBeyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    const std::size_t beyond = v.size() - std::max<std::size_t>(rank, 1);
    if (beyond >= minBeyond || p == 50.0) {
      t.pct = p;
      t.value = percentile(v, p);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

/// One closed interval of a trace, on one thread.
struct Span {
  std::string name;
  std::string category;
  std::uint32_t tid = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Exclusive time per span: every instant of a thread's timeline belongs to
/// the innermost span covering it — the open span that started last (on a
/// tie, the one that ends first). A parent's self time is therefore its
/// duration minus the union of what its children cover, and spans that
/// overlap without nesting split the shared interval instead of both
/// claiming it. Self times on one thread sum to the union of its spans.
inline std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  std::map<std::uint32_t, std::vector<std::size_t>> byThread;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end > spans[i].start) byThread[spans[i].tid].push_back(i);
  }
  for (const auto& [tid, ids] : byThread) {
    std::vector<double> cuts;
    cuts.reserve(2 * ids.size());
    for (const std::size_t i : ids) {
      cuts.push_back(spans[i].start);
      cuts.push_back(spans[i].end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<std::size_t> order = ids;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start < spans[b].start;
    });
    std::vector<std::size_t> open;
    std::size_t next = 0;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const double lo = cuts[c];
      const double hi = cuts[c + 1];
      while (next < order.size() && spans[order[next]].start <= lo) {
        open.push_back(order[next++]);
      }
      std::erase_if(open, [&](std::size_t i) { return spans[i].end <= lo; });
      if (open.empty()) continue;
      std::size_t owner = open.front();
      for (const std::size_t i : open) {
        const Span& s = spans[i];
        const Span& o = spans[owner];
        if (s.start > o.start || (s.start == o.start && s.end < o.end)) {
          owner = i;
        }
      }
      self[owner] += hi - lo;
    }
  }
  return self;
}

/// Self time summed per category (the ledger's rows).
inline std::map<std::string, double> selfTimeByCategory(
    const std::vector<Span>& spans) {
  const std::vector<double> self = selfTimes(spans);
  std::map<std::string, double> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    rows[spans[i].category] += self[i];
  }
  return rows;
}

}  // namespace perfbench
