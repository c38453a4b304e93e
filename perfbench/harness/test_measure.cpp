// Unit tests of the harness's measurement helpers: self-time subtraction
// over nested and overlapping spans, and the tail-percentile rule.
#include <gtest/gtest.h>

#include <numeric>

#include "measure.hpp"

namespace perfbench {
namespace {

Span span(const char* name, const char* cat, double start, double end,
          std::uint32_t tid = 0) {
  return Span{name, cat, tid, start, end};
}

TEST(SelfTime, NestedChildIsSubtractedFromParent) {
  // The stage-nesting case: a result stage whose lazy shuffle runs inside it.
  const std::vector<Span> spans = {
      span("result:local-mttkrp-result", "result", 0.0, 15.0),
      span("shuffle:local-reduceByKey", "shuffle", 1.0, 13.5),
  };
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.5);
  EXPECT_DOUBLE_EQ(self[1], 12.5);
}

TEST(SelfTime, DeepNestingSumsToRootDuration) {
  const std::vector<Span> spans = {
      span("iteration-2", "iteration", 0.0, 100.0),
      span("MTTKRP-1", "driver", 5.0, 60.0),
      span("result:a", "result", 10.0, 50.0),
      span("shuffle:b", "shuffle", 20.0, 30.0),
      span("MTTKRP-2", "driver", 60.0, 95.0),
  };
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0);  // 0-5 and 95-100
  EXPECT_DOUBLE_EQ(self[1], 15.0);  // 5-10 and 50-60
  EXPECT_DOUBLE_EQ(self[2], 30.0);  // 10-20 and 30-50
  EXPECT_DOUBLE_EQ(self[3], 10.0);
  EXPECT_DOUBLE_EQ(self[4], 35.0);
  EXPECT_DOUBLE_EQ(std::accumulate(self.begin(), self.end(), 0.0), 100.0);
}

TEST(SelfTime, OverlappingSiblingsSplitTheSharedInterval) {
  // b and c overlap without nesting; the later-started span owns the
  // overlap, so nothing is counted twice.
  const std::vector<Span> spans = {
      span("a", "x", 0.0, 10.0),
      span("b", "y", 2.0, 6.0),
      span("c", "z", 4.0, 8.0),
  };
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], 10.0);
}

TEST(SelfTime, IdenticalIntervalsCountOnce) {
  const std::vector<Span> spans = {
      span("outer", "x", 0.0, 4.0),
      span("inner", "y", 0.0, 4.0),
  };
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0] + self[1], 4.0);
}

TEST(SelfTime, ThreadsAreIndependentAndGapsAreUnattributed) {
  const std::vector<Span> spans = {
      span("a", "x", 0.0, 3.0, 0),
      span("b", "x", 5.0, 6.0, 0),
      span("t", "x", 1.0, 4.0, 1),
  };
  const auto rows = selfTimeByCategory(spans);
  EXPECT_DOUBLE_EQ(rows.at("x"), 7.0);
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, PicksHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond its rank.
  Tail t = tailPercentile(iota(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990.0);
  // 999 samples: p99 leaves 9, so p95 (49 beyond) is the tail.
  t = tailPercentile(iota(999));
  EXPECT_EQ(t.pct, 95.0);
  EXPECT_EQ(t.beyond, 49u);
  // 76 samples (a train run): p90 leaves 7, p75 leaves 19.
  t = tailPercentile(iota(76));
  EXPECT_EQ(t.pct, 75.0);
  EXPECT_EQ(t.beyond, 19u);
  EXPECT_EQ(t.value, 57.0);
  EXPECT_EQ(t.samples, 76u);
}

TEST(TailPercentile, SmallSamplesFallBackToMedian) {
  const Tail t = tailPercentile(iota(12));
  EXPECT_EQ(t.pct, 50.0);
  EXPECT_EQ(t.value, 6.0);
  EXPECT_EQ(t.beyond, 6u);
  EXPECT_EQ(tailPercentile({}).samples, 0u);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

}  // namespace
}  // namespace perfbench
