// cogroup / leftOuterJoin / combineByKey / distinct / zipWithIndex.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sparkle/sparkle.hpp"

namespace cstf::sparkle {
namespace {

using KV = std::pair<std::uint32_t, double>;

Context makeCtx(int nodes = 4) {
  ClusterConfig cfg;
  cfg.numNodes = nodes;
  cfg.coresPerNode = 2;
  return Context(cfg, 2);
}

TEST(CoGroup, GroupsBothSidesCompletely) {
  auto ctx = makeCtx();
  std::vector<KV> left{{1, 1.0}, {1, 2.0}, {2, 3.0}};
  std::vector<std::pair<std::uint32_t, int>> right{{1, 10}, {3, 30}};
  auto out = parallelize(ctx, left, 2)
                 .cogroup(parallelize(ctx, right, 2))
                 .collect();
  std::map<std::uint32_t, std::pair<std::vector<double>, std::vector<int>>> m;
  for (auto& [k, g] : out) m[k] = g;
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[1].first.size(), 2u);
  EXPECT_EQ(m[1].second.size(), 1u);
  EXPECT_EQ(m[2].first.size(), 1u);
  EXPECT_TRUE(m[2].second.empty());
  EXPECT_TRUE(m[3].first.empty());
  EXPECT_EQ(m[3].second.size(), 1u);
}

TEST(CoGroup, IsOneShuffleOp) {
  auto ctx = makeCtx();
  std::vector<KV> left{{1, 1.0}};
  std::vector<KV> right{{1, 2.0}};
  parallelize(ctx, left, 2)
      .cogroup(parallelize(ctx, right, 2))
      .materialize();
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 1u);
}

TEST(LeftOuterJoin, KeepsUnmatchedLeft) {
  auto ctx = makeCtx();
  std::vector<KV> left{{1, 1.0}, {2, 2.0}};
  std::vector<std::pair<std::uint32_t, int>> right{{1, 10}, {1, 11}};
  auto out = parallelize(ctx, left, 2)
                 .leftOuterJoin(parallelize(ctx, right, 2))
                 .collect();
  ASSERT_EQ(out.size(), 3u);  // key 1 twice, key 2 once
  int unmatched = 0;
  for (const auto& [k, vw] : out) {
    if (!vw.second.has_value()) {
      ++unmatched;
      EXPECT_EQ(k, 2u);
    }
  }
  EXPECT_EQ(unmatched, 1);
}

TEST(CombineByKey, ComputesPerKeyAverage) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t k = 0; k < 5; ++k) {
    for (int i = 1; i <= int(k) + 1; ++i) data.push_back({k, double(i)});
  }
  using SumCount = std::pair<double, std::uint32_t>;
  auto out =
      parallelize(ctx, data, 4)
          .combineByKey(
              [](const double& v) { return SumCount{v, 1}; },
              [](const SumCount& c, const double& v) {
                return SumCount{c.first + v, c.second + 1};
              },
              [](const SumCount& a, const SumCount& b) {
                return SumCount{a.first + b.first, a.second + b.second};
              })
          .collect();
  ASSERT_EQ(out.size(), 5u);
  for (const auto& [k, sc] : out) {
    const double n = k + 1;
    EXPECT_DOUBLE_EQ(sc.first, n * (n + 1) / 2.0) << "key " << k;
    EXPECT_EQ(sc.second, k + 1) << "key " << k;
  }
}

TEST(CombineByKey, MapSideCombineOnOffAgree) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t i = 0; i < 300; ++i) data.push_back({i % 7, 1.0});
  auto run = [&](bool combine) {
    auto out = parallelize(ctx, data, 4)
                   .combineByKey(
                       [](const double& v) { return v; },
                       [](const double& c, const double& v) { return c + v; },
                       [](const double& a, const double& b) { return a + b; },
                       nullptr, combine)
                   .collect();
    return std::map<std::uint32_t, double>(out.begin(), out.end());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(CombineByKey, MapSideCombineShrinksShuffle) {
  std::vector<KV> data;
  for (std::uint32_t i = 0; i < 1000; ++i) data.push_back({i % 4, 1.0});
  auto measure = [&](bool combine) {
    auto ctx = makeCtx();
    parallelize(ctx, data, 4)
        .combineByKey(
            [](const double& v) { return v; },
            [](const double& c, const double& v) { return c + v; },
            [](const double& a, const double& b) { return a + b; }, nullptr,
            combine)
        .materialize();
    return ctx.metrics().totals().shuffleRecords;
  };
  EXPECT_LT(measure(true), measure(false));
  EXPECT_EQ(measure(false), 1000u);
}

TEST(Distinct, RemovesDuplicates) {
  auto ctx = makeCtx();
  std::vector<std::uint32_t> data{1, 2, 2, 3, 3, 3, 4};
  auto out = parallelize(ctx, data, 3).distinct().collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(ZipWithIndex, AssignsDenseUniqueIds) {
  auto ctx = makeCtx();
  std::vector<std::uint32_t> data(257);
  for (std::uint32_t i = 0; i < 257; ++i) data[i] = i * 2;
  auto out = parallelize(ctx, data, 7).zipWithIndex().collect();
  ASSERT_EQ(out.size(), 257u);
  std::set<std::uint64_t> ids;
  for (const auto& [idx, v] : out) ids.insert(idx);
  EXPECT_EQ(ids.size(), 257u);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), 256u);
  // parallelize + collect preserve order, so index == position.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, i);
    EXPECT_EQ(out[i].second, data[i]);
  }
}

}  // namespace
}  // namespace cstf::sparkle
