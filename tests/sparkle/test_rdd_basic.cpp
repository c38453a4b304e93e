#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "sparkle/sparkle.hpp"

namespace cstf::sparkle {
namespace {

ClusterConfig smallCluster() {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return cfg;
}

std::vector<int> iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(RddBasic, ParallelizeCollectRoundTrips) {
  Context ctx(smallCluster(), 2);
  auto rdd = parallelize(ctx, iota(100), 8);
  auto out = rdd.collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, iota(100));
}

TEST(RddBasic, ParallelizePreservesOrderAcrossPartitions) {
  Context ctx(smallCluster(), 2);
  // collect() concatenates partitions in order; parallelize slices in
  // order, so the round trip is exactly the input.
  auto out = parallelize(ctx, iota(37), 5).collect();
  EXPECT_EQ(out, iota(37));
}

TEST(RddBasic, CountMatchesSize) {
  Context ctx(smallCluster(), 2);
  EXPECT_EQ(parallelize(ctx, iota(1234), 7).count(), 1234u);
}

TEST(RddBasic, EmptyInput) {
  Context ctx(smallCluster(), 2);
  auto rdd = parallelize(ctx, std::vector<int>{}, 4);
  EXPECT_EQ(rdd.count(), 0u);
  EXPECT_TRUE(rdd.collect().empty());
}

TEST(RddBasic, MapTransformsEveryElement) {
  Context ctx(smallCluster(), 2);
  auto out = parallelize(ctx, iota(50), 4)
                 .map([](const int& x) { return x * 2; })
                 .collect();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST(RddBasic, MapChangesType) {
  Context ctx(smallCluster(), 2);
  auto out = parallelize(ctx, iota(5), 2)
                 .map([](const int& x) { return x * 0.5; })
                 .collect();
  EXPECT_EQ(out[3], 1.5);
}

TEST(RddBasic, MapPartitionsSeesWholePartition) {
  Context ctx(smallCluster(), 2);
  auto out = parallelize(ctx, iota(100), 4)
                 .mapPartitionsWithCounters(
                     [](std::size_t, const std::vector<int>& part,
                        TaskCounters&) {
                       return std::vector<std::size_t>{part.size()};
                     })
                 .collect();
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}), 100u);
}

TEST(RddBasic, GenerateProducesOnDemand) {
  Context ctx(smallCluster(), 2);
  auto rdd = generate(ctx, 1000,
                      [](std::size_t i) { return static_cast<int>(i * i); },
                      16);
  auto out = rdd.collect();
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_EQ(out[31], 31 * 31);
}

TEST(RddBasic, ChainedTransformsPipeline) {
  Context ctx(smallCluster(), 2);
  auto out = parallelize(ctx, iota(1000), 8)
                 .map([](const int& x) { return x + 1; })
                 .map([](const int& x) { return x * 3; })
                 .map([](const int& x) { return x / 2; })
                 .collect();
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_EQ(out[999], 1500);
  // No shuffle anywhere in this chain.
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 0u);
}

TEST(RddBasic, DefaultParallelismScalesWithNodes) {
  ClusterConfig cfg;
  cfg.numNodes = 32;
  Context ctx(cfg, 2);
  EXPECT_GE(ctx.defaultParallelism(), 64u);
}

}  // namespace
}  // namespace cstf::sparkle
