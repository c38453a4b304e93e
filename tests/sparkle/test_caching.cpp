#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sparkle/sparkle.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::shuffleAll;

ClusterConfig sparkCfg() {
  ClusterConfig cfg;
  cfg.numNodes = 2;
  cfg.coresPerNode = 2;
  return cfg;
}

TEST(Caching, UncachedLineageRecomputes) {
  Context ctx(sparkCfg(), 2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 100,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      4);
  rdd.count();
  rdd.count();
  EXPECT_EQ(counter->load(), 200);
}

TEST(Caching, CachedLineageComputesOnce) {
  Context ctx(sparkCfg(), 2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 100,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      4);
  rdd.cache();
  rdd.count();
  rdd.count();
  rdd.collect();
  EXPECT_EQ(counter->load(), 100);
}

TEST(Caching, UnpersistResumesRecomputation) {
  Context ctx(sparkCfg(), 2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 50,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      2);
  rdd.cache();
  rdd.count();
  EXPECT_EQ(counter->load(), 50);
  rdd.unpersist();
  rdd.count();
  EXPECT_EQ(counter->load(), 100);
}

TEST(Caching, CacheTruncatesLineageForDownstream) {
  Context ctx(sparkCfg(), 2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto base = generate(ctx, 100,
                       [counter](std::size_t i) {
                         counter->fetch_add(1);
                         return static_cast<int>(i);
                       },
                       4);
  auto mapped = base.map([](const int& x) { return x * 2; });
  mapped.cache();
  mapped.count();
  // Two different downstream pipelines over the cached dataset:
  mapped.map([](const int& x) { return x + 1; }).count();
  mapped.map([](const int& x) { return x - 1; }).count();
  EXPECT_EQ(counter->load(), 100);  // the source ran once
}

TEST(Caching, SourceReadMeteredOncePerComputation) {
  Context ctx(sparkCfg(), 2);
  std::vector<int> data(100, 7);
  auto rdd = parallelize(ctx, data, 4);
  rdd.count();
  const auto once = ctx.metrics().totals().recordsProcessed;
  ctx.metrics().reset();
  rdd.count();
  rdd.count();
  EXPECT_EQ(ctx.metrics().totals().recordsProcessed, 2 * once);

  ctx.metrics().reset();
  rdd.cache();
  rdd.count();  // computes and caches
  rdd.count();  // served from cache: no source read
  EXPECT_EQ(ctx.metrics().totals().recordsProcessed, once);
}

TEST(Caching, HadoopModeIgnoresCache) {
  ClusterConfig cfg = sparkCfg();
  cfg.mode = ExecutionMode::kHadoop;
  Context ctx(cfg, 2);
  EXPECT_FALSE(ctx.cachingEnabled());

  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 60,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      2);
  rdd.cache();  // no-op under Hadoop semantics
  rdd.count();
  rdd.count();
  EXPECT_EQ(counter->load(), 120);
}

TEST(Caching, ShuffleOutputIsImplicitlyReused) {
  Context ctx(sparkCfg(), 2);
  std::vector<std::pair<std::uint32_t, int>> data{{1, 1}, {2, 2}, {3, 3}};
  auto shuffled = shuffleAll(parallelize(ctx, data, 2), ctx.hashPartitioner(4));
  shuffled.count();
  shuffled.count();
  // Spark keeps shuffle blocks; re-reading them is not a second shuffle.
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 1u);
}

TEST(Caching, IsCachedReflectsState) {
  Context ctx(sparkCfg(), 2);
  auto rdd = parallelize(ctx, std::vector<int>{1, 2, 3}, 2);
  EXPECT_FALSE(rdd.isCached());
  rdd.cache();
  EXPECT_TRUE(rdd.isCached());
  rdd.unpersist();
  EXPECT_FALSE(rdd.isCached());
}

}  // namespace
}  // namespace cstf::sparkle
