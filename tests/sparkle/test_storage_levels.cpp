// Raw vs serialized caching (paper §4.1: "Serialized formats ... take up
// less space [but] more CPU cycles are needed"; CSTF caches raw).
#include <gtest/gtest.h>

#include <atomic>

#include "sparkle/sparkle.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::shuffleAll;

Context makeCtx() {
  ClusterConfig cfg;
  cfg.numNodes = 2;
  cfg.coresPerNode = 2;
  return Context(cfg, 2);
}

using KV = std::pair<std::uint32_t, double>;

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i, double(i)});
  return v;
}

TEST(StorageLevels, SerializedCacheAvoidsRecomputation) {
  auto ctx = makeCtx();
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 100,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      4);
  rdd.cache(StorageLevel::kSerialized);
  rdd.count();
  rdd.count();
  rdd.count();
  EXPECT_EQ(counter->load(), 100);
}

TEST(StorageLevels, SerializedCacheRoundTripsValues) {
  auto ctx = makeCtx();
  auto rdd = parallelize(ctx, makeData(500), 4);
  rdd.cache(StorageLevel::kSerialized);
  rdd.materialize();
  auto out = rdd.collect();
  ASSERT_EQ(out.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(out[i].first, i);
    EXPECT_DOUBLE_EQ(out[i].second, double(i));
  }
}

TEST(StorageLevels, SerializedReadsAreMeteredRawAreNot) {
  auto ctx = makeCtx();
  auto raw = parallelize(ctx, makeData(300), 4);
  raw.cache(StorageLevel::kRaw);
  raw.materialize();
  ctx.metrics().reset();
  raw.count();
  const auto rawTotals = ctx.metrics().totals();

  auto ser = parallelize(ctx, makeData(300), 4);
  ser.cache(StorageLevel::kSerialized);
  ser.materialize();
  ctx.metrics().reset();
  ser.count();
  const auto serTotals = ctx.metrics().totals();

  // Serialized cache hits pay decode time, so the result stage costs more.
  EXPECT_GT(serTotals.simTimeSec, rawTotals.simTimeSec);
}

TEST(StorageLevels, RawReportsLargerMemoryFootprint) {
  auto ctx = makeCtx();
  auto raw = parallelize(ctx, makeData(400), 4);
  raw.cache(StorageLevel::kRaw);
  raw.materialize();

  auto ser = parallelize(ctx, makeData(400), 4);
  ser.cache(StorageLevel::kSerialized);
  ser.materialize();

  EXPECT_GT(raw.cachedMemoryBytes(), 0u);
  EXPECT_GT(ser.cachedMemoryBytes(), 0u);
  const double ratio = double(raw.cachedMemoryBytes()) /
                       double(ser.cachedMemoryBytes());
  EXPECT_NEAR(ratio, ctx.config().rawCacheExpansionFactor, 1e-9);
}

TEST(StorageLevels, UnpersistDropsBothStores) {
  auto ctx = makeCtx();
  auto rdd = parallelize(ctx, makeData(100), 2);
  rdd.cache(StorageLevel::kSerialized);
  rdd.materialize();
  EXPECT_GT(rdd.cachedMemoryBytes(), 0u);
  rdd.unpersist();
  EXPECT_EQ(rdd.cachedMemoryBytes(), 0u);
  EXPECT_EQ(rdd.storageLevel(), StorageLevel::kNone);
}

TEST(StorageLevels, StorageLevelAccessorsReflectChoice) {
  auto ctx = makeCtx();
  auto rdd = parallelize(ctx, makeData(10), 2);
  EXPECT_EQ(rdd.storageLevel(), StorageLevel::kNone);
  rdd.cache();
  EXPECT_EQ(rdd.storageLevel(), StorageLevel::kRaw);
  rdd.unpersist();
  rdd.cache(StorageLevel::kSerialized);
  EXPECT_EQ(rdd.storageLevel(), StorageLevel::kSerialized);
}

TEST(StorageLevels, SerializedCachedShuffleOutputStillOneShuffle) {
  auto ctx = makeCtx();
  auto rdd = shuffleAll(parallelize(ctx, makeData(200), 4),
                        ctx.hashPartitioner(4));
  rdd.cache(StorageLevel::kSerialized);
  rdd.count();
  rdd.count();
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 1u);
}

}  // namespace
}  // namespace cstf::sparkle
