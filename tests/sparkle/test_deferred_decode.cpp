// A ShuffledDataset keeps its fetched buckets encoded and decodes a
// destination partition in the task that reads it. Every read must see the
// same records in the same order, retries must not change them, and the
// buckets must all return to the BufferPool with the dataset.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sparkle/sparkle.hpp"

namespace cstf::sparkle {
namespace {

using KV = std::pair<std::uint32_t, double>;

ClusterConfig cluster(double taskFailureRate) {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  cfg.taskFailureRate = taskFailureRate;
  return cfg;
}

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  for (std::uint32_t i = 0; i < n; ++i) {
    v.push_back({(i * 2654435761u) % 997, 0.5 * i});
  }
  return v;
}

/// One bare ShuffledDataset (no reduce-side merge), so collect() returns
/// the decoded records exactly in partition and map-partition order.
Rdd<KV> shuffled(Context& ctx, std::size_t records) {
  auto source = parallelize(ctx, makeData(records), 8);
  auto ds = std::make_shared<ShuffledDataset<std::uint32_t, double>>(
      &ctx, source.dataset(), ctx.hashPartitioner(6), "deferred",
      ctx.metrics().nextShuffleOpId());
  return Rdd<KV>(&ctx, std::move(ds));
}

TEST(DeferredDecode, TwoActionsReadEqualRecordsInEqualOrder) {
  Context ctx(cluster(0.0), 3);
  const Rdd<KV> rdd = shuffled(ctx, 5000);
  const std::vector<KV> first = rdd.collect();
  const std::size_t stagesAfterFirst = ctx.metrics().stageCount();
  const std::vector<KV> second = rdd.collect();
  ASSERT_EQ(first.size(), 5000u);
  EXPECT_EQ(first, second);
  // The second action decodes again but does not shuffle again: one more
  // stage, the result stage.
  EXPECT_EQ(ctx.metrics().stageCount(), stagesAfterFirst + 1);
  EXPECT_EQ(rdd.count(), 5000u);
}

TEST(DeferredDecode, RetriedTasksReadWhatAFaultFreeRunReads) {
  std::vector<KV> clean;
  {
    Context ctx(cluster(0.0), 3);
    clean = shuffled(ctx, 5000).collect();
  }
  Context ctx(cluster(0.4), 3);
  const std::vector<KV> faulty = shuffled(ctx, 5000).collect();
  EXPECT_GT(ctx.metrics().taskRetries(), 0u);
  EXPECT_EQ(faulty, clean);
}

TEST(DeferredDecode, BucketsReturnToThePoolWithTheDataset) {
  for (const double rate : {0.0, 0.4}) {
    Context ctx(cluster(rate), 3);
    {
      const Rdd<KV> rdd = shuffled(ctx, 5000);
      rdd.materialize();
      rdd.collect();
      const auto held = ctx.bufferPool().stats();
      // The fetched buckets are still held, encoded, by the dataset.
      EXPECT_LT(held.releases, held.acquires) << "rate " << rate;
    }
    const auto after = ctx.bufferPool().stats();
    EXPECT_GT(after.acquires, 0u) << "rate " << rate;
    EXPECT_EQ(after.releases, after.acquires) << "rate " << rate;
  }
}

}  // namespace
}  // namespace cstf::sparkle
