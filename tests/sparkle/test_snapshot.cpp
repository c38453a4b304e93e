// Rdd::snapshot(): lineage detachment (the engine's ContextCleaner stand-in
// that keeps QCOO's iterative lineage from retaining history).
#include <gtest/gtest.h>

#include <atomic>

#include "sparkle/sparkle.hpp"
#include "support/join_pairs.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::joinPairs;
using testsupport::shuffleAll;

Context makeCtx() {
  ClusterConfig cfg;
  cfg.numNodes = 2;
  cfg.coresPerNode = 2;
  return Context(cfg, 2);
}

TEST(Snapshot, PreservesContents) {
  auto ctx = makeCtx();
  std::vector<int> data{5, 4, 3, 2, 1};
  auto rdd = parallelize(ctx, data, 3).map([](const int& x) { return x * 2; });
  auto snap = rdd.snapshot();
  EXPECT_EQ(snap.collect(), rdd.collect());
  EXPECT_EQ(snap.numPartitions(), rdd.numPartitions());
}

TEST(Snapshot, DoesNotRecomputeUpstream) {
  auto ctx = makeCtx();
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 60,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      3);
  auto snap = rdd.snapshot();  // computes once
  const int afterSnapshot = counter->load();
  EXPECT_EQ(afterSnapshot, 60);
  snap.count();
  snap.count();
  snap.collect();
  EXPECT_EQ(counter->load(), afterSnapshot) << "snapshot must hold blocks";
}

TEST(Snapshot, KeepsPartitioningMetadata) {
  auto ctx = makeCtx();
  std::vector<std::pair<std::uint32_t, int>> data{{1, 1}, {2, 2}, {3, 3}};
  auto part = ctx.hashPartitioner(4);
  auto rdd = shuffleAll(parallelize(ctx, data, 2), part);
  rdd.materialize();
  auto snap = rdd.snapshot();
  EXPECT_EQ(snap.partitioning(), part);

  // Joining against the snapshot on the same partitioner skips its shuffle.
  ctx.metrics().reset();
  joinPairs(snap, parallelize(ctx, data, 2), part).materialize();
  std::size_t shuffleStages = 0;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.kind == StageKind::kShuffle) ++shuffleStages;
  }
  EXPECT_EQ(shuffleStages, 1u);  // only the non-snapshot side moved
}

TEST(Snapshot, RecordsNoStages) {
  auto ctx = makeCtx();
  auto rdd = parallelize(ctx, std::vector<int>{1, 2, 3}, 2);
  rdd.materialize();
  const auto before = ctx.metrics().stages().size();
  auto snap = rdd.snapshot();
  EXPECT_EQ(ctx.metrics().stages().size(), before)
      << "snapshot is driver bookkeeping, not cluster work";
}

TEST(Snapshot, SnapshotOfSnapshotIsStable) {
  auto ctx = makeCtx();
  auto rdd = parallelize(ctx, std::vector<int>{7, 8, 9}, 2);
  auto s1 = rdd.snapshot();
  auto s2 = s1.snapshot();
  EXPECT_EQ(s2.collect(), (std::vector<int>{7, 8, 9}));
}

}  // namespace
}  // namespace cstf::sparkle
