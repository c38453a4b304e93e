// Concurrency stress for the shuffle reduce side. The fetch loop used to
// funnel every task's byte accounting through one aggregate mutex; it now
// writes per-destination arrays that only the owning task touches, folded
// sequentially afterwards. These tests hammer that path with many threads
// and awkward partition counts so TSan (and the sum invariants) would catch
// any cross-task write or a fold that loses a destination.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sparkle/sparkle.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::shuffleAll;

using KV = std::pair<std::uint32_t, double>;

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i * 2654435761u, 0.5 * i});
  return v;
}

ClusterConfig stressCfg() {
  ClusterConfig cfg;
  cfg.numNodes = 7;  // awkward node count: remote/local split is irregular
  cfg.coresPerNode = 4;
  return cfg;
}

void checkStageInvariants(Context& ctx, std::uint64_t expectedRecords) {
  std::uint64_t shuffleStages = 0;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.kind != StageKind::kShuffle) continue;
    ++shuffleStages;
    EXPECT_EQ(s.shuffleRecords, expectedRecords);
    // Per-task attribution tiles the stage totals exactly: any lost or
    // doubled update in the parallel fetch breaks this equality.
    std::uint64_t taskBytes = 0;
    std::uint64_t taskRecords = 0;
    for (const auto& t : s.tasks) {
      taskBytes += t.shuffleBytesOut;
      taskRecords += t.work.recordsEmitted;
    }
    EXPECT_EQ(taskBytes, s.shuffleBytesRemote + s.shuffleBytesLocal);
    EXPECT_EQ(taskRecords, expectedRecords);
  }
  EXPECT_GT(shuffleStages, 0u);
}

// Wide fan-in/fan-out with 8 pool threads: 37 map tasks each feeding 61
// reduce tasks, repeated.
TEST(ShuffleStress, ManyThreadsAwkwardPartitionCounts) {
  Context ctx(stressCfg(), 8);
  const std::uint32_t n = 20000;
  auto source = parallelize(ctx, makeData(n), 37);
  for (int round = 0; round < 4; ++round) {
    shuffleAll(source, ctx.hashPartitioner(61)).materialize();
  }
  checkStageInvariants(ctx, n);
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.shuffleRecords, std::uint64_t{n} * 4);
}

// Repeated concurrent shuffles through one shared BufferPool: exercises the
// acquire/release paths from many tasks at once.
TEST(ShuffleStress, RepeatedShufflesThroughSharedPool) {
  Context ctx(stressCfg(), 8);
  const std::uint32_t n = 8000;
  auto source = parallelize(ctx, makeData(n), 16);
  for (int round = 0; round < 8; ++round) {
    auto rdd = shuffleAll(source, ctx.hashPartitioner(16));
    rdd.materialize();
    EXPECT_EQ(rdd.count(), n);
  }
  checkStageInvariants(ctx, n);
  const auto ps = ctx.bufferPool().stats();
  EXPECT_GT(ps.hits, 0u);
}

}  // namespace
}  // namespace cstf::sparkle
